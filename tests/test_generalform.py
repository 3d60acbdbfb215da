"""Polynomials and rational functions of the base, and the exact general-form
derivation."""
from fractions import Fraction
from hashlib import sha256
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabot import (
    ExcludedBaseError,
    GeneralForm,
    NoFitError,
    PolyInB,
    RationalFnInB,
    base_families,
    build_table,
    closed_form,
    guess_general_form,
    specialize,
)
from rabot.generalform import _derive
from rabot.recurrence import _build

F = Fraction


def poly(*coeffs):
    return PolyInB(tuple(F(c) for c in coeffs))


B = poly(0, 1)
B_MINUS_1 = poly(-1, 1)
TWO_B_MINUS_1 = poly(-1, 2)
B2_MINUS_1 = poly(-1, 0, 1)
B2_PLUS_B_MINUS_1 = poly(-1, 1, 1)


def test_poly_canonical_form():
    assert poly(1, 2, 0, 0).coefficients == (F(1), F(2))
    assert not poly()
    assert not poly(0, 0)
    assert poly(5).degree() == 0
    assert poly(1, 0, 3).degree() == 2


def test_poly_eval_and_arith():
    p = poly(-1, 1, 1)  # b^2 + b - 1
    assert p.eval(2) == 5
    assert p.eval(3) == 11
    assert (poly(1, 1) * poly(-1, 1)).coefficients == (F(-1), F(0), F(1))
    assert (poly(1, 2) + poly(1, -2)).coefficients == (F(2),)
    assert not poly(1, 2) - poly(1, 2)
    # int operands on either side, as the recurrence uses them with b a symbol
    assert p + 1 == 1 + p == poly(0, 1, 1)
    assert p - 1 == poly(-2, 1, 1)
    assert 3 * p == p * 3 == poly(-3, 3, 3)
    assert p * 0 == poly() and sum([p, p]) == p * 2
    assert B**0 == poly(1) and B**3 == poly(0, 0, 0, 1)
    assert (B + 1) ** 2 == poly(1, 2, 1)
    assert poly(0, 1, 1) // 2 == poly(0, F(1, 2), F(1, 2))
    assert (poly(F(1, 2)) * poly(F(1, 3), 1)).coefficients == (F(1, 6), F(1, 2))


def test_poly_pow_rejects_negative_and_non_int_exponents():
    for exponent in (-1, -5, 1.0, F(2)):
        with pytest.raises(ValueError):
            B ** exponent


def test_poly_pow_is_repeated_multiplication_and_needs_no_recursion():
    a = poly(F(1, 3), -2, 1)
    product = poly(1)
    for n in range(30):
        assert a**n == product, n
        product = product * a
    # the exponent is far past the recursion limit, and b**50 is sparse
    step, product = B**50, poly(1)
    for _ in range(100):
        product = product * step
    assert B**5000 == product == PolyInB((0,) * 5000 + (1,))


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_rational_polys = st.lists(_rationals, max_size=5).map(lambda cs: PolyInB(tuple(cs)))


@settings(max_examples=80, deadline=None)
@given(
    _rational_polys,
    _rational_polys,
    st.integers(-20, 20),
    st.integers(-30, 30).filter(bool),
    st.integers(0, 3),
)
def test_poly_storage_is_canonical_and_eval_is_a_ring_map(a, b, x, n, e):
    for q in (a, b, a + b, a - b, a * b, a**e, a // n):
        assert q.denominator > 0
        assert gcd(q.denominator, *q.numerators) == 1
        assert not q.numerators or q.numerators[-1] != 0
        assert all(type(c) is int for c in q.numerators)
        assert PolyInB(q.coefficients) == q
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)
    assert (a - b).eval(x) == a.eval(x) - b.eval(x)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)
    assert (a**e).eval(x) == a.eval(x) ** e
    assert (a // n).eval(x) == a.eval(x) / n
    with pytest.raises(ZeroDivisionError):
        a // 0


def test_poly_render():
    assert B2_PLUS_B_MINUS_1.render() == "b^2 + b - 1"
    assert TWO_B_MINUS_1.render() == "2*b - 1"
    assert poly(1, -1).render() == "-b + 1"
    assert poly(0).render() == "0"
    assert poly(F(1, 6)).render() == "(1/6)"


def test_rational_fn_reduces_to_lowest_terms():
    # (b^2 - 1)/(b - 1) == b + 1
    fn = RationalFnInB(B2_MINUS_1, B_MINUS_1)
    assert fn == RationalFnInB(poly(1, 1))
    # common content and sign normalize away: (2b + 2)/(2b - 2) == (b + 1)/(b - 1)
    assert RationalFnInB(poly(2, 2), poly(-2, 2)) == RationalFnInB(
        poly(1, 1), poly(-1, 1)
    )
    assert RationalFnInB(poly(1, 1), poly(1, -1)) == RationalFnInB(
        poly(-1, -1), poly(-1, 1)
    )


def test_rational_fn_is_a_coprime_integer_pair():
    fn = RationalFnInB(poly(1), poly(0, 2))  # 1/(2b)
    assert fn.denominator == poly(0, 2)
    assert fn.numerator == poly(1)
    assert fn.eval(4) == F(1, 8)
    # rational inputs are cleared by one common denominator: (1/2)/(b/3) == 3/(2b)
    fn = RationalFnInB(poly(F(1, 2)), poly(0, F(1, 3)))
    assert (fn.numerator, fn.denominator) == (poly(3), poly(0, 2))
    # the contents are coprime too: (4b + 6)/(6b) == (2b + 3)/(3b)
    fn = RationalFnInB(poly(6, 4), poly(0, 6))
    assert (fn.numerator, fn.denominator) == (poly(3, 2), poly(0, 3))


_small_polys = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=4
).map(lambda cs: PolyInB(tuple(cs))).filter(bool)


@settings(max_examples=60, deadline=None)
@given(_small_polys, _small_polys, _small_polys)
def test_rational_fn_reduction_in_z_b(a, b, c):
    fn = RationalFnInB(a, b)
    assert RationalFnInB(a * c, b * c) == fn
    assert RationalFnInB(fn.numerator, fn.denominator) == fn
    num, den = fn.numerator.coefficients, fn.denominator.coefficients
    assert all(x.denominator == 1 for x in num + den)
    assert den[-1] > 0
    for x in range(-6, 7):
        if b.eval(x) != 0:
            assert fn.eval(x) == a.eval(x) / b.eval(x), x


def test_rational_fn_zero_and_errors():
    assert not RationalFnInB(poly())
    assert RationalFnInB(poly(0, 1), poly(3, 1))
    assert RationalFnInB(poly(), poly(3, 1)) == RationalFnInB(poly())
    with pytest.raises(ZeroDivisionError):
        RationalFnInB(poly(1), poly())


def test_general_form_without_terms_renders_zero():
    assert GeneralForm(2, ()).render() == "0"


def test_rational_fn_render():
    assert RationalFnInB(poly(0, -1, 1), TWO_B_MINUS_1).render() == "(b^2 - b)/(2*b - 1)"
    assert RationalFnInB(poly(F(1, 2), F(-1, 2))).render() == "(-b + 1)/2"
    big = RationalFnInB(
        poly(F(-1, 3), F(-1, 2), F(1, 2), F(1, 3)), B2_PLUS_B_MINUS_1
    )
    assert big.render() == "(2*b^3 + 3*b^2 - 3*b - 2)/(6*(b^2 + b - 1))"
    assert RationalFnInB(poly(7)).render() == "7"


def test_base_families():
    assert base_families(1) == [B, TWO_B_MINUS_1]
    assert base_families(2) == [B_MINUS_1, B, TWO_B_MINUS_1, B2_PLUS_B_MINUS_1]
    fams3 = base_families(3)
    assert B2_MINUS_1 in fams3
    assert poly(-1, 0, 0, 1) not in fams3  # b^3 - 1 is not an eigenvalue at p = 3
    assert poly(-1, 1, 0, 1) in fams3  # b^3 + b - 1
    with pytest.raises(ValueError):
        base_families(0)


def test_guess_first_moment_coefficients():
    g = guess_general_form(1, range(2, 9))
    assert g.excluded_bases() == frozenset()
    got = {fam: fn for fn, fam in g.terms}
    assert set(got) == {B, TWO_B_MINUS_1}
    assert got[TWO_B_MINUS_1] == RationalFnInB(poly(0, -1, 1), TWO_B_MINUS_1)
    assert got[B] == RationalFnInB(poly(F(1, 2), F(-1, 2)))


def test_guess_second_moment_matches_displayed_conjecture():
    g = guess_general_form(2, range(2, 13))
    got = {fam: fn for fn, fam in g.terms}
    expected = {
        B_MINUS_1: RationalFnInB(poly(F(-1, 3), F(-1, 6), F(1, 6))),
        B: RationalFnInB(poly(F(-1, 6), F(1, 3), F(-1, 6))),
        TWO_B_MINUS_1: RationalFnInB(poly(0, 1, -1), TWO_B_MINUS_1),
        B2_PLUS_B_MINUS_1: RationalFnInB(
            poly(F(-1, 3), F(-1, 2), F(1, 2), F(1, 3)), B2_PLUS_B_MINUS_1
        ),
    }
    assert got == expected
    # b^2 - 1 is not an eigenvalue of the p = 2 moment state
    assert B2_MINUS_1 not in got


def test_guess_does_not_depend_on_the_checked_range():
    assert guess_general_form(2, range(5, 8)) == guess_general_form(2, range(2, 13))
    assert guess_general_form(1, [3]) == guess_general_form(1, range(2, 9))


def test_guess_third_and_fourth_moments_over_default_range():
    # the third moment is the form the old fit found over b = 2..16
    assert guess_general_form(3, range(2, 13)) == guess_general_form(3, range(2, 17))
    g = guess_general_form(4, range(2, 13))
    assert len(g.terms) == len(base_families(4)) == 8
    assert g.excluded_bases() == {2}
    for b in range(3, 13):
        assert specialize(g, b).terms == closed_form(b, 4)[0].terms, b


def test_guess_third_moment():
    """At b = 2 the proven form needs a k*3^k term, because 2b - 1 and
    b^2 - 1 collide there; the derived coefficients have a pole at b = 2,
    so the general form excludes that base and holds at every other."""
    g = guess_general_form(3, range(2, 17))
    assert len(g.terms) == 6
    for b in (3, 4, 5, 6):
        proven, verdict = closed_form(b, 3)
        assert verdict.status == "proven"
        assert specialize(g, b).terms == proven.terms, b
    # two coefficient denominators vanish at b = 2: the uniform expression
    # really is invalid exactly where the k*3^k term lives
    with pytest.raises(ExcludedBaseError):
        specialize(g, 2)
    got = {fam: fn for fn, fam in g.terms}
    assert got[TWO_B_MINUS_1] == RationalFnInB(
        poly(0, 1, -2, 1), poly(2, -5, 2)
    )
    # golden: `rabot general-form --power 3`, line 1
    assert g.render() == (
        "((-b^2 + b + 2)/4)*(b - 1)^k"
        " + ((b^2 - b)/4)*(b)^k"
        " + ((b^3 - 2*b^2 + b)/(2*b^2 - 5*b + 2))*(2*b - 1)^k"
        " + ((-b^4 + 2*b^2)/(4*(b^3 - 3*b^2 + 3*b - 2)))*(b^2 - 1)^k"
        " + ((-2*b^3 - 3*b^2 + 3*b + 2)/(4*(b^2 + b - 1)))*(b^2 + b - 1)^k"
        " + ((b^6 + 2*b^4 - 2*b^3 + b^2 - 2*b)/(4*(b^5 - b^4 + 2*b^3 - 2*b^2 + 2*b - 1)))*(b^3 + b - 1)^k"
    )


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_symbolic_table_matches_integer_tables(p):
    # the recurrence run with b as a symbol specializes to the integer
    # recurrence at every base, small, far out and huge
    depth = 2 * p + 1
    symbolic = _build(B, p, depth)
    for b in (2, 3, 10, 97, 10**6):
        table = build_table(b, p, depth)
        for k in range(1, depth + 1):
            # the state order: by j + q, then by q
            states = [(d - q, q) for d in range(p + 1) for q in range(d + 1)]
            assert len(symbolic.moments[k]) == len(table.moments[k]) == len(states)
            for s, (j, q) in enumerate(states):
                assert symbolic.moments[k][s].eval(b) == table.moments[k][s], (b, k, q, j)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8])
def test_excluded_bases_are_the_poles(p):
    g = guess_general_form(p, [3])
    poles = set()
    for b in range(2, 41):
        try:
            specialize(g, b)
        except ExcludedBaseError:
            poles.add(b)
    assert g.excluded_bases() == poles
    assert poles == (set() if p <= 2 else {2})


def test_excluded_bases_evaluate_only_divisors_of_the_lowest_coefficient(monkeypatch):
    g = guess_general_form(4, [3])
    evaluated = []
    real = PolyInB.eval

    def recording(self, b):
        evaluated.append((self, b))
        return real(self, b)

    monkeypatch.setattr(PolyInB, "eval", recording)
    assert g.excluded_bases() == {2}
    assert evaluated
    for den, b in evaluated:
        low = next(c for c in den.numerators if c)
        assert b >= 2 and low % b == 0, (den.render(), b)


def _scan_to_cauchy_bound(den):
    """The integer roots b >= 2 of den, found by evaluating every b up to its
    Cauchy root bound 1 + max|a_i| / |a_n|."""
    nums = den.numerators
    bound = 1 + max(abs(c) for c in nums) // abs(nums[-1])
    return {b for b in range(2, bound + 1) if not den.eval(b)}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-4, 7), max_size=3),  # planted integer roots
    st.integers(1, 12),  # content
    st.integers(0, 3),  # power of b
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(lambda cs: cs[-1]),
)
def test_excluded_bases_match_a_scan_to_the_cauchy_bound(roots, content, m, cofactor):
    den = PolyInB((content,)) * B**m * PolyInB(tuple(cofactor))
    for r in roots:
        den = den * poly(-r, 1)
    g = GeneralForm(1, ((RationalFnInB(poly(1), den), B),))
    excluded = g.excluded_bases()
    assert excluded == _scan_to_cauchy_bound(g.terms[0][0].denominator)
    assert {r for r in roots if r >= 2} <= excluded


GOLDEN_P4 = (
        "((9*b^6 - 25*b^5 + 6*b^4 + 18*b^3 - 11*b^2 + 13*b + 2)/(30*(b^4 - 2*b^3 + b^2)))*(b - 1)^k",
        "((-9*b^9 + 13*b^8 + 3*b^7 + 7*b^6 + 3*b^5 - 8*b^4 - 14*b^3 - b^2 + 5*b + 1)/(30*(b^7 - b^6 - b^5 - b^4 + b^2 + 2*b + 1)))*(b)^k",
        "((-b^3 + b^2)/(2*b^2 - 5*b + 2))*(2*b - 1)^k",
        "((16*b^11 - 46*b^10 - 23*b^9 + 172*b^8 - 101*b^7 - 151*b^6 + 200*b^5 - 25*b^4 - 68*b^3 + 14*b^2)/(30*(b^10 - 6*b^9 + 13*b^8 - 9*b^7 - 12*b^6 + 32*b^5 - 29*b^4 + 8*b^3 + 7*b^2 - 7*b + 2)))*(b^2 - 1)^k",
        "((4*b^5 + 4*b^4 - 11*b^3 - 4*b^2 + 5*b + 2)/(6*(b^4 - 3*b^2 + 1)))*(b^2 + b - 1)^k",
        "((-9*b^13 + 6*b^12 + 20*b^11 + 16*b^10 - 26*b^9 - 49*b^8 + b^7 + 27*b^6 + 18*b^5 + 6*b^4 + 2*b^3)/(30*(b^12 - 3*b^11 + b^10 + 3*b^9 + b^8 - 5*b^7 - 2*b^6 + 5*b^5 + 3*b^4 - 3*b^3 - 3*b^2 + b + 1)))*(b^3 - 1)^k",
        "((-b^6 - 2*b^4 + 2*b^3 - b^2 + 2*b)/(2*(b^5 - b^4 + 2*b^3 - 2*b^2 + 2*b - 1)))*(b^3 + b - 1)^k",
        "((6*b^15 + 3*b^14 + b^13 + 18*b^12 - 13*b^11 - 3*b^10 + 14*b^9 - 42*b^8 + 11*b^7 - 3*b^6 - 29*b^5 + 28*b^4 - 5*b^3 - b^2 + 13*b + 2)/(30*(b^14 - b^13 + 3*b^11 - 4*b^10 + 3*b^9 + 2*b^8 - 5*b^7 + 5*b^6 - 2*b^5 - b^4 + 2*b^3 - b^2)))*(b^4 + b - 1)^k",
)

GOLDEN_P5 = (
        "((-4*b^6 + 10*b^5 - b^4 - 3*b^3 + b^2 - 13*b - 2)/(12*(b^4 - 2*b^3 + b^2)))*(b - 1)^k",
        "((4*b^9 - 4*b^8 - b^7 - 7*b^6 - 8*b^5 + 2*b^4 + 8*b^3 + 5*b^2 + b)/(12*(b^7 - b^6 - b^5 - b^4 + b^2 + 2*b + 1)))*(b)^k",
        "((3*b^10 - 5*b^8 - 6*b^7 - 2*b^6 + 5*b^5 - b^4 + 12*b^3 - 2*b^2 - 4*b)/(3*(2*b^9 - 5*b^8 + b^6 + 4*b^5 + 10*b^4 - 14*b^3 + 12*b^2 - 20*b + 8)))*(2*b - 1)^k",
        "((-10*b^15 + 25*b^14 + 26*b^13 - 94*b^12 - 8*b^11 + 120*b^10 + 6*b^9 - 139*b^8 + 2*b^7 + 170*b^6 - 76*b^5 - 44*b^4 + 32*b^3 + 8*b^2)/(12*(b^14 - 6*b^13 + 13*b^12 - 10*b^11 - 5*b^10 + 13*b^9 - 7*b^8 + 11*b^7 - 37*b^6 + 54*b^5 - 35*b^4 + b^3 + 14*b^2 - 9*b + 2)))*(b^2 - 1)^k",
        "((-10*b^5 - 15*b^4 + 15*b^3 + 10*b^2)/(12*(b^4 - 3*b^2 + 1)))*(b^2 + b - 1)^k",
        "((10*b^19 - 5*b^18 - 55*b^17 - 9*b^16 + 132*b^15 + 123*b^14 - 163*b^13 - 293*b^12 + 64*b^11 + 346*b^10 + 80*b^9 - 226*b^8 - 154*b^7 + 30*b^6 + 92*b^5 + 52*b^4 + 12*b^3)/(12*(b^18 - 3*b^17 - 2*b^16 + 12*b^15 + b^14 - 23*b^13 - 4*b^12 + 35*b^11 + 10*b^10 - 39*b^9 - 20*b^8 + 35*b^7 + 23*b^6 - 22*b^5 - 18*b^4 + 9*b^3 + 9*b^2 - 2*b - 2)))*(b^3 - 1)^k",
        "((10*b^9 - 5*b^8 + 20*b^7 - 35*b^6 + 20*b^5 - 35*b^4 + 20*b^3 - 5*b^2 + 10*b)/(12*(b^8 - 2*b^7 + 3*b^6 - 5*b^5 + 5*b^4 - 5*b^3 + 3*b^2 - 2*b + 1)))*(b^3 + b - 1)^k",
        "((-4*b^15 + 5*b^14 + b^13 + 8*b^12 - 3*b^11 - 8*b^10 - 8*b^9 - 17*b^8 + 22*b^7 - 4*b^6 + 12*b^5 + 2*b^4)/(12*(b^14 - 4*b^13 + 7*b^12 - 11*b^11 + 19*b^10 - 25*b^9 + 27*b^8 - 30*b^7 + 28*b^6 - 21*b^5 + 18*b^4 - 13*b^3 + 6*b^2 - 4*b + 2)))*(b^4 - 1)^k",
        "((-6*b^15 - 3*b^14 - b^13 - 18*b^12 + 13*b^11 + 3*b^10 - 14*b^9 + 42*b^8 - 11*b^7 + 3*b^6 + 29*b^5 - 28*b^4 + 5*b^3 + b^2 - 13*b - 2)/(12*(b^14 - b^13 + 3*b^11 - 4*b^10 + 3*b^9 + 2*b^8 - 5*b^7 + 5*b^6 - 2*b^5 - b^4 + 2*b^3 - b^2)))*(b^4 + b - 1)^k",
        "((2*b^20 + 2*b^19 + b^18 - 2*b^17 + 3*b^16 - 3*b^15 - 3*b^14 - 8*b^13 - 9*b^11 + 3*b^10 - 6*b^9 - b^8 + b^7 + 15*b^6 - 4*b^5 + 5*b^3 + 8*b^2 - 4*b)/(12*(b^19 - b^18 - b^16 + 4*b^15 - 3*b^14 + 2*b^13 - 3*b^12 + 5*b^11 - 5*b^10 + 5*b^9 - 4*b^8 + 3*b^7 - 3*b^6 + 5*b^5 - 4*b^4 + b^3 - b^2 + 2*b - 1)))*(b^5 + b - 1)^k",
)


# sha256 of `rabot general-form --power {6, 7}` line 1 without its "proven: "
GOLDEN_DIGESTS = {
    6: "364674edcb179d5149b8b71ae3f99e566185c4b71f9cd249de7f88c608f34e0b",
    7: "f5df0daff2adeeaac92f8025d8e9203269eeda0d69dbfbcbc8bc68d4ff81a9dd",
}


@pytest.mark.parametrize("p, golden", [(4, GOLDEN_P4), (5, GOLDEN_P5), (6, None), (7, None)])
def test_general_form_goldens(p, golden):
    # golden: `rabot general-form --power {4, 5}`, line 1, one term a line
    g = guess_general_form(p, range(2, 13))
    if golden is None:
        assert sha256(g.render().encode()).hexdigest() == GOLDEN_DIGESTS[p]
    else:
        assert g.render() == " + ".join(golden)
    assert g.excluded_bases() == {2}


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_a_wrong_family_fails_the_annihilator_check(p, monkeypatch, capsys):
    # the derivation's premise is checked: drop one family, or add 1 to one,
    # and the symbolic state is no longer annihilated
    import rabot.generalform as gf
    from rabot.cli import main

    real = gf.base_families(p)
    mutations = [real[:i] + real[i + 1 :] for i in range(len(real))]
    mutations += [real[:i] + [fam + 1] + real[i + 1 :] for i, fam in enumerate(real)]
    gf._derive.cache_clear()
    try:
        for families in mutations:
            monkeypatch.setattr(gf, "base_families", lambda power: families)
            with pytest.raises(NoFitError, match="do not annihilate"):
                gf._derive(p)
        code = main(["general-form", "--power", str(p)])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    finally:
        gf._derive.cache_clear()


def test_derivation_builds_no_integer_table(monkeypatch):
    import rabot.generalform as gf

    def refuse(*args, **kwargs):
        raise AssertionError("the derivation must not sample integer bases")

    monkeypatch.setattr(gf, "build_lane_table", refuse)
    gf._derive.cache_clear()
    # golden: `rabot general-form --power 3`, line 1
    assert gf._derive(3).render() == (
        "((-b^2 + b + 2)/4)*(b - 1)^k"
        " + ((b^2 - b)/4)*(b)^k"
        " + ((b^3 - 2*b^2 + b)/(2*b^2 - 5*b + 2))*(2*b - 1)^k"
        " + ((-b^4 + 2*b^2)/(4*(b^3 - 3*b^2 + 3*b - 2)))*(b^2 - 1)^k"
        " + ((-2*b^3 - 3*b^2 + 3*b + 2)/(4*(b^2 + b - 1)))*(b^2 + b - 1)^k"
        " + ((b^6 + 2*b^4 - 2*b^3 + b^2 - 2*b)/(4*(b^5 - b^4 + 2*b^3 - 2*b^2 + 2*b - 1)))*(b^3 + b - 1)^k"
    )


def test_guess_rejects_form_that_disagrees_with_proven_form(monkeypatch):
    import rabot.generalform as gf
    from rabot import ExponentialForm

    real_specialize = gf.specialize

    def shifted(g, b):
        form = real_specialize(g, b)
        if b != 4:
            return form
        (c, *rest), lam = form.terms[0]
        return ExponentialForm(b, form.power, (((c + 1, *rest), lam),) + form.terms[1:])

    monkeypatch.setattr(gf, "specialize", shifted)
    with pytest.raises(NoFitError) as err:
        guess_general_form(2, range(2, 7))
    assert "b=4" in str(err.value)


def test_guess_rejects_unproven_per_base_form(monkeypatch):
    import rabot.generalform as gf
    from rabot import Verdict

    real_judge = gf.judge

    def unproven(form, values, bases, annihilated):
        return Verdict("consistent", real_judge(form, values, bases, annihilated).checked_depth)

    monkeypatch.setattr(gf, "judge", unproven)
    with pytest.raises(NoFitError) as err:
        guess_general_form(1, range(2, 9))
    assert "b=2" in str(err.value)
    assert "not proven" in str(err.value)


def _shift_at(real_specialize, bad):
    """specialize with 1/1000003 added to the first coefficient at the bases
    in bad."""
    from rabot import ExponentialForm

    def shifted(g, b):
        form = real_specialize(g, b)
        if b not in bad:
            return form
        (c, *rest), lam = form.terms[0]
        return ExponentialForm(b, form.power, (((c + F(1, 1000003), *rest), lam),) + form.terms[1:])

    return shifted


def test_guess_names_the_smallest_failing_base(monkeypatch):
    import rabot.generalform as gf

    monkeypatch.setattr(gf, "specialize", _shift_at(gf.specialize, {9, 4}))
    with pytest.raises(NoFitError) as err:
        guess_general_form(2, range(2, 13))
    assert str(err.value) == "the general form at b=4 is refuted, not proven"


@pytest.mark.parametrize("budget", [1, 5, 9, 640])
def test_guess_judges_every_base_across_chunk_edges(budget, monkeypatch):
    # budget 1 gives one-base chunks; 5 and 9 bits end chunks inside the range
    import rabot.generalform as gf

    real_specialize, real_judge_lanes = gf.specialize, gf._judge_lanes
    chunks = []

    def spy(power, forms):
        chunks.append([form.base for form in forms])
        real_judge_lanes(power, forms)

    monkeypatch.setattr(gf, "LANE_CHUNK_BITS", budget)
    monkeypatch.setattr(gf, "_judge_lanes", spy)
    assert guess_general_form(3, range(2, 14)) == _derive(3)
    assert sum(chunks, []) == list(range(3, 14))  # 2 is excluded at p = 3
    for chunk in chunks[:-1]:
        assert sum(b.bit_length() for b in chunk) >= budget
        assert sum(b.bit_length() for b in chunk[:-1]) < budget
    for bad in range(3, 14):
        monkeypatch.setattr(gf, "specialize", _shift_at(real_specialize, {bad, 13}))
        with pytest.raises(NoFitError, match=f"at b={bad} is refuted"):
            guess_general_form(3, range(2, 14))


def test_guess_judges_the_smaller_bases_before_a_specialize_error(monkeypatch):
    # the error is the one that checking base after base meets first
    import rabot.generalform as gf

    shifted = _shift_at(gf.specialize, {5})

    def refusing(at):
        def specialize(g, b):
            if b == at:
                raise ValueError(f"refused at b={b}")
            return shifted(g, b)

        return specialize

    monkeypatch.setattr(gf, "specialize", refusing(7))
    with pytest.raises(NoFitError, match="at b=5 is refuted"):
        guess_general_form(2, range(2, 10))
    monkeypatch.setattr(gf, "specialize", refusing(4))
    with pytest.raises(ValueError, match="refused at b=4"):
        guess_general_form(2, range(2, 10))


def test_guess_does_not_refit_per_base(monkeypatch):
    import rabot.closedform as cf
    import rabot.generalform as gf

    def refuse(*args, **kwargs):
        raise AssertionError("the general form must not be re-fitted per base")

    monkeypatch.setattr(cf, "closed_form", refuse)
    monkeypatch.setattr(cf, "fit_closed_form", refuse)
    assert not hasattr(gf, "closed_form")
    g = guess_general_form(2, range(2, 13))
    # golden: README, `rabot general-form --power 2`, line 1
    assert g.render() == (
        "((b^2 - b - 2)/6)*(b - 1)^k"
        " + ((-b^2 + 2*b - 1)/6)*(b)^k"
        " + ((-b^2 + b)/(2*b - 1))*(2*b - 1)^k"
        " + ((2*b^3 + 3*b^2 - 3*b - 2)/(6*(b^2 + b - 1)))*(b^2 + b - 1)^k"
    )


def test_guess_validation():
    with pytest.raises(ValueError):
        guess_general_form(0, range(2, 9))
    with pytest.raises(ValueError):
        guess_general_form(1, [1, 2, 3])
    with pytest.raises(ValueError):
        guess_general_form(1, range(5, 3))


def test_specialize_second_moment_at_two_merges_to_three_terms():
    g = guess_general_form(2, range(2, 13))
    s = specialize(g, 2)
    assert s.terms == (((F(-1, 6),), 2), ((F(-2, 3),), 3), ((F(2, 3),), 5))


def test_specialize_first_moment_at_three():
    g = guess_general_form(1, range(2, 9))
    s = specialize(g, 3)
    assert s.terms == (((F(-1),), 3), ((F(6, 5),), 5))


def test_specialize_agrees_with_proven_forms():
    for p in (1, 2):
        g = guess_general_form(p, range(2, 13))
        for b in range(2, 13):
            proven, verdict = closed_form(b, p)
            assert verdict.status == "proven"
            assert specialize(g, b).terms == proven.terms, (p, b)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 8))
def test_specialize_equals_closed_form_at_every_base_in_range(p, lo, extra):
    hi = lo + extra
    g = guess_general_form(p, range(lo, hi + 1))
    for b in range(lo, hi + 1):
        try:
            spec = specialize(g, b)
        except ExcludedBaseError:
            continue
        assert spec.terms == closed_form(b, p)[0].terms, b


def _fraction_specialize(g, b):
    """specialize through Fraction arithmetic: each coefficient and family
    evaluated as a Fraction, colliding growth bases merged."""
    merged = {}
    for fn, fam in g.terms:
        try:
            c = fn.eval(b)
        except ZeroDivisionError:
            raise ExcludedBaseError(
                f"coefficient {fn.render()} has a denominator zero at b={b}"
            ) from None
        lam = fam.eval(b)
        assert lam.denominator == 1 and lam >= 1
        merged[int(lam)] = merged.get(int(lam), F(0)) + c
    return tuple(((c,), lam) for lam, c in sorted(merged.items()) if c != 0)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_specialize_equals_the_fraction_route(p):
    g = _derive(p)
    excluded = 0
    for b in range(2, 61):
        try:
            expected = _fraction_specialize(g, b)
        except ExcludedBaseError as err:
            excluded += 1
            with pytest.raises(ExcludedBaseError) as got:
                specialize(g, b)
            assert str(got.value) == str(err), b
            continue
        spec = specialize(g, b)
        assert spec.terms == expected, b
        assert all(type(c) is F for (c,), _ in spec.terms)
    assert excluded == (1 if p >= 3 else 0)  # b = 2, from p = 3 on


def test_specialize_merges_colliding_bases():
    # at b=2 both 2b-1 and b^2-1 evaluate to 3
    g = GeneralForm(
        1,
        (
            (RationalFnInB(poly(1)), TWO_B_MINUS_1),
            (RationalFnInB(poly(2)), B2_MINUS_1),
        ),
    )
    merged = specialize(g, 2)
    assert merged.terms == (((F(3),), 3),)
    apart = specialize(g, 3)
    assert apart.terms == (((F(1),), 5), ((F(2),), 8))


def test_specialize_drops_cancelling_terms():
    g = GeneralForm(
        1,
        (
            (RationalFnInB(poly(1)), TWO_B_MINUS_1),
            (RationalFnInB(poly(-1)), B2_MINUS_1),
        ),
    )
    assert specialize(g, 2).terms == ()


def test_specialize_excluded_base():
    g = GeneralForm(1, ((RationalFnInB(poly(1), poly(-3, 1)), B),))
    with pytest.raises(ExcludedBaseError):
        specialize(g, 3)
    assert specialize(g, 4).terms == (((F(1),), 4),)


def test_specialize_refuses_a_growth_base_that_is_not_a_positive_integer():
    for fam, b in ((poly(-5, 1), 2), (poly(0, F(1, 2)), 3), (poly(-2, 1), 2)):
        g = GeneralForm(1, ((RationalFnInB(poly(1)), fam),))
        with pytest.raises(ValueError, match="not a positive integer"):
            specialize(g, b)


def test_general_form_invariants():
    with pytest.raises(ValueError):
        GeneralForm(1, ((RationalFnInB(poly(1)), B), (RationalFnInB(poly(2)), B)))
    with pytest.raises(ValueError):
        GeneralForm(1, ((RationalFnInB(poly()), B),))


def test_general_form_render():
    g = guess_general_form(1, range(2, 9))
    assert g.render() == (
        "((-b + 1)/2)*(b)^k + ((b^2 - b)/(2*b - 1))*(2*b - 1)^k"
    )
