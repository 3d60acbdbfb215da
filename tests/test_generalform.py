"""Polynomials and rational functions of the base, and the exact general-form
derivation."""
from fractions import Fraction

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
from rabot.generalform import moment_polynomials

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
    assert poly().is_zero()
    assert poly(0, 0).is_zero()
    assert poly(5).degree() == 0
    assert poly(1, 0, 3).degree() == 2


def test_poly_eval_and_arith():
    p = poly(-1, 1, 1)  # b^2 + b - 1
    assert p.eval(2) == 5
    assert p.eval(3) == 11
    assert (poly(1, 1) * poly(-1, 1)).coefficients == (F(-1), F(0), F(1))
    assert (poly(1, 2) + poly(1, -2)).coefficients == (F(2),)
    assert (poly(1, 2) - poly(1, 2)).is_zero()


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


def test_rational_fn_denominator_is_primitive_and_positive():
    fn = RationalFnInB(poly(1), poly(0, 2))  # 1/(2b)
    assert fn.denominator == poly(0, 1)
    assert fn.numerator == poly(F(1, 2))
    assert fn.eval(4) == F(1, 8)


def test_rational_fn_zero_and_errors():
    assert RationalFnInB(poly()).is_zero()
    assert RationalFnInB(poly(), poly(3, 1)) == RationalFnInB(poly())
    with pytest.raises(ZeroDivisionError):
        RationalFnInB(poly(1), poly())


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


@pytest.mark.parametrize("p", [1, 2, 3])
def test_moment_polynomials_match_table_outside_interpolation_set(p):
    # the largest interpolation base is (2p+1)(p+1) + 2 <= 30, so agreement
    # at b = 97 and 200 checks the degree bound, not the interpolation
    count = len(base_families(p))
    polys = moment_polynomials(p, count)
    for b in (97, 200):
        table = build_table(b, p, count)
        for k, s in enumerate(polys, 1):
            assert s.eval(b) == table.moments[k][p][0], (b, k)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
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

    real_verify = gf.verify

    def unproven(form, table):
        return Verdict("consistent", real_verify(form, table).checked_depth)

    monkeypatch.setattr(gf, "verify", unproven)
    with pytest.raises(NoFitError) as err:
        guess_general_form(1, range(2, 9))
    assert "b=2" in str(err.value)
    assert "not proven" in str(err.value)


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
