"""Closed-form fitting over the candidate-base multiset, and verification."""
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabot import (
    DepthError,
    ExponentialForm,
    MomentTable,
    NoFitError,
    Verdict,
    build_table,
    candidate_bases,
    closed_form,
    fit_closed_form,
    moment_value,
    state_dimension_bound,
    verify,
)
from rabot.closedform import judge, table_depth

F = Fraction


def test_state_dimension_bound():
    assert state_dimension_bound(2, 1) == 3
    assert state_dimension_bound(2, 2) == 6
    assert state_dimension_bound(10, 3) == 10


def test_candidate_bases():
    assert candidate_bases(2, 1) == [2, 3]
    assert candidate_bases(2, 2) == [1, 2, 3, 5]
    assert candidate_bases(3, 1) == [3, 5]
    assert candidate_bases(3, 2) == [2, 3, 5, 11]
    # b^p - 1 is not an eigenvalue, so it never gets a term
    assert candidate_bases(3, 3) == [2, 3, 5, 8, 11, 29]


def test_candidate_bases_lists_2p_values():
    for b in (2, 3, 10, 1000):
        for p in range(1, 9):
            assert len(candidate_bases(b, p)) == 2 * p, (b, p)


def test_candidate_bases_validation():
    with pytest.raises(ValueError):
        candidate_bases(2, 0)


def test_fit_binary_first_moment():
    form = fit_closed_form([1, 4, 14], [1, 2, 3], base=2, power=1)
    assert form.terms == (((F(-1, 2),), 2), ((F(2, 3),), 3))


def test_fit_binary_second_moment():
    t = build_table(2, 2, 9)
    values = [moment_value(t, 2, k) for k in range(1, 10)]
    form = fit_closed_form(values, candidate_bases(2, 2), base=2, power=2)
    assert form.terms == (((F(-1, 6),), 2), ((F(-2, 3),), 3), ((F(2, 3),), 5))


def test_fit_zero_sequence():
    form = fit_closed_form([0, 0, 0, 0], [1, 2, 3], base=2, power=1)
    assert form.terms == ()


def test_fit_reads_one_value_per_base():
    # later values are verify's to check, not the fitter's
    form = fit_closed_form([1, 4, 14, 47], [1, 2, 3], base=2, power=1)
    assert form == fit_closed_form([1, 4, 14], [1, 2, 3], base=2, power=1)
    assert form.eval_at(4) == 46


def test_fit_residual_mismatch():
    # a table value at any k <= 2p that the form misses is refuted by verify at that k
    for p in range(1, 4):
        form, verdict = closed_form(3, p)
        assert verdict == Verdict("proven", checked_depth=2 * p)
        t = build_table(3, p, table_depth(p))
        for k in range(1, 2 * p + 1):
            moments = [list(column) for column in t.moments]
            moments[k][(p + 1) * (p + 2) // 2 - 1] += 1  # S(p, k) = T(0, p, k), last in the state
            mismatched = MomentTable(3, p, t.max_k, tuple(map(tuple, moments)))
            value = moment_value(t, p, k)
            assert moment_value(mismatched, p, k) == value + 1
            assert verify(form, mismatched) == Verdict(
                "refuted", checked_depth=k, witness=(k, value + 1, value)
            ), (p, k)


def test_fit_unsolvable_system_is_no_fit():
    # 0**1 = 0, so no coefficient on base 0 reproduces the value 1
    with pytest.raises(NoFitError):
        fit_closed_form([1], [0], base=2, power=1)


def test_fit_needs_enough_values():
    with pytest.raises(ValueError):
        fit_closed_form([1, 4], [1, 2, 3], base=2, power=1)


def test_form_invariants_enforced():
    with pytest.raises(ValueError):
        ExponentialForm(2, 1, (((F(0),), 2),))
    with pytest.raises(ValueError):
        ExponentialForm(2, 1, (((F(1), F(0)), 2),))
    with pytest.raises(ValueError):
        ExponentialForm(2, 1, (((F(1),), 3), ((F(1),), 2)))
    with pytest.raises(ValueError):
        ExponentialForm(2, 1, (((F(1),), 0),))


def test_form_evaluates_to_integers():
    form, _ = closed_form(2, 2)
    for k in range(1, 31):
        value = form.eval_at(k)
        assert value.denominator == 1


def test_verify_proven_and_refuted():
    t = build_table(2, 2, 12)
    good = ExponentialForm(2, 2, (((F(-1, 6),), 2), ((F(-2, 3),), 3), ((F(2, 3),), 5)))
    assert verify(good, t).status == "proven"
    bad = ExponentialForm(2, 2, (((F(-1, 6) + 1,), 2), ((F(-2, 3),), 3), ((F(2, 3),), 5)))
    verdict = verify(bad, t)
    assert verdict.status == "refuted"
    assert verdict.witness is not None
    k, expected, actual = verdict.witness
    assert k <= 4
    assert actual != expected


def test_judge_needs_the_2p_values():
    form = ExponentialForm(2, 2, (((F(-1, 6),), 2), ((F(-2, 3),), 3), ((F(2, 3),), 5)))
    values = [moment_value(build_table(2, 2, 5), 2, k) for k in range(1, 6)]
    assert judge(form, values[:4], candidate_bases(2, 2), lambda: True).status == "proven"
    for wrong in (values[:3], values):
        with pytest.raises(ValueError, match="need the 4 values at k = 1..4"):
            judge(form, wrong, candidate_bases(2, 2), lambda: True)


def test_verify_depth_semantics():
    # the proof depth is 2p whatever the table's reach, and no caller sets it
    form = ExponentialForm(2, 1, (((F(-1, 2),), 2), ((F(2, 3),), 3)))
    for max_k in (3, 12):
        assert verify(form, build_table(2, 1, max_k)) == Verdict("proven", checked_depth=2)
    with pytest.raises(TypeError):
        verify(form, build_table(2, 1, 12), depth=12)
    # the values reach k = 2, but the annihilator reads k = 3
    with pytest.raises(DepthError):
        verify(form, build_table(2, 1, 2))
    with pytest.raises(ValueError):
        verify(form, build_table(3, 1, 12))
    with pytest.raises(ValueError, match="only covers powers up to 0"):
        verify(form, build_table(2, 0, 12))
    # a form of power 0 has no proof depth
    with pytest.raises(ValueError, match="power must be a positive integer, got 0"):
        verify(ExponentialForm(2, 0, (((F(1),), 2),)), build_table(2, 0, 12))


def test_table_depth_is_the_last_column_verify_reads(monkeypatch):
    import rabot.closedform as cf

    assert [table_depth(p) for p in (1, 2, 8)] == [3, 5, 17]
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError, match="power must be a positive integer"):
            table_depth(bad)
    for p in (1, 2, 3):
        form, _ = closed_form(2, p)
        need = table_depth(p)
        assert verify(form, build_table(2, p, need)) == Verdict("proven", checked_depth=2 * p)
        with pytest.raises(DepthError, match=f"below {need},"):
            verify(form, build_table(2, p, need - 1))
    built = []

    def recording(base, power, max_k):
        built.append(max_k)
        return build_table(base, power, max_k)

    monkeypatch.setattr(cf, "build_table", recording)
    for p in range(1, 5):
        assert cf.closed_form(2, p)[1].status == "proven"
    assert built == [3, 5, 7, 9]


def test_verify_requires_bases_in_spectrum():
    # none of these bases is an eigenvalue, yet the form matches k = 1..D
    t = build_table(2, 1, 7)
    values = [moment_value(t, 1, k) for k in range(1, 7)]
    bogus = fit_closed_form(values, [11, 13, 15, 17, 19, 21], base=2, power=1)
    assert verify(bogus, t).status == "consistent"
    assert bogus.eval_at(7) == -1504531
    assert moment_value(t, 1, 7) == 1394


def test_verify_requires_k_degree_within_multiplicity():
    # 3 is listed once at b = 3, so a k-polynomial on 3^k lies outside the
    # multiset even though it matches the table at k = 1..D
    t = build_table(3, 1, 8)
    values = [moment_value(t, 1, k) for k in range(1, 9)]
    wide = fit_closed_form(values, [3] * 8, base=3, power=1)
    assert len(wide.terms) == 1 and len(wide.terms[0][0]) > 1
    assert verify(wide, t).status == "consistent"


def test_verify_requires_annihilated_state():
    # T(1, 0, 2p+1) enters no value of S(p, .), only the annihilator check
    for b in (2, 3, 7):
        for p in range(1, 5):
            form, verdict = closed_form(b, p)
            assert verdict.status == "proven"
            t = build_table(b, p, 2 * p + 1)
            assert verify(form, t).status == "proven"
            moments = [list(column) for column in t.moments]
            moments[2 * p + 1][1] += 1  # T(1, 0, 2p+1): the state runs T(0, 0), T(1, 0), T(0, 1), ...
            perturbed = MomentTable(b, p, t.max_k, tuple(map(tuple, moments)))
            assert moment_value(perturbed, p, 2 * p + 1) == moment_value(t, p, 2 * p + 1)
            assert verify(form, perturbed) == Verdict("consistent", checked_depth=2 * p)


def test_closed_form_fits_2p_values_on_2p_bases(monkeypatch):
    import rabot.closedform as cf

    seen = []
    real_fit = cf.fit_closed_form

    def spy(values, bases, **kwargs):
        seen.append((len(values), len(bases)))
        return real_fit(values, bases, **kwargs)

    monkeypatch.setattr(cf, "fit_closed_form", spy)
    for p in range(1, 6):
        cf.closed_form(2, p)
    assert seen == [(2 * p, 2 * p) for p in range(1, 6)]


def test_proven_for_powers_to_8_at_small_and_wide_bases():
    # the annihilator vanishes, including at the b = 2 collision
    for b in (*range(2, 13), 100, 1000):
        for p in range(1, 9):
            assert closed_form(b, p)[1] == Verdict("proven", checked_depth=2 * p), (b, p)


def test_closed_form_at_a_high_power():
    form, verdict = closed_form(3, 16)
    assert verdict == Verdict("proven", checked_depth=32)
    t = build_table(3, 16, 40)
    assert all(form.eval_at(k) == moment_value(t, 16, k) for k in range(1, 41))


def test_pipeline_proves_and_reproduces():
    for b in range(2, 7):
        for p in range(1, 4):
            form, verdict = closed_form(b, p)
            assert verdict.status == "proven", (b, p)
            t = build_table(b, p, 30)
            for k in range(1, 31):
                assert form.eval_at(k) == moment_value(t, p, k), (b, p, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 8))
def test_closed_form_is_proven_and_matches_table_to_three_depths(b, p):
    form, verdict = closed_form(b, p)
    assert verdict.status == "proven"
    # a reach of 3·(p+1)(b+1), far past the proof depth 2p
    depth = 3 * (p + 1) * (b + 1)
    t = build_table(b, p, depth)
    for k in range(1, depth + 1):
        assert form.eval_at(k) == moment_value(t, p, k), k


def test_pipeline_first_moment_matches_direct_formula():
    for b in range(2, 11):
        form, verdict = closed_form(b, 1)
        assert verdict.status == "proven"
        expected = (
            ((F(-(b - 1), 2),), b),
            ((F(b * (b - 1), 2 * b - 1),), 2 * b - 1),
        )
        assert form.terms == expected


def test_refutation_sensitivity():
    t = build_table(2, 2, 12)
    good, _ = closed_form(2, 2)
    for i in range(len(good.terms)):
        coeff_bumped = list(good.terms)
        poly, lam = coeff_bumped[i]
        coeff_bumped[i] = ((poly[0] + 1,) + poly[1:], lam)
        assert verify(ExponentialForm(2, 2, tuple(coeff_bumped)), t).status == "refuted"
        base_bumped = list(good.terms)
        base_bumped[i] = (poly, lam + 100)
        base_bumped.sort(key=lambda term: term[1])
        assert verify(ExponentialForm(2, 2, tuple(base_bumped)), t).status == "refuted"


def test_fallback_repeated_root():
    values = [(1 + 2 * k) * 2**k for k in range(1, 13)]
    form = fit_closed_form(values, [2, 2], base=2, power=1)
    assert not form.is_constant()
    assert form.terms == (((F(1), F(2)), 2),)
    for k, v in enumerate(values, start=1):
        assert form.eval_at(k) == v


def test_binary_third_moment_needs_k_multiplier():
    """At b = 2 the candidate eigenvalues 2b-1 and b^2-1 collide at 3, and
    the third moment genuinely picks up a k*3^k term there; the multiset
    lists 3 twice, so the one fitter finds it and the result is proven."""
    assert candidate_bases(2, 3) == [1, 2, 3, 3, 5, 9]
    form, verdict = closed_form(2, 3)
    assert verdict.status == "proven"
    assert not form.is_constant()
    assert form.terms == (
        ((F(1, 2),), 2),
        ((F(-1, 9), F(-4, 9)), 3),
        ((F(-1),), 5),
        ((F(20, 27),), 9),
    )
    t = build_table(2, 3, 25)
    for k in range(1, 26):
        assert form.eval_at(k) == moment_value(t, 3, k)


def test_fallback_simple_roots_gives_plain_form():
    values = [7 * 3**k - 2 * 4**k for k in range(1, 12)]
    form = fit_closed_form(values, [3, 4], base=2, power=1)
    assert form.is_constant()
    assert form.terms == (((F(7),), 3), ((F(-2),), 4))


def test_fallback_zero_sequence():
    form = fit_closed_form([0] * 8, [2, 2, 3], base=2, power=1)
    assert form.terms == ()


def test_fallback_rejects_irrational_roots():
    # Fibonacci: characteristic x^2 - x - 1 has no integer roots, so the form
    # fitted on k = 1..3 first misses the sequence at k = 4
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    form = fit_closed_form(fib, [1, 2, 2], base=2, power=1)
    misses = [k for k in range(1, len(fib) + 1) if form.eval_at(k) != fib[k - 1]]
    assert misses[0] == 4
    assert form.eval_at(4) == 6


def test_pipeline_depth_request():
    # the proof depth is 2p, and no caller can request another
    _, verdict = closed_form(2, 1)
    assert verdict == Verdict("proven", checked_depth=2)
    for depth in (1, 15):
        with pytest.raises(TypeError):
            closed_form(2, 1, depth=depth)
    for bad in (0, -2, 1.5):
        with pytest.raises(ValueError, match="power must be a positive integer"):
            closed_form(2, bad)


def test_pipeline_fit_failure_propagates(monkeypatch):
    import rabot.closedform as cf

    def refuse(*args, **kwargs):
        raise NoFitError("forced")

    monkeypatch.setattr(cf, "fit_closed_form", refuse)
    with pytest.raises(NoFitError):
        cf.closed_form(2, 1)


def test_render_is_canonical():
    form, _ = closed_form(2, 2)
    assert form.render() == "(-1/6)*2^k + (-2/3)*3^k + (2/3)*5^k"
    assert ExponentialForm(2, 1, ()).render() == "0"
    poly = ExponentialForm(2, 1, (((F(1, 2),), 2), ((F(0), F(-4, 9)), 3)))
    assert poly.render() == "((1/2))*2^k + ((-4/9)*k)*3^k"


@st.composite
def _exponential_sums(draw):
    """(values at k = 1..t, the multiset of t bases, the terms that made them);
    sometimes with a base 0 that contributes nothing."""
    coefficients = st.one_of(
        st.just(F(0)), st.fractions(min_value=-60, max_value=60, max_denominator=15)
    )
    drawn = []
    for lam in sorted(draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))):
        m = draw(st.integers(1, 3))
        drawn.append((draw(st.lists(coefficients, min_size=m, max_size=m)), lam))
    bases = [lam for poly, lam in drawn for _ in poly] + [0] * draw(st.integers(0, 2))
    values = [
        sum(sum(c * k**e for e, c in enumerate(poly)) * lam**k for poly, lam in drawn)
        for k in range(1, len(bases) + 1)
    ]
    terms = []
    for poly, lam in drawn:
        while poly and poly[-1] == 0:
            poly = poly[:-1]
        if poly:
            terms.append((tuple(poly), lam))
    return values, draw(st.permutations(bases)), tuple(terms)


@settings(max_examples=60, deadline=None)
@given(_exponential_sums())
def test_fit_returns_the_drawn_terms_at_any_multiplicity(case):
    values, bases, terms = case
    form = fit_closed_form(values, bases, base=2, power=1)
    assert form.terms == terms
    assert [form.eval_at(k) for k in range(1, len(values) + 1)] == values
    assert _stepped(form, len(values)) == values


def _stepped(form, n):
    """The values verify reads: its stepped numerators over their denominator."""
    den, numerators = form._numerators(n)
    return [F(num, den) for num in numerators]


def test_stepped_values_are_what_eval_at_gives():
    form = ExponentialForm(2, 1, (((F(1, 3), F(-2, 5), F(1, 7)), 1), ((F(-1, 2),), 2), ((F(2, 3), F(1)), 3)))
    assert _stepped(form, 12) == [form.eval_at(k) for k in range(1, 13)]
    assert _stepped(form, 0) == []
    assert _stepped(ExponentialForm(2, 1, ()), 3) == [0, 0, 0]
    wide, _ = closed_form(10**6, 4)
    assert _stepped(wide, 8) == [wide.eval_at(k) for k in range(1, 9)]


def test_fit_with_a_consistent_root_zero():
    assert fit_closed_form([2, 4], [0, 2], base=2, power=1).terms == (((F(1),), 2),)
    assert fit_closed_form([0, 4, 16], [0, 2, 2], base=2, power=1).terms == (((F(-1), F(1)), 2),)
    with pytest.raises(NoFitError):
        fit_closed_form([1, 4], [0, 2], base=2, power=1)


def test_form_equality_and_repr_ignore_the_cleared_coefficients():
    a = ExponentialForm(2, 1, (((F(-1, 2),), 2), ((F(2, 3),), 3)))
    b = ExponentialForm(2, 1, (((F(-1, 2),), 2), ((F(2, 3),), 3)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "ExponentialForm(base=2, power=1, terms=(((Fraction(-1, 2),), 2), ((Fraction(2, 3),), 3)))"
    assert a.eval_at(3) == F(-1, 2) * 8 + F(2, 3) * 27


def test_wide_base_renders_at_the_top_power_are_pinned():
    digests = {
        10: "c364c3e4404fe675f5dcdb80f2782894218dddedcbecf15c14709768512a99c8",
        10**6: "8054e593f032699824f8041ea104ca79505338851dbb15071613b40c2501094d",
        10**12: "c6299fd7478629cecef9597a8b8b925e42cc2ef0f13677056558df65432fe7ae",
    }
    for b, digest in digests.items():
        form, verdict = closed_form(b, 16)
        assert verdict == Verdict("proven", checked_depth=32), b
        assert sha256(form.render().encode()).hexdigest() == digest, b


def test_verify_takes_its_premise_from_the_one_annihilator_check(monkeypatch):
    import rabot.closedform as cf

    form, verdict = closed_form(3, 2)
    assert verdict.status == "proven"
    calls = []

    def refuse(table, roots, power=None):
        calls.append((table.base, list(roots), power))
        return False

    monkeypatch.setattr(cf, "annihilates", refuse)
    assert verify(form, build_table(3, 2, 5)) == Verdict("consistent", checked_depth=4)
    assert calls == [(3, candidate_bases(3, 2), 2)]
