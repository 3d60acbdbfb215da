"""Recurrence engine versus formulas and the brute-force oracle."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabot import (
    DepthError,
    DisagreementError,
    InvalidBaseError,
    MomentQuery,
    PolyInB,
    base_families,
    brute_moment,
    build_table,
    candidate_bases,
    extend,
    moment_value,
    state_dimension_bound,
)
from rabot import closedform, oracle
from rabot.recurrence import MomentTable, _basis, _build, _spectrum, _update, annihilates


def _order(p):
    """The (j, q) of each entry of a state to power p: by j + q, then by q.
    Written out here, not read from the package, so a wrong order fails."""
    return [(d - q, q) for d in range(p + 1) for q in range(d + 1)]


def _at(j, q):
    """The index of T(j, q) in that order."""
    return _order(j + q).index((j, q))


def test_seed_binary_first_moment():
    t = build_table(2, 1, 1)
    assert moment_value(t, 1, 1) == 1
    assert moment_value(t, 1, 1, last_digit=0) == 0
    assert moment_value(t, 1, 1, last_digit=1) == 1


def test_seed_base_three_second_moment():
    # two-digit base-3 numbers with nonzero r are 11 and 22: 1 + 4
    t = build_table(3, 2, 1)
    assert moment_value(t, 2, 1) == 5


def test_seed_counting_layer():
    for b in range(2, 8):
        t = build_table(b, 3, 1)
        assert moment_value(t, 0, 1) == (b - 1) * b
        for l in range(b):
            assert moment_value(t, 0, 1, last_digit=l) == b - 1


def test_seed_first_moment_is_triangular():
    for b in range(2, 11):
        t = build_table(b, 1, 1)
        assert moment_value(t, 1, 1) == b * (b - 1) // 2


def test_binary_first_moment_sequence():
    t = build_table(2, 1, 20)
    assert [moment_value(t, 1, k) for k in range(1, 6)] == [1, 4, 14, 46, 146]
    for k in range(1, 21):
        assert moment_value(t, 1, k) == 2 * 3 ** (k - 1) - 2 ** (k - 1)


def test_binary_second_moment_small():
    t = build_table(2, 2, 2)
    assert moment_value(t, 2, 2) == 10


def test_counting_layer_all_k():
    for b in (2, 3, 7):
        t = build_table(b, 0, 12)
        for k in range(1, 13):
            assert moment_value(t, 0, k) == (b - 1) * b**k
            for l in range(b):
                assert moment_value(t, 0, k, last_digit=l) == (b - 1) * b ** (k - 1)


def test_base_three_first_moment_recurrence():
    t = build_table(3, 1, 15)
    for k in range(2, 16):
        assert (
            moment_value(t, 1, k)
            == 5 * moment_value(t, 1, k - 1) + 2 * 3 ** (k - 1)
        )


def test_first_moment_recurrence_all_bases():
    for b in range(2, 11):
        t = build_table(b, 1, 20)
        for k in range(2, 21):
            gain = b ** (k - 1) * (b - 1) ** 2 // 2
            assert moment_value(t, 1, k) == (2 * b - 1) * moment_value(t, 1, k - 1) + gain


def test_first_moment_closed_form_all_bases():
    for b in range(2, 11):
        t = build_table(b, 1, 20)
        for k in range(1, 21):
            expected = Fraction(b * (b - 1), 2 * b - 1) * (2 * b - 1) ** k - Fraction(
                b - 1, 2
            ) * b**k
            assert moment_value(t, 1, k) == expected


def test_matches_oracle():
    for b in range(2, 5):
        t = build_table(b, 3, 5)
        for p in range(4):
            for k in range(1, 6):
                for last in [None, *range(b)]:
                    assert moment_value(t, p, k, last) == brute_moment(
                        MomentQuery(b, p, k, last)
                    ), (b, p, k, last)


def test_last_digit_decomposition_invariant():
    for b in (2, 3, 6):
        t = build_table(b, 3, 8)
        for q in range(4):
            for k in range(1, 9):
                assert (
                    sum(moment_value(t, q, k, l) for l in range(b))
                    == moment_value(t, q, k)
                )


def test_moments_strictly_grow():
    t = build_table(4, 3, 10)
    for q in range(1, 4):
        for k in range(1, 10):
            assert moment_value(t, q, k + 1) > moment_value(t, q, k)


def test_lookup_examples_and_errors():
    t = build_table(2, 2, 3)
    assert moment_value(t, 1, 3) == 14
    assert moment_value(t, 0, 2) == 4
    with pytest.raises(IndexError):
        moment_value(t, 3, 1)
    with pytest.raises(IndexError):
        moment_value(t, 1, 4)
    with pytest.raises(IndexError):
        moment_value(t, 1, 0)
    with pytest.raises(IndexError):
        moment_value(t, 1, 0, last_digit=1)
    with pytest.raises(IndexError):
        moment_value(t, 1, 2, last_digit=2)


def test_extend_is_incremental_and_pure():
    t1 = build_table(3, 2, 4)
    t2 = extend(t1, 9)
    assert t1.max_k == 4
    assert t2.max_k == 9
    assert len(t1.moments) == 5
    fresh = build_table(3, 2, 9)
    assert t2.moments == fresh.moments
    for q in range(3):
        for k in range(1, 10):
            for last in [None, *range(3)]:
                assert moment_value(t2, q, k, last) == moment_value(fresh, q, k, last)
    with pytest.raises(ValueError):
        extend(t2, 3)


def test_table_holds_state_dimension_bound_sequences():
    for b in (2, 16, 200):
        for p in range(5):
            t = build_table(b, p, 1)
            for column in t.moments:
                assert len(column) == len(_order(p)) == state_dimension_bound(b, p)


def test_power_sums_match_the_direct_sum():
    # the seed T(j, 0, 0) is sum_{l=1..b-1} l^j, computed without the digit loop
    for b in range(2, 60):
        t = build_table(b, 8, 1)
        seed = [t.moments[0][_at(j, 0)] for j in range(9)]
        assert seed == [sum(l**j for l in range(1, b)) for j in range(9)], b


def test_huge_base_costs_no_digit_loop():
    # a sum over the 10^12 digits would not finish
    b = 10**12
    t = build_table(b, 3, 6)
    assert moment_value(t, 1, 1) == b * (b - 1) // 2
    for k in range(1, 7):
        assert moment_value(t, 0, k) == (b - 1) * b**k
        expected = Fraction(b * (b - 1), 2 * b - 1) * (2 * b - 1) ** k - Fraction(b - 1, 2) * b**k
        assert moment_value(t, 1, k) == expected
    # of the two-digit numbers only ll is nonzero, with value l
    assert moment_value(t, 2, 1) == (b - 1) * b * (2 * b - 1) // 6


def test_seed_validation():
    with pytest.raises(InvalidBaseError):
        build_table(1, 2, 1)
    with pytest.raises(ValueError):
        build_table(2, -1, 1)
    with pytest.raises(ValueError, match="max_k"):
        build_table(2, 1, 0)


def test_build_table_refuses_a_symbolic_base():
    # only the private builder takes b as a polynomial; the public one checks
    from rabot import PolyInB

    with pytest.raises(InvalidBaseError):
        build_table(PolyInB((0, 1)), 1, 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_one_annihilator_check_over_integers_and_polynomials_in_b(p):
    # the same routine proves the per-base forms (int table) and the general
    # form (table over polynomials in b); dropping a root breaks it in both
    # (at an integer base a family's coefficient may vanish, as that of
    # b - 1 does at b = 2, p = 2, so only the largest root is dropped there)
    families = base_families(p)
    symbolic = _build(PolyInB((0, 1)), p, 2 * p + 1)
    assert annihilates(symbolic, families)
    for i in range(2 * p):
        assert not annihilates(symbolic, families[:i] + families[i + 1 :]), i
    for b in (2, 3, 10, 10**6):
        table = build_table(b, p, 2 * p + 1)
        roots = candidate_bases(b, p)
        assert annihilates(table, roots), b
        assert not annihilates(table, roots[:-1]), b
        assert not annihilates(table, roots[:-1] + [roots[-1] + 1]), b


def test_annihilator_reads_one_column_past_its_roots():
    roots = candidate_bases(2, 1)
    assert annihilates(build_table(2, 1, 3), roots)
    with pytest.raises(DepthError):
        annihilates(build_table(2, 1, 2), roots)
    # rows above the given power need more roots, so they are skipped
    wide = build_table(2, 2, 3)
    assert annihilates(wide, roots, 1)
    assert not annihilates(wide, roots)


def test_zero_polynomial_is_falsy_like_zero():
    assert not PolyInB(()) and not PolyInB((0, 0)) and not 0
    assert PolyInB((0, 1)) and PolyInB((5,))
    assert not any(PolyInB((1, 2)) - PolyInB((1, 2)) for _ in range(3))


def _power_sum(b, j):
    """F_j = sum_{l<b} l**j (0**0 = 1): the sum itself for small b, else the
    Lagrange interpolant through the sums at b = 1..j+2 (F_j is a polynomial
    of degree j + 1 in b)."""
    if b <= 60:
        return sum(l**j for l in range(b))
    nodes = range(1, j + 3)
    total = Fraction(0)
    for x in nodes:
        weight = Fraction(sum(l**j for l in range(x)))
        for y in nodes:
            if y != x:
                weight *= Fraction(b - y, x - y)
        total += weight
    assert total.denominator == 1
    return int(total)


def _direct_table(b, p, max_k):
    """T(j, q, k) for k = 0..max_k from the module docstring's update, one
    entry at a time: moments[k][s] for the s-th (j, q) of _order(p)."""
    f = [_power_sum(b, j) for j in range(p + 1)]
    t = {(j, q): (f[j] - (j == 0) if q == 0 else 0) for q in range(p + 1) for j in range(p - q + 1)}
    columns = [t]
    for _ in range(max_k):
        new = {}
        for q in range(p + 1):
            for j in range(p - q + 1):
                value = (b**q - 1) * t[(j, q)] + f[j] * t[(0, q)]
                for i in range(1, q + 1):
                    value += comb(q, i) * b ** (q - i) * t[(j + i, q - i)]
                new[(j, q)] = value
        t = new
        columns.append(t)
    return [tuple(c[state] for state in _order(p)) for c in columns]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(2, 50), st.integers(10**30 - 50, 10**30 + 50)),
    st.integers(0, 6),
    st.integers(1, 8),
    st.integers(1, 8),
)
@example(10**30 + 7, 6, 8, 3)
def test_table_is_the_update_rule_entry_by_entry(b, p, k, mid):
    direct = _direct_table(b, p, k)
    assert list(build_table(b, p, k).moments) == direct
    start = build_table(b, p, min(mid, k))
    extended = extend(start, k)
    assert list(extended.moments) == direct
    assert all(a is c for a, c in zip(start.moments, extended.moments))


@pytest.mark.parametrize("p", [1, 2, 7, 16])
def test_recurrence_check_queries_are_summed_in_process(p, monkeypatch):
    # b = 2..4 and k = 1..5, one enumeration per base: 4880 numbers, no level
    # at the 4096 at which the oracle splits a query over workers; then
    # cached for the power
    calls = []
    real = closedform.brute_moments

    def spy(base, power, kmax):
        calls.append((base, power, kmax))
        return real(base, power, kmax)

    def refuse(*args):
        raise AssertionError("a check query reached the workers")

    monkeypatch.setattr(closedform, "brute_moments", spy)
    monkeypatch.setattr(oracle, "_sum_on_workers", refuse)
    monkeypatch.setattr(oracle, "_ready_workers", refuse)
    closedform.check_recurrence_against_brute.cache_clear()
    closedform.check_recurrence_against_brute(p)
    closedform.check_recurrence_against_brute(p)
    assert calls == [(b, p, 5) for b in (2, 3, 4)]
    assert sum((b - 1) * b**k for b, _, kmax in calls for k in range(1, kmax + 1)) == 4880
    assert max((b - 1) * b**kmax for b, _, kmax in calls) < 2 * oracle._PARALLEL_MIN_CHUNK


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_recurrence_check_names_the_faulted_base(p, monkeypatch):
    # S(p, k) one too large in one base's table fails the check at that base and k
    real = closedform._build
    for bad in (2, 3, 4):
        for k in (1, 3, 5):

            def faulted(base, max_power, max_k):
                t = real(base, max_power, max_k)
                if base != bad:
                    return t
                moments = list(t.moments)
                moments[k] = (*moments[k][:-1], moments[k][-1] + 1)
                return MomentTable(t.base, t.max_power, t.max_k, tuple(moments))

            monkeypatch.setattr(closedform, "_build", faulted)
            closedform.check_recurrence_against_brute.cache_clear()
            value = moment_value(real(bad, p, 5), p, k)
            with pytest.raises(DisagreementError) as err:
                closedform.check_recurrence_against_brute(p)
            assert str(err.value) == (
                f"the recurrence gives S({p}, {k}) = {value + 1} at b={bad}, brute force {value}"
            )
    closedform.check_recurrence_against_brute.cache_clear()


def test_annihilator_refuses_a_power_outside_the_table():
    # every proof rests on this check: a negative power would read no row and so pass any roots
    table = build_table(2, 1, 3)
    for power in (-1, 2):
        with pytest.raises(ValueError, match=r"in 0\.\.1, the table's range, got"):
            annihilates(table, [5, 7], power)
    # both ends are admitted: S(0, k) = (b - 1)*b**k is killed by the root b
    assert annihilates(table, [2], 0) and not annihilates(table, [3], 0)
    assert annihilates(table, candidate_bases(2, 1), 1)


def test_build_table_names_a_bad_size():
    for size, message in (((-1, 5), "max_power must be a non-negative integer, got -1"),
                          ((2, 0), "max_k must be an integer >= 1, got 0")):
        with pytest.raises(ValueError) as err:
            build_table(2, *size)
        assert str(err.value) == message


def test_build_table_refuses_a_bad_base():
    for base in (1, 2.0, True):
        with pytest.raises(InvalidBaseError):
            build_table(base, 2, 5)


@pytest.mark.parametrize("p", range(1, 11))
def test_update_is_triangular_with_the_eigenvalue_families_on_its_diagonal(p):
    # the update's weights evaluated at b itself, as polynomials in b
    b = PolyInB((0, 1))
    basis = _basis(b, p)
    rows = _update(p)
    assert len(rows) == len(_order(p))
    diagonal = []
    for s, row in enumerate(rows):
        assert all(source <= s for _, source in row), s
        for smaller in range(p + 1):
            # the rows for j + q <= smaller read only the state of that power
            if s < (smaller + 1) * (smaller + 2) // 2:
                assert all(source < (smaller + 1) * (smaller + 2) // 2 for _, source in row), (s, smaller)
        diagonal.append(sum([c * basis[kind][e] for (kind, e, c), source in row if source == s], PolyInB(())))
    # written out here, not read from the package: b, b**q + b - 1 (q = 1..p)
    # and b**q - 1 (q = 1..p-1)
    families = {b} | {b**q + b - 1 for q in range(1, p + 1)} | {b**q - 1 for q in range(1, p)}
    assert len(families) == 2 * p
    assert {entry for entry in diagonal if entry} == families
    spectrum = _spectrum(b, p)
    assert len(spectrum) == 2 * p and set(spectrum) == families
    assert rows[: len(_order(p - 1))] == _update(p - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 6), st.integers(1, 8))
@example(12, 6, 8)
def test_last_digit_chain_sums_to_the_whole_state(b, p, k):
    # sum_l l**j * S(l, q, k) = T(j, q, k) for every j + q <= p, not only j = 0
    t = build_table(b, p, k)
    for kk in range(1, k + 1):
        chain = {(q, l): moment_value(t, q, kk, l) for q in range(p + 1) for l in range(b)}
        for s, (j, q) in enumerate(_order(p)):
            assert sum(l**j * chain[q, l] for l in range(b)) == t.moments[kk][s], (j, q, kk)
