"""Brute-force moment oracle."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabot import (
    EnumerationCapError,
    InvalidBaseError,
    InvalidDigitError,
    MomentQuery,
    brute_moment,
    brute_moment_parallel,
    raboter,
)
from rabot.oracle import _sum_range


def test_first_moment_two_digit_binary():
    # two-digit binary numbers are 10 and 11; r = 0 and 1
    assert brute_moment(MomentQuery(2, 1, 1)) == 1


def test_power_zero_is_a_count():
    assert brute_moment(MomentQuery(2, 0, 3)) == 8


def test_second_moment_binary():
    # r over 4..7 is 0, 0, 1, 3; squares sum to 10
    assert brute_moment(MomentQuery(2, 2, 2)) == 10
    assert sum(raboter(2, n) ** 2 for n in range(4, 8)) == 10


def test_last_digit_restriction():
    # of the two-digit binary numbers only 11 ends in 1
    assert brute_moment(MomentQuery(2, 1, 1, last_digit=1)) == 1
    assert brute_moment(MomentQuery(2, 1, 1, last_digit=0)) == 0


def test_counts_match_formulas():
    for b in range(2, 6):
        for k in range(1, 5):
            assert brute_moment(MomentQuery(b, 0, k)) == (b - 1) * b**k
            for l in range(b):
                assert (
                    brute_moment(MomentQuery(b, 0, k, last_digit=l))
                    == (b - 1) * b ** (k - 1)
                )


def test_matches_direct_sum_over_range():
    rng = random.Random(11)
    for _ in range(20):
        b = rng.randrange(2, 6)
        p = rng.randrange(0, 4)
        k = rng.randrange(1, 4)
        expected = sum(raboter(b, n) ** p for n in range(b**k, b ** (k + 1)))
        assert brute_moment(MomentQuery(b, p, k)) == expected


def test_last_digit_decomposition():
    for b in range(2, 6):
        for p in range(4):
            for k in range(1, 6):
                total = brute_moment(MomentQuery(b, p, k))
                assert (
                    sum(
                        brute_moment(MomentQuery(b, p, k, last_digit=l))
                        for l in range(b)
                    )
                    == total
                )


def test_partition_invariance():
    rng = random.Random(12)
    for _ in range(30):
        q = MomentQuery(
            rng.randrange(2, 6),
            rng.randrange(0, 4),
            rng.randrange(1, 6),
            rng.choice([None, 0, 1]),
        )
        serial = brute_moment(q)
        for partitions in (1, 2, 4, 8):
            assert brute_moment_parallel(q, partitions) == serial


def test_parallel_large_chunks_spawn_pool():
    # big enough that chunks cross the in-process threshold
    q = MomentQuery(3, 1, 9)
    assert brute_moment_parallel(q, 4) == brute_moment(q)


def test_eight_partitions_match_one():
    q = MomentQuery(3, 1, 4)
    assert brute_moment_parallel(q, 8) == brute_moment_parallel(q, 1)


def test_cap_refused():
    with pytest.raises(EnumerationCapError):
        brute_moment(MomentQuery(2, 1, 30), cap=1000)
    with pytest.raises(EnumerationCapError):
        brute_moment_parallel(MomentQuery(2, 1, 30), 4, cap=1000)


def test_cap_refusal_states_a_huge_count_as_a_power():
    # the count 2*3^10000 has more decimal digits than Python will print
    with pytest.raises(EnumerationCapError, match=r"enumerates 2\*3\^10000 numbers"):
        brute_moment(MomentQuery(3, 1, 10000))
    with pytest.raises(EnumerationCapError, match=r"enumerates 2\*3\^9999 numbers"):
        brute_moment(MomentQuery(3, 1, 10000, last_digit=1))


def test_cap_boundary_and_override():
    q = MomentQuery(2, 1, 3)
    assert q.count() == 8
    assert brute_moment(q, cap=8) == 14
    with pytest.raises(EnumerationCapError):
        brute_moment(q, cap=7)
    assert brute_moment(q, cap=None) == 14


def test_query_validation():
    with pytest.raises(InvalidBaseError):
        MomentQuery(1, 1, 1)
    with pytest.raises(ValueError):
        MomentQuery(2, -1, 1)
    with pytest.raises(ValueError):
        MomentQuery(2, 1, 0)
    with pytest.raises(InvalidDigitError):
        MomentQuery(2, 1, 1, last_digit=2)
    with pytest.raises(ValueError):
        brute_moment_parallel(MomentQuery(2, 1, 1), 0)


@st.composite
def queries(draw):
    b = draw(st.integers(2, 9))
    return MomentQuery(
        b,
        draw(st.integers(0, 4)),
        draw(st.integers(1, 4)),
        draw(st.none() | st.integers(0, b - 1)),
    )


@st.composite
def slices(draw):
    q = draw(queries())
    start = draw(st.integers(0, q.count()))
    return q, start, draw(st.integers(start, q.count()))


def _enumerated(q, start, stop):
    """The numbers at positions [start, stop) of the query's ascending order."""
    if q.last_digit is None:
        return [q.base**q.k + i for i in range(start, stop)]
    return [(q.base ** (q.k - 1) + i) * q.base + q.last_digit for i in range(start, stop)]


@settings(max_examples=150, deadline=None)
@given(slices())
@example((MomentQuery(3, 2, 2), 4, 4))  # empty slice inside the range
@example((MomentQuery(3, 2, 2), 18, 18))  # empty slice at the end
@example((MomentQuery(3, 2, 3), 1, 53))  # starts and stops inside a sweep
@example((MomentQuery(5, 3, 3, 2), 7, 93))
@example((MomentQuery(4, 1, 1, 3), 1, 2))  # one variable digit, the leading one
@example((MomentQuery(2, 4, 4, 0), 0, 8))  # a whole last-digit range
def test_sum_range_matches_direct_sum(case):
    q, start, stop = case
    expected = sum(raboter(q.base, n) ** q.power for n in _enumerated(q, start, stop))
    assert _sum_range(q.base, q.power, q.k, q.last_digit, start, stop) == expected


@settings(max_examples=25, deadline=None)
@given(queries(), st.sampled_from([3, 5, 7]))
def test_unaligned_partitions_match_serial(q, partitions):
    assert brute_moment_parallel(q, partitions) == brute_moment(q)
