"""Brute-force moment sums by direct enumeration.

This is the independent ground truth the recurrence engine is checked
against.  Every number of the range is visited once, in ascending order
by odometer increment, and its own r(b, n)**power is added: no values are
counted or summed in closed form.  The value follows the definition of r
over a prefix array (a digit survives shortening iff it equals the digit
before it), which an increment updates only from the changed digit on.
Nothing is shared with the recurrence engine.  A configurable cap refuses
enumerations that are too large to finish at desk scale.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from .digits import check_base, from_value
from .errors import EnumerationCapError, InvalidDigitError

DEFAULT_ENUM_CAP = 10**8

# Chunks smaller than this are summed in-process; forking a worker pool
# costs more than the enumeration itself.
_PARALLEL_MIN_CHUNK = 4096


@dataclass(frozen=True)
class MomentQuery:
    """Parameters of a moment sum.

    The sum ranges over the (b-1)*b^k numbers whose base-b representation
    has exactly k+1 digits, i.e. n in [b^k, b^(k+1)-1], each contributing
    r(b, n)**power (with 0**0 = 1, so power 0 yields a pure count).  When
    last_digit is given, the range is restricted to n = last_digit (mod b).
    """

    base: int
    power: int
    k: int
    last_digit: int | None = None

    def __post_init__(self) -> None:
        check_base(self.base)
        if not isinstance(self.power, int) or self.power < 0:
            raise ValueError(f"power must be a non-negative integer, got {self.power!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if self.last_digit is not None and not (
            isinstance(self.last_digit, int) and 0 <= self.last_digit < self.base
        ):
            raise InvalidDigitError(
                f"last digit {self.last_digit!r} out of range [0, {self.base - 1}]"
            )

    def count(self) -> int:
        """Number of integers the query enumerates."""
        if self.last_digit is None:
            return (self.base - 1) * self.base**self.k
        return (self.base - 1) * self.base ** (self.k - 1)


def _sum_range(
    base: int, power: int, k: int, last_digit: int | None, start: int, stop: int
) -> int:
    """Sum r(b, n)**power over the contiguous slice [start, stop) of the
    enumeration order (ascending n within the query's range).

    pre[i] is the raboter value of digits[:i+1]: pre[0] = 0, and
    pre[i] = pre[i-1]*b + digits[i] if digits[i] == digits[i-1], else
    pre[i-1].  The innermost variable digit is swept in a tight loop that
    evaluates each number from pre of the digits before it; a carry
    recomputes pre only from the carried position on.
    """
    if stop <= start:
        return 0
    if last_digit is None:
        digits = list(from_value(base, base**k + start).digits)
    else:
        digits = list(from_value(base, base ** (k - 1) + start).digits)
    m = len(digits) - 1  # position of the innermost variable digit
    pre = [0] * m
    total = 0
    remaining = stop - start
    pos = 1
    while True:
        for i in range(pos, m):
            d = digits[i]
            pre[i] = pre[i - 1] * base + d if d == digits[i - 1] else pre[i - 1]
        # the digit at m survives iff it equals prev; the leading digit never does
        if m:
            low = pre[m - 1]
            prev = digits[m - 1]
        else:
            low = 0
            prev = -1
        high = low * base + prev
        x0 = digits[m]
        x1 = x0 + remaining
        if x1 > base:
            x1 = base
        if last_digit is None:
            for x in range(x0, x1):
                total += (high if x == prev else low) ** power
        else:
            for x in range(x0, x1):
                value = high if x == prev else low
                if x == last_digit:
                    value = value * base + last_digit
                total += value**power
        remaining -= x1 - x0
        if not remaining:
            return total
        digits[m] = 0
        pos = m - 1
        while digits[pos] == base - 1:
            digits[pos] = 0
            pos -= 1
        digits[pos] += 1
        if not pos:
            pos = 1


def _check_cap(q: MomentQuery, cap: int | None) -> None:
    if cap is not None and q.count() > cap:
        # the count as (b-1)*b^e: its decimal form may be too long to print
        e = q.k if q.last_digit is None else q.k - 1
        raise EnumerationCapError(
            f"query enumerates {q.base - 1}*{q.base}^{e} numbers, above the cap of {cap}"
        )


def brute_moment(q: MomentQuery, cap: int | None = DEFAULT_ENUM_CAP) -> int:
    """Exact moment sum by direct enumeration.

    Refuses (rather than silently grinding) when the enumeration count
    exceeds `cap`; pass cap=None to lift the limit.
    """
    _check_cap(q, cap)
    return _sum_range(q.base, q.power, q.k, q.last_digit, 0, q.count())


def brute_moment_parallel(
    q: MomentQuery, partitions: int, cap: int | None = DEFAULT_ENUM_CAP
) -> int:
    """Same value as brute_moment(q) for every partition count.

    The range is split into `partitions` contiguous slices summed
    independently and added in slice order, so the result does not depend
    on scheduling.  Slices large enough to amortize a fork run in a
    process pool; small ones are summed in-process.
    """
    if not isinstance(partitions, int) or partitions < 1:
        raise ValueError(f"partitions must be a positive integer, got {partitions!r}")
    _check_cap(q, cap)
    count = q.count()
    bounds = [i * count // partitions for i in range(partitions + 1)]
    starts = bounds[:-1]
    stops = bounds[1:]
    if partitions == 1 or count // partitions < _PARALLEL_MIN_CHUNK:
        return sum(
            _sum_range(q.base, q.power, q.k, q.last_digit, a, b)
            for a, b in zip(starts, stops)
        )
    workers = min(partitions, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            _sum_range,
            repeat(q.base),
            repeat(q.power),
            repeat(q.k),
            repeat(q.last_digit),
            starts,
            stops,
        )
        return sum(parts)
