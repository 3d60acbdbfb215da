"""Brute-force moment sums by direct enumeration.

This is the independent ground truth the recurrence engine is checked
against.  Every number of the range is visited once, in ascending order
by odometer increment, and its own r(b, n)**power is added: no values are
counted or summed in closed form.  The value follows the definition of r
over a prefix array (a digit survives shortening iff it equals the digit
before it), which an increment updates only from the changed digit on.
Nothing is shared with the recurrence engine.  A configurable cap refuses
enumerations that are too large to finish at desk scale.

brute_moment_parallel sums large slices in one process pool per process.
The pool starts on the first call that needs it, not at import, and is
reused by every later call, so its start (about 10-15 ms) is paid once per
process: the saving is for a process that makes several pooled calls, such
as `rabot check`.  The pool's worker processes and its two management
threads outlive the call; they live until interpreter exit, when
concurrent.futures' own exit hook joins them.  A forked child forgets the
parent's pool and starts one of its own, and a broken pool is replaced once
per call.  Calls from several threads take turns on the pool.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat

from .digits import check_base, from_value
from .errors import EnumerationCapError, InvalidDigitError

DEFAULT_ENUM_CAP = 10**8

# Chunks smaller than this are summed in-process: handing them to the warm
# pool costs more than the enumeration itself.  With the pool already
# started, two slices broke even at about 1.5-7k numbers each (b = 2, 3 and
# 7, best of seven, Python 3.11, shared 2-vCPU VM); the start itself is paid
# once per process, not per call.
_PARALLEL_MIN_CHUNK = 4096

# The shared pool and its worker count.  The lock is held across each pooled
# call, so that no thread replaces the pool while another sums on it.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the inherited pool belongs to the parent, and the
    lock may have been held by a thread that does not exist here."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    on scheduling.  Slices of at least _PARALLEL_MIN_CHUNK numbers run in
    the process's warm pool (see the module docstring), with
    min(partitions, available CPUs) workers; smaller ones are summed
    in-process.  A call that finds the pool broken retries once on a fresh
    one, and raises BrokenProcessPool if that one breaks too.
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
    workers = min(partitions, available_cpus())

    def total(pool: ProcessPoolExecutor) -> int:
        base, power, k, digit = repeat(q.base), repeat(q.power), repeat(q.k), repeat(q.last_digit)
        return sum(pool.map(_sum_range, base, power, k, digit, starts, stops))

    with _pool_lock:
        try:
            return total(_warm_pool(workers))
        except BrokenProcessPool:
            return total(_warm_pool(workers, broken=True))


def available_cpus() -> int:
    """CPUs this process may run on: os.cpu_count() overstates them under a
    restricted affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _warm_pool(workers: int, broken: bool = False) -> ProcessPoolExecutor:
    """The process's pool, started when there is none yet, and replaced (the
    old one shut down first) when it has fewer than `workers` workers or is
    `broken`."""
    global _pool, _pool_workers
    if broken or _pool is None or _pool_workers < workers:
        if _pool is not None:
            _pool.shutdown()
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool
