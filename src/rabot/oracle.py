"""Brute-force moment sums by direct enumeration.

This is the independent ground truth the recurrence engine is checked
against.  Every number of the range is visited once, in ascending order,
and its own r(b, n)**power is added: no values are counted or summed in
closed form.  The value follows the definition of r over a prefix array:
pre[i] is r of the first i + 1 digits, and a digit survives shortening iff
it equals the digit before it.  An odometer over the leading digits updates
pre only from the digit it changed.  The trailing digits are taken a block
at a time: for a prefix ending in digit t with pre value low, a suffix s
(the block's digits, and the fixed last digit of a last-digit query) gives
r(n) = low*M(s|t) + A(s|t), where M = b**(number of digits of s that
survive) and A = the value of those surviving digits, by the same rule.
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

# Chunks smaller than this are summed in-process.  With the pool warm, two
# slices broke even at about 4-8k numbers each.  In-process against pooled,
# best of fifteen at p = 2 (Python 3.11, shared 2-vCPU VM): 4096 numbers at
# b = 2 took 1.0-1.3 against 1.0-1.2 ms, 6561 at b = 3 1.1 against 1.3 ms,
# 7203 at b = 7 1.6-1.8 against 1.6 ms and 8192 at b = 2 1.5 against
# 1.5-1.6 ms; the pool won from 16384 (b = 2, 3.1 against 2.3 ms) and 19683
# (b = 3, 4.7 against 3.1 ms) on.  The pool's start is paid once per
# process, not per call.
_PARALLEL_MIN_CHUNK = 4096

# Bases up to 16 (b*b <= _BLOCK) are summed a block of at least _BLOCK
# numbers at a time (see _sum_range); above 16 each carry of the one-digit
# sweep already covers at least 17 numbers.  There, one-digit tables ran
# 0.5-0.97x the sweep at b = 36, 256 and 2000 without a last digit, and
# two-digit blocks 1.1-1.6x at b = 17, 24 and 36 (best of seven, p = 0 and 2,
# Python 3.11, shared 2-vCPU VM), but each of b + 1 tables of a base would
# hold b*b entries (48k at b = 36, about the whole _TABLE_BUDGET).
_BLOCK = 256

# The suffix tables, by (base, last digit), at about 9 bytes an entry: one
# pointer each, and equal (M, A) pairs share a tuple.  The 33 that
# crosscheck-sized sweeps over b = 2..7 with every last digit use hold 20530
# entries, 0.18 MB.  A table that would take the kept ones over
# _TABLE_BUDGET entries (about 0.45 MB) drops them all first.  Threads may
# build a table twice or drop one another's: each sum keeps its own
# reference, so the cache only saves work and needs no lock.
_TABLE_BUDGET = 50_000
_tables: dict[tuple[int, int | None], list[tuple[int, int]]] = {}

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
    pre[i-1].  At bases up to 16 the last _block_width(b) variable digits,
    with the fixed last digit if any, form a block of suffixes, and an
    odometer over the digits before them steps once per block, recomputing
    pre only from the digit it changed.  For a prefix ending in digit t with
    pre value low, a suffix s gives r(n) = low*M(s|t) + A(s|t): M is
    b**(number of digits of s that survive) and A the value of those
    surviving digits, by the same survival rule.  Each number adds its own
    r**power, in order; nothing is counted or summed in closed form.  Larger
    bases, and ranges with too few digits for a block, sweep the last
    variable digit instead (_sweep_range).
    """
    if stop <= start:
        return 0
    width = _block_width(base)
    variable = k + 1 if last_digit is None else k
    if width is None or variable <= width:
        return _sweep_range(base, power, k, last_digit, start, stop)
    return _sum_blocks(base, power, k, last_digit, start, stop)


def _block_width(base: int) -> int | None:
    """Digits per block: the least j >= 2 with base**j >= _BLOCK, or None
    when two digits already exceed it."""
    if base * base > _BLOCK:
        return None
    width = 2
    while base**width < _BLOCK:
        width += 1
    return width


def _suffix_table(base: int, last_digit: int | None) -> list[tuple[int, int]]:
    """(M, A) for every suffix of _block_width(base) variable digits (and
    `last_digit`), indexed by the suffix's value, as if its first digit did
    not survive.

    A first digit that does survive (it equals the prefix's last digit t)
    gives M(s|t) = b*M and A(s|t) = t*M + A, so one table serves every t:
    r(n) = (low*b + t)*M + A on the block's t-th sub-block, and low*M + A
    elsewhere.  A new table that would take the kept ones
    over _TABLE_BUDGET entries in all drops them first.
    """
    key = (base, last_digit)
    table = _tables.get(key)
    if table is not None:
        return table
    width = _block_width(base)
    # M, A and the last digit of every suffix, one digit at a time
    scales, values, lasts = [1] * base, [0] * base, list(range(base))
    for _ in range(width - 1):
        scales = [m * base if d == t else m for m, t in zip(scales, lasts) for d in range(base)]
        values = [v * base + d if d == t else v for v, t in zip(values, lasts) for d in range(base)]
        lasts = list(range(base)) * len(lasts)
    if last_digit is not None:
        scales = [m * base if t == last_digit else m for m, t in zip(scales, lasts)]
        values = [v * base + last_digit if t == last_digit else v for v, t in zip(values, lasts)]
    # equal pairs share one tuple, so a table costs about a pointer a suffix
    interned: dict[tuple[int, int], tuple[int, int]] = {}
    table = [interned.setdefault(pair, pair) for pair in zip(scales, values)]
    if sum(map(len, list(_tables.values()))) + len(table) > _TABLE_BUDGET:
        _tables.clear()
    _tables[key] = table
    return table


def _sum_blocks(
    base: int, power: int, k: int, last_digit: int | None, start: int, stop: int
) -> int:
    """_sum_range one block of suffixes at a time: digits and pre cover only
    the prefix, and [x0, x1) is the part of the block inside the slice."""
    table = _suffix_table(base, last_digit)
    size = len(table)
    step = size // base  # suffixes per first suffix digit
    first = (base**k if last_digit is None else base ** (k - 1)) + start
    digits = list(from_value(base, first // size).digits)
    x0 = first % size
    last = len(digits) - 1
    pre = [0] * (last + 1)
    total = 0
    remaining = stop - start
    pos = 1
    while True:
        for i in range(pos, last + 1):
            d = digits[i]
            pre[i] = pre[i - 1] * base + d if d == digits[i - 1] else pre[i - 1]
        low = pre[last]
        t = digits[last]
        x1 = x0 + remaining
        if x1 > size:
            x1 = size
        # the sub-block whose first digit is t extends the prefix's value
        a = t * step
        for head, lo, hi in ((low, x0, a), (low * base + t, a, a + step), (low, a + step, x1)):
            if lo < x0:
                lo = x0
            if hi > x1:
                hi = x1
            if lo < hi:
                total += sum([(head * scale + value) ** power for scale, value in table[lo:hi]])
        remaining -= x1 - x0
        if not remaining:
            return total
        x0 = 0
        pos = last
        while digits[pos] == base - 1:
            digits[pos] = 0
            pos -= 1
        digits[pos] += 1
        if not pos:
            pos = 1


def _sweep_range(
    base: int, power: int, k: int, last_digit: int | None, start: int, stop: int
) -> int:
    """_sum_range one sweep of the innermost variable digit at a time: it
    evaluates each number from pre of the digits before it, and a carry
    recomputes pre only from the carried position on."""
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
