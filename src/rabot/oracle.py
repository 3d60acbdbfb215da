"""Brute-force moment sums by direct enumeration.

This is the independent ground truth the recurrence engine is checked
against.  Every number of the range is visited once, in ascending order,
and adds its own term r(b, n)**power: no values are counted or summed in
closed form.  The value follows the definition of r over a prefix array:
pre[i] is r of the first i + 1 digits, and a digit survives shortening iff
it equals the digit before it.  An odometer over the leading digits updates
pre only from the digit it changed.  The trailing digits are taken a block
at a time: for a prefix ending in digit t with pre value low, a suffix s
(the block's digits, and the fixed last digit of a last-digit query) gives
r(n) = low*M(s|t) + A(s|t), where M = b**(number of digits of s that
survive) and A = the value of those surviving digits, by the same rule.
In a block, each number's term is 1 at power 0 (r**0 = 1 for every r, and
0**0 = 1), so r is not evaluated there; powers 1 to 3 multiply its r out
inline, and higher powers raise it with **.  Nothing is shared with the
recurrence engine.  A configurable cap refuses enumerations that are too
large to finish at desk scale.

Large queries are summed on every available CPU.  Above _PARALLEL_MIN_CHUNK
numbers per slice, the range is split into contiguous slices: the caller
sends every slice but the first to the process's workers, sums the first
itself, and then reads the workers' sums and adds them in slice order.  The
available_cpus() - 1 workers are forked on the first call that needs them,
not at import, and reused by every later call.  Each holds one end of a
duplex pipe and loops: receive a query and its slices, send back their sum.
No thread is started, so no management thread competes with the caller for
the interpreter lock.  At exit the process kills and reaps its workers; if
it exits without running its exit hooks, each worker reads end of file and
exits.  A forked child forgets the parent's workers and forks its own, and
calls from several threads take turns on the workers.
"""
from __future__ import annotations

import atexit
import os
import signal
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .digits import check_base, from_value
from .errors import EnumerationCapError, InvalidDigitError

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

DEFAULT_ENUM_CAP = 10**8

# Slices smaller than this are summed in-process.  The caller and one warm
# worker broke even at about 1-2k numbers a slice.  In-process against
# caller plus worker at p = 2, b = 2, best and median of 41 (Python 3.11.7,
# shared 2-vCPU VM): two slices of 512 took 0.085/0.088 against
# 0.130/0.145 ms, of 1024 0.164/0.172 against 0.191/0.212 ms, of 2048
# 0.327/0.353 against 0.234/0.281 ms and of 4096 0.67/0.74 against
# 0.54/0.65 ms.  On perfbench's crosscheck, whose ops enumerate 6480 to
# 16384 numbers, 15 s runs (seeds 1-3) read wall_s 0.093-0.102 s at 1024,
# 0.081-0.108 s at 2048 and 0.095-0.104 s at 4096 (where the b = 6 ops stay
# in-process); over ten alternating 50 s pairs its median went from 0.123 s
# with the executor pool this replaced to 0.077 s.  The fork is paid once
# per process: cold, `rabot sum --engine brute --base 2 --power 2` took a
# median of 148 against 165 ms with the pool at 16k numbers, where the
# lighter import saves more than the fork costs, and 309 against 433 ms at
# 2M numbers.
_PARALLEL_MIN_CHUNK = 2048

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

# The worker processes, as (pid, our end of its pipe), or None before the
# first call that needs them.  The lock is held across each call that sums on
# them, so that each reply is read by the call that asked for it and no
# thread replaces a worker while another sums on it.
_workers: list[tuple[int, Connection]] | None = None
_lock = threading.Lock()


def _forget_workers() -> None:
    """In a forked child: the workers belong to the parent.  Close the child's
    copies of their pipe ends, so that each worker still sees end of file when
    the parent exits, and take a new lock: the old one may have been held by a
    thread that does not exist here."""
    global _workers, _lock
    for _, conn in _workers or ():
        conn.close()
    _workers, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


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
    r**power, in order, in the loop for its power (see _sum_blocks); nothing
    is counted or summed in closed form.  Larger bases, and ranges with too
    few digits for a block, sweep the last variable digit instead
    (_sweep_range).
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
    the prefix, and [x0, x1) is the part of the block inside the slice.

    Each sub-block is summed by one loop per power, which adds a term for
    every suffix it enumerates: 1 at power 0 (r**0 = 1 for every r, 0**0
    included), r = head*M + A at power 1, r*r and r*r*r at powers 2 and 3,
    and r**power above.  The products skip the dispatch of CPython's int **,
    which took much of the loop's time at p <= 3: with **, p = 0 cost about
    as much as p = 2.
    """
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
            if lo >= hi:
                continue
            if power == 0:
                total += sum([1 for _ in table[lo:hi]])
            elif power == 1:
                total += sum([head * scale + value for scale, value in table[lo:hi]])
            elif power == 2:
                total += sum([(r := head * scale + value) * r for scale, value in table[lo:hi]])
            elif power == 3:
                total += sum([(r := head * scale + value) * r * r for scale, value in table[lo:hi]])
            else:
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
    exceeds `cap`; pass cap=None to lift the limit.  The range is summed in
    one slice per available CPU, or in fewer where that would leave a slice
    below _PARALLEL_MIN_CHUNK numbers, and one slice is summed in-process
    (see the module docstring).
    """
    return _moment(q, None, cap)


def brute_moment_parallel(
    q: MomentQuery, partitions: int, cap: int | None = DEFAULT_ENUM_CAP
) -> int:
    """Same value as brute_moment(q) for every partition count.

    The range is split into `partitions` contiguous slices, each summed
    exactly on its own, so the result does not depend on scheduling.  Slices
    of at least _PARALLEL_MIN_CHUNK numbers are shared out over the caller
    and up to partitions - 1 workers (see the module docstring); smaller
    ones are summed in-process.  A call that finds a worker dead replaces it
    and retries once, and raises EOFError or ConnectionError if a worker is
    found dead again.
    """
    if not isinstance(partitions, int) or partitions < 1:
        raise ValueError(f"partitions must be a positive integer, got {partitions!r}")
    return _moment(q, partitions, cap)


def _moment(q: MomentQuery, partitions: int | None, cap: int | None) -> int:
    """brute_moment(q, cap) when `partitions` is None, and otherwise
    brute_moment_parallel(q, partitions, cap)."""
    _check_cap(q, cap)
    count = q.count()
    args = (q.base, q.power, q.k, q.last_digit)
    slices = count // _PARALLEL_MIN_CHUNK if partitions is None else partitions
    if slices > 1 and count // slices >= _PARALLEL_MIN_CHUNK:
        with _lock:
            workers = _ready_workers()
            if workers:
                if partitions is None:
                    slices = min(slices, len(workers) + 1)
                bounds = [i * count // slices for i in range(slices + 1)]
                try:
                    return _sum_on_workers(args, bounds, workers)
                except (EOFError, ConnectionError):  # a worker died; it was replaced
                    return _sum_on_workers(args, bounds, workers)
    return _sum_range(*args, 0, count)


def _sum_on_workers(
    args: tuple[int, int, int, int | None], bounds: list[int], workers: list[tuple[int, Connection]]
) -> int:
    """Sum the slices between consecutive `bounds` on the caller and the
    workers, for n = min(slices, workers + 1): slice i goes to the caller when
    i % n is 0 and to worker i % n - 1 otherwise.

    The caller sends the workers their slices, sums its own, then reads the
    replies in order.  If it raises before reading them all, every worker
    whose reply it did not read is replaced first, so no reply is left for a
    later call.  An exception raised in a worker comes back as its reply and
    is raised here once every reply has been read.
    """
    slices = list(zip(bounds, bounds[1:]))
    n = min(len(slices), len(workers) + 1)
    unread = []
    replies = []
    try:
        for i, worker in enumerate(workers[: n - 1], 1):
            unread.append(worker)
            worker[1].send((args, slices[i::n]))
        total = sum(_sum_range(*args, start, stop) for start, stop in slices[::n])
        while unread:
            replies.append(unread[0][1].recv())
            del unread[0]
    except BaseException:
        _replace(unread)
        raise
    for reply in replies:
        if isinstance(reply, BaseException):
            raise reply
        total += reply
    return total


def available_cpus() -> int:
    """CPUs this process may run on: os.cpu_count() overstates them under a
    restricted affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ready_workers() -> list[tuple[int, Connection]]:
    """The process's workers: available_cpus() - 1 of them, forked on the
    first call, or none where the platform cannot fork."""
    global _workers
    if _workers is None:
        _workers = []
        if hasattr(os, "fork"):
            for _ in range(available_cpus() - 1):
                _workers.append(_start_worker())
    return _workers


def _start_worker() -> tuple[int, Connection]:
    """Fork a worker on one end of a new duplex pipe; return its pid and the
    other end."""
    from multiprocessing import Pipe

    ours, theirs = Pipe()
    pid = os.fork()
    if not pid:  # the worker never returns into its parent's code
        try:
            ours.close()
            _serve(theirs)
        finally:
            os._exit(0)
    theirs.close()
    return pid, ours


def _serve(conn: Connection) -> None:
    """A worker's loop: receive a query's arguments and slices and send back
    the slices' sum, or the exception that summing them raised, until end of
    file.  Interrupts are ignored: the caller replaces the workers whose
    replies it did not read."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            args, slices = conn.recv()
        except EOFError:
            return
        try:
            reply = sum(_sum_range(*args, start, stop) for start, stop in slices)
        except Exception as exc:  # raised by the caller
            reply = exc
        conn.send(reply)


def _replace(stale: list[tuple[int, Connection]]) -> None:
    """Stop the workers in `stale` and fork as many new ones."""
    for worker in stale:
        _workers.remove(worker)
    _stop(stale)
    for _ in stale:
        _workers.append(_start_worker())


def _stop(workers: list[tuple[int, Connection]]) -> None:
    """Close our ends of the workers' pipes, then kill and reap them."""
    for pid, conn in workers:
        conn.close()
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped elsewhere already
            pass


def _stop_workers() -> None:
    """Stop every worker: at exit, so that none outlives the process, not
    even as a zombie."""
    global _workers
    _stop(_workers or [])
    _workers = None


atexit.register(_stop_workers)
