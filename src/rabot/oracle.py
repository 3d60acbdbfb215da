"""Brute-force moment sums by direct enumeration.

This is the independent ground truth the recurrence engine is checked
against, and it shares nothing with it.  Every number of the range is
visited once and adds its own term r(b, n)**power: no values are counted or
summed in closed form.  Power 0 is the one exception: there every term is 1
whatever r is (0**0 = 1 included), so each segment of visited numbers adds
its length.  The odometer still builds every segment, so a power-0 sum still
checks that the range is covered exactly once.  The numbers are visited in
ascending order, except inside a block, where they go group by group.  The
value follows the definition of r: a digit survives shortening iff it
equals the digit before it.  One odometer steps over each number's leading
digits and keeps r of them; the rest of the number, its tail, is a block of
its last few digits, valued from a per-query table, or else its last digit
alone (see _walk).  A configurable cap refuses enumerations that are too
large to finish at desk scale.

Large queries are summed on every available CPU.  A query of at least
2*_PARALLEL_MIN_CHUNK numbers is split into contiguous slices that end on
run edges, one per process and none below _PARALLEL_MIN_CHUNK numbers: the
caller sends every slice but the first to one worker each, sums the first
itself, and then reads the workers' sums and adds them in slice order.  The
available_cpus() - 1 workers are forked on the first call that needs them,
not at import, and reused by every later call.  Each worker has two plain
pipes, one that carries slices to it and one that carries sums back, and
loops: receive one slice of a query, send back its sum.  Each message is
pickled after its length (see _Channel).  No thread is started, so no
management thread competes with the caller for the interpreter lock.  At
exit the process kills and reaps its workers; if it exits without running
its exit hooks, each worker reads end of file and exits.  A forked child
forgets the parent's workers and forks its own, and calls from several
threads take turns on the workers.
"""
from __future__ import annotations

import atexit
import os
import signal
import threading
from dataclasses import dataclass

from .digits import check_base, from_value
from .errors import EnumerationCapError, InvalidDigitError, WorkerError

DEFAULT_ENUM_CAP = 10**8

# Slices smaller than this are summed in-process.  The caller and one warm
# worker break even at about 1-2k numbers a slice at p = 0, and below 512
# at p = 2.  Caller plus worker (_sum_on_workers) against in-process
# (_sum_range), two equal slices at b = 2, best and median of 201
# alternating calls (Python 3.11.7, shared 2-vCPU VM): at p = 0, slices of
# 512 took 0.027/0.036 against 0.020/0.024 ms, of 1024 0.029/0.037 against
# 0.024/0.028 ms, of 2048 0.035/0.042 against 0.040/0.049 ms and of 4096
# 0.051/0.065 against 0.078/0.095 ms; at p = 2, slices of 512 took
# 0.049/0.062 against 0.068/0.085 ms and of 2048 0.141/0.198 against
# 0.190/0.295 ms.  With an earlier, slower kernel, on perfbench's crosscheck, whose ops
# enumerate 6480 to 16384 numbers, 15 s runs (seeds 1-3) read wall_s
# 0.093-0.102 s at 1024, 0.081-0.108 s at 2048 and 0.095-0.104 s at 4096
# (where the b = 6 ops stay in-process); over ten alternating 50 s pairs its median went from 0.123 s
# with the executor pool this replaced to 0.077 s.  The fork is paid once
# per process: cold, `rabot sum --engine brute --base 2 --power 2` took a
# median of 148 against 165 ms with the pool at 16k numbers, where the
# lighter import saves more than the fork costs, and 309 against 433 ms at
# 2M numbers.
_PARALLEL_MIN_CHUNK = 2048

# A query's block is the widest that leaves a prefix digit and has at most
# _BLOCK_MAX numbers (see _block_width), so short queries keep blocks, and
# every base up to 50 has them.  Wider blocks ran faster: over crosscheck's
# queries (b = 2..7, p = 0..3, every last digit and none, the largest k with
# at most 3*10^4 numbers; one process, best of five, tables warm, Python
# 3.11.7, shared 2-vCPU VM) the mean query took 0.64 ms at a cap of 256,
# 0.40-0.45 at 1100, 0.38 at 2100, 0.35 at 2500 and 0.32 at 5000, and 0.47
# with a fixed block of (M, A) pairs of at least 256 numbers at b <= 16.  At
# 5000 their 33 tables would hold 62594 entries, over _TABLE_BUDGET.  The
# terms are summed at least _BLOCK_MAX at a time.
_BLOCK_MAX = 2500

# The suffix tables, by (base, last digit, width), at about 10 bytes an
# entry: one pointer each, and an int for the few A values above 256.  In
# the group where no digit survives, A is 0 throughout, so every table
# shares _ZEROS for it, which is not counted.  Crosscheck's 33 tables hold
# 33482 entries for their 52042 suffixes, 0.33 MB.  A table that would take
# the kept ones over _TABLE_BUDGET entries (about 0.5 MB) drops them all
# first.  Threads may build a table twice or drop one another's: each sum
# keeps its own reference, so the cache only saves work and needs no lock.
_TABLE_BUDGET = 50_000
_ZEROS = [0] * _BLOCK_MAX
# (b**j, A values, run starts) per group: see _suffix_table
_Table = list[tuple[int, list[int], list[int]]]
_tables: dict[tuple[int, int | None, int], _Table] = {}

# The worker processes, as (pid, our channel to it), or None before the
# first call that needs them.  The lock is held across each call that sums on
# them, so that each reply is read by the call that asked for it and no
# thread replaces a worker while another sums on it.
_workers: list[tuple[int, _Channel]] | None = None
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
    """Sum r(b, n)**power over the numbers at positions [start, stop) of the
    query's range in ascending order.

    With a block width (see _block_width), the whole runs of the slice are
    summed by blocks, and what the slice leaves of a run at either end is
    swept; without one, the whole slice is swept (see _walk).
    """
    width = _block_width(base, k, last_digit)
    if width is None:
        return _walk(base, power, k, last_digit, start, stop, 1)
    run = base ** (width - 1)
    lo = min(-(-start // run) * run, stop)
    hi = max(stop // run * run, lo)
    return (
        _walk(base, power, k, last_digit, start, lo, 1)
        + _walk(base, power, k, last_digit, lo, hi, width)
        + _walk(base, power, k, last_digit, hi, stop, 1)
    )


def _walk(
    base: int, power: int, k: int, last_digit: int | None, start: int, stop: int, width: int
) -> int:
    """Sum [start, stop) as a prefix of digits followed by a tail of the last
    `width` variable digits (and the fixed last digit, if any).

    An odometer steps over the prefix once per tail and recomputes pre only
    from the digit it changed: pre[0] = 0, and pre[i] = pre[i-1]*b +
    digits[i] if digits[i] == digits[i-1], else pre[i-1].  So low = pre[-1]
    is r of the prefix, and t is its last digit.  The tail is one of two
    kinds:
    - a block, at width >= 2, of which [start, stop) holds whole runs (the
      numbers whose tail has the same first digit).  A suffix whose first
      digit d does not survive gives r(n) = low*b**j + A, where j and A are
      the number and the value of its digits that survive after d; if d
      survives (d == t), r(n) = (low*b + t)*b**j + A.  _suffix_table groups
      the suffixes by j, so each group takes one c per prefix and run and
      each number one add, r = c + A.
    - the last variable digit x alone, at width 1, swept: x survives iff
      x == t, and a fixed last digit survives iff it equals x.  Its terms
      are r itself, with c = 0.
    Either way the terms are summed by _power_sum, at least _BLOCK_MAX of
    them at a time.  With no prefix digit (k = 1 with a last digit: only the
    leading digit varies), low is 0 and t equals no digit.
    """
    if stop <= start:
        return 0
    size = base**width
    table = _suffix_table(base, last_digit, width) if width > 1 else None
    run = size // base
    first = (base**k if last_digit is None else base ** (k - 1)) + start
    digits = list(from_value(base, first // size).digits)
    x0 = first % size
    last = len(digits) - 1
    pre = [0] * (last + 1)
    total = 0
    remaining = stop - start
    pos = 1
    segments = []  # (c, A values) not yet summed
    pending = 0  # numbers in them
    while True:
        for i in range(pos, last + 1):
            d = digits[i]
            pre[i] = pre[i - 1] * base + d if d == digits[i - 1] else pre[i - 1]
        if digits:
            low = pre[last]
            t = digits[last]
        else:
            low = 0
            t = -1
        high = low * base + t
        x1 = x0 + remaining
        if x1 > size:
            x1 = size
        if table is None:
            if x1 - x0 > _BLOCK_MAX:  # a wide base's digit, a part at a time
                x1 = x0 + _BLOCK_MAX
            terms = [low] * (x1 - x0)
            if x0 <= t < x1:
                terms[t - x0] = high
            if last_digit is not None and x0 <= last_digit < x1:
                terms[last_digit - x0] = terms[last_digit - x0] * base + last_digit
            segments.append((0, terms))
        else:
            r0 = x0 // run
            r1 = x1 // run
            for scale, values, starts in table:
                c = low * scale
                for head, lo, hi in ((c, r0, t), (high * scale, t, t + 1), (c, t + 1, r1)):
                    if lo < r0:
                        lo = r0
                    if hi > r1:
                        hi = r1
                    if lo < hi:
                        segments.append((head, values[starts[lo] : starts[hi]]))
        remaining -= x1 - x0
        if not remaining:
            return total + _power_sum(segments, power)
        pending += x1 - x0
        if pending >= _BLOCK_MAX:
            total += _power_sum(segments, power)
            segments = []
            pending = 0
        if x1 < size:  # the same prefix
            x0 = x1
            pos = last + 1
            continue
        x0 = 0
        pos = last
        while digits[pos] == base - 1:
            digits[pos] = 0
            pos -= 1
        digits[pos] += 1
        if not pos:
            pos = 1


def _power_sum(segments: list[tuple[int, list[int]]], power: int) -> int:
    """Sum (c + A)**power over every A of every (c, values) in `segments`.
    At power 0 every term is 1 (r**0 = 1 for every r, 0**0 included), so
    each segment adds its length.  Above it, one add per A and the power's
    own products: r*r and r*r*r at powers 2 and 3, and ** above.  The
    products skip the dispatch of CPython's int **, which took much of the
    time at p <= 3."""
    if power == 0:
        return sum([len(values) for _, values in segments])
    if power == 1:
        return sum([c + a for c, values in segments for a in values])
    if power == 2:
        return sum([(r := c + a) * r for c, values in segments for a in values])
    if power == 3:
        return sum([(r := c + a) * r * r for c, values in segments for a in values])
    return sum([(c + a) ** power for c, values in segments for a in values])


def _block_width(base: int, k: int, last_digit: int | None) -> int | None:
    """Digits per block for a query: the widest that leaves at least one of
    its variable digits to the prefix and has at most _BLOCK_MAX numbers, or
    None below two digits, where the last digit is swept."""
    variable = k + 1 if last_digit is None else k
    width = 1
    while width + 1 < variable and base ** (width + 1) <= _BLOCK_MAX:
        width += 1
    return width if width > 1 else None


def _suffix_table(base: int, last_digit: int | None, width: int) -> _Table:
    """The suffixes of `width` variable digits (and `last_digit`) as groups
    (b**j, the A of each suffix, starts), one per j: j and A are the number
    and the value of the suffix's digits that survive after its first one.
    Each group lists its suffixes in ascending order, and starts[d] is the
    index of its first suffix whose first digit is at least d (starts[b] is
    its length).  The table is built from the last digit forwards, in one
    pass over each group per digit.  A new table that would take the kept
    ones over _TABLE_BUDGET entries in all drops them first.
    """
    key = (base, last_digit, width)
    table = _tables.get(key)
    if table is not None:
        return table
    # the last variable digit x alone: j = 1 and A = last_digit where the
    # last digit follows and survives (x == last_digit), else j = 0 and A = 0
    if last_digit is None:
        groups = {1: ([0] * base, list(range(base + 1)))}
    else:
        groups = {
            1: ([0] * (base - 1), [d - (d > last_digit) for d in range(base + 1)]),
            base: ([last_digit], [int(d > last_digit) for d in range(base + 1)]),
        }
    # then one digit d in front at a time: the old first digit survives in
    # run d, which moves up a group, its A grown by d*b**j
    for _ in range(width - 1):
        grown: dict[int, tuple[list[int], list[int]]] = {}
        scales = sorted({*groups, *(scale * base for scale in groups)})
        for d in range(base):
            for scale in scales:
                values, starts = grown.setdefault(scale, ([], []))
                starts.append(len(values))
                same = groups.get(scale)
                below = groups.get(scale // base)
                if same:
                    values += same[0][: same[1][d]]
                if below:
                    moved = below[0][below[1][d] : below[1][d + 1]]
                    values += [d * (scale // base) + a for a in moved]
                if same:
                    values += same[0][same[1][d + 1] :]
        for values, starts in grown.values():
            starts.append(len(values))
        groups = grown
    # where no digit survives, A is 0 (see _ZEROS); the rest are copied to
    # their exact size
    table = [
        (scale, _ZEROS if scale == 1 else values[:], starts)
        for scale, (values, starts) in sorted(groups.items())
        if values
    ]
    if sum(map(_entries, list(_tables.values()))) + _entries(table) > _TABLE_BUDGET:
        _tables.clear()
    _tables[key] = table
    return table


def _entries(table: _Table) -> int:
    """The A values a suffix table holds, the shared zeros not counted."""
    return sum(len(values) for _, values, _ in table if values is not _ZEROS)


def _check_cap(q: MomentQuery, cap: int | None) -> None:
    if cap is not None and q.count() > cap:
        # the count as (b-1)*b^e: its decimal form may be too long to print,
        # and a base or cap over 64 bits is named by its size, as in the
        # CLI's errors
        e = q.k if q.last_digit is None else q.k - 1
        bits = q.base.bit_length()
        count = f"{q.base - 1}*{q.base}^{e} numbers" if bits <= 64 else f"(b-1)*b^{e} numbers at a {bits}-bit b"
        limit = f"the cap of {cap}" if cap.bit_length() <= 64 else f"a {cap.bit_length()}-bit cap"
        raise EnumerationCapError(f"query enumerates {count}, above {limit}")


def brute_moment(q: MomentQuery, cap: int | None = DEFAULT_ENUM_CAP) -> int:
    """Exact moment sum by direct enumeration.

    Refuses (rather than silently grinding) when the enumeration count
    exceeds `cap`; pass cap=None to lift the limit.  The range is summed in
    one slice per available CPU, or in fewer where that would leave a slice
    below _PARALLEL_MIN_CHUNK numbers, and one slice is summed in-process
    (see the module docstring).  A call that finds a worker dead replaces it
    and retries once, and raises WorkerError, chained from the EOFError or
    ConnectionError, if a worker is found dead again.
    """
    return _moment(q, cap)


# perfbench/workloads.py still calls the oracle by this name; `partitions` is
# ignored, and _moment is called directly so that its tracer sees one span
def brute_moment_parallel(q: MomentQuery, partitions: int, cap: int | None = DEFAULT_ENUM_CAP) -> int:
    return _moment(q, cap)


def _moment(q: MomentQuery, cap: int | None) -> int:
    """brute_moment(q, cap)."""
    _check_cap(q, cap)
    count = q.count()
    args = (q.base, q.power, q.k, q.last_digit)
    slices = count // _PARALLEL_MIN_CHUNK
    if slices > 1:
        with _lock:
            workers = _ready_workers()
            if workers:
                slices = min(slices, len(workers) + 1)
                # slices end on run edges, so that no run is swept
                width = _block_width(q.base, q.k, q.last_digit)
                run = 1 if width is None else q.base ** (width - 1)
                bounds = [i * (count // run) // slices * run for i in range(slices + 1)]
                try:
                    return _sum_on_workers(args, bounds, workers)
                except (EOFError, ConnectionError):  # a worker died; it was replaced
                    pass
                try:
                    return _sum_on_workers(args, bounds, workers)
                except (EOFError, ConnectionError) as exc:
                    # not a BrokenPipeError: that would read as a closed stdout
                    died = type(exc).__name__
                    raise WorkerError(f"an oracle worker died twice in one call ({died})") from exc
    return _sum_range(*args, 0, count)


def _sum_on_workers(
    args: tuple[int, int, int, int | None], bounds: list[int], workers: list[tuple[int, _Channel]]
) -> int:
    """Sum the slices between consecutive `bounds`, at most one more than
    there are workers: the caller sums the first and worker i the slice
    i + 1.

    The caller sends the workers their slices, sums its own, then reads the
    replies in order.  If it raises before reading them all, every worker
    whose reply it did not read is replaced first, so no reply is left for a
    later call.  An exception raised in a worker comes back as its reply and
    is raised here once every reply has been read.
    """
    unread = []
    replies = []
    try:
        for worker, start, stop in zip(workers, bounds[1:], bounds[2:]):
            unread.append(worker)
            worker[1].send((*args, start, stop))
        total = _sum_range(*args, bounds[0], bounds[1])
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


def _ready_workers() -> list[tuple[int, _Channel]]:
    """The process's workers: available_cpus() - 1 of them, forked on the
    first call, or none where the platform cannot fork."""
    global _workers
    if _workers is None:
        _workers = []
        if hasattr(os, "fork"):
            for _ in range(available_cpus() - 1):
                _workers.append(_start_worker())
    return _workers


def _start_worker() -> tuple[int, _Channel]:
    """Fork a worker on two new pipes, one to it and one back; return its pid
    and our channel on them."""
    to_worker, to_caller = os.pipe(), os.pipe()
    ours = _Channel(to_caller[0], to_worker[1])
    theirs = _Channel(to_worker[0], to_caller[1])
    pid = os.fork()
    if not pid:  # the worker never returns into its parent's code
        try:
            ours.close()
            _serve(theirs)
        finally:
            os._exit(0)
    theirs.close()
    return pid, ours


class _Channel:
    """One end of a worker's two pipes: send writes to one and recv reads
    from the other.  A message is a pickle after its length in 8 bytes.
    Short writes and reads are resumed, a reply of the usual size arrives in
    one read, and end of file, even inside a message, raises EOFError.  A
    write to a pipe whose reader is gone raises BrokenPipeError.  Like every
    os.pipe, the pipes are not inherited across exec, so that no subprocess
    can keep a worker from seeing end of file."""

    def __init__(self, into: int, out: int) -> None:
        import pickle  # here, not at import: serial sums start no worker

        self._pickle = pickle
        self._into, self._out = into, out
        self._rest = b""  # what a read took past the last message
        self.closed = False

    def send(self, obj: object) -> None:
        data = self._pickle.dumps(obj, self._pickle.HIGHEST_PROTOCOL)
        message = len(data).to_bytes(8, "little") + data
        sent = os.write(self._out, message)
        while sent < len(message):
            sent += os.write(self._out, memoryview(message)[sent:])

    def recv(self) -> object:
        data = self._rest
        while len(data) < 8 or len(data) < (end := 8 + int.from_bytes(data[:8], "little")):
            chunk = os.read(self._into, 1 << 16)  # a pipe's whole buffer
            if not chunk:
                raise EOFError("end of file on an oracle worker's pipe")
            data += chunk
        self._rest = data[end:]
        return self._pickle.loads(data[8:end])

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            os.close(self._into)
            os.close(self._out)


def _serve(conn: _Channel) -> None:
    """A worker's loop: receive the arguments of one slice's _sum_range and
    send back its sum, or the exception that summing it raised, until end of
    file.  Interrupts are ignored: the caller replaces the workers whose
    replies it did not read."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            args = conn.recv()
        except EOFError:
            return
        try:
            reply = _sum_range(*args)
        except Exception as exc:  # raised by the caller
            reply = exc
        conn.send(reply)


def _replace(stale: list[tuple[int, _Channel]]) -> None:
    """Stop the workers in `stale` and fork as many new ones."""
    for worker in stale:
        _workers.remove(worker)
    _stop(stale)
    for _ in stale:
        _workers.append(_start_worker())


def _stop(workers: list[tuple[int, _Channel]]) -> None:
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
