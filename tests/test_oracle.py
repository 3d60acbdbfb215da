"""Brute-force moment oracle."""
import os
import pickle
import random
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabot import (
    EnumerationCapError,
    InvalidBaseError,
    InvalidDigitError,
    MomentQuery,
    WorkerError,
    brute_moment,
    raboter,
)
from rabot import oracle
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


def _in_process(q):
    """The query's sum in one slice, in this process."""
    return _sum_range(q.base, q.power, q.k, q.last_digit, 0, q.count())


def test_parallel_large_chunks_spawn_pool():
    # big enough that slices cross the in-process threshold
    q = MomentQuery(3, 1, 9)
    assert brute_moment(q) == _in_process(q)


# 39366 numbers: two slices of 19683 each, one summed by the caller and one
# by a worker
POOLED = MomentQuery(3, 1, 9)
# 131072 numbers, a different value from any slice of POOLED: a reply left
# unread by an earlier call would be taken for part of it
OTHER = MomentQuery(2, 2, 16)

needs_workers = pytest.mark.skipif(
    oracle.available_cpus() < 2 or not hasattr(os, "fork"),
    reason="every sum is in-process without a second CPU and os.fork",
)


def _worker_pids():
    return sorted(pid for pid, _ in oracle._workers or ())


@pytest.fixture
def fresh_workers():
    """No workers when the test starts, and none of its own after it ends:
    its workers may have forked with a patched function."""
    oracle._stop_workers()
    yield
    oracle._stop_workers()


@pytest.fixture
def deadline():
    """Raise TimeoutError in the test after 60 s, rather than let a read of
    a pipe that never answers hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_workers
def test_pooled_calls_reuse_the_workers(deadline):
    expected = _in_process(POOLED)
    assert brute_moment(POOLED) == expected
    workers = _worker_pids()
    assert len(workers) == oracle.available_cpus() - 1
    assert brute_moment(POOLED) == expected
    assert _worker_pids() == workers


def _exit_status(pid, seconds=60):
    """The exit status of our child `pid`, killed if it runs past `seconds`."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)  # a child stuck on the parent's workers
    return os.waitpid(pid, 0)[1]


def _sum_in_forked_child(parent_workers):
    """Fork a child that sums POOLED and reports the value, whether it closed
    its copies of `parent_workers`' pipe ends, and whether it summed on
    workers of its own; return its exit status and report."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports and never returns into pytest
        code = 1
        try:
            signal.alarm(60)  # a child stuck on an inherited lock dies here
            closed = all(conn.closed for _, conn in parent_workers)
            value = brute_moment(POOLED)
            own = bool(_worker_pids()) and not set(_worker_pids()) & {p for p, _ in parent_workers}
            os.write(write, f"{value} {closed} {own}".encode())
            oracle._stop_workers()  # reaped here: os._exit skips the exit hook
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    status = _exit_status(pid)
    report = os.read(read, 4096).decode() if select.select([read], [], [], 0)[0] else ""
    os.close(read)
    return status, report


MULTI_THREADED_FORK = "ignore:This process .* is multi-threaded:DeprecationWarning"


@needs_workers
@pytest.mark.filterwarnings(MULTI_THREADED_FORK)
def test_forked_child_sums_in_a_pool_of_its_own(deadline):
    expected = _in_process(POOLED)
    brute_moment(POOLED)  # the workers are up when the child forks
    workers = _worker_pids()
    assert _sum_in_forked_child(list(oracle._workers)) == (0, f"{expected} True True")
    # the parent's workers are untouched by the child's
    assert brute_moment(POOLED) == expected
    assert _worker_pids() == workers


@needs_workers
@pytest.mark.filterwarnings(MULTI_THREADED_FORK)
def test_a_fork_during_another_threads_pooled_call_does_not_hang(deadline):
    expected = _in_process(POOLED)
    brute_moment(POOLED)
    # about a million numbers: the other thread holds the workers' lock well
    # past the fork
    long = MomentQuery(2, 1, 20)
    results = []
    other = threading.Thread(target=lambda: results.append(brute_moment(long)))
    other.start()
    deadline = time.monotonic() + 60
    while not oracle._lock.locked():
        assert time.monotonic() < deadline
        time.sleep(0.001)
    outcome = _sum_in_forked_child(list(oracle._workers))
    other.join(60)
    assert not other.is_alive()
    assert outcome == (0, f"{expected} True True")
    assert results == [_in_process(long)]


@needs_workers
def test_killed_workers_are_replaced(deadline):
    brute_moment(POOLED)
    killed = _worker_pids()
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    assert brute_moment(POOLED) == _in_process(POOLED)
    assert len(_worker_pids()) == len(killed)
    assert not set(_worker_pids()) & set(killed)


@needs_workers
def test_a_pool_that_breaks_twice_raises(monkeypatch, fresh_workers, deadline):
    tries = []
    once = oracle._sum_on_workers

    def counted(*args):
        tries.append(args)
        return once(*args)

    monkeypatch.setattr(oracle, "_sum_on_workers", counted)
    monkeypatch.setattr(oracle, "_serve", lambda conn: None)  # every worker exits at once
    with pytest.raises(WorkerError) as raised:
        brute_moment(POOLED)
    assert len(tries) == 2
    # chained from the second break, and not taken for a closed stdout
    assert isinstance(raised.value.__cause__, (EOFError, ConnectionError))
    assert not isinstance(raised.value, BrokenPipeError)
    monkeypatch.undo()
    # the dead workers are found and replaced once more, by working ones
    assert brute_moment(POOLED) == _in_process(POOLED)


@needs_workers
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_call_that_raises_in_its_own_slice_replaces_the_unread_workers(
    monkeypatch, fresh_workers, deadline, error
):
    expected = brute_moment(OTHER)  # the workers are up
    before = _worker_pids()
    parent = os.getpid()
    real = oracle._sum_range

    def failing_in_the_caller(*args):
        if os.getpid() == parent:
            raise error("the caller's slice")
        return real(*args)

    # the replacements fork with it, but only the caller's slice raises
    monkeypatch.setattr(oracle, "_sum_range", failing_in_the_caller)
    with pytest.raises(error):
        brute_moment(POOLED)
    monkeypatch.undo()
    assert len(_worker_pids()) == len(before)
    assert not set(_worker_pids()) & set(before)
    assert brute_moment(OTHER) == expected


@needs_workers
def test_an_exception_in_a_worker_is_raised_after_the_other_replies(monkeypatch, fresh_workers, deadline):
    parent = os.getpid()
    real = oracle._sum_range

    def failing_in_workers(base, power, k, last_digit, start, stop):
        if power == 3 and os.getpid() != parent:
            raise ValueError(f"a worker's slice from {start}")
        return real(base, power, k, last_digit, start, stop)

    monkeypatch.setattr(oracle, "_sum_range", failing_in_workers)  # the workers fork with it
    expected = brute_moment(OTHER)  # the workers are up
    workers = _worker_pids()
    with pytest.raises(ValueError, match="a worker's slice"):
        brute_moment(MomentQuery(3, 3, 9))
    # the workers stay, and every reply of the failed call was read
    assert _worker_pids() == workers
    assert brute_moment(OTHER) == expected


def test_threads_take_turns_on_the_workers(deadline):
    # four threads on two cores; with a lost turn, a call would read the
    # reply to another thread's query
    mine = [MomentQuery(b, p, k) for b, p, k in ((2, 2, 13), (3, 1, 8), (5, 2, 5), (7, 0, 5))]
    expected = [_in_process(q) for q in mine]
    results = [[] for _ in mine]

    def calls(i):
        for _ in range(5):
            q = mine[i]
            results[i].append(brute_moment(q))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=calls, args=(i,)) for i in range(len(mine))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[value] * 5 for value in expected]


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="a channel's peer is a forked worker")


def _frame(obj):
    """A message as a channel writes it: its pickle after the pickle's length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(8, "little") + data


@needs_fork
def test_a_message_larger_than_a_pipe_buffer_arrives_whole(monkeypatch, deadline):
    message = "x" * 200_000  # a pipe holds 64 KiB

    def failing(*args):
        raise ValueError(message)

    monkeypatch.setattr(oracle, "_sum_range", failing)  # the worker forks with it
    pid, conn = oracle._start_worker()
    try:
        conn.send((2, 1, 1, None, 0, 2))
        reply = conn.recv()
        assert isinstance(reply, ValueError) and reply.args == (message,)
    finally:
        oracle._stop([(pid, conn)])


@needs_fork
def test_a_send_cut_short_by_a_signal_is_resumed(monkeypatch, deadline):
    message = "x" * 200_000
    parent = os.getpid()

    def serve(conn):  # interrupts the caller's blocked write, then reads
        time.sleep(0.1)
        os.kill(parent, signal.SIGUSR1)
        time.sleep(0.1)
        conn.send(len(conn.recv()))

    monkeypatch.setattr(oracle, "_serve", serve)
    signals = []
    previous = signal.signal(signal.SIGUSR1, lambda signum, frame: signals.append(signum))
    pid, conn = oracle._start_worker()
    try:
        conn.send(message)  # a pipe holds 64 KiB: the write blocks until the signal
        assert conn.recv() == len(message)
    finally:
        signal.signal(signal.SIGUSR1, previous)
        oracle._stop([(pid, conn)])
    assert signals == [signal.SIGUSR1]


@needs_fork
# inside the length, at its end, and inside the pickle
@pytest.mark.parametrize("cut", [3, 8, 13])
@pytest.mark.parametrize("finished", [True, False], ids=["whole", "exited"])
def test_a_message_written_in_parts_is_read_whole_or_as_end_of_file(monkeypatch, deadline, cut, finished):
    frame = _frame(("a reply", 10**40))

    def serve(conn):
        os.write(conn._out, frame[:cut])
        time.sleep(0.05)  # so that the first read returns the part alone
        if finished:
            os.write(conn._out, frame[cut:])

    monkeypatch.setattr(oracle, "_serve", serve)
    pid, conn = oracle._start_worker()
    try:
        if finished:
            assert conn.recv() == ("a reply", 10**40)
        else:
            with pytest.raises(EOFError):
                conn.recv()
    finally:
        oracle._stop([(pid, conn)])


@needs_workers
def test_a_worker_that_exits_inside_its_reply_is_replaced(monkeypatch, fresh_workers, deadline):
    def serve(conn):  # answers one query with part of a reply, then exits
        conn.recv()
        os.write(conn._out, _frame(10**40)[:13])

    monkeypatch.setattr(oracle, "_serve", serve)
    broken = sorted(pid for pid, _ in oracle._ready_workers())
    monkeypatch.undo()  # the replacements serve in full
    assert brute_moment(POOLED) == _in_process(POOLED)
    assert len(_worker_pids()) == len(broken)
    assert not set(_worker_pids()) & set(broken)


def _running(pid):
    """Whether `pid` is a process that has not exited: a zombie has."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _env_with_src():
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
# os._exit skips the exit hook that stops the workers: they read end of file
@pytest.mark.parametrize("ending", ["", "os._exit(0)\n"], ids=["exit", "os_exit"])
def test_a_process_that_summed_on_workers_leaves_none_running(ending):
    code = (
        "import os\n"
        "from rabot import MomentQuery, brute_moment, oracle\n"
        "brute_moment(MomentQuery(3, 1, 9))\n"
        "print(*(pid for pid, _ in oracle._workers), flush=True)\n"
    ) + ending
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True, check=True, timeout=60
    )
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == oracle.available_cpus() - 1
    deadline = time.monotonic() + 30
    while any(map(_running, pids)):
        assert time.monotonic() < deadline
        time.sleep(0.01)


def test_import_and_serial_sums_start_no_process():
    code = (
        "import sys, threading\n"
        "import rabot\n"
        "from rabot import MomentQuery, brute_moment\n"
        "lazy = {'multiprocessing', 'pickle', 'concurrent.futures'}\n"
        "assert not lazy & set(sys.modules), lazy & set(sys.modules)\n"
        "brute_moment(MomentQuery(2, 1, 11))  # 2048 numbers: two slices would be below the threshold\n"
        "brute_moment(MomentQuery(64, 1, 1))  # 4032 numbers: two slices would be below the threshold\n"
        "print(rabot.oracle._workers, sorted(lazy & set(sys.modules)), threading.active_count())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout == "None [] 1\n"


@needs_workers
def test_a_call_summed_on_workers_loads_no_multiprocessing():
    code = (
        "import sys\n"
        "from rabot import MomentQuery, brute_moment, oracle\n"
        "brute_moment(MomentQuery(3, 1, 9))\n"
        "print(len(oracle._workers), sorted({'multiprocessing', 'socket', 'selectors'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout == f"{oracle.available_cpus() - 1} []\n"


def test_cap_refused():
    with pytest.raises(EnumerationCapError):
        brute_moment(MomentQuery(2, 1, 30), cap=1000)


def test_cap_refusal_states_a_huge_count_as_a_power():
    # the count 2*3^10000 has more decimal digits than Python will print
    with pytest.raises(EnumerationCapError, match=r"enumerates 2\*3\^10000 numbers"):
        brute_moment(MomentQuery(3, 1, 10000))
    with pytest.raises(EnumerationCapError, match=r"enumerates 2\*3\^9999 numbers"):
        brute_moment(MomentQuery(3, 1, 10000, last_digit=1))
    # a base over 64 bits is named by its size, so the error stays one short line
    with pytest.raises(EnumerationCapError) as refused:
        brute_moment(MomentQuery(10**300, 1, 1))
    assert str(refused.value) == f"query enumerates (b-1)*b^1 numbers at a 997-bit b, above the cap of {10**8}"
    b = 2**64 - 1
    with pytest.raises(EnumerationCapError) as refused:
        brute_moment(MomentQuery(b, 1, 1, last_digit=0))
    assert str(refused.value) == f"query enumerates {b - 1}*{b}^0 numbers, above the cap of {10**8}"


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
@example((MomentQuery(3, 2, 3), 1, 53))  # starts and stops inside a run
@example((MomentQuery(5, 3, 3, 2), 7, 93))
@example((MomentQuery(4, 1, 1, 3), 1, 2))  # one variable digit, the leading one
@example((MomentQuery(2, 4, 4, 0), 0, 8))  # a whole last-digit range
def test_sum_range_matches_direct_sum(case):
    q, start, stop = case
    expected = sum(raboter(q.base, n) ** q.power for n in _enumerated(q, start, stop))
    assert _sum_range(q.base, q.power, q.k, q.last_digit, start, stop) == expected


@st.composite
def block_slices(draw):
    """Slices of queries with up to about 2*10^4 numbers at b = 2..60 and
    p = 0..6: blocks of every width at b <= 50, with their own loops at
    p <= 3 and the generic one above, the one-digit sweep above b = 50,
    ranges too short for a block, and the ends of runs that a slice cuts."""
    b = draw(st.integers(2, 17) | st.integers(18, 60))
    digit = draw(st.none() | st.integers(0, b - 1))
    k_max = 1
    while MomentQuery(b, 0, k_max + 1, digit).count() <= 20_000:
        k_max += 1
    q = MomentQuery(b, draw(st.integers(0, 6)), draw(st.integers(1, k_max)), digit)
    start = draw(st.integers(0, q.count()))
    return q, start, draw(st.integers(start, q.count()))


@settings(max_examples=100, deadline=None)
@given(block_slices())
@example((MomentQuery(2, 2, 10), 256, 512))  # half a run of 512: swept
@example((MomentQuery(2, 3, 10, 1), 255, 257))  # one number each side of a run edge
@example((MomentQuery(3, 2, 8, 2), 728, 1459))  # one before, one whole run of 729 and one after
@example((MomentQuery(5, 2, 1, 3), 0, 4))  # k = 1 with a last digit: no suffix digit
@example((MomentQuery(16, 2, 2), 100, 3000))  # b = 16: a table of 256
@example((MomentQuery(16, 1, 3, 15), 0, 3840))  # b = 16, every block
@example((MomentQuery(17, 2, 2), 100, 4000))  # b = 17: two-digit blocks
@example((MomentQuery(300, 2, 1), 1000, 5000))  # b = 300: the one-digit sweep
@example((MomentQuery(17, 3, 1, 16), 0, 16))  # b = 17, no prefix digit: the leading digit is swept
@example((MomentQuery(2, 2, 7), 1, 127))  # b = 2, k = 7: less than a run of 64 each side of its edge
@example((MomentQuery(17, 2, 3, 4), 10, 4000))  # two-digit blocks with a last digit, swept ends
@example((MomentQuery(3000, 2, 1, 7), 0, 2999))  # b = 3000, no prefix digit: the sweep in two parts
@example((MomentQuery(3000, 3, 1), 2990, 6100))  # b = 3000: parts of a swept digit, across prefixes
@example((MomentQuery(17, 0, 3, 4), 10, 4000))  # p = 0: two-digit blocks with a last digit, swept ends
@example((MomentQuery(300, 0, 1), 1000, 5000))  # p = 0, b = 300: the one-digit sweep
@example((MomentQuery(3000, 0, 1), 2990, 6100))  # p = 0, b = 3000: parts of a swept digit, across prefixes
@example((MomentQuery(7, 3, 4), 343, 686))  # one whole run of crosscheck's b = 7 query
@example((MomentQuery(4, 2, 6), 0, 257))  # ends one number into a run
@example((MomentQuery(6, 4, 5, 5), 0, 6480))  # a whole last-digit query at p = 4
@example((MomentQuery(2, 0, 12), 1023, 3073))  # p = 0: two whole runs, one number swept each side
@example((MomentQuery(2, 1, 12), 1023, 3073))  # p = 1: two whole runs, one number swept each side
@example((MomentQuery(2, 2, 12), 1023, 3073))  # p = 2: two whole runs, one number swept each side
@example((MomentQuery(2, 3, 12), 1023, 3073))  # p = 3: two whole runs, one number swept each side
@example((MomentQuery(2, 4, 12), 1023, 3073))  # p = 4: two whole runs, one number swept each side
@example((MomentQuery(2, 5, 12), 1023, 3073))  # p = 5: two whole runs, one number swept each side
@example((MomentQuery(2, 6, 12), 1023, 3073))  # p = 6: two whole runs, one number swept each side
@example((MomentQuery(2, 0, 10), 255, 513))  # p = 0: swept across a run edge
@example((MomentQuery(2, 1, 10), 255, 513))  # p = 1: swept across a run edge
@example((MomentQuery(2, 2, 10), 255, 513))  # p = 2: swept across a run edge
@example((MomentQuery(2, 3, 10), 255, 513))  # p = 3: swept across a run edge
@example((MomentQuery(2, 4, 10), 255, 513))  # p = 4: swept across a run edge
@example((MomentQuery(2, 5, 10), 255, 513))  # p = 5: swept across a run edge
@example((MomentQuery(2, 6, 10), 255, 513))  # p = 6: swept across a run edge
def test_blocks_match_direct_sum(case):
    q, start, stop = case
    expected = sum(raboter(q.base, n) ** q.power for n in _enumerated(q, start, stop))
    assert _sum_range(q.base, q.power, q.k, q.last_digit, start, stop) == expected


def test_a_wide_base_is_swept_a_part_at_a_time():
    # one digit of 10^6 values: its terms are not all held at once
    tracemalloc.start()
    try:
        assert _sum_range(10**6, 1, 1, 5, 0, 10**6 - 1) == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _table_entries():
    return sum(map(oracle._entries, oracle._tables.values()))


def _crosscheck_query(b, p, digit):
    """perfbench's crosscheck query at b: the largest k with at most 3*10^4
    numbers."""
    k = 1
    while MomentQuery(b, p, k + 1, digit).count() <= 30_000:
        k += 1
    return MomentQuery(b, p, k, digit)


def _run(q):
    """The numbers in one run of q's blocks, and its table's key."""
    width = oracle._block_width(q.base, q.k, q.last_digit)
    return q.base ** (width - 1), (q.base, q.last_digit, width)


def test_blocks_retain_bounded_tables(monkeypatch):
    monkeypatch.setattr(oracle, "_tables", {})
    tracemalloc.start()
    try:
        for b in range(2, 8):  # crosscheck's queries, every digit and none
            for digit in (None, *range(b)):
                q = _crosscheck_query(b, 2, digit)
                _sum_range(b, 2, q.k, digit, 0, _run(q)[0])  # one whole run builds the table
        kept = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, oracle.__file__)])
    finally:
        tracemalloc.stop()
    # all 33 tables are kept together, under 0.5 MB
    assert len(oracle._tables) == 33
    assert _table_entries() <= oracle._TABLE_BUDGET
    assert sum(stat.size for stat in kept.statistics("filename")) < 500_000
    dropped = False
    for b in range(2, 17):  # a table past the budget drops the others
        for digit in (None, *range(b)):
            q = _crosscheck_query(b, 2, digit)
            run, key = _run(q)
            before = len(oracle._tables)
            _sum_range(b, 2, q.k, digit, 0, run)
            dropped |= len(oracle._tables) <= before
            assert key in oracle._tables
            assert _table_entries() <= oracle._TABLE_BUDGET
    assert dropped


def test_threads_share_the_tables(monkeypatch):
    # four threads on two cores build, read and drop the same tables: together
    # they overflow the budget, so a table is dropped while another thread
    # sums from it.  Each slice holds a whole run, which builds its table,
    # and one number of a run at either end.
    monkeypatch.setattr(oracle, "_tables", {})
    queries = [_crosscheck_query(b, 2, digit) for b in range(2, 17) for digit in (None, *range(b))]
    assert sum(oracle._entries(oracle._suffix_table(*_run(q)[1])) for q in queries) > oracle._TABLE_BUDGET
    oracle._tables.clear()
    slices = [(q, _run(q)[0] - 1, 2 * _run(q)[0] + 1) for q in queries]
    expected = {
        i: sum(raboter(q.base, n) ** 2 for n in _enumerated(q, start, stop))
        for i, (q, start, stop) in enumerate(slices)
    }
    results = [None] * 4

    def sweep(thread):
        order = list(enumerate(slices))
        results[thread] = {
            i: _sum_range(q.base, 2, q.k, q.last_digit, start, stop)
            for i, (q, start, stop) in (order if thread % 2 else order[::-1])
        }

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4


@pytest.mark.parametrize("b", [4, 6])
def test_parallel_sums_of_crosscheck_queries_match_serial(monkeypatch, b):
    # slices cut on run edges: 48 runs of 256 at b = 4 and 30 of 216 at b = 6,
    # one per process, none below the threshold
    cuts = []
    real = oracle._sum_on_workers

    def recorded(args, bounds, workers):
        cuts.append((bounds, len(workers)))
        return real(args, bounds, workers)

    monkeypatch.setattr(oracle, "_sum_on_workers", recorded)
    for p in range(4):
        for digit in (None, 0, b - 1):
            q = _crosscheck_query(b, p, digit)
            assert brute_moment(q) == _in_process(q)
    run = _run(_crosscheck_query(b, 0, None))[0]
    assert all(bound % run == 0 for bounds, _ in cuts for bound in bounds)
    assert all(2 <= len(bounds) - 1 <= workers + 1 for bounds, workers in cuts)
    sizes = [stop - start for bounds, _ in cuts for start, stop in zip(bounds, bounds[1:])]
    assert min(sizes, default=oracle._PARALLEL_MIN_CHUNK) >= oracle._PARALLEL_MIN_CHUNK
    assert len(cuts) == 12 or oracle.available_cpus() < 2
