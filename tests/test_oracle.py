"""Brute-force moment oracle."""
import multiprocessing
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

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


# 39366 numbers: two slices of 19683 each reach the pool
POOLED = MomentQuery(3, 1, 9)


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def test_pooled_calls_reuse_the_workers():
    expected = brute_moment(POOLED)
    assert brute_moment_parallel(POOLED, 2) == expected
    workers = _worker_pids()
    assert workers
    assert brute_moment_parallel(POOLED, 2) == expected
    assert _worker_pids() == workers


def _exit_status(pid, seconds=60):
    """The exit status of our child `pid`, killed if it runs past `seconds`."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)  # a child stuck on the parent's pool
    return os.waitpid(pid, 0)[1]


def _sum_in_forked_child(pool):
    """Fork a child that sums POOLED and reports the value and whether its
    pool is a new one, not `pool`; return its exit status and report."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports its value and never returns into pytest
        code = 1
        try:
            signal.alarm(60)  # a child stuck on an inherited lock dies here
            value = brute_moment_parallel(POOLED, 2)
            os.write(write, f"{value} {oracle._pool is not pool}".encode())
            oracle._pool.shutdown()  # its workers exit with it: os._exit skips the exit hook
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    status = _exit_status(pid)
    report = os.read(read, 4096).decode() if select.select([read], [], [], 0)[0] else ""
    os.close(read)
    return status, report


MULTI_THREADED_FORK = "ignore:This process .* is multi-threaded:DeprecationWarning"


@pytest.mark.filterwarnings(MULTI_THREADED_FORK)
def test_forked_child_sums_in_a_pool_of_its_own():
    expected = brute_moment(POOLED)
    brute_moment_parallel(POOLED, 2)  # the pool is warm when the child forks
    workers = _worker_pids()
    assert _sum_in_forked_child(oracle._pool) == (0, f"{expected} True")
    # the parent's pool is untouched by the child's
    assert brute_moment_parallel(POOLED, 2) == expected
    assert _worker_pids() == workers


@pytest.mark.filterwarnings(MULTI_THREADED_FORK)
def test_a_fork_during_another_threads_pooled_call_does_not_hang():
    expected = brute_moment(POOLED)
    brute_moment_parallel(POOLED, 2)
    # about a million numbers: the other thread holds the pool's lock well
    # past the fork
    long = MomentQuery(2, 1, 20)
    results = []
    other = threading.Thread(target=lambda: results.append(brute_moment_parallel(long, 2)))
    other.start()
    deadline = time.monotonic() + 60
    while not oracle._pool_lock.locked():
        assert time.monotonic() < deadline
        time.sleep(0.001)
    outcome = _sum_in_forked_child(oracle._pool)
    other.join(60)
    assert not other.is_alive()
    assert outcome == (0, f"{expected} True")
    assert results == [brute_moment(long)]


def test_killed_workers_are_replaced():
    brute_moment_parallel(POOLED, 2)
    killed = _worker_pids()
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    assert brute_moment_parallel(POOLED, 2) == brute_moment(POOLED)
    assert _worker_pids()
    assert not set(_worker_pids()) & set(killed)


def test_a_pool_that_breaks_twice_raises(monkeypatch):
    calls = []

    class Broken:
        def map(self, *args):
            raise BrokenProcessPool("worker died")

    def broken_pool(workers, broken=False):
        calls.append(broken)
        return Broken()

    monkeypatch.setattr(oracle, "_warm_pool", broken_pool)
    with pytest.raises(BrokenProcessPool):
        brute_moment_parallel(POOLED, 2)
    assert calls == [False, True]


def test_import_and_serial_sums_start_no_process():
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import multiprocessing, threading\n"
        "import rabot\n"
        "from rabot import MomentQuery, brute_moment, brute_moment_parallel\n"
        "assert rabot.oracle._pool is None\n"
        "brute_moment(MomentQuery(3, 1, 9))\n"
        "brute_moment_parallel(MomentQuery(3, 1, 4), 2)  # slices below the pool threshold\n"
        "print(rabot.oracle._pool, multiprocessing.active_children(), threading.active_count())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout == "None [] 1\n"


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
