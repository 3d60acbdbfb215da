"""The seeded workloads: op lists, warm-ups, op runners and output checks.

Every workload is a closed loop: one caller in one process issues one
library call at a time and waits for it, the way a researcher's sweep does.
An op list is drawn from the seed alone, and the library only ever sees the
drawn arguments.  Each op list covers a fixed grid of parameter cells with
the same number of ops per cell, so the work in one pass barely depends on
the seed.

The runners call the library through its module attributes
(``closedform.closed_form``, not a name bound at import), so the spans that
``spans.Tracer`` installs there see the benchmark's own calls too.

The checks run outside the timed region and compare each output with a
reference that does not come from the call under test.  A ``proven``
verdict is never accepted as the check on its own: ``verify`` can return
``proven`` for a wrong form whose bases are not eigenvalues of the system.
"""
from __future__ import annotations

import random

from rabot import closedform, generalform, oracle, recurrence
from rabot.errors import ExcludedBaseError

# `rabot general-form --power 2` as printed in the README (fitted over 2..12).
GOLDEN_P2 = (
    "((b^2 - b - 2)/6)*(b - 1)^k + ((-b^2 + 2*b - 1)/6)*(b)^k"
    " + ((-b^2 + b)/(2*b - 1))*(2*b - 1)^k"
    " + ((2*b^3 + 3*b^2 - 3*b - 2)/(6*(b^2 + b - 1)))*(b^2 + b - 1)^k"
)


class CrossCheck:
    """`rabot check` and `rabot sum --engine both`: one MomentQuery answered by
    the brute-force oracle and by build_table/moment_value, compared.

    Why: the oracle takes about 99% of the time, so oracle speed, the
    parallel variant included, shows up here and on no other workload.
    Grid: b in 2..7 x p in 0..3, five ops per cell.  Each op has a random last
    digit or none and the largest k whose query enumerates at most BUDGET
    numbers; that count does not depend on the digit, so the oracle work of a
    pass is the same for every seed.  One op per cell goes through
    brute_moment_parallel(q, 2), except at b = 6: there the largest query
    has 6480 numbers, and halves below POOL_MIN_CHUNK are summed in-process,
    so they would never start the pool.  20 of the 120 ops reach the pool.
    """

    name = "crosscheck"
    BUDGET = 30_000
    # oracle._PARALLEL_MIN_CHUNK: brute_moment_parallel sums smaller halves in-process
    POOL_MIN_CHUNK = 4096

    def ops(self, rng: random.Random) -> list[tuple]:
        ops = []
        for b in range(2, 8):
            pooled = (b - 1) * b ** self._largest_k(b, False) // 2 >= self.POOL_MIN_CHUNK
            for p in range(4):
                parallel = rng.randrange(5) if pooled else -1
                for i in range(5):
                    digit = rng.choice([None, *range(b)])
                    ops.append((b, p, self._largest_k(b, digit is not None), digit, i == parallel))
        rng.shuffle(ops)
        return ops

    def _largest_k(self, b: int, has_digit: bool) -> int:
        j = 0
        while (b - 1) * b ** (j + 1) <= self.BUDGET:
            j += 1
        return j + has_digit

    def warm_up(self) -> None:
        # 8192 numbers in two slices of 4096: large enough to start the pool
        self.run((2, 1, 13, None, True))
        self.run((3, 2, 3, 1, False))

    def run(self, op: tuple):
        b, p, k, digit, parallel = op
        q = oracle.MomentQuery(b, p, k, digit)
        brute = oracle.brute_moment_parallel(q, 2) if parallel else oracle.brute_moment(q)
        table = recurrence.build_table(b, p, k)
        return brute, recurrence.moment_value(table, p, k, digit)

    def check(self, op: tuple, out) -> bool:
        brute, rec = out
        return brute == rec


class GeneralFormSweep:
    """`rabot general-form`: guess_general_form(p, range(b_lo, b_hi + 1)).

    Why: the recurrence does little work here.  The time goes to the
    rational-function fits (solve_linear once per degree pair) and, for
    p = 3 with b_lo = 2, to the repeated-root fallback (minimal_recurrence
    plus sympy), which runs on every such op.
    Ops: 35 at p = 1 and 60 at p = 2 (b_lo cycling over 2..6), 5 at p = 3
    (b_lo = 2), each with a width a little above the least that fits.  The
    p = 2 ops hold both p50 and p90, so they take every (b_lo, extra width)
    pair equally often and the seed only orders them.  A p = 3 op takes
    about eight times a p = 2 op, so five of them are about a third of a
    pass; more would leave fewer passes in a run for the per-op minimum.
    Check: at every base in range that is not excluded, specialize(g, b)
    equals the proven closed_form(b, p), and its values at k = 1..2D + 4
    equal those of a recurrence table, which does not come from closedform.
    Every p = 2 result renders as the README's four-term golden.
    """

    name = "general-form"
    # (power, ops, least width that fits, most extra width per op)
    PLAN = ((1, 35, 7, 4), (2, 60, 9, 2), (3, 5, 15, 1))

    def __init__(self) -> None:
        self._proven: dict[tuple[int, int], object] = {}
        self._values: dict[tuple[int, int], list[int]] = {}

    def ops(self, rng: random.Random) -> list[tuple]:
        ops = []
        for p, count, width, extra in self.PLAN:
            for i in range(count):
                lo = 2 + i % 5 if p < 3 else 2
                more = (i // 5) % (extra + 1) if p == 2 else rng.randint(0, extra)
                ops.append((p, lo, lo + width - 1 + more))
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        self.run((1, 2, 8))
        closedform.closed_form(2, 3)  # the fallback path, which imports sympy

    def run(self, op: tuple):
        p, lo, hi = op
        return generalform.guess_general_form(p, range(lo, hi + 1))

    def _reference(self, b: int, p: int):
        """The proven closed_form(b, p), memoized: ops revisit bases."""
        if (b, p) not in self._proven:
            form, verdict = closedform.closed_form(b, p)
            if verdict.status != "proven":
                raise RuntimeError(f"reference closed_form({b}, {p}) is {verdict.status}")
            self._proven[(b, p)] = form
        return self._proven[(b, p)]

    def _sums(self, b: int, p: int) -> list[int]:
        """S(p, k) for k = 1..2D + 4 from a recurrence table, memoized."""
        if (b, p) not in self._values:
            depth = 2 * closedform.state_dimension_bound(b, p) + 4
            table = recurrence.build_table(b, p, depth)
            self._values[(b, p)] = [recurrence.moment_value(table, p, k) for k in range(1, depth + 1)]
        return self._values[(b, p)]

    def check(self, op: tuple, out) -> bool:
        p, lo, hi = op
        if p == 2 and out.render() != GOLDEN_P2:
            return False
        for b in range(lo, hi + 1):
            try:
                spec = generalform.specialize(out, b)
            except ExcludedBaseError:
                continue
            ref = self._reference(b, p)
            exponential = isinstance(ref, closedform.ExponentialForm)
            if exponential and spec.terms != ref.terms:
                return False
            for k, value in enumerate(self._sums(b, p), 1):
                if spec.eval_at(k) != value or (not exponential and ref.eval_at(k) != value):
                    return False
        return True


WORKLOADS = {w.name: w for w in (CrossCheck, GeneralFormSweep)}


class Checker:
    """Checks each distinct op once against its reference, then holds later
    passes to the output that passed."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self._passed: dict[tuple, object] = {}

    def __call__(self, op: tuple, out) -> bool:
        if op in self._passed:
            return out == self._passed[op]
        if not self.workload.check(op, out):
            return False
        self._passed[op] = out
        return True
