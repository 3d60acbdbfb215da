"""Exact recurrence engine for the moment sums, and the spectrum it implies.

Write S(q, k) for the sum of r(b, n)**q over all n with exactly k+1 base-b
digits, and S(l, q, k) for its restriction to numbers whose last digit is
l.  Appending a digit d to a number with trailing digit t either deletes d
again (d != t, runs of length one vanish) or extends the trailing run, in
which case the raboter value picks up d as a new last digit:

    r(b, b*A + d)  =  r(b, A)            if d != last digit of A
    r(b, b*A + d)  =  b*r(b, A) + d      if d == last digit of A

Expanding (b*r + l)**q binomially gives, for every last digit l,

    S(l, q, k) = (b**q - 1)*S(l, q, k-1) + S(q, k-1)
                 + sum_{i=1..q} C(q, i) * l**i * b**(q-i) * S(l, q-i, k-1)

Weighting by l**j and summing over l closes the system on the
power-weighted digit moments T(j, q, k) = sum_l l**j * S(l, q, k), j + q <= p,
whose size does not depend on b:

    T(j, q, k) = (b**q - 1)*T(j, q, k-1) + F_j*T(0, q, k-1)
                 + sum_{i=1..q} C(q, i) * b**(q-i) * T(j+i, q-i, k-1)

with F_j = sum_{l<b} l**j (0**0 = 1) and S(q, k) = T(0, q, k).  Both chains
start from the one-digit numbers at k = 0, whose raboter value is 0:
T(j, 0, 0) = F_j - [j = 0], S(l, 0, 0) = [l >= 1], all else 0.

The update's reads are laid out once per power (_update_layout).  extend
steps one base's table by them; build_lane_table steps the tables of many
bases together, one integer per base in each entry, for the general form's
cross-check over a range of bases.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import comb
from operator import add, mul
from typing import Sequence

from .digits import check_base
from .errors import DepthError
from .linalg import pole_product

@dataclass(frozen=True)
class MomentTable:
    """The moment state for k = 0..max_k and q <= max_power.

    moments[k][q][j] holds T(j, q, k) for j + q <= max_power, so
    moments[k][q][0] is S(q, k).  Tables are immutable, and extending one
    shares its columns with the result, so any table is safe to read
    concurrently.
    """

    base: int
    max_power: int
    max_k: int
    moments: tuple[tuple[tuple[int, ...], ...], ...]


def annihilates(table: MomentTable, roots: Sequence, power: int | None = None) -> bool:
    """True when prod_lam (U - lam) over the multiset `roots` kills the state
    at k = 1: sum_i e_i * T(j, q, 1+i) = 0 for every j + q <= power (default
    the table's), with e_i the coefficients of prod_lam (x - lam).

    U**(k-1) commutes with the product, so then every S(q, .), q <= power,
    satisfies the order-len(roots) recurrence with that characteristic
    polynomial for k >= 1.  It reads k = 1..len(roots) + 1 and runs in any
    ring the table is in: integers, or polynomials in b.
    """
    power = table.max_power if power is None else power
    if table.max_k < len(roots) + 1:
        raise DepthError(
            f"table depth {table.max_k} is below {len(roots) + 1}, the depth the annihilator reads"
        )
    e = pole_product(roots)[::-1]
    columns = table.moments[1 : len(e) + 1]
    return not any(
        sum([c * column[q][j] for c, column in zip(e, columns)])
        for q in range(power + 1)
        for j in range(power - q + 1)
    )


def state_dimension_bound(base: int, power: int) -> int:
    """The size D(b, p) = (p+1)(p+2)/2 of the moment state for S(p, .), the
    number of sequences T(j, q, .) with j + q <= p; not a proof depth."""
    return (power + 1) * (power + 2) // 2


def eigenvalue_families(power: int) -> list[tuple[int, ...]]:
    """The 2p distinct nonzero eigenvalues of the update for S(power, .), each
    a polynomial in b (integer coefficients, constant term first).

    Ordered by q with T(0, q) before T(j >= 1, q), the update is triangular:
    T(0, 0) gives b, T(0, q) gives b**q + b - 1, and the T(j >= 1, q) give
    b**q - 1 for q = 1..p-1.  The T(j >= 1, 0) rows give 0, which adds no
    term to a closed form, and b**p - 1 never occurs because T(j >= 1, p)
    does not exist.
    """
    if not isinstance(power, int) or power < 1:
        raise ValueError(f"power must be a positive integer, got {power!r}")
    minus = [(-1,) + (0,) * (q - 1) + (1,) for q in range(1, power + 1)]
    plus = [tuple(c + (e == 1) for e, c in enumerate(fam)) for fam in minus]
    return [(0, 1)] + plus + minus[:-1]


def candidate_bases(base: int, power: int) -> list[int]:
    """The values of the 2p eigenvalue families at a given base, sorted.

    Families that collide at this base are listed once per family (at b = 2,
    2b - 1 = b**2 - 1 = 3 is listed twice), and a base listed m times may
    carry a coefficient polynomial in k of degree < m."""
    check_base(base)
    powers = [base**e for e in range(power + 1)]
    return sorted([sum(map(mul, fam, powers)) for fam in eigenvalue_families(power)])


def _power_sums(base: int, power: int) -> list[int]:
    """F_j = sum_{l<b} l**j, j <= power (0**0 = 1), from the telescoped sum
    sum_{l<b} (l+1)**(j+1) - l**(j+1) = sum_{i<=j} C(j+1, i)*F_i = b**(j+1)."""
    sums: list[int] = []
    for j in range(power + 1):
        rest = sum(comb(j + 1, i) * f for i, f in enumerate(sums))
        sums.append((base ** (j + 1) - rest) // (j + 1))
    return sums


@lru_cache(maxsize=None)
def _update_layout(power: int) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]:
    """The reads of the update, laid out once per power: for each (q, j),
    j + q <= power, the triples (C(q, i), q - i, j + i), i = 1..q, as
    T(j, q, k) reads C(q, i) * b**(q-i) * T(j+i, q-i, k-1).  The weight's
    power of b is the row it reads, q - i.  extend and build_lane_table
    both step by it, so the update rule is written here alone."""
    return tuple(
        tuple(tuple((comb(q, i), q - i, j + i) for i in range(1, q + 1)) for j in range(power - q + 1))
        for q in range(power + 1)
    )


def extend(t: MomentTable, new_max_k: int) -> MomentTable:
    """Extend a table to new_max_k digits-minus-one via the update.

    The update is laid out as a plan with one row per (q, j): its growth
    b**q - 1, F_j, and the entries (C(q, i)*b**(q-i), q-i, j+i), i = 1..q,
    of _update_layout, that it reads from the previous column.  F_j comes
    off the k = 0 column, T(j, 0, 0) = F_j - [j = 0], so no power sum is
    recomputed.  Each new column is then stepped with plain loops over the
    plan.
    """
    if not isinstance(new_max_k, int) or new_max_k < t.max_k:
        raise ValueError(f"new_max_k must be an integer >= {t.max_k}, got {new_max_k!r}")
    b, p = t.base, t.max_power
    one_digit = t.moments[0][0]
    faulhaber = [one_digit[0] + 1, *one_digit[1:]]
    powers = [b**r for r in range(p + 1)]
    plan = [
        [
            (powers[q] - 1, faulhaber[j], [(c * powers[r], r, col) for c, r, col in reads])
            for j, reads in enumerate(rows)
        ]
        for q, rows in enumerate(_update_layout(p))
    ]
    columns = list(t.moments)
    for _ in range(t.max_k, new_max_k):
        prev = columns[-1]
        column = []
        for q, rows in enumerate(plan):
            own = prev[q]
            total = own[0]  # T(0, q, k-1) = S(q, k-1)
            row = []
            for j, (growth, f, reads) in enumerate(rows):
                value = growth * own[j] + f * total
                for w, r, c in reads:
                    value += w * prev[r][c]
                row.append(value)
            column.append(tuple(row))
        columns.append(tuple(column))
    return MomentTable(b, p, new_max_k, tuple(columns))


def build_table(base: int, max_power: int, max_k: int) -> MomentTable:
    """The moment state of every (k+1)-digit length up to k = max_k >= 1."""
    check_base(base)
    if not isinstance(max_power, int) or max_power < 0:
        raise ValueError(f"max_power must be a non-negative integer, got {max_power!r}")
    if not isinstance(max_k, int) or max_k < 1:
        raise ValueError(f"max_k must be an integer >= 1, got {max_k!r}")
    return _build(base, max_power, max_k)


def _build(base, max_power: int, max_k: int) -> MomentTable:
    """build_table without its checks, for a base in any ring with exact
    division by small integers: an int, or b itself as a generalform.PolyInB."""
    one_digit = tuple(f - (j == 0) for j, f in enumerate(_power_sums(base, max_power)))
    seed = (one_digit,) + tuple((0,) * (max_power - q + 1) for q in range(1, max_power + 1))
    return extend(MomentTable(base, max_power, 0, (seed,)), max_k)


@dataclass(frozen=True)
class LaneTable:
    """The moment tables of several bases, stepped together as lanes:
    moments[k][q][j] holds T(j, q, k) at each base of `bases`, in order, so
    lane i of every entry is build_table(bases[i], ...)'s.

    An entry is a list, not a tuple: CPython builds a tuple from a map by
    resizing it, and keeps every freed tuple of up to 20 items on a free
    list of its size, where tuples of each lane count would pile up, a few
    MB over a few thousand small ranges.  Entries may be shared: read them,
    never write them."""

    bases: tuple[int, ...]
    max_power: int
    max_k: int
    moments: tuple[tuple[tuple[list[int], ...], ...], ...]


def build_lane_table(bases: Sequence[int], max_power: int, max_k: int) -> LaneTable:
    """build_table at every base of a non-empty sequence at once.

    Each read of _update_layout runs once per table entry, over all lanes at
    C speed (map over operator.mul and add), not once per base, so this pays
    where many bases share one power and depth.  A single lane costs more
    than it saves: build_table is 2.5-3x faster at one base, p = 2..3.
    """
    bases = tuple(bases)
    if not bases:
        raise ValueError("a lane table needs at least one base")
    for b in bases:
        check_base(b)
    if not isinstance(max_power, int) or max_power < 0:
        raise ValueError(f"max_power must be a non-negative integer, got {max_power!r}")
    if not isinstance(max_k, int) or max_k < 1:
        raise ValueError(f"max_k must be an integer >= 1, got {max_k!r}")
    p = max_power
    layout = _update_layout(p)
    faulhaber = list(zip(*[_power_sums(b, p) for b in bases]))  # faulhaber[j]: F_j per lane
    zero = [0] * len(bases)
    seed = (tuple([f - (j == 0) for f in lanes] for j, lanes in enumerate(faulhaber)),)
    seed += tuple((zero,) * (p - q + 1) for q in range(1, p + 1))
    powers = [[b**r for b in bases] for r in range(p + 1)]
    # C(q, i) * b**(q-i) per lane; every row of one q reads the same (C(q, i), q - i)
    weights = {(c, r): [c * x for x in powers[r]] for rows in layout for c, r, _ in rows[0]}
    plan = [
        [
            ([x - 1 for x in powers[q]], faulhaber[j], [(weights[c, r], r, col) for c, r, col in reads])
            for j, reads in enumerate(rows)
        ]
        for q, rows in enumerate(layout)
    ]
    columns = [seed]
    for _ in range(max_k):
        prev = columns[-1]
        column = []
        for q, rows in enumerate(plan):
            own = prev[q]
            total = own[0]
            row = []
            for j, (growth, f, reads) in enumerate(rows):
                value = map(add, map(mul, growth, own[j]), map(mul, f, total))
                for w, r, c in reads:
                    value = map(add, value, map(mul, w, prev[r][c]))
                row.append(list(value))
            column.append(tuple(row))
        columns.append(tuple(column))
    return LaneTable(bases, p, max_k, tuple(columns))


def lanes_not_annihilated(
    table: LaneTable, roots: Sequence[Sequence[int]], power: int | None = None
) -> list[int]:
    """annihilates at every lane: the bases of the table, in lane order,
    where prod_lam (U - lam) over that lane's multiset roots[i] does not
    kill the state at k = 1.  Each lane's e_i are the coefficients of
    pole_product(roots[i]), reversed, and zero past its own multiset's size.
    """
    power = table.max_power if power is None else power
    if len(roots) != len(table.bases):
        raise ValueError(f"{len(roots)} root multisets for {len(table.bases)} lanes")
    size = max(map(len, roots))
    if table.max_k < size + 1:
        raise DepthError(
            f"table depth {table.max_k} is below {size + 1}, the depth the annihilator reads"
        )
    e = list(zip(*[pole_product(r)[::-1] + [0] * (size - len(r)) for r in roots]))
    columns = table.moments[1 : size + 2]
    lanes = range(len(table.bases))
    failing: set[int] = set()
    for q in range(power + 1):
        for j in range(power - q + 1):
            value = map(mul, e[0], columns[0][q][j])
            for c, column in zip(e[1:], columns[1:]):
                value = map(add, value, map(mul, c, column[q][j]))
            failing.update(compress(lanes, value))
    return [table.bases[i] for i in sorted(failing)]


def moment_value(
    t: MomentTable, power: int, k: int, last_digit: int | None = None
) -> int:
    """Look up S(power, k), or S(last_digit, power, k) when a digit is given.

    A last-digit value runs the per-digit chain from k = 0 on demand and
    stores nothing in the table.
    """
    if not 0 <= power <= t.max_power:
        raise IndexError(f"power {power} outside table range [0, {t.max_power}]")
    if not 1 <= k <= t.max_k:
        raise IndexError(f"k {k} outside table range [1, {t.max_k}]")
    if last_digit is None:
        return t.moments[k][power][0]
    l = last_digit
    if not (isinstance(l, int) and 0 <= l < t.base):
        raise IndexError(f"last digit {l!r} out of range [0, {t.base - 1}]")
    b = t.base
    growth = [b**q - 1 for q in range(power + 1)]
    weights = [
        [(comb(q, i) * l**i * b ** (q - i), q - i) for i in range(1, q + 1)]
        for q in range(power + 1)
    ]
    chain = [int(q == 0 and l >= 1) for q in range(power + 1)]
    for kk in range(1, k + 1):
        sums = t.moments[kk - 1]
        chain = [
            growth[q] * chain[q] + sums[q][0] + sum([w * chain[r] for w, r in weights[q]])
            for q in range(power + 1)
        ]
    return chain[power]
