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

The update U is stored once per power as its sparse rows (_update).  extend
steps one base's table by them, build_lane_table the tables of many bases
together (one integer per base in each entry), and moment_value's
last-digit chain reads the rows for j = 0, the first equation above.
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

    moments[k] is the state at k as one flat tuple, T(j, q, k) for every
    j + q <= max_power, ordered by j + q and then by q, so the state of
    every smaller power is a prefix of it and S(q, k) = T(0, q, k) is entry
    (q+1)(q+2)/2 - 1.  Tables are immutable, and extending one shares its
    columns with the result, so any table is safe to read concurrently.
    """

    base: int
    max_power: int
    max_k: int
    moments: tuple[tuple[int, ...], ...]


def _state_prefix(max_power: int, power: int | None) -> int:
    """The size of S(power, .)'s state, a prefix of the table's; ValueError outside 0..max_power."""
    power = max_power if power is None else power
    if not (isinstance(power, int) and 0 <= power <= max_power):
        raise ValueError(f"power must be an integer in 0..{max_power}, the table's range, got {power!r}")
    return (power + 1) * (power + 2) // 2


def annihilates(table: MomentTable, roots: Sequence, power: int | None = None) -> bool:
    """True when prod_lam (U - lam) over the multiset `roots` kills the state
    at k = 1: sum_i e_i * T(j, q, 1+i) = 0 for every j + q <= power (default
    the table's), with e_i the coefficients of prod_lam (x - lam).

    U**(k-1) commutes with the product, so then every S(q, .), q <= power,
    satisfies the order-len(roots) recurrence with that characteristic
    polynomial for k >= 1.  It reads k = 1..len(roots) + 1 and runs in any
    ring the table is in: integers, or polynomials in b.
    """
    size = _state_prefix(table.max_power, power)
    if table.max_k < len(roots) + 1:
        raise DepthError(
            f"table depth {table.max_k} is below {len(roots) + 1}, the depth the annihilator reads"
        )
    e = pole_product(roots)[::-1]
    columns = table.moments[1 : len(e) + 1]
    return not any(sum([c * column[s] for c, column in zip(e, columns)]) for s in range(size))


def state_dimension_bound(base: int, power: int) -> int:
    """The size D(b, p) = (p+1)(p+2)/2 of the moment state for S(p, .), the
    number of sequences T(j, q, .) with j + q <= p; not a proof depth."""
    return (power + 1) * (power + 2) // 2


def eigenvalue_families(power: int) -> list[tuple[int, ...]]:
    """The 2p distinct nonzero eigenvalues of the update for S(power, .), each
    a polynomial in b (integer coefficients, constant term first).

    In MomentTable's state order the update is lower triangular, with the
    diagonal entry b**q - 1 + [j = 0]*F_0 (F_0 = b) at T(j, q): T(0, 0) gives
    b, T(0, q) gives b**q + b - 1, and the T(j >= 1, q) give b**q - 1 for
    q = 1..p-1.  The T(j >= 1, 0) rows give 0, which adds no term to a closed
    form, and b**p - 1 never occurs because T(j >= 1, p) does not exist.
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
        rest = 0
        for i, f in enumerate(sums):
            rest += comb(j + 1, i) * f
        sums.append((base ** (j + 1) - rest) // (j + 1))
    return sums


@lru_cache(maxsize=None)
def _states(power: int) -> tuple[tuple[int, int], ...]:
    """(j, q) at each index of the state: by j + q, then by q."""
    return tuple((d - q, q) for d in range(power + 1) for q in range(d + 1))


@lru_cache(maxsize=None)
def _update(power: int) -> tuple[tuple[tuple[tuple[str, int, int], int], ...], ...]:
    """U as sparse rows, one per index of _states(power): row s lists the
    reads (weight, source) whose sum over the state at k - 1 is entry s at k.
    T(j, q) reads itself with the growth b**q - 1 (none at q = 0, where it is
    0), T(0, q) with F_j, and T(j+i, q-i) with C(q, i)*b**(q-i), i = 1..q.
    A weight (kind, e, c) stands for c * _basis(b, power)[kind][e].  Every
    source is at or before its row, so U is lower triangular."""
    index = {state: s for s, state in enumerate(_states(power))}
    rows = []
    for j, q in _states(power):
        reads = [(("g", q, 1), index[j, q])] if q else []
        reads.append((("F", j, 1), index[0, q]))
        reads += [(("b", q - i, comb(q, i)), index[j + i, q - i]) for i in range(1, q + 1)]
        rows.append(tuple(reads))
    return tuple(rows)


def _basis(base, power: int, sums: bool = True) -> dict:
    """What _update's weights are made of at one base: "b" holds b**e, "g"
    the growths b**e - 1 and "F" the F_e, e <= power; only F_0 when sums is
    false, for the last-digit chain, which reads no F_e."""
    powers = [base**e for e in range(power + 1)]
    return {"b": powers, "g": [x - 1 for x in powers], "F": _power_sums(base, power if sums else 0)}


def _seed(sums: Sequence) -> list:
    """The state at k = 0 from F_0..F_p: T(j, 0, 0) = F_j - [j = 0], all else 0."""
    return [sums[j] - (j == 0) if q == 0 else 0 for j, q in _states(len(sums) - 1)]


def extend(t: MomentTable, new_max_k: int) -> MomentTable:
    """Extend a table to new_max_k digits-minus-one via the update.

    Each new entry sums weight * previous entry over its row of _update,
    each weight (kind, e, c) evaluated once as c * _basis(...)[kind][e] and
    each row split into its first read and the rest, where the sum starts.
    """
    if not isinstance(new_max_k, int) or new_max_k < t.max_k:
        raise ValueError(f"new_max_k must be an integer >= {t.max_k}, got {new_max_k!r}")
    basis, plan = _basis(t.base, t.max_power), []
    for row in _update(t.max_power):
        first, *rest = [(c * basis[kind][e], s) for (kind, e, c), s in row]
        plan.append((first, rest))
    columns = list(t.moments)
    for _ in range(t.max_k, new_max_k):
        prev = columns[-1]
        column = []
        for (w, s), rest in plan:
            value = w * prev[s]
            for w, s in rest:
                value += w * prev[s]
            column.append(value)
        columns.append(tuple(column))
    return MomentTable(t.base, t.max_power, new_max_k, tuple(columns))


def _check_size(max_power: int, max_k: int) -> None:
    if not isinstance(max_power, int) or max_power < 0:
        raise ValueError(f"max_power must be a non-negative integer, got {max_power!r}")
    if not isinstance(max_k, int) or max_k < 1:
        raise ValueError(f"max_k must be an integer >= 1, got {max_k!r}")


def build_table(base: int, max_power: int, max_k: int) -> MomentTable:
    """The moment state of every (k+1)-digit length up to k = max_k >= 1."""
    check_base(base)
    _check_size(max_power, max_k)
    return _build(base, max_power, max_k)


def _build(base, max_power: int, max_k: int) -> MomentTable:
    """build_table without its checks, for a base in any ring with exact
    division by small integers: an int, or b itself as a generalform.PolyInB."""
    return extend(MomentTable(base, max_power, 0, (tuple(_seed(_power_sums(base, max_power))),)), max_k)


@dataclass(frozen=True)
class LaneTable:
    """The moment tables of several bases, stepped together as lanes:
    moments[k][s] holds entry s of the state at k (MomentTable's order) at
    each base of `bases`, in order, so lane i of every entry is
    build_table(bases[i], ...)'s.

    An entry is a list, not a tuple: CPython builds a tuple from a map by
    resizing it, and keeps every freed tuple of up to 20 items on a free
    list of its size, where tuples of each lane count would pile up, a few
    MB over a few thousand small ranges.  Entries may be shared: read them,
    never write them."""

    bases: tuple[int, ...]
    max_power: int
    max_k: int
    moments: tuple[tuple[list[int], ...], ...]


def build_lane_table(bases: Sequence[int], max_power: int, max_k: int) -> LaneTable:
    """build_table at every base of a non-empty sequence at once.

    The seed and the weights are extend's, evaluated lane by lane, and each
    read of _update runs once per table entry over all lanes at C speed (map
    over operator.mul and add), not once per base, so this pays where many
    bases share one power and depth.  A single lane costs more than it
    saves: build_table is 2.5-3x faster at one base, p = 2..3.
    """
    bases = tuple(bases)
    if not bases:
        raise ValueError("a lane table needs at least one base")
    for b in bases:
        check_base(b)
    _check_size(max_power, max_k)
    sums = [_power_sums(b, max_power) for b in bases]
    powers = [[b**e for b in bases] for e in range(max_power + 1)]
    basis = {"b": powers, "g": [[x - 1 for x in xs] for xs in powers], "F": [list(f) for f in zip(*sums)]}
    rows = _update(max_power)
    weights = {w: [w[2] * x for x in basis[w[0]][w[1]]] for w in {w for row in rows for w, _ in row}}
    plan = [((weights[w], s), [(weights[w], s) for w, s in rest]) for (w, s), *rest in rows]
    seeds = [_seed(f) for f in sums]
    columns = [tuple([seed[s] for seed in seeds] for s in range(len(rows)))]
    for _ in range(max_k):
        prev = columns[-1]
        column = []
        for (w, s), rest in plan:
            value = map(mul, w, prev[s])
            for w, s in rest:
                value = map(add, value, map(mul, w, prev[s]))
            column.append(list(value))
        columns.append(tuple(column))
    return LaneTable(bases, max_power, max_k, tuple(columns))


def lanes_not_annihilated(
    table: LaneTable, roots: Sequence[Sequence[int]], power: int | None = None
) -> list[int]:
    """annihilates at every lane: the bases of the table, in lane order,
    where prod_lam (U - lam) over that lane's multiset roots[i] does not
    kill the state at k = 1.  Each lane's e_i are the coefficients of
    pole_product(roots[i]), reversed, and zero past its own multiset's size.
    """
    state = _state_prefix(table.max_power, power)
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
    for s in range(state):
        value = map(mul, e[0], columns[0][s])
        for c, column in zip(e[1:], columns[1:]):
            value = map(add, value, map(mul, c, column[s]))
        failing.update(compress(lanes, value))
    return [table.bases[i] for i in sorted(failing)]


def moment_value(
    t: MomentTable, power: int, k: int, last_digit: int | None = None
) -> int:
    """Look up S(power, k), or S(last_digit, power, k) when a digit is given.

    A last-digit value runs the per-digit chain from k = 0 on demand and
    stores nothing in the table.  The chain steps by _update's rows for
    j = 0: a read of T(i, q') with weight w becomes w * l**i * S(l, q'), and
    the F_0 * T(0, q) read becomes the table's own S(q).
    """
    if not 0 <= power <= t.max_power:
        raise IndexError(f"power {power} outside table range [0, {t.max_power}]")
    if not 1 <= k <= t.max_k:
        raise IndexError(f"k {k} outside table range [1, {t.max_k}]")
    if last_digit is None:
        return t.moments[k][_state_prefix(t.max_power, power) - 1]
    l = last_digit
    if not (isinstance(l, int) and 0 <= l < t.base):
        raise IndexError(f"last digit {l!r} out of range [0, {t.base - 1}]")
    basis, states = _basis(t.base, power, sums=False), _states(power)
    steps = [  # the rows of T(0, q), whose F_0 * T(0, q) read is column[own] below
        ([(c * basis[kind][e] * l ** states[s][0], states[s][1])
          for (kind, e, c), s in row if kind != "F"], own)
        for own, row in enumerate(_update(power)) if states[own][0] == 0
    ]
    chain = [int(q == 0 and l >= 1) for q in range(power + 1)]
    for column in t.moments[:k]:
        chain = [sum([w * chain[r] for w, r in reads]) + column[own] for reads, own in steps]
    return chain[power]
