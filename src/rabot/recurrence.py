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
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
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
    return sorted(
        sum(c * base**e for e, c in enumerate(fam)) for fam in eigenvalue_families(power)
    )


def _power_sums(base: int, power: int) -> list[int]:
    """F_j = sum_{l<b} l**j, j <= power (0**0 = 1), from the telescoped sum
    sum_{l<b} (l+1)**(j+1) - l**(j+1) = sum_{i<=j} C(j+1, i)*F_i = b**(j+1)."""
    sums: list[int] = []
    for j in range(power + 1):
        rest = sum(comb(j + 1, i) * f for i, f in enumerate(sums))
        sums.append((base ** (j + 1) - rest) // (j + 1))
    return sums


def extend(t: MomentTable, new_max_k: int) -> MomentTable:
    """Extend a table to new_max_k digits-minus-one via the update.

    The update is laid out once per call as a plan with one row per (q, j):
    its growth b**q - 1, F_j, and the entries (C(q, i)*b**(q-i), q-i, j+i),
    i = 1..q, it reads from the previous column.  F_j comes off the k = 0
    column, T(j, 0, 0) = F_j - [j = 0], so no power sum is recomputed.  Each
    new column is then stepped with plain loops over the plan.
    """
    if not isinstance(new_max_k, int) or new_max_k < t.max_k:
        raise ValueError(f"new_max_k must be an integer >= {t.max_k}, got {new_max_k!r}")
    b, p = t.base, t.max_power
    one_digit = t.moments[0][0]
    faulhaber = [one_digit[0] + 1, *one_digit[1:]]
    plan = []
    for q in range(p + 1):
        growth = b**q - 1
        weights = [(comb(q, i) * b ** (q - i), i) for i in range(1, q + 1)]
        plan.append(
            [
                (growth, faulhaber[j], [(w, q - i, j + i) for w, i in weights])
                for j in range(p - q + 1)
            ]
        )
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
