"""Exponential closed forms in k for the moment sums, with rigorous verification.

candidate_bases(b, p) lists the 2p nonzero eigenvalues of the moment update
U of rabot.recurrence at a base, so two that collide there (2b - 1 =
b**2 - 1 = 3 at b = 2) form a root of multiplicity two.  The fitter reads a
base listed m times as a coefficient polynomial in k of degree < m and
solves the confluent Vandermonde system on 2p values exactly.

verify proves a form from one premise that it checks: the annihilator
prod_lam (U - lam) over that multiset kills the state v_1 at k = 1, i.e.
sum_i e_i * T(j, q, 1+i) = 0 for every (j, q), where the e_i are the
coefficients of prod_lam (x - lam).  U**(k-1) commutes with the product,
so S(p, .) satisfies this order-2p recurrence for every k >= 1.  A form
whose terms fit inside the multiset satisfies it too, so agreement at
k = 1..2p makes the two equal for every k >= 1.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .digits import check_base
from .errors import DepthError, NoFitError
from .linalg import solve_linear
from .recurrence import (  # state_dimension_bound is re-exported, not used
    MomentTable,
    build_table,
    candidate_bases,
    moment_value,
    state_dimension_bound,
)


@dataclass(frozen=True)
class ExponentialForm:
    """A finite sum of terms P(k) * lam**k with distinct integer growth bases
    lam >= 1 in ascending order.  Each P is a tuple of exact rational
    coefficients, constant term first, with no trailing zero; zero
    polynomials are dropped."""

    base: int
    power: int
    terms: tuple[tuple[tuple[Fraction, ...], int], ...]

    def __post_init__(self) -> None:
        for poly, lam in self.terms:
            if not isinstance(poly, tuple) or not poly or poly[-1] == 0:
                raise ValueError("coefficient polynomials must be non-empty, with no trailing zero")
            if not isinstance(lam, int) or lam < 1:
                raise ValueError(f"growth base must be an integer >= 1, got {lam!r}")
        bases = [lam for _, lam in self.terms]
        if any(a >= b for a, b in zip(bases, bases[1:])):
            raise ValueError("growth bases must be strictly increasing")

    def is_constant(self) -> bool:
        """True when no coefficient depends on k."""
        return all(len(poly) == 1 for poly, _ in self.terms)

    def eval_at(self, k: int) -> Fraction:
        total = Fraction(0)
        for poly, lam in self.terms:
            coeff = poly[-1]
            for c in reversed(poly[:-1]):
                coeff = coeff * k + c
            total += coeff * lam**k
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        if self.is_constant():
            return " + ".join(f"({poly[0]})*{lam}^k" for poly, lam in self.terms)
        parts = []
        for poly, lam in self.terms:
            monomials = []
            for e, c in enumerate(poly):
                if c == 0:
                    continue
                monomials.append(f"({c})" + ("" if e == 0 else "*k" if e == 1 else f"*k^{e}"))
            parts.append(f"({' + '.join(monomials)})*{lam}^k")
        return " + ".join(parts)


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking a form against exact table values.

    proven:     matched at k = 1..2p or further, and both premises of the
                proof hold (see verify)
    consistent: matched at every checked k, but fewer than 2p of them or
                with a premise failing
    refuted:    mismatch, with witness (k, table value, form value)
    """

    status: str
    checked_depth: int
    witness: tuple[int, int, Fraction] | None = None


def fit_closed_form(
    values: Sequence[int], bases: Sequence[int], *, base: int, power: int
) -> ExponentialForm:
    """Solve sum_lam P_lam(k) * lam**k = values[k-1] exactly over the rationals,
    where a base listed m times in `bases` gets a polynomial P_lam of degree < m.

    The first len(bases) values determine the coefficients, and later ones
    are not read: checking the form against a table is verify's job.  An
    unsolvable system raises NoFitError.  Trailing zero coefficients and
    zero polynomials are dropped.
    """
    multiplicity = Counter(bases)
    slots = [(lam, e) for lam in sorted(multiplicity) for e in range(multiplicity[lam])]
    t = len(slots)
    if len(values) < t:
        raise ValueError(f"need at least {t} values to fit {t} bases, got {len(values)}")
    rows = [
        [Fraction(lam) ** k if e == 0 else k**e * Fraction(lam) ** k for lam, e in slots]
        for k in range(1, t + 1)
    ]
    solution = solve_linear(rows, values[:t])
    if solution is None:
        raise NoFitError(f"no combination of the bases {sorted(bases)} fits the values")
    terms = []
    for lam in sorted(multiplicity):
        poly = [c for (l, _), c in zip(slots, solution) if l == lam]
        while poly and poly[-1] == 0:
            poly.pop()
        if poly:
            terms.append((tuple(poly), lam))
    return ExponentialForm(base, power, tuple(terms))


def verify(form: ExponentialForm, table: MomentTable, depth: int | None = None) -> Verdict:
    """Compare a form against exact table values at k = 1..depth.

    depth defaults to the proof depth 2p, and the table must reach
    k = max(depth, 2p + 1).  Agreement at depth >= 2p is proof (see module
    docstring) when every term fits inside candidate_bases(b, p) and the
    annihilator over that multiset kills the table's state at k = 1;
    otherwise it is only consistent.
    """
    if table.base != form.base:
        raise ValueError(f"table is for base {table.base}, form for base {form.base}")
    if table.max_power < form.power:
        raise ValueError(f"table only covers powers up to {table.max_power}")
    required = 2 * form.power
    checked = required if depth is None else depth
    if checked < 1:
        raise ValueError("verification depth must be at least 1")
    need = max(checked, required + 1)  # the annihilator reads column 2p + 1
    if table.max_k < need:
        raise DepthError(f"table depth {table.max_k} is below {need}, the depth verify reads")
    for k in range(1, checked + 1):
        expected = moment_value(table, form.power, k)
        actual = form.eval_at(k)
        if actual != expected:
            return Verdict("refuted", checked_depth=k, witness=(k, expected, actual))
    bases = candidate_bases(form.base, form.power)
    in_spectrum = all(len(poly) <= bases.count(lam) for poly, lam in form.terms)
    e = [1]  # coefficients of prod_lam (x - lam), constant term first
    for lam in bases:
        e = [shifted - lam * c for shifted, c in zip([0] + e, e + [0])]
    annihilated = all(
        sum(c * table.moments[1 + i][q][j] for i, c in enumerate(e)) == 0
        for q in range(form.power + 1)
        for j in range(form.power - q + 1)
    )
    proven = checked >= required and in_spectrum and annihilated
    return Verdict("proven" if proven else "consistent", checked_depth=checked)


def closed_form(
    base: int, power: int, *, depth: int | None = None
) -> tuple[ExponentialForm, Verdict]:
    """Fit and verify the closed form of S(power, .) for a fixed base.

    Fits the candidate-base multiset to the 2p exact table values at
    k = 1..2p and verifies the form to depth max(2p, depth).
    """
    check_base(base)
    if not isinstance(power, int) or power < 1:
        raise ValueError(f"power must be a positive integer, got {power!r}")
    if depth is not None and depth < 1:
        raise ValueError("verification depth must be at least 1")
    required = 2 * power
    checked = required if depth is None else max(depth, required)
    table = build_table(base, power, checked + 1)
    values = [moment_value(table, power, k) for k in range(1, required + 1)]
    form = fit_closed_form(values, candidate_bases(base, power), base=base, power=power)
    return form, verify(form, table, depth=checked)
