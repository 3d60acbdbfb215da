"""Exponential closed forms in k for the moment sums, with rigorous verification.

candidate_bases(b, p) lists the 2p nonzero eigenvalues of the moment update
U of rabot.recurrence at a base, read off U's diagonal, so two that collide
there (2b - 1 = b**2 - 1 = 3 at b = 2) form a root of multiplicity two.  The
fitter reads the form off the generating function of the first 2p values,
whose denominator is prod_lam (1 - lam x) over that multiset (rabot.linalg):
a base listed m times gets the residue of a pole of order m, which is a
coefficient polynomial in k of degree < m.

verify proves a form from one premise that it checks with
rabot.recurrence.annihilates: the annihilator prod_lam (U - lam) over that
multiset kills the state v_1 at k = 1, so S(p, .) satisfies the order-2p
recurrence with characteristic polynomial prod_lam (x - lam) for every
k >= 1.  A form whose terms fit inside the multiset satisfies it too, so
agreement at k = 1..2p makes the two equal for every k >= 1.

That premise, the spectrum and the values are all read from the update's
code, so a fault there, on U's diagonal or off it, would be proven too
unless it leaves the diagonal without 2p entries (NoFitError).  closed_form
therefore checks a proven result against rabot.oracle, which shares no
derivation with the recurrence, in two parts: the recurrence's own tables at
a few small bases (check_recurrence_against_brute, once per power), and the
form at the small k whose queries are short (check_form_against_brute, from
the form's integers over one denominator, stepped by _numerators).  A
mismatch raises DisagreementError.  rabot.generalform runs the first part
too, and its own second part, from a general form's generating function.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Iterator, Sequence

from .digits import check_base
from .errors import DepthError, DisagreementError, NoFitError
from .linalg import pole_product, series_numerator, taylor_at_roots
from .oracle import brute_moments
from .recurrence import (  # state_dimension_bound: perfbench/workloads.py reads it here
    MomentTable,
    _build,
    annihilates,
    build_table,
    candidate_bases,
    moment_value,
    state_dimension_bound,
)

# The brute-force checks' reach.  check_recurrence_against_brute compares
# S(p, k) at these bases and k = 1..5: 4880 numbers.  check_form_against_brute
# compares a form at each k <= 2p whose query enumerates at most
# BRUTE_CHECK_NUMBERS numbers, which no k does from b = 17 on; brute_check_depth
# gives that reach to rabot.generalform's per-base check of a general form's
# generating function too.  All read rabot.oracle.brute_moments, one
# enumeration per base for all its k: each of these queries is so short that
# brute_moment's fixed work per call would take most of its time.  No level
# reaches the 4096 numbers at which brute_moment would fork a worker, and
# brute_moments forks none.
RECURRENCE_CHECK_BASES = (2, 3, 4)
RECURRENCE_CHECK_DEPTH = 5
BRUTE_CHECK_NUMBERS = 256


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
        # cleared once to integer numerators over one denominator, for eval_at and _numerators
        den = lcm(*(c.denominator for poly, _ in self.terms for c in poly))
        scaled = [([c.numerator * (den // c.denominator) for c in p], lam) for p, lam in self.terms]
        object.__setattr__(self, "_scaled", (den, scaled))

    def is_constant(self) -> bool:
        """True when no coefficient depends on k."""
        return all(len(poly) == 1 for poly, _ in self.terms)

    def eval_at(self, k: int) -> Fraction:
        den, scaled = self._scaled
        return Fraction(sum(sum(c * k**e for e, c in enumerate(p)) * lam**k for p, lam in scaled), den)

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


def _numerators(scaled: list, n: int) -> Iterator[int]:
    """The numerators at k = 1..n of terms (P, lam) over one denominator, as
    ExponentialForm._scaled holds them, with no Fraction: each coefficient of
    P(k) * lam**k is stepped from k - 1 by one multiplication by lam (cheaper
    than lam**k at wide bases), those of k**e by one map, and Horner in k
    combines their sums."""
    degree = max((len(poly) for poly, _ in scaled), default=0)
    coefficients = [[poly[e] for poly, _ in scaled if len(poly) > e] for e in range(degree)]
    growth = [[lam for poly, lam in scaled if len(poly) > e] for e in range(degree)]
    for k in range(1, n + 1):
        total = 0
        for e in reversed(range(degree)):
            coefficients[e] = list(map(mul, coefficients[e], growth[e]))
            total = total * k + sum(coefficients[e])
        yield total


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking a form against exact table values at k = 1..2p.

    proven:     matched at k = 1..2p, and both premises of the proof hold
                (see verify)
    consistent: matched at k = 1..2p, but a premise fails: a term lies
                outside the spectrum multiset, or the annihilator does not
                vanish
    refuted:    mismatch at some k <= 2p, with witness (k, table value,
                form value)
    """

    status: str
    checked_depth: int
    witness: tuple[int, int, Fraction] | None = None


def fit_closed_form(
    values: Sequence[int], bases: Sequence[int], *, base: int, power: int
) -> ExponentialForm:
    """Read sum_lam P_lam(k) * lam**k = values[k-1] off the generating function
    of the first len(bases) values, where a base listed m times in `bases`
    gets a polynomial P_lam of degree < m.

    With h_0..h_{m-1} the Taylor coefficients of rev(N)/R_lam at lam (see
    rabot.linalg), P_lam(k) = sum_{i<m} C(k-1, i) * h_{m-1-i} / lam**(i+1).
    A root 0 adds nothing at k >= 1, so a nonzero h there raises NoFitError.
    Later values are not read: checking the form is verify's job.  Trailing
    zero coefficients and zero polynomials are dropped.
    """
    t = len(bases)
    if len(values) < t:
        raise ValueError(f"need at least {t} values to fit {t} bases, got {len(values)}")
    terms = []
    numerator = series_numerator(values, pole_product(bases))
    for lam, (num, den) in sorted(taylor_at_roots(numerator, bases).items()):
        h: list[Fraction] = []  # the series quotient num/den
        for a in num:
            h.append(Fraction(a - sum(d * x for d, x in zip(den[1:], reversed(h))), den[0]))
        if lam == 0:
            if any(h):
                raise NoFitError(f"no combination of the bases {sorted(bases)} fits the values")
            continue
        poly = [Fraction(0)] * len(h)
        binom = [Fraction(1)]  # C(k-1, i) in powers of k, constant term first
        for i in range(len(h)):
            for e, c in enumerate(binom):
                poly[e] += c * h[-1 - i] / lam ** (i + 1)
            binom = [(lo - (i + 1) * hi) / (i + 1) for hi, lo in zip(binom + [0], [0] + binom)]
        while poly and poly[-1] == 0:
            poly.pop()
        if poly:
            terms.append((tuple(poly), lam))
    return ExponentialForm(base, power, tuple(terms))


def table_depth(power: int) -> int:
    """The last column verify reads for a form of this power: 2p + 1, as the
    annihilator reads column 2p + 1 while the values are compared at
    k = 1..2p.  The proof needs p >= 1, so other powers raise ValueError."""
    if not isinstance(power, int) or power < 1:
        raise ValueError(f"power must be a positive integer, got {power!r}")
    return 2 * power + 1


def verify(form: ExponentialForm, table: MomentTable) -> Verdict:
    """Compare a form against exact table values at k = 1..2p, the proof depth.

    The table must reach table_depth(p).  Refuted at the first k where the
    form differs from the table; otherwise proven (see module docstring) when
    every term fits inside candidate_bases(b, p) and the annihilator over that
    multiset kills the table's state at k = 1, else consistent.
    """
    if table.base != form.base:
        raise ValueError(f"table is for base {table.base}, form for base {form.base}")
    if table.max_power < form.power:
        raise ValueError(f"table only covers powers up to {table.max_power}")
    need = table_depth(form.power)
    if table.max_k < need:
        raise DepthError(f"table depth {table.max_k} is below {need}, the depth verify reads")
    checked = 2 * form.power
    den, scaled = form._scaled
    for k, num in enumerate(_numerators(scaled, checked), 1):
        expected = moment_value(table, form.power, k)
        if num != expected * den:
            return Verdict("refuted", checked_depth=k, witness=(k, expected, Fraction(num, den)))
    bases = candidate_bases(form.base, form.power)
    in_spectrum = all(len(poly) <= bases.count(lam) for poly, lam in form.terms)
    proven = in_spectrum and annihilates(table, bases, form.power)
    return Verdict("proven" if proven else "consistent", checked_depth=checked)


def closed_form(base: int, power: int) -> tuple[ExponentialForm, Verdict]:
    """Fit and verify the closed form of S(power, .) for a fixed base.

    Fits the candidate-base multiset to the 2p exact table values at
    k = 1..2p and verifies the form on a table that reaches
    table_depth(power).  A proven form is then checked against brute force,
    the recurrence's tables of this power and the form at this base, and
    DisagreementError raised on a mismatch.
    """
    check_base(base)
    table = build_table(base, power, table_depth(power))
    values = [moment_value(table, power, k) for k in range(1, 2 * power + 1)]
    form = fit_closed_form(values, candidate_bases(base, power), base=base, power=power)
    verdict = verify(form, table)
    if verdict.status == "proven":
        check_recurrence_against_brute(power)
        check_form_against_brute(form)
    return form, verdict


@lru_cache(maxsize=None)
def check_recurrence_against_brute(power: int) -> None:
    """S(power, k) from the recurrence against brute_moments at each base of
    RECURRENCE_CHECK_BASES and k = 1..RECURRENCE_CHECK_DEPTH, or
    DisagreementError at the first pair that differs.

    The update's code is the same at every base, so this checks the tables
    every proof of this power reads: each single fault of an update weight or
    a seed entry that tests/test_mutations.py sweeps changes one of these
    values.  Cached, as it depends on power alone.
    """
    for b in RECURRENCE_CHECK_BASES:
        table = _build(b, power, RECURRENCE_CHECK_DEPTH)
        for k, actual in enumerate(brute_moments(b, power, RECURRENCE_CHECK_DEPTH), 1):
            expected = moment_value(table, power, k)
            if expected != actual:
                raise DisagreementError(
                    f"the recurrence gives S({power}, {k}) = {expected} at b={b}, brute force {actual}"
                )


def brute_check_depth(base: int, power: int) -> int:
    """The last k at which check_form_against_brute compares a form:
    min(2p, K_b), with K_b the largest k whose query enumerates at most
    BRUTE_CHECK_NUMBERS numbers, (b - 1)*b**k <= 256.  0 from b = 17 on."""
    k = 0
    while k < 2 * power and (base - 1) * base ** (k + 1) <= BRUTE_CHECK_NUMBERS:
        k += 1
    return k


def check_form_against_brute(form: ExponentialForm) -> None:
    """The form against brute_moments at k = 1..brute_check_depth(b, p), or
    DisagreementError at the first k where they differ.  Not cached: each
    form is checked where it is made."""
    depth = brute_check_depth(form.base, form.power)
    den, scaled = form._scaled
    actuals = brute_moments(form.base, form.power, depth)
    for k, (num, actual) in enumerate(zip(_numerators(scaled, depth), actuals), 1):
        if num != actual * den:
            raise DisagreementError(
                f"the form at b={form.base} gives S({form.power}, {k}) = {Fraction(num, den)},"
                f" brute force {actual}"
            )
