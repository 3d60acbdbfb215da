"""Expressions for the moment sums uniform in the base b, derived exactly
over Q(b).

guess_general_form interpolates S(p, k), k = 1..2p, as polynomials in b
(moment_polynomials) and solves the Vandermonde system over Q(b) in closed
form for the coefficient c_f of each of the 2p distinct eigenvalue families
lam_f of the moment update (eigenvalue_families).  The result is a theorem:

- Where the families are pairwise distinct, the update is diagonalizable on
  its nonzero spectrum.  A row T(j, q) depends only on itself, T(0, q) and
  rows with smaller q, so no path leads from one T(j >= 1, q) row to
  another; the eigenvalue-0 rows T(j >= 1, 0) depend only on T(0, 0), so
  they only affect k = 0.  Hence S(p, k) = sum_f c_f * lam_f**k, k >= 1.
- For each k both sides are rational functions of b that agree at all but
  finitely many b, so the identity holds in Q(b).
- It therefore holds at every b >= 2 where no coefficient denominator
  vanishes; GeneralForm.excluded_bases lists the bases where one does.

At every requested base outside those, guess_general_form also runs the
per-base proof of rabot.closedform (verify, with its annihilator check) on
the specialized form, against a recurrence table the derivation did not read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence

from .closedform import ExponentialForm, verify
from .digits import check_base
from .errors import ExcludedBaseError, NoFitError
from .recurrence import build_table, eigenvalue_families, moment_value


def _frac_str(f: Fraction) -> str:
    return str(f) if f.denominator == 1 else f"({f})"


@dataclass(frozen=True)
class PolyInB:
    """Polynomial in the base variable b, exact rational coefficients stored
    constant term first with no trailing zeros (the zero polynomial is the
    empty tuple)."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = [Fraction(c) for c in self.coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def eval(self, b: int | Fraction) -> Fraction:
        value = Fraction(0)
        for c in reversed(self.coefficients):
            value = value * b + c
        return value

    def scale(self, factor: int | Fraction) -> PolyInB:
        return PolyInB(tuple(c * factor for c in self.coefficients))

    def __add__(self, other: PolyInB) -> PolyInB:
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=0)
        return PolyInB(tuple(x + y for x, y in pairs))

    def __sub__(self, other: PolyInB) -> PolyInB:
        return self + other.scale(-1)

    def __mul__(self, other: PolyInB) -> PolyInB:
        if self.is_zero() or other.is_zero():
            return PolyInB(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return PolyInB(tuple(out))

    def render(self, var: str = "b") -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for e in range(self.degree(), -1, -1):
            c = self.coefficients[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                piece = _frac_str(mag)
            else:
                v = var if e == 1 else f"{var}^{e}"
                piece = v if mag == 1 else f"{_frac_str(mag)}*{v}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)


_ZERO = PolyInB(())
_ONE = PolyInB((Fraction(1),))


def _poly_divmod(a: PolyInB, b: PolyInB) -> tuple[PolyInB, PolyInB]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Fraction(0)] * max(len(a.coefficients) - len(b.coefficients) + 1, 0)
    rest = list(a.coefficients)
    lead = b.coefficients[-1]
    db = b.degree()
    for i in range(len(rest) - 1, db - 1, -1):
        if rest[i] == 0:
            continue
        f = rest[i] / lead
        quotient[i - db] = f
        for j, c in enumerate(b.coefficients):
            rest[i - db + j] -= f * c
    return PolyInB(tuple(quotient)), PolyInB(tuple(rest))


def _poly_gcd(a: PolyInB, b: PolyInB) -> PolyInB:
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1]
    if a.is_zero():
        return _ZERO
    return a.scale(1 / a.coefficients[-1])


@dataclass(frozen=True)
class RationalFnInB:
    """Quotient of two polynomials in b, kept in a canonical reduced form:
    numerator and denominator coprime, denominator with integer
    coefficients, content 1 and positive leading coefficient."""

    numerator: PolyInB
    denominator: PolyInB = _ONE

    def __post_init__(self) -> None:
        num, den = self.numerator, self.denominator
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = _ZERO, _ONE
        else:
            g = _poly_gcd(num, den)
            num = _poly_divmod(num, g)[0]
            den = _poly_divmod(den, g)[0]
            scale = Fraction(lcm(*(c.denominator for c in den.coefficients)))
            num, den = num.scale(scale), den.scale(scale)
            content = gcd(*(int(c) for c in den.coefficients))
            if den.coefficients[-1] < 0:
                content = -content
            num, den = num.scale(Fraction(1, content)), den.scale(Fraction(1, content))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def eval(self, b: int | Fraction) -> Fraction:
        return self.numerator.eval(b) / self.denominator.eval(b)

    def render(self, var: str = "b") -> str:
        scale = Fraction(
            lcm(*(c.denominator for c in self.numerator.coefficients))
            if not self.numerator.is_zero()
            else 1
        )
        num = self.numerator.scale(scale)
        g = gcd(
            gcd(*(int(c) for c in num.coefficients)) if not num.is_zero() else 0,
            int(scale),
        )
        num = num.scale(Fraction(1, g))
        multiplier = int(scale) // g
        if self.denominator == _ONE and multiplier == 1:
            return num.render(var)
        if self.denominator.degree() == 0:
            den_str = str(multiplier)
        elif multiplier == 1:
            den_str = f"({self.denominator.render(var)})"
        else:
            den_str = f"({multiplier}*({self.denominator.render(var)}))"
        return f"({num.render(var)})/{den_str}"


@dataclass(frozen=True)
class GeneralForm:
    """A sum of (rational function of b) * (polynomial in b)**k terms equal
    to S(power, k) for every k >= 1 and every b >= 2 outside excluded_bases()."""

    power: int
    terms: tuple[tuple[RationalFnInB, PolyInB], ...]

    def __post_init__(self) -> None:
        bases = [fam for _, fam in self.terms]
        if len(set(bases)) != len(bases):
            raise ValueError("growth-base polynomials must be pairwise distinct")
        if any(fn.is_zero() for fn, _ in self.terms):
            raise ValueError("zero coefficients must not be stored")

    def excluded_bases(self) -> frozenset[int]:
        """The bases b >= 2 where a coefficient denominator vanishes, found by
        scanning up to its Cauchy root bound 1 + max|a_i / a_n|."""
        excluded = set()
        for fn, _ in self.terms:
            den = fn.denominator
            bound = 1 + max(abs(c / den.coefficients[-1]) for c in den.coefficients)
            excluded.update(b for b in range(2, int(bound) + 1) if den.eval(b) == 0)
        return frozenset(excluded)

    def render(self, var: str = "b") -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({fn.render(var)})*({fam.render(var)})^k" for fn, fam in self.terms
        )


def base_families(power: int) -> list[PolyInB]:
    """The growth-base families of eigenvalue_families(power), in canonical
    order (degree, then leading coefficients)."""
    families = [PolyInB(tuple(map(Fraction, fam))) for fam in eigenvalue_families(power)]
    return sorted(families, key=lambda fam: (fam.degree(), fam.coefficients[::-1]))


def _interpolate(ys: Sequence[int]) -> PolyInB:
    """The polynomial of degree < len(ys) with value ys[i] at b = 2 + i, by
    Newton's divided differences (on unit steps, forward differences / i!)."""
    diffs = list(ys)
    for level in range(1, len(ys)):
        for i in range(len(ys) - 1, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    # Horner on the Newton form, times (len(ys) - 1)! to stay in integers
    coeffs, weight = [diffs[-1]], 1
    for i in range(len(ys) - 2, -1, -1):
        weight *= i + 1
        coeffs = [hi - (2 + i) * lo for hi, lo in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[i] * weight
    return PolyInB(tuple(Fraction(c, weight) for c in coeffs))


def moment_polynomials(power: int, count: int) -> list[PolyInB]:
    """S(power, k) for k = 1..count as polynomials in b, interpolated from the
    recurrence at b = 2..(k+1)(power+1)+2.

    Exact because deg_b T(j, q, k) <= (k+1)(q+1) + j, by induction on k over
    the update: the seed T(j, 0, 0) = sum_{l<b} l**j has degree j + 1
    (T(j, q >= 1, 0) = 0), and for k >= 1 the terms (b**q - 1)*T(j, q, k-1),
    F_j*T(0, q, k-1) and b**(q-i)*T(j+i, q-i, k-1) have degree at most
    q + k(q+1) + j, j + 1 + k(q+1) and q + k(q-i+1) + j.
    """
    tables = [build_table(b, power, count) for b in range(2, (count + 1) * (power + 1) + 3)]
    return [
        _interpolate([moment_value(t, power, k) for t in tables[: (k + 1) * (power + 1) + 1]])
        for k in range(1, count + 1)
    ]


@lru_cache(maxsize=8)
def _derive(power: int) -> GeneralForm:
    """The general form of S(power, .) over Q(b), without zero terms; cached,
    as it depends on power alone and is immutable."""
    families = base_families(power)
    sums = moment_polynomials(power, len(families))
    terms = []
    for fam in families:
        # prod_{g != f}(x - lam_g) = sum_m a_m x**m kills every other family, so
        # sum_m a_m * S(p, m+1), which is prod_{g != f}(E - lam_g) S(p, .) at k = 1
        # for the shift E, equals c_f * lam_f * prod_{g != f}(lam_f - lam_g).
        shifted, den = sums, fam
        for other in families:
            if other != fam:
                shifted = [nxt - other * cur for cur, nxt in zip(shifted, shifted[1:])]
                den = den * (fam - other)
        fn = RationalFnInB(shifted[0], den)
        if not fn.is_zero():
            terms.append((fn, fam))
    return GeneralForm(power, tuple(terms))


def guess_general_form(power: int, b_range: Iterable[int]) -> GeneralForm:
    """The expression for the power-th moment sum valid in (b, k), derived
    exactly over Q(b); b_range only selects the bases it is checked at.

    At each base in the range outside excluded_bases(), the specialized form
    must be proven by verify against that base's recurrence table, or
    NoFitError naming the base is raised.  An exponential form with distinct
    integer bases is unique, so this is the same as equality with the proven
    per-base closed form.
    """
    bs = set(b_range)
    if not bs:
        raise ValueError("the base range is empty")
    g = _derive(power)
    for b in sorted(bs - g.excluded_bases()):
        verdict = verify(specialize(g, b), build_table(b, power, 2 * power + 1))
        if verdict.status != "proven":
            raise NoFitError(f"the general form at b={b} is {verdict.status}, not proven")
    return g


def specialize(g: GeneralForm, b: int) -> ExponentialForm:
    """Evaluate a general form at a concrete base.

    Growth bases that collide numerically at b are merged by summing their
    coefficients (so a four-family form can specialize to three terms);
    zero coefficients are dropped.
    """
    check_base(b)
    merged: dict[int, Fraction] = {}
    for fn, fam in g.terms:
        try:
            c = fn.eval(b)
        except ZeroDivisionError:
            raise ExcludedBaseError(
                f"coefficient {fn.render()} has a denominator zero at b={b}"
            ) from None
        lam = fam.eval(b)
        if lam.denominator != 1 or lam < 1:
            raise ValueError(f"growth base {fam.render()} is not a positive integer at b={b}")
        merged[int(lam)] = merged.get(int(lam), Fraction(0)) + c
    terms = tuple(((c,), lam) for lam, c in sorted(merged.items()) if c != 0)
    return ExponentialForm(b, g.power, terms)
