"""Expressions for the moment sums uniform in the base b, derived exactly
over Q(b).

moment_polynomials runs the recurrence with b itself as the base, so S(p, k)
comes out as a polynomial in b, and guess_general_form reads the coefficient
c_f of each of the 2p distinct eigenvalue families lam_f of the moment update
(eigenvalue_families) off the generating function sum_k S(p, k) x**k.  The
result is a theorem:

- Over Q(b) the families are pairwise distinct, and the update is
  diagonalizable on its nonzero spectrum.  A row T(j, q) depends only on
  itself, T(0, q) and rows with smaller q, so no path leads from one
  T(j >= 1, q) row to another; the eigenvalue-0 rows T(j >= 1, 0) depend
  only on T(0, 0), so they only affect k = 0.  Hence
  S(p, k) = sum_f c_f * lam_f**k in Q(b) for k >= 1.
- Evaluation at b commutes with the update, so the identity holds at every
  b >= 2 where no coefficient denominator vanishes;
  GeneralForm.excluded_bases lists the bases where one does.

At every requested base outside those, guess_general_form also runs the
per-base proof of rabot.closedform (verify, with its annihilator check) on
the specialized form, against a recurrence table the derivation did not read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm, prod
from typing import Iterable

from .closedform import ExponentialForm, verify
from .digits import check_base
from .errors import ExcludedBaseError, NoFitError
from .recurrence import _build, build_table, eigenvalue_families


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

    def _integral(self) -> tuple[list[int], int]:
        den = lcm(*(c.denominator for c in self.coefficients))
        return [c.numerator * (den // c.denominator) for c in self.coefficients], den

    def scale(self, factor: int | Fraction) -> PolyInB:
        return PolyInB(tuple(c * factor for c in self.coefficients))

    def __add__(self, other: PolyInB | int) -> PolyInB:
        if isinstance(other, int):
            other = PolyInB((other,))
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=0)
        return PolyInB(tuple(x + y for x, y in pairs))

    __radd__ = __add__

    def __sub__(self, other: PolyInB | int) -> PolyInB:
        return self + other * -1

    def __mul__(self, other: PolyInB | int) -> PolyInB:
        if isinstance(other, int):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return PolyInB(())
        # in integers over each side's common denominator: a Fraction sum costs a gcd
        (xs, dx), (ys, dy) = self._integral(), other._integral()
        out = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i + j] += x * y
        return PolyInB(tuple(Fraction(c, dx * dy) for c in out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> PolyInB:
        return self * self ** (exponent - 1) if exponent else PolyInB((1,))

    def __floordiv__(self, divisor: int) -> PolyInB:
        return self.scale(Fraction(1, divisor))  # exact, as the coefficients are rational

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


def moment_polynomials(power: int, count: int) -> list[PolyInB]:
    """S(power, k) for k = 1..count as polynomials in b, read from the
    recurrence table built with b itself as the base."""
    table = _build(PolyInB((0, 1)), power, count)
    return [table.moments[k][power][0] for k in range(1, count + 1)]


@lru_cache(maxsize=8)
def _derive(power: int) -> GeneralForm:
    """The general form of S(power, .) over Q(b), without zero terms; cached,
    as it depends on power alone and is immutable.

    G(x) = sum_{k>=1} S(power, k) x**k is N(x)/Q(x), Q(x) = prod_f (1 - lam_f x),
    so N = Q*G mod x**(F+1), F = 2*power.  Its reversal y**F N(1/y) is
    sum_f c_f lam_f prod_{g != f}(y - lam_g), which at y = lam_f leaves only f.
    """
    families = base_families(power)
    sums = moment_polynomials(power, len(families))
    q = [_ONE]
    for fam in families:
        q = [hi - fam * lo for hi, lo in zip(q + [_ZERO], [_ZERO] + q)]
    numerator = [sum(q[m - k] * sums[k - 1] for k in range(1, m + 1)) for m in range(1, len(q))]
    terms = []
    for fam in families:
        value = _ZERO
        for coeff in numerator:  # Horner on the reversal, y**(F-1) first
            value = value * fam + coeff
        fn = RationalFnInB(value, prod((fam - g for g in families if g != fam), start=fam))
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
