"""Conjectured expressions for the moment sums uniform in the base b.

For fixed p the proven per-base closed forms share a visible structure:
their growth bases trace the eigenvalue families of the moment state
(b, b**q + b - 1, and b**q - 1 for q < p), and the coefficients vary with
b like rational functions.  This module fits those rational functions
exactly from a sweep of proven per-base forms and emits the result as a
conjecture (the per-base inputs are proven; the uniformity in b is not).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .closedform import ExponentialForm, closed_form
from .digits import check_base
from .errors import ExcludedBaseError, NoFitError
from .linalg import solve_linear
from .recurrence import eigenvalue_families

_HELD_OUT = 3


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
        n = max(len(self.coefficients), len(other.coefficients))
        a = self.coefficients + (Fraction(0),) * (n - len(self.coefficients))
        b = other.coefficients + (Fraction(0),) * (n - len(other.coefficients))
        return PolyInB(tuple(x + y for x, y in zip(a, b)))

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
    """A sum of (rational function of b) * (polynomial in b)**k terms meant
    to hold for every base b >= 2.  Always labeled a conjecture: each
    per-base specialization is proven, the uniformity in b is not."""

    power: int
    terms: tuple[tuple[RationalFnInB, PolyInB], ...]
    status: str = "conjecture"

    def __post_init__(self) -> None:
        bases = [fam for _, fam in self.terms]
        if len(set(bases)) != len(bases):
            raise ValueError("growth-base polynomials must be pairwise distinct")
        if any(fn.is_zero() for fn, _ in self.terms):
            raise ValueError("zero coefficients must not be stored")

    def render(self, var: str = "b") -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({fn.render(var)})*({fam.render(var)})^k" for fn, fam in self.terms
        )


def _family_sort_key(fam: PolyInB) -> tuple:
    return (fam.degree(), tuple(reversed(fam.coefficients)))


def base_families(power: int) -> list[PolyInB]:
    """The distinct growth-base families of eigenvalue_families(power), in
    canonical order (degree, then leading coefficients)."""
    families = {PolyInB(tuple(map(Fraction, fam))) for fam in eigenvalue_families(power)}
    return sorted(families, key=_family_sort_key)


def _fit_rational_function(
    points: Sequence[tuple[int, Fraction]], degree_cap: int, family: PolyInB
) -> RationalFnInB:
    """Exact rational function through the given (b, value) samples, trying
    ascending degree pairs; every sample, including at least _HELD_OUT
    points unused by the solve, must be reproduced."""
    pairs = sorted(
        ((dn, dd) for dn in range(degree_cap + 1) for dd in range(degree_cap + 1)),
        key=lambda t: (max(t), t[0] + t[1], t[1]),
    )
    skipped_short = False
    for dn, dd in pairs:
        unknowns = dn + dd + 1
        if len(points) < unknowns + _HELD_OUT:
            skipped_short = True
            continue
        rows = []
        rhs = []
        for b, c in points[:unknowns]:
            rows.append(
                [Fraction(b) ** i for i in range(dn + 1)]
                + [-c * Fraction(b) ** j for j in range(dd)]
            )
            rhs.append(c * Fraction(b) ** dd)
        solution = solve_linear(rows, rhs)
        if solution is None:
            continue
        num = PolyInB(tuple(solution[: dn + 1]))
        den = PolyInB(tuple(solution[dn + 1 :]) + (Fraction(1),))
        if all(
            den.eval(b) != 0 and num.eval(b) == c * den.eval(b) for b, c in points
        ):
            return RationalFnInB(num, den)
    name = family.render()
    if skipped_short:
        raise NoFitError(
            f"insufficient sample points to fit base family {name}: "
            f"{len(points)} usable bases, while degree pairs up to "
            f"({degree_cap}, {degree_cap}) need up to {2 * degree_cap + 1 + _HELD_OUT}; "
            "widen the base range",
            family=name,
        )
    raise NoFitError(
        f"no rational function of degree <= {degree_cap} fits base family {name}",
        family=name,
    )


def guess_general_form(power: int, b_range: Iterable[int]) -> GeneralForm:
    """Conjecture an expression for the power-th moment sum valid in (b, k).

    Computes the proven per-base closed form for every b in b_range, then
    fits each base family's coefficient as an exact rational function of b.
    Sample bases where two families collide numerically are excluded from
    both families' fits, since the per-base form only shows the merged
    coefficient there.  Families whose coefficient is identically zero are
    dropped.
    """
    if not isinstance(power, int) or power < 1:
        raise ValueError(f"power must be a positive integer, got {power!r}")
    bs = sorted(set(b_range))
    for b in bs:
        check_base(b)
    families = base_families(power)
    # per base: growth base -> coefficient polynomial in k (constants for the
    # simple forms; genuine k-polynomials only ever sit on collided bases)
    coeff_by_base: dict[int, dict[int, tuple[Fraction, ...]]] = {}
    for b in bs:
        form, verdict = closed_form(b, power)
        if verdict.status != "proven":
            raise NoFitError(f"the closed form at b={b} is {verdict.status}, not proven")
        coeff_by_base[b] = {lam: poly for poly, lam in form.terms}
    terms = []
    for fam in families:
        points = []
        for b in bs:
            value = fam.eval(b)
            if any(other != fam and other.eval(b) == value for other in families):
                continue
            poly = coeff_by_base[b].get(int(value), (Fraction(0),))
            if len(poly) > 1:
                raise NoFitError(
                    f"coefficient of {value}^k at b={b} is polynomial in k and "
                    f"cannot be attributed to base family {fam.render()}",
                    family=fam.render(),
                )
            points.append((b, poly[0]))
        # the minimal-degree fit is unique whenever one exists, so the cap
        # only bounds the search; 2p+2 covers the dominant family's observed
        # (2p, 2p-1) worst case with headroom
        fn = _fit_rational_function(points, 2 * power + 2, fam)
        if not fn.is_zero():
            terms.append((fn, fam))
    return GeneralForm(power, tuple(terms))


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
