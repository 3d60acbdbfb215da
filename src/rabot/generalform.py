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
from math import gcd, lcm
from typing import Iterable

from .closedform import ExponentialForm, verify
from .digits import check_base
from .errors import ExcludedBaseError, NoFitError
from .linalg import taylor_at_roots
from .recurrence import _build, build_table, eigenvalue_families


def _frac_str(f: Fraction) -> str:
    return str(f) if f.denominator == 1 else f"({f})"


@dataclass(frozen=True)
class PolyInB:
    """Polynomial in the base variable b: integer numerators, constant term
    first, over one denominator > 0, with gcd 1 and no trailing zero (zero is
    () over 1).  Fraction numerators passed in are cleared into that form."""

    numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        nums, den = list(self.numerators), self.denominator
        if not all(type(c) is int for c in nums):  # clear Fraction input
            scale = lcm(*(c.denominator for c in nums))
            nums, den = [c.numerator * (scale // c.denominator) for c in nums], den * scale
        while nums and nums[-1] == 0:
            nums.pop()
        if den == 0:
            raise ZeroDivisionError("polynomial with zero denominator")
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        object.__setattr__(self, "numerators", tuple(c // g for c in nums))
        object.__setattr__(self, "denominator", den // g)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    def degree(self) -> int:
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def eval(self, b: int | Fraction) -> Fraction:
        value = 0
        for c in reversed(self.numerators):
            value = value * b + c
        return Fraction(value, self.denominator)

    def __add__(self, other: PolyInB | int) -> PolyInB:
        if isinstance(other, int):
            other = PolyInB((other,))
        den = lcm(self.denominator, other.denominator)
        x, y = den // self.denominator, den // other.denominator
        pairs = zip_longest(self.numerators, other.numerators, fillvalue=0)
        return PolyInB(tuple(a * x + c * y for a, c in pairs), den)

    __radd__ = __add__

    def __sub__(self, other: PolyInB | int) -> PolyInB:
        return self + other * -1

    def __mul__(self, other: PolyInB | int) -> PolyInB:
        if isinstance(other, int):
            return PolyInB(tuple(c * other for c in self.numerators), self.denominator)
        out = [0] * (len(self.numerators) + len(other.numerators) - 1)
        for i, x in enumerate(self.numerators):
            for j, y in enumerate(other.numerators):
                out[i + j] += x * y
        return PolyInB(tuple(out), self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> PolyInB:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        return self * self ** (exponent - 1) if exponent else _ONE

    def __floordiv__(self, divisor: int) -> PolyInB:
        return PolyInB(self.numerators, self.denominator * divisor)  # exact over Q

    def render(self, var: str = "b") -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for e in range(self.degree(), -1, -1):
            c = Fraction(self.numerators[e], self.denominator)
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


_ONE = PolyInB((1,))


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Integer q, r with lc(b)**(deg a - deg b + 1) * a == q*b + r and
    deg r < deg b (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R); b is nonzero."""
    lead, db = b[-1], len(b) - 1
    q, r = [0] * max(len(a) - db, 0), list(a)
    for i in range(len(a) - 1, db - 1, -1):
        f = r[i]
        q = [c * lead for c in q]
        q[i - db] = f
        r = [c * lead for c in r[:i]]
        for j, c in enumerate(b[:-1]):
            r[i - db + j] -= f * c
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    q, _ = _pseudo_divmod(a, b)
    scale = b[-1] ** len(q)  # one factor per division step
    return [c // scale for c in q]


def _primitive(a: list[int]) -> list[int]:
    content = gcd(*a)
    return [c // content for c in a]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[b] of two polynomials, not both zero, by the primitive
    remainder sequence, up to sign."""
    content = gcd(gcd(*a), gcd(*b))
    a, b = sorted((_primitive(a), _primitive(b)), key=len, reverse=True)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return [content * c for c in a]


@dataclass(frozen=True)
class RationalFnInB:
    """Quotient N/M of two polynomials in b, stored as the canonical pair of
    integer polynomials: gcd(N, M) = 1 in Z[b] (so their contents are coprime
    too) and M's leading coefficient positive.  Zero is 0/1.  The inputs'
    denominators are cleared by cross-multiplying them."""

    numerator: PolyInB
    denominator: PolyInB = _ONE

    def __post_init__(self) -> None:
        if self.denominator.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        n, m = self.numerator, self.denominator
        num = [c * m.denominator for c in n.numerators]
        den = [c * n.denominator for c in m.numerators]
        g = _gcd(num, den)  # den itself, up to sign, when num is zero
        if g[-1] * den[-1] < 0:  # so that den // g leads positive
            g = [-c for c in g]
        num, den = _exact_div(num, g), _exact_div(den, g)
        object.__setattr__(self, "numerator", PolyInB(tuple(num)))
        object.__setattr__(self, "denominator", PolyInB(tuple(den)))

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def eval(self, b: int | Fraction) -> Fraction:
        return self.numerator.eval(b) / self.denominator.eval(b)

    def render(self, var: str = "b") -> str:
        """N over m*(D), with m the content of the denominator and D = M/m."""
        num = self.numerator.render(var)
        den = self.denominator.numerators
        m = gcd(*den)
        if len(den) == 1:
            return num if m == 1 else f"({num})/{m}"
        primitive = f"({PolyInB(den, m).render(var)})"
        return f"({num})/{primitive if m == 1 else f'({m}*{primitive})'}"


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
            den = fn.denominator.numerators
            bound = 1 + max(abs(c) for c in den) // den[-1]
            excluded.update(b for b in range(2, bound + 1) if fn.denominator.eval(b) == 0)
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
    families = [PolyInB(fam) for fam in eigenvalue_families(power)]
    return sorted(families, key=lambda fam: (fam.degree(), fam.numerators[::-1]))


def moment_polynomials(power: int, count: int) -> list[PolyInB]:
    """S(power, k) for k = 1..count as polynomials in b, read from the
    recurrence table built with b itself as the base."""
    table = _build(PolyInB((0, 1)), power, count)
    return [table.moments[k][power][0] for k in range(1, count + 1)]


@lru_cache(maxsize=8)
def _derive(power: int) -> GeneralForm:
    """The general form of S(power, .) over Q(b), without zero terms; cached,
    as it depends on power alone and is immutable.

    G(x) = sum_{k>=1} S(power, k) x**k is N(x)/prod_f (1 - lam_f x), and the
    families are distinct, so each pole is simple and
    c_f = rev(N)(lam_f)/(lam_f prod_{g != f}(lam_f - lam_g)) (rabot.linalg).
    """
    families = base_families(power)
    sums = moment_polynomials(power, len(families))
    terms = []
    for fam, ([value], [den]) in taylor_at_roots(sums, families).items():
        fn = RationalFnInB(value, fam * den)
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
