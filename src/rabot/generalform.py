"""Expressions for the moment sums uniform in the base b, derived exactly
over Q(b).

_derive runs the recurrence with b itself as the base, so the moment state
comes out as polynomials in b.  The 2p distinct eigenvalue families lam_f of
the moment update are read off its diagonal (base_families), and the
coefficient c_f of each off the generating function sum_k S(p, k) x**k.  The
result is a theorem, and its one premise is checked, not assumed:

- Before reading, _derive runs rabot.recurrence.annihilates, the check
  verify runs at an integer base, on the symbolic table: prod_f (U - lam_f)
  kills the state at k = 1, an identity of polynomials in b.  So S(p, .)
  satisfies the order-2p recurrence with characteristic polynomial
  prod_f (x - lam_f) for every k >= 1.  The families are pairwise distinct
  over Q(b), so sum_f c_f * lam_f**k satisfies it too, and agreement at
  k = 1..2p gives S(p, k) = sum_f c_f * lam_f**k in Q(b) for every k >= 1.
  If the check fails, NoFitError is raised and no form is returned.
- The ring map b -> n specializes the symbolic table to the integer table
  at n and the identity to an identity at n, wherever no coefficient
  denominator vanishes; GeneralForm.excluded_bases lists the bases where
  one does.

The proof reads the same update code as the integer tables.  So before
guess_general_form returns a form, it checks that code against brute force
(closedform.check_recurrence_against_brute), and the form at each small base
of the requested range: checks against an engine that shares nothing with
the derivation, not the proof.  The form is checked there through the
generating function N(x)/prod_f (1 - lam_f x) it was read from, in two
links:

- Once per power, _derive compares the form's integer evaluation _at, the
  values specialize is built from, with N's series (_series) at k = 1..2p
  and every base b = 2..16 it does not exclude, the only bases a call can
  check against brute force, and caches the form only if they agree.
- Per call, _check_base compares N's series at each small base of the range
  with rabot.oracle.brute_moments, which enumerates a base's numbers once
  for all its k.  N's coefficients are integer polynomials in b over one
  denominator, so the series is stepped in integers, with no Fraction and
  no per-term powers.

A call asks for S(p, k) at up to 15 bases and up to 2p values of k each,
queries too short for rabot.oracle.brute_moment's fixed work per query to
pay.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, isqrt, lcm
from operator import mul
from typing import Container, Iterable

from .closedform import (
    ExponentialForm,
    _numerators,
    brute_check_depth,
    check_recurrence_against_brute,
    table_depth,
)
from .digits import check_base
from .errors import DisagreementError, ExcludedBaseError, NoFitError
from .linalg import pole_product, series_numerator, taylor_at_roots
from .oracle import brute_moments
from .recurrence import _build, _spectrum, annihilates, moment_value


def _frac_str(f: Fraction) -> str:
    return str(f) if f.denominator == 1 else f"({f})"


def _horner(coefficients: tuple[int, ...], b: int | Fraction) -> int | Fraction:
    """The polynomial with these coefficients, constant term first, at b."""
    value = 0
    for c in reversed(coefficients):
        value = value * b + c
    return value


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

    def __bool__(self) -> bool:  # like an int, so one zero test serves both rings
        return bool(self.numerators)

    def eval(self, b: int | Fraction) -> Fraction:
        return Fraction(_horner(self.numerators, b), self.denominator)

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
            if x:  # powers of b are sparse
                for j, y in enumerate(other.numerators):
                    out[i + j] += x * y
        return PolyInB(tuple(out), self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> PolyInB:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result, square = _ONE, self
        while exponent:  # square-and-multiply, so the depth is not the exponent
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def __floordiv__(self, divisor: int) -> PolyInB:
        return PolyInB(self.numerators, self.denominator * divisor)  # exact over Q

    def render(self) -> str:
        if not self:
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
                v = "b" if e == 1 else f"b^{e}"
                piece = v if mag == 1 else f"{_frac_str(mag)}*{v}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)


_ONE = PolyInB((1,))
_B = PolyInB((0, 1))  # the base b itself, the symbolic table's base


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
        if not self.denominator:
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

    def __bool__(self) -> bool:
        return bool(self.numerator)

    def eval(self, b: int | Fraction) -> Fraction:
        return self.numerator.eval(b) / self.denominator.eval(b)

    def render(self) -> str:
        """N over m*(D), with m the content of the denominator and D = M/m."""
        num = self.numerator.render()
        den = self.denominator.numerators
        m = gcd(*den)
        if len(den) == 1:
            return num if m == 1 else f"({num})/{m}"
        primitive = f"({PolyInB(den, m).render()})"
        return f"({num})/{primitive if m == 1 else f'({m}*{primitive})'}"


@dataclass(frozen=True)
class GeneralForm:
    """A sum of (rational function of b) * (polynomial in b)**k terms equal
    to S(power, k) for every k >= 1 and every b >= 2 outside excluded_bases().
    _derive keeps the generating function it read the terms from with the
    form, as the private attribute _gf that _series steps."""

    power: int
    terms: tuple[tuple[RationalFnInB, PolyInB], ...]

    def __post_init__(self) -> None:
        bases = [fam for _, fam in self.terms]
        if len(set(bases)) != len(bases):
            raise ValueError("growth-base polynomials must be pairwise distinct")
        if not all(fn for fn, _ in self.terms):
            raise ValueError("zero coefficients must not be stored")
        excluded = set()  # found once, for excluded_bases
        for fn, _ in self.terms:
            den, nums = fn.denominator, fn.denominator.numerators  # nums[-1] > 0
            low = abs(next(c for c in nums if c))
            bound = 1 + max([-c for c in nums if c < 0] + [0]) // nums[-1]  # Cauchy
            small = [d for d in range(1, min(bound, isqrt(low)) + 1) if low % d == 0]
            divisors = {*small, *(low // d for d in small)}
            excluded.update(b for b in divisors if 2 <= b <= bound and not den.eval(b))
        object.__setattr__(self, "_excluded", frozenset(excluded))

    def excluded_bases(self) -> frozenset[int]:
        """The bases b >= 2 where a coefficient denominator vanishes.

        By the rational root theorem: a denominator with integer coefficients
        is b**m * Q(b) with Q(0) = a_m, its lowest nonzero coefficient, and an
        integer root b != 0 of Q divides a_m.  A positive root lies below
        1 + A/a_n (Cauchy), a_n > 0 leading and A the largest |a_i| with
        a_i < 0 (no sign change, no root).  So only the divisors of a_m from 2
        to that bound are evaluated, once, when the form is made, by trial
        division to it or to isqrt|a_m|, whichever is smaller."""
        return self._excluded

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({fn.render()})*({fam.render()})^k" for fn, fam in self.terms
        )


def base_families(power: int) -> list[PolyInB]:
    """The 2p eigenvalue families of the update, read off its diagonal at b
    itself (recurrence._spectrum), in canonical order (degree, then leading
    coefficients)."""
    families = _spectrum(_B, power)
    return sorted(families, key=lambda fam: (fam.degree(), fam.numerators[::-1]))


@lru_cache(maxsize=8)
def _derive(power: int) -> GeneralForm:
    """The general form of S(power, .) over Q(b), without zero terms; cached,
    as it depends on power alone and is immutable.

    The symbolic table reaches table_depth(power) = 2p + 1 so that
    annihilates can check the premise (see module docstring); NoFitError if
    it fails.  Then G(x) = sum_{k>=1} S(power, k) x**k is
    N(x)/prod_f (1 - lam_f x), each pole is simple, and
    c_f = rev(N)(lam_f)/(lam_f prod_{g != f}(lam_f - lam_g)) (rabot.linalg).
    N and the pole product are kept with the form, as _series steps them, and
    the form is checked against them: at each base any call can check against
    brute force (brute_checked_bases, b = 2..16) and k = 1..2p, _at's values
    must equal N's series, or DisagreementError names the first base and k
    where they differ.
    """
    families = base_families(power)
    t = len(families)
    table = _build(_B, power, table_depth(power))
    if not annihilates(table, families):
        raise NoFitError(
            f"the {t} eigenvalue families of power {power} do not annihilate"
            " the moment state over Q(b)"
        )
    sums = [moment_value(table, power, k) for k in range(1, t + 1)]
    q = pole_product(families)
    numerator = series_numerator(sums, q)
    terms = []
    for fam, ([value], [den]) in taylor_at_roots(numerator, families).items():
        fn = RationalFnInB(value, fam * den)
        if fn:
            terms.append((fn, fam))
    g = GeneralForm(power, tuple(terms))
    common = lcm(*(c.denominator for c in (*numerator, *q)))
    ints = [tuple(n * (common // c.denominator) for n in c.numerators) for c in (*numerator, *q[1:])]
    object.__setattr__(g, "_gf", (common, ints[:t], ints[t:]))
    for b in brute_checked_bases(g, range(2, 17)):  # no base from 17 on has a brute-force depth
        den, scaled = _at(g, b)
        for k, (num, value) in enumerate(zip(_numerators(scaled, t), _series(g, b, t)), 1):
            if num != value * den:
                raise DisagreementError(
                    f"the form at b={b} gives S({power}, {k}) = {Fraction(num, den)},"
                    f" its generating function {value}"
                )
    return g


def guess_general_form(power: int, b_range: Iterable[int]) -> GeneralForm:
    """The expression for the power-th moment sum valid in (b, k), derived
    and proven exactly over Q(b) by _derive's checked annihilator; b_range
    only selects the bases it is checked against brute force at.

    Every base of b_range must be an integer >= 2.  The update code of this
    power is checked against brute force (check_recurrence_against_brute),
    and then the generating function's numerator N, which _derive checked g
    against once per power, at each of brute_checked_bases(g, b_range) in
    ascending order (_check_base): DisagreementError at the first mismatch.
    A range is never materialized, so its ends may be any size.
    """
    bases = b_range if isinstance(b_range, range) else set(b_range)
    if not bases:
        raise ValueError("the base range is empty")
    for b in (bases[0], bases[-1]) if isinstance(bases, range) else bases:
        check_base(b)  # a range's least base is at one of its ends
    g = _derive(power)
    check_recurrence_against_brute(power)
    for b in brute_checked_bases(g, bases):
        _check_base(g, b)
    return g


def _series(g: GeneralForm, b: int, n: int) -> list[int]:
    """S(g.power, k) at k = 1..n from the generating function _derive kept
    with g, at base b, in integers.  With N_k and e_i the coefficients of x**k
    in N and of x**i in prod_f (1 - lam_f x), as integer polynomials A_k and
    B_i over one denominator d, each step is
    S_k = (A_k(b) - sum_{1<=i<k} B_i(b) S_{k-i})/d, A_k = 0 past k = 2p.  The
    division is exact at every b, as S_k, N_k(b) and e_i(b) are integers
    there; a remainder raises DisagreementError."""
    den, numerator, pole = g._gf
    a = [_horner(c, b) for c in numerator[:n]]
    e = [_horner(c, b) for c in pole[: n - 1]]
    values: list[int] = []
    for k in range(1, n + 1):
        total = (a[k - 1] if k <= len(a) else 0) - sum(map(mul, e, reversed(values)))
        value, rest = divmod(total, den)
        if rest:
            raise DisagreementError(
                f"the generating function at b={b} gives S({g.power}, {k}) = {Fraction(total, den)},"
                " not an integer"
            )
        values.append(value)
    return values


def _check_base(g: GeneralForm, b: int) -> None:
    """_series at b against brute_moments at k = 1..brute_check_depth(b, p),
    or DisagreementError at the first k where they differ."""
    depth = brute_check_depth(b, g.power)
    for k, (value, actual) in enumerate(zip(_series(g, b, depth), brute_moments(b, g.power, depth)), 1):
        if value != actual:
            raise DisagreementError(
                f"the generating function at b={b} gives S({g.power}, {k}) = {value}, brute force {actual}"
            )


def brute_checked_bases(g: GeneralForm, b_range: Container[int]) -> list[int]:
    """The bases of b_range, ascending, where guess_general_form checks g's
    generating function against brute force, and so g, which _derive checked
    against it there: those outside excluded_bases() with
    a brute_check_depth of at least 1.  That depth falls as b grows and is 0
    from b = 17 on, so only b = 2..16 are looked up in b_range."""
    excluded, bases, b = g.excluded_bases(), [], 2
    while brute_check_depth(b, g.power):
        if b in b_range and b not in excluded:
            bases.append(b)
        b += 1
    return bases


def _at(g: GeneralForm, b: int) -> tuple[int, list[tuple[tuple[int], int]]]:
    """g at a concrete base in integers, laid out as ExponentialForm._scaled:
    den > 0, the lcm of the coefficient denominators there, and each term
    ((numerator over den,), growth base) in g's order, not merged."""
    check_base(b)
    values = []
    for fn, fam in g.terms:
        den = _horner(fn.denominator.numerators, b)
        if not den:
            raise ExcludedBaseError(f"coefficient {fn.render()} has a denominator zero at b={b}")
        lam, rest = divmod(_horner(fam.numerators, b), fam.denominator)
        if rest or lam < 1:
            raise ValueError(f"growth base {fam.render()} is not a positive integer at b={b}")
        values.append((_horner(fn.numerator.numerators, b), den, lam))
    den = lcm(*(d for _, d, _ in values))
    return den, [((n * (den // d),), lam) for n, d, lam in values]


def specialize(g: GeneralForm, b: int) -> ExponentialForm:
    """Evaluate a general form at a concrete base from _at's integers: growth
    bases that collide there are merged by summing their numerators (so a
    four-family form can specialize to three terms), each term builds one
    Fraction, and zero coefficients are dropped."""
    den, terms = _at(g, b)
    merged: dict[int, int] = {}
    for (n,), lam in terms:
        merged[lam] = merged.get(lam, 0) + n
    terms = tuple(((Fraction(n, den),), lam) for lam, n in sorted(merged.items()) if n)
    return ExponentialForm(b, g.power, terms)
