"""Expressions for the moment sums uniform in the base b, derived exactly
over Q(b).

_derive runs the recurrence with b itself as the base, so the moment state
comes out as polynomials in b, and reads the coefficient c_f of each of the
2p distinct eigenvalue families lam_f of the moment update
(eigenvalue_families) off the generating function sum_k S(p, k) x**k.  The
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

At every requested base outside those, guess_general_form also
cross-checks the specialized form by verify's rules (closedform.judge)
against a recurrence table the derivation did not read.  That check is
independent, not the proof.  It steps the integer tables of a chunk of
bases together by build_table's update rows (recurrence.build_lane_table),
each entry one integer per base, and runs one annihilator pass over them
(recurrence.lanes_not_annihilated), once per chunk rather than per base.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, isqrt, lcm
from typing import Iterable

from .closedform import ExponentialForm, judge, table_depth
from .digits import check_base
from .errors import ExcludedBaseError, NoFitError
from .linalg import taylor_at_roots
from .recurrence import (
    _build,
    annihilates,
    build_lane_table,
    candidate_bases,
    eigenvalue_families,
    lanes_not_annihilated,
    moment_value,
)

# guess_general_form cross-checks a range in ascending chunks of bases, each
# closed once their bit lengths reach this and judged from one lane table, so
# that a chunk's table stays a few MB: at p = 7 it holds 16 columns of 36
# entries per base, of up to about 7*15 times the base's bit length each.
LANE_CHUNK_BITS = 640


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
    to S(power, k) for every k >= 1 and every b >= 2 outside excluded_bases()."""

    power: int
    terms: tuple[tuple[RationalFnInB, PolyInB], ...]

    def __post_init__(self) -> None:
        bases = [fam for _, fam in self.terms]
        if len(set(bases)) != len(bases):
            raise ValueError("growth-base polynomials must be pairwise distinct")
        if not all(fn for fn, _ in self.terms):
            raise ValueError("zero coefficients must not be stored")

    def excluded_bases(self) -> frozenset[int]:
        """The bases b >= 2 where a coefficient denominator vanishes.

        By the rational root theorem: a denominator with integer coefficients
        is b**m * Q(b) with Q(0) = a_m, its lowest nonzero coefficient, and an
        integer root b != 0 of Q divides a_m.  So only the divisors >= 2 of a_m
        are evaluated."""
        excluded = set()
        for fn, _ in self.terms:
            den = fn.denominator
            low = abs(next(c for c in den.numerators if c))
            small = [d for d in range(1, isqrt(low) + 1) if low % d == 0]
            divisors = {*small, *(low // d for d in small)}
            excluded.update(b for b in divisors if b >= 2 and not den.eval(b))
        return frozenset(excluded)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({fn.render()})*({fam.render()})^k" for fn, fam in self.terms
        )


def base_families(power: int) -> list[PolyInB]:
    """The growth-base families of eigenvalue_families(power), in canonical
    order (degree, then leading coefficients)."""
    families = [PolyInB(fam) for fam in eigenvalue_families(power)]
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
    terms = []
    for fam, ([value], [den]) in taylor_at_roots(sums, families).items():
        fn = RationalFnInB(value, fam * den)
        if fn:
            terms.append((fn, fam))
    return GeneralForm(power, tuple(terms))


def guess_general_form(power: int, b_range: Iterable[int]) -> GeneralForm:
    """The expression for the power-th moment sum valid in (b, k), derived
    and proven exactly over Q(b) by _derive's checked annihilator; b_range
    only selects the bases it is cross-checked at.

    At each base in the range outside excluded_bases(), the specialized form
    must get the verdict proven from verify's rules (closedform.judge)
    against that base's own recurrence table, or NoFitError naming the
    smallest such base is raised.  An exponential form with distinct integer
    bases is unique, so this is the same as equality with the proven
    per-base closed form: a cross-check against a table the derivation did
    not read, not the proof.  The bases are specialized in ascending order
    and judged in chunks of LANE_CHUNK_BITS (see _judge_lanes); where
    specialize raises, the bases before it are judged first, so the error is
    the one checking base after base would meet first.
    """
    bs = set(b_range)
    if not bs:
        raise ValueError("the base range is empty")
    g = _derive(power)
    chunk, bits = [], 0
    for b in sorted(bs - g.excluded_bases()):
        try:
            form = specialize(g, b)
        except ValueError:
            _judge_lanes(power, chunk)  # the smaller bases first, as base after base would
            raise
        chunk.append(form)
        bits += b.bit_length()
        if bits >= LANE_CHUNK_BITS:
            _judge_lanes(power, chunk)
            chunk, bits = [], 0
    _judge_lanes(power, chunk)
    return g


def _judge_lanes(power: int, forms: list[ExponentialForm]) -> None:
    """The verdict of each of these specialized forms, in order, from one lane
    table and one lane annihilator pass for all their bases: the verdict
    verify would give against build_table(b, power, table_depth(power)).
    NoFitError at the first that is not proven."""
    if not forms:
        return
    bases = [form.base for form in forms]
    table = build_lane_table(bases, power, table_depth(power))
    spectra = [candidate_bases(b, power) for b in bases]
    failing = set(lanes_not_annihilated(table, spectra, power))
    values = zip(*(table.moments[k][(power + 1) * (power + 2) // 2 - 1] for k in range(1, 2 * power + 1)))
    for form, spectrum, lane_values in zip(forms, spectra, values):
        verdict = judge(form, lane_values, spectrum, lambda: form.base not in failing)
        if verdict.status != "proven":
            raise NoFitError(f"the general form at b={form.base} is {verdict.status}, not proven")


def specialize(g: GeneralForm, b: int) -> ExponentialForm:
    """Evaluate a general form at a concrete base.

    Growth bases that collide numerically at b are merged by summing their
    coefficients (so a four-family form can specialize to three terms);
    zero coefficients are dropped.  Each coefficient's numerator and
    denominator, integer polynomials, and each family are evaluated in
    integers, so a term builds one Fraction.
    """
    check_base(b)
    merged: dict[int, Fraction] = {}
    for fn, fam in g.terms:
        den = _horner(fn.denominator.numerators, b)
        if not den:
            raise ExcludedBaseError(f"coefficient {fn.render()} has a denominator zero at b={b}")
        c = Fraction(_horner(fn.numerator.numerators, b), den)
        lam, rest = divmod(_horner(fam.numerators, b), fam.denominator)
        if rest or lam < 1:
            raise ValueError(f"growth base {fam.render()} is not a positive integer at b={b}")
        merged[lam] = merged[lam] + c if lam in merged else c
    terms = tuple(((c,), lam) for lam, c in sorted(merged.items()) if c != 0)
    return ExponentialForm(b, g.power, terms)
