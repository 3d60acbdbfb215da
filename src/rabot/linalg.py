"""The partial-fraction read behind every fit, at an integer base and with
the base as a symbol alike.

Values v_1..v_t over a multiset of t roots have the generating function
sum_k v_k x**k = N(x)/prod_g (1 - g x), N read off mod x**(t+1).  At x = 1/y
it is rev(N)(y)/prod_g (y - g), rev(N)(y) = y**t N(1/y), whose part at a root
lam of multiplicity m is (rev(N)/R_lam)(y)/(y - lam)**m with
R_lam(y) = prod_{g != lam} (y - g) (Stanley, Enumerative Combinatorics I,
4.1; Graham, Knuth & Patashnik, Concrete Mathematics, 7.3).  It divides
nowhere, so it is exact over int, Fraction and PolyInB alike.  The
denominator prod_g (1 - g x) is written once, in pole_product; read
backwards it is prod_g (x - g), the annihilator rabot.recurrence checks.
The numerator N is written once too, in series_numerator, which the fits
call before taylor_at_roots, so that rabot.generalform can keep N.

The module keeps the name linalg because perfbench/spans.py traces
rabot.linalg as a layer (LAYERS) and fails without it; the rename waits
for the next change to that harness.
"""
from __future__ import annotations

from collections import Counter
from typing import Sequence


def pole_product(roots: Sequence) -> list:
    """The coefficients of prod_g (1 - g x), constant term first; reversed,
    those of prod_g (x - g)."""
    q = [1]
    for g in roots:
        neg = g * -1  # PolyInB has no __rsub__
        q = [hi + neg * lo for hi, lo in zip(q + [0], [0] + q)]
    return q


def series_numerator(values: Sequence, q: Sequence) -> list:
    """The coefficients N_1..N_t of x**1..x**t in N = q * sum_k values[k-1] x**k
    mod x**(t+1), t = len(q) - 1, with q = pole_product(roots); N has no
    constant term.  Listed from N_1 on, they are rev(N)'s coefficients from
    that of y**(t-1) down."""
    return [sum(q[m - k] * values[k - 1] for k in range(1, m + 1)) for m in range(1, len(q))]


def taylor_at_roots(numerator: Sequence, roots: Sequence) -> dict:
    """Map each distinct root lam of multiplicity m, in order of first
    appearance, to the first m Taylor coefficients at lam of rev(N) and of
    R_lam, as a pair of lists, constant term first; numerator is N_1..N_t,
    t = len(roots), as series_numerator gives it."""
    out = {}
    for lam, m in Counter(roots).items():
        num = [0] * m  # Horner in u = y - lam, truncated after u**(m-1)
        for c in numerator:  # the coefficient of y**(t-1) first
            num = [num[0] * lam + c] + [a * lam + b for a, b in zip(num[1:], num)]
        den = [1] + [0] * (m - 1)  # prod_{g != lam} ((lam - g) + u), truncated
        for g in roots:
            if g != lam:
                diff = lam - g
                den = [den[0] * diff] + [a * diff + b for a, b in zip(den[1:], den)]
        out[lam] = (num, den)
    return out
