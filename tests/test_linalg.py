"""The partial-fraction read shared by the integer and the symbolic fit."""
from fractions import Fraction

import pytest

from rabot import build_table, moment_value
from rabot.generalform import PolyInB, base_families
from rabot.linalg import pole_product, series_numerator, taylor_at_roots
from rabot.recurrence import _build

B = PolyInB((0, 1))


def _read(values, roots):
    """taylor_at_roots on the numerator of the values' generating function."""
    return taylor_at_roots(series_numerator(values, pole_product(roots)), roots)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_symbolic_read_specializes_to_the_integer_read(p):
    families = base_families(p)
    n = len(families)
    over_b = _build(B, p, n)
    sums = [moment_value(over_b, p, k) for k in range(1, n + 1)]
    symbolic = _read(sums, families)
    for b in (3, 5, 11):
        table = build_table(b, p, 2 * p)
        values = [moment_value(table, p, k) for k in range(1, 2 * p + 1)]
        integer = _read(values, [fam.eval(b) for fam in families])
        assert list(integer) == [fam.eval(b) for fam in symbolic]
        for fam, (num, den) in symbolic.items():
            assert integer[fam.eval(b)] == ([num[0].eval(b)], [den[0].eval(b)])


def test_repeated_root_reads_the_order_two_pole():
    # v_k = k * 2**k: G(x) = 2x/(1 - 2x)**2, rev(N)(y) = 2y, R_2 = 1
    assert series_numerator([2, 8], pole_product([2, 2])) == [2, 0]
    assert _read([2, 8], [2, 2]) == {2: ([4, 2], [1, 0])}
    # v_k = 3**k over {3, 1}: rev(N)(y) = 3(y - 1), R_3(y) = y - 1, R_1(y) = y - 3
    assert _read([3, 9], [3, 1]) == {3: ([6], [2]), 1: ([0], [-2])}
    assert _read([Fraction(1, 2)], [4]) == {4: ([Fraction(1, 2)], [1])}
