"""The partial-fraction read shared by the integer and the symbolic fit."""
from fractions import Fraction

import pytest

from rabot import build_table, moment_value
from rabot.generalform import PolyInB, base_families
from rabot.linalg import taylor_at_roots
from rabot.recurrence import _build

B = PolyInB((0, 1))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_symbolic_read_specializes_to_the_integer_read(p):
    families = base_families(p)
    n = len(families)
    over_b = _build(B, p, n)
    sums = [moment_value(over_b, p, k) for k in range(1, n + 1)]
    symbolic = taylor_at_roots(sums, families)
    for b in (3, 5, 11):
        table = build_table(b, p, 2 * p)
        values = [moment_value(table, p, k) for k in range(1, 2 * p + 1)]
        integer = taylor_at_roots(values, [fam.eval(b) for fam in families])
        assert list(integer) == [fam.eval(b) for fam in symbolic]
        for fam, (num, den) in symbolic.items():
            assert integer[fam.eval(b)] == ([num[0].eval(b)], [den[0].eval(b)])


def test_repeated_root_reads_the_order_two_pole():
    # v_k = k * 2**k: G(x) = 2x/(1 - 2x)**2, rev(N)(y) = 2y, R_2 = 1
    assert taylor_at_roots([2, 8], [2, 2]) == {2: ([4, 2], [1, 0])}
    # v_k = 3**k over {3, 1}: rev(N)(y) = 3(y - 1), R_3(y) = y - 1, R_1(y) = y - 3
    assert taylor_at_roots([3, 9], [3, 1]) == {3: ([6], [2]), 1: ([0], [-2])}
    assert taylor_at_roots([Fraction(1, 2)], [4]) == {4: ([Fraction(1, 2)], [1])}
