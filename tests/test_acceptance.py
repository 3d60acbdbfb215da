"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and enforces
both exact equality and the runtime budget for its criterion.
"""
import json
import random
import time
from fractions import Fraction

from rabot import (
    GeneralForm,
    MomentQuery,
    PolyInB,
    RationalFnInB,
    brute_moment,
    brute_moment_parallel,
    build_table,
    closed_form,
    guess_general_form,
    moment_value,
    specialize,
)
from rabot.cli import OutputRecord, main

F = Fraction


def _report(label, ok, elapsed, budget):
    print(f"{'PASS' if ok else 'FAIL'}: {label} [{elapsed:.2f}s / {budget}s]")
    assert ok, label
    assert elapsed < budget, f"{label}: took {elapsed:.2f}s, budget {budget}s"


def _run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _poly(*coeffs):
    return PolyInB(tuple(F(c) for c in coeffs))


def test_criterion_1_binary_first_moment_formula():
    start = time.perf_counter()
    t = build_table(2, 1, 20)
    ok = all(
        moment_value(t, 1, k) == 2 * 3 ** (k - 1) - 2 ** (k - 1) for k in range(1, 21)
    )
    _report(
        "1. L(1,2,k) = 2*3^(k-1) - 2^(k-1) exactly for k = 1..20",
        ok,
        time.perf_counter() - start,
        1,
    )


def test_criterion_2_first_moment_closed_form_all_bases(capsys):
    start = time.perf_counter()
    ok = True
    for b in range(2, 11):
        code, out = _run_cli(capsys, "closed-form", "--base", str(b), "--power", "1", "--json")
        record = OutputRecord.from_json(out)
        expected_terms = [
            {"coefficient": str(F(-(b - 1), 2)), "base": str(b)},
            {"coefficient": str(F(b * (b - 1), 2 * b - 1)), "base": str(2 * b - 1)},
        ]
        ok = ok and code == 0
        ok = ok and record.status == "proven"
        ok = ok and record.result["terms"] == expected_terms
        form, verdict = closed_form(b, 1)
        ok = ok and verdict.status == "proven"
        ok = ok and form.terms == (
            ((F(-(b - 1), 2),), b),
            ((F(b * (b - 1), 2 * b - 1),), 2 * b - 1),
        )
    _report(
        "2. closed-form --power 1 equals b(b-1)/(2b-1)*(2b-1)^k - (b-1)/2*b^k, proven, b = 2..10",
        ok,
        time.perf_counter() - start,
        5,
    )


def test_criterion_3_binary_second_moment_closed_form(capsys):
    start = time.perf_counter()
    code, out = _run_cli(capsys, "closed-form", "--base", "2", "--power", "2", "--json")
    record = OutputRecord.from_json(out)
    ok = (
        code == 0
        and record.status == "proven"
        and record.result["formula"] == "(-1/6)*2^k + (-2/3)*3^k + (2/3)*5^k"
        and record.result["terms"]
        == [
            {"coefficient": "-1/6", "base": "2"},
            {"coefficient": "-2/3", "base": "3"},
            {"coefficient": "2/3", "base": "5"},
        ]
    )
    _report(
        "3. closed-form --base 2 --power 2 = (2/3)*5^k - (1/6)*2^k - (2/3)*3^k, proven",
        ok,
        time.perf_counter() - start,
        1,
    )


def test_criterion_4_second_moment_general_form(capsys):
    start = time.perf_counter()
    expected = GeneralForm(
        2,
        (
            (RationalFnInB(_poly(F(-1, 3), F(-1, 6), F(1, 6))), _poly(-1, 1)),
            (RationalFnInB(_poly(F(-1, 6), F(1, 3), F(-1, 6))), _poly(0, 1)),
            (RationalFnInB(_poly(0, 1, -1), _poly(-1, 2)), _poly(-1, 2)),
            (
                RationalFnInB(
                    _poly(F(-1, 3), F(-1, 2), F(1, 2), F(1, 3)), _poly(-1, 1, 1)
                ),
                _poly(-1, 1, 1),
            ),
        ),
    )
    g = guess_general_form(2, range(2, 13))
    ok = g == expected and g.excluded_bases() == frozenset()
    code, out = _run_cli(capsys, "general-form", "--power", "2", "--json")
    record = OutputRecord.from_json(out)
    ok = ok and code == 0 and record.status == "proven"
    ok = ok and record.result["excluded_bases"] == []
    ok = ok and {
        "coefficient": "(2*b^3 + 3*b^2 - 3*b - 2)/(6*(b^2 + b - 1))",
        "base": "b^2 + b - 1",
    } in record.result["terms"]
    _report(
        "4. general-form --power 2 over b = 2..12 derives the four-term general form",
        ok,
        time.perf_counter() - start,
        30,
    )


def test_criterion_5_oracle_equivalence_sweep():
    start = time.perf_counter()
    ok = True
    for b in range(2, 6):
        t = build_table(b, 3, 6)
        for p in range(4):
            for k in range(1, 7):
                for last in [None, *range(b)]:
                    got = moment_value(t, p, k, last)
                    want = brute_moment_parallel(
                        MomentQuery(b, p, k, last), partitions=4
                    )
                    if got != want:
                        ok = False
    _report(
        "5. recurrence equals brute force for b in 2..5, p in 0..3, k in 1..6, every last digit",
        ok,
        time.perf_counter() - start,
        60,
    )


def test_criterion_6_first_moment_recurrence_identity():
    start = time.perf_counter()
    ok = True
    for b in range(2, 11):
        t = build_table(b, 1, 20)
        for k in range(2, 21):
            lhs = moment_value(t, 1, k) - (2 * b - 1) * moment_value(t, 1, k - 1)
            if lhs != b ** (k - 1) * (b - 1) ** 2 // 2:
                ok = False
    _report(
        "6. L(1,b,k) - (2b-1)*L(1,b,k-1) = b^(k-1)*(b-1)^2/2 for b in 2..10, k in 2..20",
        ok,
        time.perf_counter() - start,
        1,
    )


def test_criterion_7_specialization_consistency():
    start = time.perf_counter()
    ok = True
    for p in (1, 2):
        g = guess_general_form(p, range(2, 13))
        for b in range(2, 13):
            proven, verdict = closed_form(b, p)
            if verdict.status != "proven" or specialize(g, b).terms != proven.terms:
                ok = False
    g2 = guess_general_form(2, range(2, 13))
    ok = ok and len(g2.terms) == 4 and len(specialize(g2, 2).terms) == 3
    _report(
        "7. specialize(general form, b) equals the proven closed form for b in 2..12, p in 1..2",
        ok,
        time.perf_counter() - start,
        30,
    )


def test_criterion_8_parallel_oracle_determinism():
    start = time.perf_counter()
    rng = random.Random(2026)
    ok = True
    for _ in range(100):
        q = MomentQuery(
            rng.randrange(2, 6),
            rng.randrange(0, 4),
            rng.randrange(1, 6),
            rng.choice([None, 0, 1]),
        )
        partitions = rng.choice([2, 4, 8])
        if brute_moment_parallel(q, partitions) != brute_moment(q):
            ok = False
    _report(
        "8. parallel oracle equals serial oracle on 100 randomized queries",
        ok,
        time.perf_counter() - start,
        60,
    )


def test_criterion_9_cli_goldens_and_json_roundtrip(capsys):
    start = time.perf_counter()
    code_eval, out_eval = _run_cli(capsys, "eval", "--base", "2", "12")
    code_seq, out_seq = _run_cli(capsys, "seq", "--base", "2", "--power", "1", "--kmax", "5")
    ok = code_eval == 0 and out_eval == "2\n"
    ok = ok and code_seq == 0 and out_seq == "1,4,14,46,146\n"
    for argv in (
        ["eval", "--base", "2", "12", "--json"],
        ["seq", "--base", "2", "--power", "1", "--kmax", "5", "--json"],
    ):
        code, out = _run_cli(capsys, *argv)
        record = OutputRecord.from_json(out)
        ok = ok and code == 0
        ok = ok and record.to_json() == out.strip()
        ok = ok and json.loads(record.to_json()) == json.loads(out)
    _report(
        "9. CLI goldens: eval prints 2, seq prints 1,4,14,46,146, JSON round-trips",
        ok,
        time.perf_counter() - start,
        1,
    )
