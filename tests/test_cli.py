"""Command-line interface: goldens, JSON records, and exit codes."""
import json
import os
import re
import subprocess
import sys
import time

import pytest

import rabot.cli as cli
import rabot.oeis as oeis_module
import rabot.oracle as oracle
from rabot.cli import OutputRecord, main
from rabot.errors import EnumerationCapError, NoFitError
from rabot.oeis import LookupResult
from rabot.recurrence import build_table, moment_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_golden(capsys):
    code, out, _ = run(capsys, "eval", "--base", "2", "12")
    assert code == 0
    assert out == "2\n"


def test_eval_verbose_shows_digits(capsys):
    code, out, _ = run(capsys, "eval", "--base", "2", "12", "--verbose")
    assert code == 0
    assert out == "1100 -> 10\n2\n"
    # 5 = 101 in base 2: every run has length one, so nothing is left
    code, out, _ = run(capsys, "eval", "--base", "2", "5", "--verbose")
    assert code == 0
    assert out == "101 -> 0\n0\n"


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "rabot", "eval", "--base", "2", "12"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "2\n", "")


def test_a_reader_that_closes_stdout_early_gets_exit_1_and_an_empty_stderr():
    # about 6 MB of output, far above a pipe buffer, so a write meets the closed pipe
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
        [sys.executable, "-m", "rabot", "seq", "--base", "10", "--power", "3", "--kmax", "2000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    assert (head, proc.returncode, err) == (b"2025,27297", 1, b"")


@pytest.mark.skipif(
    oracle.available_cpus() < 2 or not hasattr(os, "fork"),
    reason="every sum is in-process without a second CPU and os.fork",
)
def test_a_worker_that_dies_twice_exits_5_with_one_error_line(monkeypatch, capsys):
    # a send to a killed worker raises BrokenPipeError, which must not be taken
    # for a reader that closed stdout
    tries = []

    def broken(*args):
        tries.append(args)
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(oracle, "_sum_on_workers", broken)
    code, out, err = run(capsys, "sum", "--engine", "brute", "--base", "2", "--power", "2", "--k", "14")
    assert (code, out, len(tries)) == (5, "", 2)
    assert err == "error: an oracle worker died twice in one call (BrokenPipeError)\n"


def test_eval_single_digit(capsys):
    code, out, _ = run(capsys, "eval", "--base", "5", "3")
    assert code == 0
    assert out == "0\n"


def test_eval_base_two_seven(capsys):
    code, out, _ = run(capsys, "eval", "--base", "2", "7")
    assert code == 0
    assert out == "3\n"


def test_eval_invalid_base_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--base", "1", "12")
    assert code == 2
    assert "base" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "sum", "--base", "2")[0] == 2
    assert run(capsys)[0] == 2


def test_sum_recurrence_golden(capsys):
    code, out, _ = run(capsys, "sum", "--base", "2", "--power", "1", "--k", "3")
    assert code == 0
    assert out == "14\n"


def test_sum_count_case(capsys):
    code, out, _ = run(capsys, "sum", "--base", "4", "--power", "0", "--k", "2")
    assert code == 0
    assert out == "48\n"


def test_sum_both_engines_agree(capsys):
    code, out, _ = run(
        capsys, "sum", "--base", "2", "--power", "2", "--k", "2", "--engine", "both"
    )
    assert code == 0
    assert "recurrence: 10" in out
    assert "brute: 10" in out
    assert "agree: yes" in out


def test_sum_brute_engine(capsys):
    code, out, _ = run(
        capsys, "sum", "--base", "3", "--power", "2", "--k", "3", "--engine", "brute"
    )
    rec = run(capsys, "sum", "--base", "3", "--power", "2", "--k", "3")
    assert code == 0
    assert out == rec[1]


def test_sum_last_digit(capsys):
    code, out, _ = run(
        capsys, "sum", "--base", "2", "--power", "1", "--k", "1", "--last-digit", "1"
    )
    assert code == 0
    assert out == "1\n"


def test_sum_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_moment", lambda q, cap=None: 999)
    code, out, _ = run(
        capsys, "sum", "--base", "2", "--power", "1", "--k", "3", "--engine", "both"
    )
    assert code == 3
    assert "agree: no" in out
    assert "999" in out


def test_sum_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("RABOT_ENUM_CAP", "10")
    code, _, err = run(
        capsys, "sum", "--base", "2", "--power", "1", "--k", "5", "--engine", "brute"
    )
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("RABOT_ENUM_CAP", "not-a-number")
    code, _, err = run(
        capsys, "sum", "--base", "2", "--power", "1", "--k", "5", "--engine", "brute"
    )
    assert code == 2
    assert "RABOT_ENUM_CAP" in err


def test_enum_cap_below_one_exits_2(capsys, monkeypatch):
    for raw in ("0", "-5"):
        monkeypatch.setenv("RABOT_ENUM_CAP", raw)
        code, out, err = run(
            capsys, "sum", "--base", "2", "--power", "1", "--k", "3", "--engine", "brute"
        )
        assert code == 2
        assert out == ""
        assert f"RABOT_ENUM_CAP must be an integer >= 1, got '{raw}'" in err
        assert "above the cap" not in err


def test_closed_form_golden(capsys):
    code, out, _ = run(capsys, "closed-form", "--base", "2", "--power", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(-1/6)*2^k + (-2/3)*3^k + (2/3)*5^k"
    assert lines[1].startswith("status: proven")


def test_closed_form_repeated_root_golden(capsys):
    # at b = 2 the bases 2b - 1 and b^2 - 1 collide, and p = 3 needs a k*3^k term
    code, out, _ = run(capsys, "closed-form", "--base", "2", "--power", "3")
    assert code == 0
    assert out == (
        "((1/2))*2^k + ((-1/9) + (-4/9)*k)*3^k + ((-1))*5^k + ((20/27))*9^k\n"
        "status: proven (checked to k=6)\n"
    )
    code, out, _ = run(capsys, "closed-form", "--base", "2", "--power", "3", "--json")
    assert code == 0
    assert out == (
        '{"command": "closed-form", "inputs": {"base": "2", "power": "3"}, '
        '"result": {"formula": "((1/2))*2^k + ((-1/9) + (-4/9)*k)*3^k + ((-1))*5^k'
        ' + ((20/27))*9^k", "terms": [{"base": "2", "coefficient_poly": ["1/2"]}, '
        '{"base": "3", "coefficient_poly": ["-1/9", "-4/9"]}, '
        '{"base": "5", "coefficient_poly": ["-1"]}, '
        '{"base": "9", "coefficient_poly": ["20/27"]}], '
        '"verdict": {"checked_depth": "6", "status": "proven"}}, "status": "proven"}\n'
    )


def test_closed_form_outside_spectrum_exits_4(capsys, monkeypatch):
    import rabot.closedform as cf

    real_fit = cf.fit_closed_form

    def bogus_fit(values, bases, *, base, power):
        # matches k = 1..2, but none of these bases is an eigenvalue
        return real_fit(values[:2], [11, 13], base=base, power=power)

    monkeypatch.setattr(cf, "fit_closed_form", bogus_fit)
    code, out, _ = run(capsys, "closed-form", "--base", "2", "--power", "1")
    assert code == 4
    assert out.splitlines()[1] == "status: consistent (checked to k=2)"


def test_closed_form_first_moment(capsys):
    code, out, _ = run(capsys, "closed-form", "--base", "2", "--power", "1")
    assert code == 0
    assert out.splitlines()[0] == "(-1/2)*2^k + (2/3)*3^k"
    code, out, _ = run(capsys, "closed-form", "--base", "3", "--power", "1")
    assert code == 0
    assert out.splitlines()[0] == "(-1)*3^k + (6/5)*5^k"


def assert_depth_refused(capsys, depth):
    code, out, err = run(
        capsys, "closed-form", "--base", "2", "--power", "2", "--depth", depth
    )
    assert code == 2, depth
    assert out == ""
    assert err.startswith("usage: rabot "), depth
    assert err.endswith(f"rabot: error: unrecognized arguments: --depth {depth}\n"), depth
    assert "Traceback" not in err


def test_closed_form_depth_flag(capsys):
    # the proof depth is 2p, so no flag sets it: --depth is an unknown option
    for depth in ("5", "25"):
        assert_depth_refused(capsys, depth)


def test_closed_form_depth_below_one_exits_2(capsys):
    for depth in ("0", "-3"):
        assert_depth_refused(capsys, depth)


def test_general_form_golden(capsys):
    code, out, _ = run(capsys, "general-form", "--power", "1")
    assert code == 0
    assert (
        "((-b + 1)/2)*(b)^k + ((b^2 - b)/(2*b - 1))*(2*b - 1)^k" in out.splitlines()[0]
    )
    assert out.splitlines()[0].startswith("proven:")
    assert out.splitlines()[1] == (
        "valid for every b >= 2; checked against brute force at b = 2..12"
    )


def test_general_form_third_and_fourth_moments_over_default_range(capsys):
    for power in ("3", "4"):
        code, out, _ = run(capsys, "general-form", "--power", power)
        assert code == 0, power
        assert out.splitlines()[0].startswith("proven:")
        assert out.splitlines()[1] == (
            "valid for every b >= 2 except 2; checked against brute force at b = 3..12"
        )
    code, out, _ = run(capsys, "general-form", "--power", "3", "--json")
    record = OutputRecord.from_json(out)
    assert code == 0
    assert record.status == "proven"
    assert record.result["excluded_bases"] == ["2"]
    assert len(record.result["terms"]) == 6


def test_empty_base_range_exits_2(capsys):
    for command in (["check"], ["general-form", "--power", "1"]):
        code, out, err = run(capsys, *command, "--b-min", "5", "--b-max", "3")
        assert code == 2, command
        assert out == ""
        assert "empty base range" in err


def test_general_form_power_above_limit_exits_2(capsys, monkeypatch):
    calls = []

    def stub(power, b_range):
        calls.append(power)
        raise NoFitError("stub")

    monkeypatch.setattr(cli, "guess_general_form", stub)
    limit = cli.MAX_GENERAL_FORM_POWER
    code, out, err = run(capsys, "general-form", "--power", str(limit + 1))
    assert code == 2
    assert out == ""
    assert f"limit of {limit}" in err
    assert calls == []
    # at the limit the derivation starts (and the stub's NoFitError exits 4)
    code, _, _ = run(capsys, "general-form", "--power", str(limit))
    assert code == 4
    assert calls == [limit]


def _assert_admitted_and_fast(capsys, power, cases):
    # the brute-force checks run at b <= 16 alone, and the range is never
    # materialized, so neither its width nor the size of its bases costs time
    first = run(capsys, "general-form", "--power", power)[1].splitlines()[0]
    for b_min, b_max, second in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, "general-form", "--power", power, "--b-min", str(b_min), "--b-max", str(b_max))
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, ""), (b_min, b_max)
        assert out.splitlines() == [first, second]
        assert elapsed < 2, (b_min, b_max, elapsed)


def test_general_form_any_range_is_admitted_and_fast(capsys):
    huge = 10**100
    _assert_admitted_and_fast(capsys, "7", (
        (2, 1002, "valid for every b >= 2 except 2; checked against brute force at b = 3..16"),
        (5, 20000, "valid for every b >= 2 except 2; checked against brute force at b = 5..16"),
        (15, 10**30, "valid for every b >= 2 except 2; checked against brute force at b = 15..16"),
        (huge - 999, huge,
         f"valid for every b >= 2 except 2; no base in b = {huge - 999}..{huge} was checked against brute force"),
    ))


def test_general_form_any_b_max_is_admitted_and_fast(capsys):
    # the table depth 2p + 1 at a base of thousands of bits no longer bounds --b-max
    for b in (10**100, 10**1000):
        _assert_admitted_and_fast(capsys, "7", (
            (b, b, f"valid for every b >= 2 except 2; no base in b = {b}..{b} was checked against brute force"),
        ))
    _assert_admitted_and_fast(capsys, "7", (
        (2, 10**1000, "valid for every b >= 2 except 2; checked against brute force at b = 3..16"),
    ))
    _assert_admitted_and_fast(capsys, "1", (
        (2, 2**4000, "valid for every b >= 2; checked against brute force at b = 2..16"),
    ))


def test_general_form_b_min_below_2_exits_2_before_derivation(capsys, monkeypatch):
    def stub(power, b_range):
        raise AssertionError("a refused --b-min must not start the derivation")

    monkeypatch.setattr(cli, "guess_general_form", stub)
    for b_min in ("1", "0", "-4"):
        code, out, err = run(capsys, "general-form", "--power", "7", "--b-min", b_min)
        assert code == 2, b_min
        assert out == ""
        assert err == f"error: --b-min must be >= 2, got {b_min}\n"


def test_general_form_says_when_no_base_was_cross_checked(capsys):
    for b_min, b_max, power, line in (
        ("2", "2", "3", "valid for every b >= 2 except 2; no base in b = 2..2 was checked against brute force"),
        ("2", "3", "3", "valid for every b >= 2 except 2; checked against brute force at b = 3"),
        ("16", "17", "1", "valid for every b >= 2; checked against brute force at b = 16"),
        ("17", "300", "1", "valid for every b >= 2; no base in b = 17..300 was checked against brute force"),
    ):
        code, out, _ = run(capsys, "general-form", "--power", power, "--b-min", b_min, "--b-max", b_max)
        assert code == 0
        assert out.splitlines()[1] == line


def test_base_runs_name_each_run_of_consecutive_bases():
    assert cli._runs([3]) == "3"
    assert cli._runs([2, 3, 4, 7, 9, 10]) == "2..4, 7, 9..10"


def _shifted_at_three(monkeypatch):
    """generalform._at with 2 added to the coefficient of the smallest growth
    base at b = 3, as one more term on that base."""
    import rabot.generalform as gf

    real_at = gf._at

    def shifted(g, b):
        den, terms = real_at(g, b)
        if b != 3:
            return den, terms
        return den, terms + [((2 * den,), min(lam for _, lam in terms))]

    monkeypatch.setattr(gf, "_at", shifted)


def test_general_form_disagreeing_with_brute_force_exits_3(capsys, monkeypatch):
    import rabot.generalform as gf

    # the generating function's series at b = 3 off by 2*3 at every k, with
    # the clean form cached, so that only the per-call check reads it
    gf._derive(1)
    real_series = gf._series
    monkeypatch.setattr(gf, "_series", lambda g, b, n: [s + 6 * (b == 3) for s in real_series(g, b, n)])
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "general-form", "--power", "1", *json_flag)
        assert (code, out) == (3, "")
        assert err == "error: the generating function at b=3 gives S(1, 1) = 9, brute force 3\n"
    # a range without b = 3 does not check there
    assert run(capsys, "general-form", "--power", "1", "--b-min", "4")[0] == 0
    # a form that disagrees with its generating function at b = 3 fails where
    # it is derived, whatever the range
    monkeypatch.setattr(gf, "_series", real_series)
    _shifted_at_three(monkeypatch)
    gf._derive.cache_clear()
    try:
        # at b = 3 the smallest growth base of S(1, .) is b = 3, so S(1, 1) = 3 is off by 2*3
        for args in ((), ("--b-min", "4")):
            code, out, err = run(capsys, "general-form", "--power", "1", *args)
            assert (code, out) == (3, "")
            assert err == "error: the form at b=3 gives S(1, 1) = 9, its generating function 3\n"
    finally:
        gf._derive.cache_clear()


def test_closed_form_disagreeing_with_brute_force_exits_3(capsys, monkeypatch):
    import rabot.closedform as cf

    real_brute = cf.brute_moments

    def off_at_b3_k2(base, power, kmax):
        return [s + (base == 3 and k == 2) for k, s in enumerate(real_brute(base, power, kmax), 1)]

    cf.check_recurrence_against_brute.cache_clear()
    monkeypatch.setattr(cf, "brute_moments", off_at_b3_k2)
    try:
        # the recurrence's table at b = 3 is checked at every base
        code, out, err = run(capsys, "closed-form", "--base", "5", "--power", "2")
        assert (code, out, err) == (3, "", "error: the recurrence gives S(2, 2) = 95 at b=3, brute force 96\n")
        # with that part passed and cached, the form at b = 3 itself
        monkeypatch.setattr(cf, "brute_moments", real_brute)
        cf.check_recurrence_against_brute(2)
        monkeypatch.setattr(cf, "brute_moments", off_at_b3_k2)
        code, out, err = run(capsys, "closed-form", "--base", "3", "--power", "2", "--json")
        assert (code, out, err) == (3, "", "error: the form at b=3 gives S(2, 2) = 95, brute force 96\n")
    finally:
        cf.check_recurrence_against_brute.cache_clear()


def test_proofs_check_against_brute_force_on_the_caller_alone(capsys, monkeypatch):
    # every check enumerates its base in-process, one level at a time, and
    # no level reaches the 4096 numbers at which brute_moment splits a
    # query over workers, so neither command forks one
    import rabot.closedform as cf
    import rabot.generalform as gf

    levels = []
    real_brute = cf.brute_moments

    def spy(base, power, kmax):
        if kmax:
            levels.append((base - 1) * base**kmax)
        return real_brute(base, power, kmax)

    def refuse(*args):
        raise AssertionError("a check reached the workers")

    monkeypatch.setattr(cf, "brute_moments", spy)
    monkeypatch.setattr(gf, "brute_moments", spy)
    monkeypatch.setattr(oracle, "_sum_on_workers", refuse)
    monkeypatch.setattr(oracle, "_ready_workers", refuse)
    cf.check_recurrence_against_brute.cache_clear()
    for power in ("1", "4", "7"):
        assert run(capsys, "general-form", "--power", power, "--b-max", "40")[0] == 0
        for base in ("2", "3", "16", "1000000"):
            assert run(capsys, "closed-form", "--base", base, "--power", power)[0] == 0
    assert levels and max(levels) < 2 * oracle._PARALLEL_MIN_CHUNK
    cf.check_recurrence_against_brute.cache_clear()


def test_seq_golden(capsys):
    code, out, _ = run(capsys, "seq", "--base", "2", "--power", "1", "--kmax", "5")
    assert code == 0
    assert out == "1,4,14,46,146\n"


def test_seq_counts(capsys):
    code, out, _ = run(capsys, "seq", "--base", "2", "--power", "0", "--kmax", "3")
    assert code == 0
    assert out == "2,4,8\n"


def test_seq_oeis_attaches_matches(capsys, monkeypatch):
    def fake_lookup(values, limit=5, **kwargs):
        return LookupResult(tuple(values), (("A027649", "a(n) = 2*3^n - 2^n."),), True)

    monkeypatch.setattr(oeis_module, "lookup", fake_lookup)
    code, out, _ = run(capsys, "seq", "--base", "2", "--power", "1", "--kmax", "5", "--oeis")
    assert code == 0
    assert out.splitlines()[0] == "1,4,14,46,146"
    assert "A027649" in out


def test_seq_oeis_unavailable_still_exits_0(capsys, monkeypatch):
    def fake_lookup(values, limit=5, **kwargs):
        return LookupResult(tuple(values), (), False)

    monkeypatch.setattr(oeis_module, "lookup", fake_lookup)
    code, out, _ = run(capsys, "seq", "--base", "2", "--power", "1", "--kmax", "5", "--oeis")
    assert code == 0
    assert out.splitlines()[0] == "1,4,14,46,146"
    assert "unavailable" in out


def test_seq_oeis_without_matches_says_so(capsys, monkeypatch):
    def fake_lookup(values, limit=5, **kwargs):
        return LookupResult(tuple(values), (), True)

    monkeypatch.setattr(oeis_module, "lookup", fake_lookup)
    code, out, _ = run(capsys, "seq", "--base", "2", "--power", "1", "--kmax", "5", "--oeis")
    assert code == 0
    assert out == "1,4,14,46,146\nOEIS: no matches\n"


def test_k_max_below_one_exits_2(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused k must build no table and enumerate nothing")

    monkeypatch.setattr(cli, "build_table", no_work)
    monkeypatch.setattr(cli, "brute_moment", no_work)
    # one line naming the flag, whatever the engine
    for argv, flag, k in (
        (("seq", "--base", "2", "--power", "1", "--kmax", "0"), "--kmax", 0),
        (("check", "--k-max", "0"), "--k-max", 0),
        (("check", "--k-max", "-1"), "--k-max", -1),
        *(
            (("sum", "--base", "2", "--power", "1", "--k", k, "--engine", engine), "--k", int(k))
            for engine in ("recurrence", "brute", "both")
            for k in ("0", "-3")
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: {flag} must be >= 1, got {k}\n", argv


def test_check_sweep_passes(capsys):
    code, out, _ = run(
        capsys, "check", "--b-max", "3", "--p-max", "2", "--k-max", "3"
    )
    assert code == 0
    assert "agree" in out


def test_check_sums_on_the_available_cpus(capsys, monkeypatch):
    # every query goes through brute_moment, which picks its slices from the
    # available CPUs itself
    queries = []

    def spy(q, cap=None):
        queries.append((q, cap))
        return oracle.brute_moment(q, cap=cap)

    monkeypatch.setattr(cli, "brute_moment", spy)
    # b = 2, k = 13: 8192 numbers, slices that reach the workers on two CPUs
    code, out, _ = run(capsys, "check", "--b-max", "2", "--p-max", "0", "--k-max", "13")
    assert (code, out) == (0, "checked 39 queries: recurrence and brute force agree\n")
    assert len(queries) == 39
    assert {cap for _, cap in queries} == {cli._enum_cap()}
    assert oracle.MomentQuery(2, 0, 13) in {q for q, _ in queries}


def test_check_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_moment", lambda q, cap=None: 10**9)
    code, out, _ = run(capsys, "check", "--b-max", "2", "--p-max", "1", "--k-max", "2")
    assert code == 3
    assert "disagreement" in out


def test_check_caps_the_whole_sweep(capsys, monkeypatch):
    # b = 2..3, p = 0..3, k = 1..3 enumerate 736 numbers in total; k <= 4, 2160
    monkeypatch.setenv("RABOT_ENUM_CAP", "1000")
    code, out, _ = run(capsys, "check", "--b-max", "3", "--k-max", "3")
    assert code == 0
    assert "agree" in out

    def no_query(q, cap=None):
        raise AssertionError("a refused sweep must run no query")

    monkeypatch.setattr(cli, "brute_moment", no_query)
    for argv in (
        ("check", "--b-max", "3", "--k-max", "4"),
        ("check", "--b-max", str(10**12)),
        ("check", "--k-max", str(10**12)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "cap of 1000" in err


def _sweep_count(b_min, b_max, p_max, k_max):
    # the check sweep's count, one (b, p, k) at a time, whole sums and last digits
    return sum(
        (p_max + 1) * 2 * (b - 1) * b**k for k in range(1, k_max + 1) for b in range(b_min, b_max + 1)
    )


def test_check_sweep_at_the_cap_is_admitted_and_one_past_it_refused(monkeypatch):
    for b_min, b_max, p_max, k_max in ((2, 2, 0, 1), (2, 5, 1, 3), (3, 40, 3, 4), (7, 7, 16, 9)):
        count = _sweep_count(b_min, b_max, p_max, k_max)
        argv = ["check", "--b-min", str(b_min), "--b-max", str(b_max),
                "--p-max", str(p_max), "--k-max", str(k_max)]
        monkeypatch.setenv("RABOT_ENUM_CAP", str(count))
        cli._admit(cli.build_parser().parse_args(argv))
        monkeypatch.setenv("RABOT_ENUM_CAP", str(count - 1))
        with pytest.raises(EnumerationCapError) as refused:
            cli._admit(cli.build_parser().parse_args(argv))
        assert str(refused.value) == f"the check sweep enumerates more than the cap of {count - 1} numbers"


def test_check_admission_time_does_not_grow_with_the_base_range():
    # visiting each of the 10^20 bases would not finish
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["RABOT_ENUM_CAP"] = str(10**42)
    done = subprocess.run(
        [sys.executable, "-m", "rabot", "check", "--b-max", str(10**20), "--k-max", "1", "--p-max", "0"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: the check sweep enumerates more numbers than a 140-bit cap\n"
    )


def test_check_negative_power_exits_2(capsys):
    code, out, err = run(capsys, "check", "--p-max", "-1", "--b-max", str(10**12))
    assert code == 2
    assert out == ""
    assert "--p-max" in err


def _refuses_negative_power(capsys, monkeypatch, argvs):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused --power must build no table and enumerate nothing")

    monkeypatch.setattr(cli, "build_table", no_work)
    monkeypatch.setattr(cli, "brute_moment", no_work)
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --power must be >= 0, got -1\n"), argv


def test_sum_negative_power_exits_2(capsys, monkeypatch):
    _refuses_negative_power(capsys, monkeypatch, [
        ("sum", "--base", "2", "--power", "-1", "--k", "2", "--engine", engine)
        for engine in ("recurrence", "brute", "both")
    ])


def test_seq_negative_power_exits_2(capsys, monkeypatch):
    _refuses_negative_power(capsys, monkeypatch, [
        ("seq", "--base", "2", "--power", "-1", "--kmax", "2"),
        ("seq", "--base", "2", "--power", "-1", "--kmax", "2", "--json"),
    ])


def _refuses_power_below_one(capsys, monkeypatch, argvs):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused --power must fit and prove nothing")

    monkeypatch.setattr(cli, "closed_form", no_work)
    monkeypatch.setattr(cli, "guess_general_form", no_work)
    for argv in argvs:
        power = argv[argv.index("--power") + 1]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: --power must be >= 1, got {power}\n"), argv


def test_closed_form_power_below_one_exits_2(capsys, monkeypatch):
    _refuses_power_below_one(capsys, monkeypatch, [
        ("closed-form", "--base", "2", "--power", power, *json)
        for power in ("0", "-1") for json in ((), ("--json",))
    ])


def test_general_form_power_below_one_exits_2(capsys, monkeypatch):
    _refuses_power_below_one(capsys, monkeypatch, [
        ("general-form", "--power", power, *json)
        for power in ("0", "-1") for json in ((), ("--json",))
    ])


def test_check_power_above_limit_exits_2_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused --p-max must build no table and enumerate nothing")

    monkeypatch.setattr(cli, "build_table", no_work)
    monkeypatch.setattr(cli, "brute_moment", no_work)
    for p_max in (cli.MAX_POWER + 1, 300):
        code, out, err = run(capsys, "check", "--b-max", "2", "--k-max", "1", "--p-max", str(p_max))
        assert code == 2
        assert out == ""
        assert err == f"error: --p-max {p_max} is above the limit of {cli.MAX_POWER}\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, "check", "--b-max", "2", "--k-max", "1", "--p-max", str(cli.MAX_POWER))
    assert code == 0
    assert "agree" in out


def test_json_records_roundtrip(capsys):
    invocations = [
        ["eval", "--base", "2", "12", "--json"],
        ["eval", "--base", "2", "12", "--json", "--verbose"],
        ["sum", "--base", "2", "--power", "2", "--k", "2", "--engine", "both", "--json"],
        ["closed-form", "--base", "2", "--power", "2", "--json"],
        ["general-form", "--power", "1", "--json"],
        ["seq", "--base", "2", "--power", "1", "--kmax", "5", "--json"],
        ["check", "--b-max", "2", "--p-max", "1", "--k-max", "2", "--json"],
    ]
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out.count("\n") == 1  # one record per invocation
        record = OutputRecord.from_json(out)
        assert record.to_json() == out.strip()
        assert record.command == argv[0]


def test_json_eval_record_contents(capsys):
    _, out, _ = run(capsys, "eval", "--base", "2", "12", "--json")
    record = OutputRecord.from_json(out)
    assert record == OutputRecord(
        "eval", {"base": "2", "n": "12"}, {"value": "2"}, "exact"
    )


# each --json invocation and the inputs its record lists: every recorded flag
# that has a value, defaults included, as a decimal string or the engine's name
RECORD_INPUTS = [
    (("eval", "--base", "2", "12"), {"base": "2", "n": "12"}),
    *(
        (
            ("sum", "--base", "3", "--power", "2", "--k", "2", "--engine", engine, *last),
            {"base": "3", "power": "2", "k": "2", "engine": engine, **({"last_digit": "1"} if last else {})},
        )
        for engine in ("recurrence", "brute", "both")
        for last in ((), ("--last-digit", "1"))
    ),
    (("sum", "--base", "2", "--power", "1", "--k", "3"), {"base": "2", "power": "1", "k": "3", "engine": "recurrence"}),
    (("closed-form", "--base", "2", "--power", "2"), {"base": "2", "power": "2"}),
    (("general-form", "--power", "1", "--b-min", "3", "--b-max", "5"), {"power": "1", "b_min": "3", "b_max": "5"}),
    (("seq", "--base", "2", "--power", "1", "--kmax", "5"), {"base": "2", "power": "1", "kmax": "5"}),
    (("check", "--b-max", "2", "--p-max", "1", "--k-max", "2"), {"b_min": "2", "b_max": "2", "p_max": "1", "k_max": "2"}),
]


@pytest.mark.parametrize("argv, inputs", [pytest.param(*case, id=" ".join(case[0])) for case in RECORD_INPUTS])
def test_json_record_inputs(capsys, argv, inputs):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    record = OutputRecord.from_json(out)
    assert record.command == argv[0]
    assert record.inputs == inputs


def test_json_seq_values_are_decimal_strings(capsys):
    _, out, _ = run(capsys, "seq", "--base", "2", "--power", "1", "--kmax", "5", "--json")
    record = OutputRecord.from_json(out)
    assert record.result["values"] == ["1", "4", "14", "46", "146"]


def test_big_values_lossless(capsys):
    _, out, _ = run(capsys, "sum", "--base", "2", "--power", "8", "--k", "120", "--json")
    record = OutputRecord.from_json(out)
    value = int(record.result["value"])
    assert value > 10**200
    assert str(value) == record.result["value"]


def test_sum_beyond_python_digit_limit_round_trips_json(capsys):
    argv = ("sum", "--base", "10", "--power", "2", "--k", "3000")
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    record = OutputRecord.from_json(out)
    assert record.to_json() == out.strip()
    text = record.result["value"]
    assert len(text) > limit > 0
    code, plain, _ = run(capsys, *argv)
    assert (code, plain) == (0, text + "\n")
    assert sys.get_int_max_str_digits() == limit  # lifted only while main runs
    expected = moment_value(build_table(10, 2, 3000), 2, 3000)
    sys.set_int_max_str_digits(0)
    try:
        assert int(text) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_flag_value_beyond_python_digit_limit_is_refused_in_one_line(capsys):
    limit = sys.get_int_max_str_digits()
    nines = "9" * 5000  # past the limit, so parsed only once main lifts it
    assert len(nines) > limit > 0
    code, out, err = run(capsys, "sum", "--base", "2", "--k", "1", "--power", nines)
    assert (code, out) == (2, "")
    assert err == "error: a 16610-bit --power is above the limit of 16\n"
    assert err.count("\n") == 1 and len(err.encode()) <= 200
    assert sys.get_int_max_str_digits() == limit
    # a value argparse refuses leaves the limit restored too
    assert run(capsys, "sum", "--base", "2", "--k", "1", "--power", "x")[0] == 2
    assert sys.get_int_max_str_digits() == limit


def test_eval_refuses_an_n_above_its_size_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        widest, over = str(2**cli.MAX_EVAL_BITS - 1), str(2**cli.MAX_EVAL_BITS)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(widest) > limit  # every n Python parses by default is admitted
    code, out, _ = run(capsys, "eval", "--base", over, widest)
    assert (code, out) == (0, "0\n")  # one digit, which does not survive
    code, out, err = run(capsys, "eval", "--base", "2", over)
    assert (code, out) == (2, "")
    assert err == f"error: a {cli.MAX_EVAL_BITS + 1}-bit n is above the size limit of {cli.MAX_EVAL_BITS} bits\n"


def test_k_above_limit_exits_2_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused k must build no table and enumerate nothing")

    monkeypatch.setattr(cli, "build_table", no_work)
    monkeypatch.setattr(cli, "brute_moment", no_work)
    monkeypatch.setattr(cli, "closed_form", no_work)
    over = str(cli.MAX_K + 1)
    for argv in (
        ("sum", "--base", "10", "--power", "2", "--k", over),
        ("sum", "--engine", "brute", "--base", "3", "--power", "1", "--k", "20000000"),
        ("seq", "--base", "10", "--power", "3", "--kmax", over),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert f"above the limit of {cli.MAX_K}" in err
    # k*bit_length(b) is held to 4*MAX_K, the size MAX_K allows at b = 10
    size_limit = f"is above the size limit of {4 * cli.MAX_K}"
    for argv in (
        ("sum", "--base", "1000", "--power", "2", "--k", "1201"),
        ("sum", "--engine", "brute", "--base", "1000", "--power", "1", "--k", "1201"),
        ("seq", "--base", "1000", "--power", "3", "--kmax", str(cli.MAX_K)),
        # the table depth 2p + 1 = 3 at a 4001-bit base
        ("closed-form", "--base", str(2**4000), "--power", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert size_limit in err, argv


def test_power_above_limit_exits_2_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused power must build no table and enumerate nothing")

    monkeypatch.setattr(cli, "build_table", no_work)
    monkeypatch.setattr(cli, "brute_moment", no_work)
    monkeypatch.setattr(cli, "closed_form", no_work)
    for power in (cli.MAX_POWER + 1, 24, 60):
        for argv in (
            ("sum", "--base", "10", "--power", str(power), "--k", "3000"),
            ("sum", "--engine", "both", "--base", "2", "--power", str(power), "--k", "1"),
            ("seq", "--base", "10", "--power", str(power), "--kmax", "1"),
            ("closed-form", "--base", "2", "--power", str(power)),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err == f"error: --power {power} is above the limit of {cli.MAX_POWER}\n"


def test_size_limit_falls_with_the_power(capsys, monkeypatch):
    # max(p, 3)*k*bit_length(b) is held to 12*MAX_K: powers up to 3 keep
    # k*bit_length(b) <= 4*MAX_K, and above 3 the limit is 12*MAX_K // p
    huge = str(2**1000)  # bit_length 1001: at p = 12 the limit 3000 allows k = 2
    for argv, limit in (
        (("sum", "--base", "10", "--power", "12", "--k", "3000"), 3000),
        (("sum", "--base", "10", "--power", "12", "--k", "751"), 3000),
        (("seq", "--base", "10", "--power", "4", "--kmax", "2251"), 9000),
        # the table depth 2p + 1 = 33 at a 69-bit base
        (("closed-form", "--base", str(2**68), "--power", "16"), 2250),
        (("sum", "--base", huge, "--power", "12", "--k", "3"), 3000),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert f"is above the size limit of {limit}" in err, argv
        assert err.count("\n") == 1 and len(err) < 200, argv  # a long base by its bits
    code, out, _ = run(capsys, "sum", "--base", huge, "--power", "12", "--k", "2")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the value has 7525 digits
    try:
        assert int(out) == moment_value(build_table(2**1000, 12, 2), 12, 2)
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, _ = run(capsys, "closed-form", "--base", "2", "--power", str(cli.MAX_POWER))
    assert code == 0
    assert out.endswith(f"status: proven (checked to k={2 * cli.MAX_POWER})\n")


def test_closed_form_base_above_size_limit_exits_2_before_any_work(capsys, monkeypatch):
    # the table goes to k = 2p + 1, and the size limit holds there
    def no_work(*args, **kwargs):
        raise AssertionError("a refused base must build no table")

    monkeypatch.setattr(cli, "build_table", no_work)
    monkeypatch.setattr(cli, "closed_form", no_work)
    huge = 10**1000  # bit_length 3322
    code, out, err = run(capsys, "closed-form", "--base", str(huge), "--power", "8")
    assert code == 2
    assert out == ""
    assert err == (
        "error: the table depth 17 at a 3322-bit --base and --power 8:"
        " k*bit_length(b) = 56474 is above the size limit of 4500\n"
    )
    # at p = 4 the limit 9000 allows bit_length(b) <= 1000 at k = 9
    code, out, err = run(capsys, "closed-form", "--base", str(2**1000), "--power", "4")
    assert code == 2
    assert "k*bit_length(b) = 9009 is above the size limit of 9000" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "closed-form", "--base", str(2**999), "--power", "4")
    assert code == 0
    assert out.endswith("status: proven (checked to k=8)\n")


def test_k_at_the_size_limit_runs(capsys):
    # bit_length(1000) = 10, so k = 1200 is exactly at the limit
    code, out, _ = run(capsys, "seq", "--base", "1000", "--power", "1", "--kmax", "1200")
    assert code == 0
    assert len(out.split(",")) == 1200


def test_brute_refusal_of_a_huge_count_is_one_short_line(capsys, monkeypatch):
    monkeypatch.delenv("RABOT_ENUM_CAP", raising=False)
    code, out, err = run(
        capsys, "sum", "--engine", "brute", "--base", "3", "--power", "1", "--k", "3000"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: query enumerates 2*3^3000 numbers, above the cap of {10**8}\n"


def test_sum_at_a_huge_base_is_immediate(capsys):
    # checked against the general form, which never sees this base
    from rabot import guess_general_form, specialize

    b = 10**8
    code, out, _ = run(capsys, "sum", "--base", str(b), "--power", "2", "--k", "3")
    assert code == 0
    assert int(out) == specialize(guess_general_form(2, [2]), b).eval_at(3)


def test_no_floats_anywhere(capsys):
    invocations = [
        ["eval", "--base", "2", "12"],
        ["sum", "--base", "3", "--power", "2", "--k", "4"],
        ["closed-form", "--base", "2", "--power", "2"],
        ["closed-form", "--base", "6", "--power", "2", "--json"],
        ["general-form", "--power", "2"],
        ["seq", "--base", "2", "--power", "1", "--kmax", "5", "--json"],
    ]
    float_pattern = re.compile(r"\d+\.\d+")
    for argv in invocations:
        _, out, _ = run(capsys, *argv)
        assert not float_pattern.search(out), (argv, out)


def test_form_terms_json_poly_fallback_shape():
    from fractions import Fraction

    from rabot import ExponentialForm

    form = ExponentialForm(2, 1, (((Fraction(1, 2),), 1), ((Fraction(1), Fraction(2)), 2)))
    assert cli._form_terms_json(form) == [
        {"coefficient_poly": ["1/2"], "base": "1"},
        {"coefficient_poly": ["1", "2"], "base": "2"},
    ]
    constant = ExponentialForm(2, 1, (((Fraction(1, 2),), 1),))
    assert cli._form_terms_json(constant) == [{"coefficient": "1/2", "base": "1"}]


def test_standard_library_only():
    # the CLI and the repeated-root fit import neither sympy nor requests
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, rabot.cli\n"
        "from rabot import closed_form\n"
        "closed_form(2, 3)\n"
        "print(sorted({'sympy', 'requests'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_record_json_shape_is_stable():
    record = OutputRecord("eval", {"base": "2"}, {"value": "7"}, "exact")
    parsed = json.loads(record.to_json())
    assert set(parsed) == {"command", "inputs", "result", "status"}
    assert OutputRecord.from_json(record.to_json()) == record
