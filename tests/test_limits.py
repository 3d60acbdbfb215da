"""The CLI's refusals: every bound in cli.LIMITS, and the rules across
inputs, refuse (exit 2) before any table, fit, enumeration or lookup."""
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabot.cli as cli
from rabot.cli import main

# an admitted invocation of each subcommand; "n" is positional
ADMITTED = {
    "eval": {"--base": 2, "n": 12},
    "sum": {"--power": 1, "--k": 1, "--base": 2, "--last-digit": 0},
    "closed-form": {"--power": 1, "--base": 2},
    "general-form": {"--power": 1, "--b-min": 2},
    "seq": {"--power": 1, "--kmax": 1, "--base": 2, "--limit": 1, "--oeis": None},
    "check": {"--b-min": 2, "--p-max": 0, "--k-max": 1},
}


def _argv(command, values):
    argv = [command]
    for flag, value in values.items():
        if flag == "n":
            argv.append(str(value))
        elif value is None:  # a switch
            argv.append(flag)
        else:
            argv += [flag, str(value)]
    return argv


def _one_past_each_bound():
    for command, limits in cli.LIMITS.items():
        for flag, (least, greatest) in limits.items():
            yield pytest.param(
                command, flag, least - 1, f"{flag} must be >= {least}, got {least - 1}",
                id=f"{command} {flag}={least - 1}",
            )
            if greatest is not None:
                yield pytest.param(
                    command, flag, greatest + 1, f"{flag} {greatest + 1} is above the limit of {greatest}",
                    id=f"{command} {flag}={greatest + 1}",
                )


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused input must start no work")

    for name in ("build_table", "closed_form", "guess_general_form", "brute_moment"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.oeis, "lookup", refuse)


def test_admitted_invocations_are_admitted_at_every_bound():
    # so that each refusal below is due to the one value it changes
    for command, limits in cli.LIMITS.items():
        assert set(limits) <= set(ADMITTED[command]), command
        for flag, (least, greatest) in limits.items():
            for bound in (least,) if greatest is None else (least, greatest):
                argv = _argv(command, {**ADMITTED[command], flag: bound})
                cli._admit(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command, flag, value, message", _one_past_each_bound())
def test_one_past_each_bound_exits_2_before_any_work(capsys, no_work, command, flag, value, message):
    for json in ((), ("--json",)):
        code = main([*_argv(command, {**ADMITTED[command], flag: value}), *json])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("env, argv, message", [
    # the cap is met before the table that --engine both also builds
    (None, ["sum", "--engine", "both", "--base", "2", "--power", "16", "--k", "1125"],
     f"query enumerates 1*2^1125 numbers, above the cap of {10**8}"),
    ("bad", ["sum", "--engine", "both", "--base", "2", "--power", "1", "--k", "3"],
     "RABOT_ENUM_CAP must be an integer >= 1, got 'bad'"),
    # --limit is met before a 3000-deep table, with or without the lookup
    (None, ["seq", "--base", "10", "--power", "3", "--kmax", "3000", "--oeis", "--limit", "0"],
     "--limit must be >= 1, got 0"),
    (None, ["seq", "--base", "10", "--power", "3", "--kmax", "3000", "--limit", "0"],
     "--limit must be >= 1, got 0"),
    (None, ["sum", "--base", "3", "--power", "1", "--k", "2", "--last-digit", "3", "--engine", "both"],
     "--last-digit 3 is not below --base 3"),
    # a cap over 64 bits is named by its size, so the error stays one short line
    (str(2**64 - 1), ["sum", "--engine", "both", "--base", "2", "--power", "1", "--k", "64"],
     f"query enumerates 1*2^64 numbers, above the cap of {2**64 - 1}"),
    (str(10**600), ["sum", "--engine", "both", "--base", str(10**700), "--power", "1", "--k", "1"],
     "query enumerates (b-1)*b^1 numbers at a 2326-bit b, above a 1994-bit cap"),
    (str(2**64 - 1), ["check", "--b-max", str(2**40), "--k-max", "1", "--p-max", "0"],
     f"the check sweep enumerates more than the cap of {2**64 - 1} numbers"),
    (str(10**600), ["check", "--b-max", str(10**700), "--k-max", "1", "--p-max", "0"],
     "the check sweep enumerates more numbers than a 1994-bit cap"),
])
def test_refusals_come_before_the_work_of_an_admitted_flag(capsys, monkeypatch, no_work, env, argv, message):
    if env is None:
        monkeypatch.delenv("RABOT_ENUM_CAP", raising=False)
    else:
        monkeypatch.setenv("RABOT_ENUM_CAP", env)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def _around(least, greatest):
    # integers around each bound; a greatest above MAX_POWER (MAX_K) is drawn
    # only as refused values, so that every admitted run stays quick
    values = st.integers(least - 2, least + 2)
    if greatest is None:
        return values
    if greatest <= cli.MAX_POWER:
        values |= st.just(greatest)
    return values | st.integers(greatest + 1, greatest + 2)


@st.composite
def _invocations(draw, command):
    values = {flag: draw(_around(*bounds)) for flag, bounds in cli.LIMITS[command].items()}
    if command in ("general-form", "check"):
        values["--b-max"] = draw(st.integers(0, 6))
    if command == "sum":
        if draw(st.booleans()):
            del values["--last-digit"]
        values["--engine"] = draw(st.sampled_from(["recurrence", "brute", "both"]))
    return _argv(command, values) + draw(st.sampled_from([[], ["--json"]]))


@pytest.mark.parametrize("command", list(cli.LIMITS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inputs_around_the_bounds_exit_with_a_documented_code(command, data):
    argv = data.draw(_invocations(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
