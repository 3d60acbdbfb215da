"""Command-line surface: evaluation, moment sums, closed forms, proven general
forms uniform in b, sequence export, and recurrence-vs-brute-force sweeps.

Exit codes are fixed so CI can tell failure modes apart: 2 for usage or
invalid input (outside LIMITS, or against a rule across inputs in _admit,
refused before any command runs), 3 when the two engines disagree (the
bug-detection signal, also where a proof's brute-force check fails), 4 when
fitting or verification fails, and 5 when a
brute-force worker process dies twice in one sum.  All numeric
output is exact; big integers are printed as decimal strings and rationals
as numerator/denominator, never floats.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import digits, oeis
from .closedform import ExponentialForm, closed_form, table_depth
from .errors import DisagreementError, EnumerationCapError, NoFitError, WorkerError, _sized
from .generalform import brute_checked_bases, guess_general_form
from .oracle import (
    DEFAULT_ENUM_CAP,
    MomentQuery,
    _check_cap,
    brute_moment,
)
from .recurrence import _power_sums, build_table, moment_value

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3
EXIT_NO_FIT = 4
EXIT_WORKER = 5

# The general-form derivation's time, its annihilator check included, about
# doubles per power (cold: about 0.09 s at p = 6, 0.17-0.22 s at p = 7 and
# 0.35 s at p = 8; the command takes 0.36-0.53 s at p = 7 on 2 vCPUs), so
# larger powers are refused rather than left to run for minutes.
MAX_GENERAL_FORM_POWER = 7

# `sum`, `seq` and `closed-form` refuse --power above this: the state has
# (p+1)(p+2)/2 sequences, and `closed-form --base 1000000 --power 16` took
# 0.4-0.6 s end to end, closed_form(10**6, p) 0.18-0.22 s at p = 16 and
# 0.66-0.7 s at p = 20 (three to eight runs each, Python 3.11.7, one core of
# a shared 2-vCPU Xeon VM).
MAX_POWER = 16

# Values grow linearly in k and their decimal printing more than linearly, so
# `sum --k` and `seq --kmax` above this are refused:
# `seq --base 10 --power 3 --kmax 3000` builds and prints in about 3.5 s.
# Their size, about p*k*bit_length(b) bits, also grows with the digits of the
# base and with the power, so max(p, 3)*k*bit_length(b) is held to 12*MAX_K,
# what MAX_K allows at b = 10 and p = 3.
MAX_K = 3000

# `eval` refuses an n of more bits, which admits every n of up to the 4300
# digits Python parses by default.  Its time grows as their square: 0.18 s at
# 16384 bits and 15 s at 332193 (`eval --base 2`, Python 3.11.7, 2-vCPU VM).
MAX_EVAL_BITS = 16384

# Each subcommand's bounds on its integer inputs, flag -> (least, greatest or
# None), checked in this order before the rules across inputs in _admit.  A
# form's proof needs p >= 1, and a sum's p = 0 is a pure count.
LIMITS: dict[str, dict[str, tuple[int, int | None]]] = {
    "eval": {"--base": (2, None), "n": (0, None)},
    "sum": {"--power": (0, MAX_POWER), "--k": (1, MAX_K), "--base": (2, None), "--last-digit": (0, None)},
    "closed-form": {"--power": (1, MAX_POWER), "--base": (2, None)},
    "general-form": {"--power": (1, MAX_GENERAL_FORM_POWER), "--b-min": (2, None)},
    "seq": {"--power": (0, MAX_POWER), "--kmax": (1, MAX_K), "--base": (2, None), "--limit": (1, None)},
    "check": {"--b-min": (2, None), "--p-max": (0, MAX_POWER), "--k-max": (1, None)},
}

# Each subcommand's inputs that its record lists, by argparse dest, in this
# order; an optional flag left out is not listed.
RECORDED: dict[str, tuple[str, ...]] = {
    "eval": ("base", "n"),
    "sum": ("base", "power", "k", "last_digit", "engine"),
    "closed-form": ("base", "power"),
    "general-form": ("power", "b_min", "b_max"),
    "seq": ("base", "power", "kmax"),
    "check": ("b_min", "b_max", "p_max", "k_max"),
}


@dataclass
class OutputRecord:
    """One machine-readable record per invocation; round-trips through JSON."""

    command: str
    inputs: dict
    result: object
    status: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        d = json.loads(text)
        return cls(d["command"], d["inputs"], d["result"], d["status"])


def _emit(args: argparse.Namespace, status: str, result: object, human: list[str]) -> None:
    """Print the run's record under --json, else its human lines."""
    if args.json:
        values = {dest: getattr(args, dest) for dest in RECORDED[args.command]}
        inputs = {dest: str(value) for dest, value in values.items() if value is not None}
        print(OutputRecord(args.command, inputs, result, status).to_json())
    else:
        for line in human:
            print(line)


def _digit_str(d: digits.DigitString) -> str:
    if not d.digits:
        return "0"
    sep = "" if d.base <= 10 else ","
    return sep.join(str(x) for x in d.digits)


def _enum_cap() -> int:
    raw = os.environ.get("RABOT_ENUM_CAP", str(DEFAULT_ENUM_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: refused below like any cap below 1
    if cap < 1:
        raise ValueError(f"RABOT_ENUM_CAP must be an integer >= 1, got {_sized(raw, 'value') or repr(raw)}")
    return cap


def _named(flag: str, value: int) -> str:
    return _sized(value, flag) or f"{flag} {value}"


def _check_size(flag: str, k: int, base: int, power: int) -> None:
    size, limit = k * base.bit_length(), 12 * MAX_K // max(power, 3)
    if size > limit:
        raise ValueError(
            f"{flag} {k} at {_named('--base', base)} and --power {power}:"
            f" k*bit_length(b) = {size} is above the size limit of {limit}"
        )


def _check_sweep_size(args: argparse.Namespace, cap: int) -> None:
    """Refuse a check sweep that enumerates more than cap numbers in total.

    Each (b, p, k) enumerates (b-1)*b**k numbers for the whole sum and as
    many again over the last digits, and over k = 1..K that telescopes to
    b**(K+1) - b at each base.  One k alone enumerates at least 2*b**k at
    b = --b-max, above cap once (bit_length(b) - 1)*k >= bit_length(cap), so
    K stops there and a huge --k-max costs nothing.  Over the bases, the sum
    comes from the power sums F_j(n) = sum_{l<n} l**j, j <= K + 1, in about
    K**2 products, or base by base where the range has at most K**2 bases,
    so a huge --b-max costs nothing either.  K grows with the cap's bit
    length, so the power sums alone are no bound: with a 1994-bit cap,
    --b-max 3 gives K = 1995, and their 4M products took 119 s where the
    whole command takes 0.12 s base by base (Python 3.11.7, 2-vCPU VM).
    """
    k = min(args.k_max, cap.bit_length() // (args.b_max.bit_length() - 1) + 1)
    if args.b_max - args.b_min < k * k:
        numbers = sum(b ** (k + 1) - b for b in range(args.b_min, args.b_max + 1))
    else:
        above, below = _power_sums(args.b_max + 1, k + 1), _power_sums(args.b_min, k + 1)
        numbers = above[k + 1] - below[k + 1] - (above[1] - below[1])
    if (args.p_max + 1) * 2 * numbers > cap:
        sized = _sized(cap, "cap")
        more = f"more numbers than {sized}" if sized else f"more than the cap of {cap} numbers"
        raise EnumerationCapError(f"the check sweep enumerates {more}")


def _admit(args: argparse.Namespace) -> None:
    """Refuse an input outside LIMITS, then one that breaks a rule across
    inputs, with a one-line ValueError or EnumerationCapError naming it
    (a long input by its size, see errors._sized).

    Where brute force runs, the parsed RABOT_ENUM_CAP is kept as args.cap.
    """
    for flag, (least, greatest) in LIMITS[args.command].items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is None:  # an optional flag left out
            continue
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {_sized(value, 'negative number') or value}")
        if greatest is not None and value > greatest:
            raise ValueError(f"{_named(flag, value)} is above the limit of {greatest}")
    if args.command in ("general-form", "check") and args.b_min > args.b_max:
        empty = f"{_named('--b-min', args.b_min)} is above {_named('--b-max', args.b_max)}"
        raise ValueError(f"empty base range: {empty}")
    if args.command == "eval" and args.n.bit_length() > MAX_EVAL_BITS:
        raise ValueError(f"{_named('n', args.n)} is above the size limit of {MAX_EVAL_BITS} bits")
    if args.command == "sum":
        if args.last_digit is not None and args.last_digit >= args.base:
            raise ValueError(
                f"{_named('--last-digit', args.last_digit)} is not below {_named('--base', args.base)}"
            )
        _check_size("--k", args.k, args.base, args.power)
        if args.engine != "recurrence":
            args.cap = _enum_cap()
            _check_cap(MomentQuery(args.base, args.power, args.k, args.last_digit), args.cap)
    elif args.command == "seq":
        _check_size("--kmax", args.kmax, args.base, args.power)
    elif args.command == "closed-form":
        _check_size("the table depth", table_depth(args.power), args.base, args.power)
    elif args.command == "check":
        args.cap = _enum_cap()
        _check_sweep_size(args, args.cap)


def _form_terms_json(form: ExponentialForm) -> list[dict]:
    if form.is_constant():
        return [{"coefficient": str(poly[0]), "base": str(lam)} for poly, lam in form.terms]
    return [
        {"coefficient_poly": [str(c) for c in poly], "base": str(lam)}
        for poly, lam in form.terms
    ]


def cmd_eval(args: argparse.Namespace) -> int:
    before = digits.from_value(args.base, args.n)
    after = digits.shorten_runs(before)
    value = digits.to_value(after)
    result: dict = {"value": str(value)}
    human = [str(value)]
    if args.verbose:
        result["digits_before"] = _digit_str(before)
        result["digits_after"] = _digit_str(after)
        human.insert(0, f"{_digit_str(before)} -> {_digit_str(after)}")
    _emit(args, "exact", result, human)
    return EXIT_OK


def cmd_sum(args: argparse.Namespace) -> int:
    q = MomentQuery(args.base, args.power, args.k, args.last_digit)
    values: dict[str, int] = {}
    if args.engine in ("recurrence", "both"):
        table = build_table(args.base, args.power, args.k)
        values["recurrence"] = moment_value(table, args.power, args.k, args.last_digit)
    if args.engine in ("brute", "both"):
        values["brute"] = brute_moment(q, cap=args.cap)
    if args.engine == "both":
        agree = values["recurrence"] == values["brute"]
        result = {"recurrence": str(values["recurrence"]), "brute": str(values["brute"]), "agree": agree}
        human = [
            f"recurrence: {values['recurrence']}",
            f"brute: {values['brute']}",
            f"agree: {'yes' if agree else 'no'}",
        ]
        _emit(args, "exact" if agree else "refuted", result, human)
        return EXIT_OK if agree else EXIT_DISAGREEMENT
    value = next(iter(values.values()))
    _emit(args, "exact", {"value": str(value)}, [str(value)])
    return EXIT_OK


def cmd_closed_form(args: argparse.Namespace) -> int:
    form, verdict = closed_form(args.base, args.power)
    result = {
        "formula": form.render(),
        "terms": _form_terms_json(form),
        "verdict": {
            "status": verdict.status,
            "checked_depth": str(verdict.checked_depth),
        },
    }
    human = [form.render(), f"status: {verdict.status} (checked to k={verdict.checked_depth})"]
    _emit(args, verdict.status, result, human)
    return EXIT_OK if verdict.status == "proven" else EXIT_NO_FIT


def _runs(bases: list[int]) -> str:
    """Ascending bases as runs of consecutive ones: [3, 4, 5, 7] -> "3..5, 7"."""
    runs: list[list[int]] = []
    for b in bases:
        if runs and runs[-1][1] == b - 1:
            runs[-1][1] = b
        else:
            runs.append([b, b])
    return ", ".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in runs)


def cmd_general_form(args: argparse.Namespace) -> int:
    bases = range(args.b_min, args.b_max + 1)
    g = guess_general_form(args.power, bases)
    excluded = sorted(g.excluded_bases())
    result = {
        "formula": g.render(),
        "terms": [
            {"coefficient": fn.render(), "base": fam.render()} for fn, fam in g.terms
        ],
        "excluded_bases": [str(b) for b in excluded],
    }
    valid = "every b >= 2" + (f" except {', '.join(map(str, excluded))}" if excluded else "")
    if checked := brute_checked_bases(g, bases):
        note = f"checked against brute force at b = {_runs(checked)}"
    else:
        note = f"no base in b = {args.b_min}..{args.b_max} was checked against brute force"
    _emit(args, "proven", result, [f"proven: {g.render()}", f"valid for {valid}; {note}"])
    return EXIT_OK


def cmd_seq(args: argparse.Namespace) -> int:
    table = build_table(args.base, args.power, args.kmax)
    values = [moment_value(table, args.power, k) for k in range(1, args.kmax + 1)]
    result: dict = {"values": [str(v) for v in values]}
    human = [",".join(str(v) for v in values)]
    if args.oeis:
        found = oeis.lookup(values, limit=args.limit)
        result["oeis"] = {
            "fetched": found.fetched,
            "matches": [{"id": sid, "name": name} for sid, name in found.matches],
        }
        if not found.fetched:
            human.append("OEIS lookup unavailable")
        elif not found.matches:
            human.append("OEIS: no matches")
        else:
            human.extend(f"OEIS: {sid} {name}" for sid, name in found.matches)
    _emit(args, "exact", result, human)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    queries = 0
    # brute_moment picks the slices per query; the workers are forked once and
    # serve the whole sweep
    for b in range(args.b_min, args.b_max + 1):
        table = build_table(b, args.p_max, args.k_max)
        for p in range(args.p_max + 1):
            for k in range(1, args.k_max + 1):
                for last in [None, *range(b)]:
                    expected = moment_value(table, p, k, last)
                    actual = brute_moment(MomentQuery(b, p, k, last), cap=args.cap)
                    queries += 1
                    if expected != actual:
                        detail = {
                            "base": str(b),
                            "power": str(p),
                            "k": str(k),
                            "last_digit": "none" if last is None else str(last),
                            "recurrence": str(expected),
                            "brute": str(actual),
                        }
                        human = [
                            f"disagreement at b={b} p={p} k={k} last={detail['last_digit']}: "
                            f"recurrence {expected} vs brute {actual}"
                        ]
                        _emit(args, "refuted", {"queries": str(queries), "disagreement": detail}, human)
                        return EXIT_DISAGREEMENT
    result = {"queries": str(queries), "disagreement": None}
    _emit(args, "exact", result, [f"checked {queries} queries: recurrence and brute force agree"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabot",
        description="Exact moment sums for the run-shortening (raboter) operation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON record")
    common.add_argument("--verbose", action="store_true", help="show working detail")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="apply the raboter operation")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sum", parents=[common], help="moment sum over (k+1)-digit numbers")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--last-digit", type=int, default=None)
    p.add_argument(
        "--engine", choices=["recurrence", "brute", "both"], default="recurrence"
    )
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser(
        "closed-form", parents=[common], help="prove an exponential closed form in k"
    )
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--power", type=int, required=True)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser(
        "general-form", parents=[common], help="prove a form uniform in b, checked on b-min..b-max"
    )
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--b-min", type=int, default=2)
    p.add_argument("--b-max", type=int, default=12)
    p.set_defaults(func=cmd_general_form)

    p = sub.add_parser("seq", parents=[common], help="export the sum sequence over k")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--oeis", action="store_true", help="look the sequence up in the OEIS")
    p.add_argument("--limit", type=int, default=5, help="maximum OEIS matches to show")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser(
        "check", parents=[common], help="sweep recurrence vs brute force"
    )
    p.add_argument("--b-min", type=int, default=2)
    p.add_argument("--b-max", type=int, default=4)
    p.add_argument("--p-max", type=int, default=3)
    p.add_argument("--k-max", type=int, default=5)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # exact results may pass Python's digit limit, and flag values that _admit refuses by size
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        # every refusal happens here, so a command runs only on admitted inputs
        try:
            _admit(args)
        except (EnumerationCapError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except SystemExit as e:  # argparse refused the arguments, or printed --help
        return int(e.code or 0)
    except DisagreementError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except NoFitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_FIT
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_WORKER
    except BrokenPipeError:
        # the reader closed stdout early (`rabot seq ... | head`): point stdout
        # at os.devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    sys.exit(main())
