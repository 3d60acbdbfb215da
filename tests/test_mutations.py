"""The mutation catalogue: a fixed table of faults, each put into one engine
by monkeypatching, and a sweep of every single fault of the recurrence's
update weights and seed.

Each row's fault must change its engine's output on the row's input, so that
no row passes without its fault taking effect, and must make every command
the row lists fail with the row's exit code: 3 when the recurrence and the
oracle disagree, which `sum --engine both` and `check` find and so do the
brute-force checks of `closed-form` and `general-form`, or when the general
form and its generating function disagree, and 4 when a form is not proven.
Never 0.

The oracle faults are made in this process only, and a patch does not reach
workers forked earlier, so every oracle query here has fewer than
2 * oracle._PARALLEL_MIN_CHUNK numbers and is summed in-process.
"""
import inspect
from functools import lru_cache

import pytest

from rabot import (
    DisagreementError,
    MomentQuery,
    NoFitError,
    brute_moment,
    build_table,
    closed_form,
    guess_general_form,
    moment_value,
)
from rabot import closedform, generalform, linalg, oracle, recurrence
from rabot.cli import OutputRecord, main
from rabot.closedform import ExponentialForm
from rabot.generalform import GeneralForm

SUM = ("sum", "--engine", "both", "--base", "3", "--power", "2", "--k", "4")
SUM_POWER_ZERO = ("sum", "--engine", "both", "--base", "3", "--power", "0", "--k", "4")
SUM_LAST_DIGIT = ("sum", "--engine", "both", "--base", "3", "--power", "2", "--k", "2", "--last-digit", "1")
CHECK = ("check", "--b-max", "3", "--p-max", "2", "--k-max", "4")
CLOSED_FORM = ("closed-form", "--base", "3", "--power", "2")
GENERAL_FORM = ("general-form", "--power", "2")


def power_sum_f1_plus_b(monkeypatch):
    real = recurrence._power_sums
    monkeypatch.setattr(
        recurrence, "_power_sums", lambda base, power: [f + base if j == 1 else f for j, f in enumerate(real(base, power))]
    )


def update_weight(monkeypatch):
    # the last read of the last row, T(0, p)'s read of T(p, 0), counted once
    # more; the cached rows are copied, not changed
    real = recurrence._update

    def update(power):
        rows = list(real(power))
        (kind, e, c), source = rows[-1][-1]
        rows[-1] = (*rows[-1][:-1], ((kind, e, c + 1), source))
        return tuple(rows)

    monkeypatch.setattr(recurrence, "_update", update)


def seed_t000(monkeypatch):
    real = recurrence._seed
    monkeypatch.setattr(recurrence, "_seed", lambda sums: [real(sums)[0] + 1, *real(sums)[1:]])


def suffix_table_value(monkeypatch):
    # the first A value of the first group with a surviving digit, in a copy
    # of the cached table
    real = oracle._suffix_table

    def table(base, last_digit, width):
        groups = real(base, last_digit, width)
        i = next(i for i, (scale, _, _) in enumerate(groups) if scale > 1)
        scale, values, starts = groups[i]
        return [*groups[:i], (scale, [values[0] + 1, *values[1:]], starts), *groups[i + 1 :]]

    monkeypatch.setattr(oracle, "_suffix_table", table)


def power_sum_at_p2(monkeypatch):
    real = oracle._power_sum
    monkeypatch.setattr(oracle, "_power_sum", lambda segments, power: real(segments, 3 if power == 2 else power))


def power_sum_at_p0(monkeypatch):
    # one number too many per segment, where each segment adds its length
    real = oracle._power_sum
    monkeypatch.setattr(
        oracle, "_power_sum", lambda segments, power: real(segments, power) + (len(segments) if power == 0 else 0)
    )


def sweep_last_digit(monkeypatch):
    # the one-digit sweep's fix-up for a surviving last digit, one too large:
    # _walk rebuilt from its edited source in a copy of the module's namespace
    source = inspect.getsource(oracle._walk)
    assert source.count("* base + last_digit\n") == 1
    namespace = dict(vars(oracle))
    exec(source.replace("* base + last_digit\n", "* base + last_digit + 1\n"), namespace)
    monkeypatch.setattr(oracle, "_walk", namespace["_walk"])


def level_sums(monkeypatch):
    # S(p, 2) at b = 3 one too large in the proofs' enumeration, where
    # closedform and generalform imported it by name
    real = oracle.brute_moments

    def moments(base, power, kmax):
        return [s + (base == 3 and k == 2) for k, s in enumerate(real(base, power, kmax), 1)]

    monkeypatch.setattr(closedform, "brute_moments", moments)
    monkeypatch.setattr(generalform, "brute_moments", moments)


def numerator_coefficient(monkeypatch):
    # N_1's constant term one larger in the generating function kept with
    # the form, after _derive checked the form against it: a copy of the
    # form, from a stand-in for the cached _derive that leaves its cache alone
    real = generalform._derive.__wrapped__

    @lru_cache(maxsize=8)
    def derive(power):
        g = real(power)
        den, (first, *numerator), pole = g._gf
        faulted = GeneralForm(g.power, g.terms)
        object.__setattr__(faulted, "_gf", (den, [(first[0] + den, *first[1:]), *numerator], pole))
        return faulted

    monkeypatch.setattr(generalform, "_derive", derive)


def form_coefficient(monkeypatch):
    # rev(N) at the first family one larger, read after N: the form's
    # coefficient on that family is off, and N is not
    real = generalform.taylor_at_roots

    def read(numerator, roots):
        out = real(numerator, roots)
        first = next(iter(out))
        [value], den = out[first]
        return {**out, first: ([value + 1], den)}

    monkeypatch.setattr(generalform, "taylor_at_roots", read)


def eigenvalue_family(monkeypatch):
    # b + 1 in place of b, T(0, 0)'s diagonal entry and the first one read:
    # a fault of the reader of the update's diagonal, as the spectrum is not
    # written down anywhere else; generalform imported the function by name
    real = recurrence._spectrum

    def spectrum(base, power):
        first, *rest = real(base, power)
        return [first + 1, *rest]

    monkeypatch.setattr(recurrence, "_spectrum", spectrum)
    monkeypatch.setattr(generalform, "_spectrum", spectrum)


def fit_coefficient(monkeypatch):
    real = closedform.fit_closed_form

    def fit(*args, **kwargs):
        form = real(*args, **kwargs)
        (poly, lam), *rest = form.terms
        return ExponentialForm(form.base, form.power, ((poly[:-1] + (poly[-1] + 1,), lam), *rest))

    monkeypatch.setattr(closedform, "fit_closed_form", fit)


def recurrence_value():
    return moment_value(build_table(3, 2, 4), 2, 4)


def oracle_value():
    return brute_moment(MomentQuery(3, 2, 4))


def count_value():
    # 162 numbers, so the sum is their count
    return brute_moment(MomentQuery(3, 0, 4))


def swept_last_digit_value():
    # 6 numbers, below any block width, so the one-digit sweep sums them
    return brute_moment(MomentQuery(3, 2, 2, 1))


def level_values():
    return closedform.brute_moments(3, 2, 4)


def fitted_form():
    return closed_form(3, 2)[0]


def numerator_series():
    return generalform._series(generalform._derive(2), 3, 4)


def partial_fractions():
    # the symbolic read of S(2, .)'s generating function, as _derive makes it
    families = generalform.base_families(2)
    table = recurrence._build(generalform._B, 2, 4)
    sums = [moment_value(table, 2, k) for k in range(1, 5)]
    return generalform.taylor_at_roots(linalg.series_numerator(sums, linalg.pole_product(families)), families)


# row -> (fault, the faulted engine's output on the row's input, commands)
ROWS = {
    "F1": (power_sum_f1_plus_b, recurrence_value, (SUM, CHECK, CLOSED_FORM, GENERAL_FORM)),
    "update-weight": (update_weight, recurrence_value, (SUM, CHECK, CLOSED_FORM, GENERAL_FORM)),
    "seed": (seed_t000, recurrence_value, (SUM, CHECK, CLOSED_FORM, GENERAL_FORM)),
    "suffix-table": (suffix_table_value, oracle_value, (SUM, CHECK)),
    "power-sum": (power_sum_at_p2, oracle_value, (SUM, CHECK)),
    "power-zero": (power_sum_at_p0, count_value, (SUM_POWER_ZERO, CHECK)),
    "sweep-last-digit": (sweep_last_digit, swept_last_digit_value, (SUM_LAST_DIGIT, CHECK)),
    "level-sums": (level_sums, level_values, (CLOSED_FORM, GENERAL_FORM)),
    "eigenvalue-family": (eigenvalue_family, fitted_form, (CLOSED_FORM, GENERAL_FORM)),
    "fit-coefficient": (fit_coefficient, fitted_form, (CLOSED_FORM,)),
    "numerator-coefficient": (numerator_coefficient, numerator_series, (GENERAL_FORM,)),
    "form-coefficient": (form_coefficient, partial_fractions, (GENERAL_FORM,)),
}

# row -> the exit code of every command it lists: the recurrence faults keep
# the update's spectrum, so the proofs' brute-force checks, not their
# verdicts, refuse them; a wrong generating function fails general-form's
# check against brute force, and a form read wrong from a right one fails
# _derive's check of the form against it
EXIT = {row: 3 for row in ROWS} | {"eigenvalue-family": 4, "fit-coefficient": 4}


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    """_derive's and the recurrence check's caches cleared around each test,
    so that no result found with a fault outlives it, and no sum on the
    workers, which a fault made here would not reach."""

    def refuse(*args):
        raise AssertionError("a query reached the workers, which a fault made here does not reach")

    monkeypatch.setattr(oracle, "_sum_on_workers", refuse)
    generalform._derive.cache_clear()
    closedform.check_recurrence_against_brute.cache_clear()
    yield
    generalform._derive.cache_clear()
    closedform.check_recurrence_against_brute.cache_clear()


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (SUM, {"base": "3", "power": "2", "k": "4", "engine": "both"}),
        (CHECK, {"b_min": "2", "b_max": "3", "p_max": "2", "k_max": "4"}),
    ],
    ids=["sum", "check"],
)
def test_refuted_record_lists_the_inputs(monkeypatch, capsys, argv, inputs):
    power_sum_at_p2(monkeypatch)
    assert main([*argv, "--json"]) == EXIT["power-sum"]
    record = OutputRecord.from_json(capsys.readouterr().out)
    assert (record.command, record.inputs, record.status) == (argv[0], inputs, "refuted")


@pytest.mark.parametrize("row", ROWS)
def test_fault_changes_its_engine(monkeypatch, row):
    fault, output, _ = ROWS[row]
    clean = output()
    fault(monkeypatch)
    assert output() != clean


@pytest.mark.parametrize(
    "row, argv",
    [pytest.param(row, argv, id=f"{row}-{argv[0]}") for row, (_, _, commands) in ROWS.items() for argv in commands],
)
def test_fault_fails_the_command(monkeypatch, capsys, row, argv):
    ROWS[row][0](monkeypatch)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT[row], captured.out
    if code == 3 and argv[0] in ("closed-form", "general-form"):
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _single_faults(power):
    """Every single fault of the recurrence at this power: one weight
    (kind, e, c) of _update(power) made (kind, e, c + 1), or one entry of
    the seed made one larger."""
    rows = recurrence._update(power)
    reads = [
        pytest.param(power, ("update", s, i), id=f"p{power}-update-{s}-{i}")
        for s, row in enumerate(rows)
        for i in range(len(row))
    ]
    return reads + [pytest.param(power, ("seed", s, None), id=f"p{power}-seed-{s}") for s in range(len(rows))]


SINGLE_FAULTS = [case for p in range(1, 5) for case in _single_faults(p)]


def _apply(monkeypatch, power, fault):
    what, s, i = fault
    if what == "seed":
        real_seed = recurrence._seed
        monkeypatch.setattr(
            recurrence, "_seed", lambda sums: [x + 1 if j == s else x for j, x in enumerate(real_seed(sums))]
        )
        return
    real_update = recurrence._update

    def update(p):
        rows = list(real_update(p))
        if p == power:
            row = list(rows[s])
            (kind, e, c), source = row[i]
            row[i] = ((kind, e, c + 1), source)
            rows[s] = tuple(row)
        return tuple(rows)

    monkeypatch.setattr(recurrence, "_update", update)


def test_the_sweep_has_every_single_fault():
    assert len(SINGLE_FAULTS) == 8 + 19 + 36 + 60


@pytest.mark.parametrize("power, fault", SINGLE_FAULTS)
def test_single_fault_is_never_proven(monkeypatch, power, fault):
    depth = 2 * power + 1
    clean = build_table(3, power, depth)
    _apply(monkeypatch, power, fault)
    faulted = build_table(3, power, depth)
    assert any(moment_value(faulted, power, k) != moment_value(clean, power, k) for k in range(1, depth + 1))
    # the per-power part alone catches every one of them
    with pytest.raises(DisagreementError):
        closedform.check_recurrence_against_brute(power)
    try:
        _, verdict = closed_form(3, power)
    except (DisagreementError, NoFitError):
        pass
    else:
        assert verdict.status != "proven"
    with pytest.raises((DisagreementError, NoFitError)):
        guess_general_form(power, range(2, 13))


def test_a_fault_that_splits_a_family_exits_4(monkeypatch, capsys):
    # T(1, 1)'s growth b - 1 made 2b - 2 at p = 3: T(2, 1) still reads b - 1
    # of itself, so the diagonal has 2p + 1 distinct entries, one more than
    # the 2p values a fit reads
    s = recurrence._states(3).index((1, 1))
    assert recurrence._update(3)[s][0] == (("g", 1, 1), s)
    _apply(monkeypatch, 3, ("update", s, 0))
    with pytest.raises(NoFitError, match="has 7 diagonal entries, not 6"):
        recurrence._spectrum(3, 3)
    for argv in (("closed-form", "--base", "3", "--power", "3"), ("general-form", "--power", "3")):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 4, argv
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
