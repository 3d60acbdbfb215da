"""Exact arithmetic for the run-shortening (raboter) operation on base-b
digit strings: moment sums by brute force and by recurrence, proven
exponential closed forms in k, and forms uniform in b derived exactly."""

from .closedform import (
    ExponentialForm,
    Verdict,
    candidate_bases,
    closed_form,
    fit_closed_form,
    state_dimension_bound,
    verify,
)
from .digits import (
    DigitString,
    RunLengthForm,
    from_value,
    raboter,
    shorten_runs,
    to_runs,
    to_value,
)
from .errors import (
    DepthError,
    EnumerationCapError,
    ExcludedBaseError,
    InvalidBaseError,
    InvalidDigitError,
    NoFitError,
    WorkerError,
)
from .generalform import (
    GeneralForm,
    PolyInB,
    RationalFnInB,
    base_families,
    guess_general_form,
    specialize,
)
from .oeis import LookupResult, lookup
from .oracle import DEFAULT_ENUM_CAP, MomentQuery, brute_moment
from .recurrence import MomentTable, build_table, extend, moment_value

__version__ = "0.1.0"

__all__ = [
    "DigitString",
    "RunLengthForm",
    "from_value",
    "to_value",
    "to_runs",
    "shorten_runs",
    "raboter",
    "MomentQuery",
    "brute_moment",
    "DEFAULT_ENUM_CAP",
    "MomentTable",
    "extend",
    "build_table",
    "moment_value",
    "ExponentialForm",
    "Verdict",
    "candidate_bases",
    "fit_closed_form",
    "verify",
    "closed_form",
    "state_dimension_bound",
    "GeneralForm",
    "PolyInB",
    "RationalFnInB",
    "base_families",
    "guess_general_form",
    "specialize",
    "LookupResult",
    "lookup",
    "InvalidBaseError",
    "InvalidDigitError",
    "EnumerationCapError",
    "NoFitError",
    "WorkerError",
    "DepthError",
    "ExcludedBaseError",
    "__version__",
]
