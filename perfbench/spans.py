"""Per-layer spans recorded from the benchmark's own files.

``Tracer.install`` wraps every public function of the traced layers at each
name a caller resolves it through: the defining module and every rabot
module that imported it by name (``rabot.closedform.build_table``,
``rabot.generalform.closed_form``, ``rabot.generalform.solve_linear`` ...).
No file of the library changes.  A span records its function, layer, the
module it was resolved through, the op it belongs to, its parent span, start
and end, and the exact counts its arguments and result give.

Spans are kept in memory for one pass and folded into the per-layer metrics
by ``layer_metrics``.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("oracle", "recurrence", "closedform", "linalg", "generalform")

# Exact counts taken from a finished call: name -> f(args, result) -> counts.
# They run with tracing paused, so a library call made here records no span.
COUNTERS = {
    "brute_moment": lambda args, result: {"numbers": args[0].count()},
    "brute_moment_parallel": lambda args, result: {"numbers": args[0].count()},
    "extend": lambda args, result: {"k_steps": result.max_k - args[0].max_k},
    "verify": lambda args, result: {"proof_depth": result.checked_depth},
    "solve_linear": lambda args, result: {"unknowns": len(args[0][0]) if args[0] else 0},
    "guess_general_form": lambda args, result: {
        "families": len(sys.modules["rabot.generalform"].base_families(args[0]))
    },
}

# Counts that must repeat exactly between passes over one op list.
EXACT = (
    "oracle.numbers",
    "recurrence.calls",
    "recurrence.k_steps",
    "closedform.proof_depth",
    "closedform.fallback_calls",
    "linalg.solve_calls",
    "linalg.unknowns",
)


class Span:
    __slots__ = ("name", "layer", "via", "op", "parent", "start", "end", "ok", "counts")

    def __init__(self, name: str, layer: str, via: str, op: int, parent: int) -> None:
        self.name, self.layer, self.via, self.op, self.parent = name, layer, via, op, parent
        self.start = self.end = 0.0
        self.ok = False
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "rabot" or n.startswith("rabot.")]
        for layer in LAYERS:
            home = sys.modules[f"rabot.{layer}"]
            for name, fn in list(vars(home).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                for module in modules:
                    if vars(module).get(name) is fn:
                        self._patches.append((module, name, fn))
                        setattr(module, name, self._wrap(fn, layer, module.__name__))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patches):
            setattr(module, name, fn)
        self._patches.clear()

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts afresh."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, layer: str, via: str):
        counter = COUNTERS.get(fn.__name__)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(fn.__name__, layer, via, self.op, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                return result
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if span.ok and counter is not None:
                    self.enabled = False
                    try:
                        span.counts = counter(args, result)
                    finally:
                        self.enabled = True

        traced.__wrapped__ = fn
        return traced


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold one pass's spans into the per-layer metrics.

    busy: time inside a layer's outermost spans.  self: a span's duration
    minus its direct children's, summed over the layer.  Rates and ratios
    are 0 when the layer was not called.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.duration
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        self_s[span.layer] += span.duration - children[i]
        if span.parent < 0 or spans[span.parent].layer != span.layer:
            busy[span.layer] += span.duration

    def calls(name: str, via: str | None = None) -> list[Span]:
        return [s for s in spans if s.name == name and (via is None or s.via == via)]

    def total(group: list[Span], key: str | None = None) -> float:
        return sum((s.counts.get(key, 0) if key else s.duration for s in group), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    serial, parallel = calls("brute_moment"), calls("brute_moment_parallel")
    extend = calls("extend")
    fits = calls("fit_closed_form")
    fallback = calls("fit_recurrence_form")
    solves = calls("solve_linear")
    return {
        "oracle.busy_s": busy["oracle"],
        "oracle.numbers": int(total(serial + parallel, "numbers")),
        "oracle.numbers_per_s": ratio(total(serial, "numbers"), total(serial)),
        "oracle.parallel_numbers_per_s": ratio(total(parallel, "numbers"), total(parallel)),
        "recurrence.busy_s": busy["recurrence"],
        "recurrence.calls": len(extend),
        "recurrence.k_steps": int(total(extend, "k_steps")),
        "recurrence.us_per_k_step": ratio(total(extend) * 1e6, total(extend, "k_steps")),
        "closedform.self_s": self_s["closedform"],
        "closedform.fit_s": total(fits),
        "closedform.fit_ok_ratio": ratio(sum(s.ok for s in fits), len(fits)),
        "closedform.verify_s": total(calls("verify")),
        "closedform.proof_depth": int(total(calls("verify"), "proof_depth")),
        "closedform.fallback_calls": len(fallback),
        "closedform.fallback_s": total(fallback),
        "linalg.solve_calls": len(solves),
        "linalg.solve_s": busy["linalg"],
        "linalg.unknowns": int(total(solves, "unknowns")),
        "generalform.self_s": self_s["generalform"],
        "generalform.ratfit_ok_ratio": ratio(
            total(calls("guess_general_form"), "families"),
            len(calls("solve_linear", via="rabot.generalform")),
        ),
    }
