"""Benchmark for rabot: one seeded workload per run, outputs checked, and one
JSON result line at the end of stdout.

Run from the root of a checkout (the library is imported from its src/):

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes (at least two of each); the traced
ones give the per-layer metrics, and their exact counts must repeat or the
run fails.  The
metric names and units are those declared in BENCHMARK.json.  See
perfbench/README.md for the workloads and the definition of every metric.

Exit codes: 0 result printed; 2 the checkout lacks src/rabot or
BENCHMARK.json, or the workload is unknown; 3 no result could be produced
(a fresh start failed, for example because its warm-up raised; exact counts
differed between traced passes; or the metrics do not match
BENCHMARK.json).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 60
MAX_REPORTED_ERRORS = 5


class HarnessError(Exception):
    """The benchmark itself misbehaved; no result is printed."""


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    outputs: list[object]
    layers: dict[str, float] = field(default_factory=dict)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(name: str, seed: int) -> None:
    """Child side of one fresh start: import, draw the ops, warm up, report."""
    t0 = perf_counter()
    import workloads

    t1 = perf_counter()
    workload = workloads.WORKLOADS[name]()
    workload.ops(random.Random(seed))
    workload.warm_up()
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}), flush=True)


def measure_setup(name: str, seed: int) -> dict[str, float]:
    """Median over fresh interpreters of the time to the first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--seconds", "0"]
    starts, imports, warmups = [], [], []
    for _ in range(SETUP_STARTS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if code != 0 or not line:
            raise HarnessError(f"setup start exited with code {code}")
        report = json.loads(line)
        starts.append(elapsed)
        imports.append(report["import_s"])
        warmups.append(report["warmup_s"])
    return {
        "setup_s": statistics.median(starts),
        "setup.import_s": statistics.median(imports),
        "setup.warmup_s": statistics.median(warmups),
    }


def run_pass(workload, ops: list[tuple], tracer=None) -> Pass:
    """One closed-loop pass: each op is issued when the previous one returned."""
    latencies, outputs = [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    return Pass(perf_counter() - start, latencies, outputs)


def count_failures(check, ops: list[tuple], passes: list[Pass]) -> int:
    failed = 0
    for p in passes:
        for op, out in zip(ops, p.outputs):
            try:
                ok = not isinstance(out, Exception) and check(op, out)
            except Exception as exc:  # a check that raises fails the op
                ok, out = False, exc
            if not ok:
                if failed < MAX_REPORTED_ERRORS:
                    detail = (
                        "".join(traceback.format_exception(out)).rstrip()
                        if isinstance(out, Exception) else "wrong output"
                    )
                    print(f"perfbench: op {op} failed: {detail}", file=sys.stderr)
                failed += 1
    return failed


def timed_passes(workload, ops: list[tuple], seconds: float, tracer=None) -> tuple[list[Pass], list[Pass]]:
    """Whole passes until `seconds` have passed, at least two of each kind.

    With a tracer, untraced and traced passes alternate, so the slow and
    fast phases of a shared machine fall on both kinds alike.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while len(plain) < 2 or (tracer and len(traced) < 2) or perf_counter() - start < seconds:
        if tracer is None or len(traced) == len(plain):
            plain.append(run_pass(workload, ops))
            continue
        tracer.enabled = True
        try:
            p = run_pass(workload, ops, tracer)
        finally:
            tracer.enabled = False
        p.layers = spans.layer_metrics(tracer.take())
        traced.append(p)
    return plain, traced


def best_latencies(passes: list[Pass]) -> list[float]:
    """Each op's fastest latency over the passes.

    Other tenants of a shared machine slow single passes by 10-40% for
    seconds at a time; the minimum over passes filters that out.
    """
    return [min(times) for times in zip(*(p.latencies for p in passes))]


def layer_report(traced: list[Pass]) -> dict[str, float]:
    """Per-layer metrics over the traced passes: exact counts must repeat."""
    for key in spans.EXACT:
        counts = [p.layers[key] for p in traced]
        if len(set(counts)) != 1:
            raise HarnessError(f"exact count {key} differs between traced passes: {counts}")
    return {
        key: traced[0].layers[key] if key in spans.EXACT else statistics.median(p.layers[key] for p in traced)
        for key in traced[0].layers
    }


def declared(section: str) -> dict[str, str | None]:
    """Names in a section of BENCHMARK.json, mapped to their unit where they have one."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("unit") for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rabot" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} holds no src/rabot or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.workload not in declared("workloads"):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    try:
        setup = measure_setup(args.workload, args.seed)
        import workloads

        workload = workloads.WORKLOADS[args.workload]()
        ops = workload.ops(random.Random(args.seed))
        workload.warm_up()
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                plain, traced = timed_passes(workload, ops, args.seconds, tracer)
            finally:
                tracer.uninstall()
            trace_wall = sum(best_latencies(traced))
            metrics = layer_report(traced)
            metrics.update({
                "setup.import_s": setup["setup.import_s"],
                "setup.warmup_s": setup["setup.warmup_s"],
                "trace.wall_s": trace_wall,
                "trace.overhead_s": trace_wall - sum(best_latencies(plain)),
            })
            units = declared("per_layer")
        else:
            plain, traced = timed_passes(workload, ops, args.seconds)
            best = best_latencies(plain)
            metrics = {
                "wall_s": sum(best),
                "op_p50_ms": statistics.median(best) * 1e3,
                "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
                "setup_s": setup["setup_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = declared("end_to_end")
        if set(metrics) != set(units):
            raise HarnessError(
                f"measured metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
            )
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    all_passes = plain + traced
    attempted = len(ops) * len(all_passes)
    failed = count_failures(workloads.Checker(workload), ops, all_passes)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}"
    )
    print(
        f"perfbench: passes={len(plain)} traced_passes={len(traced)} ops_per_pass={len(ops)} "
        f"latency_samples={len(ops)} setup_starts={SETUP_STARTS}"
    )
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    print(f"fail_ratio = {failed / attempted} ({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
