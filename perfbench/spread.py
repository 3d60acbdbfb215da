"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10                     # every workload
    python3 perfbench/spread.py --workloads general-form --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/CONTEXT.json

The runs go seed by seed, each seed over every workload in turn, so a slow
stretch of a shared machine falls on several workloads rather than on
consecutive seeds of one.  For every workload and end-to-end metric it
prints the median of the runs' values and the spread, (Q3 - Q1) / median
with the quartiles of statistics.quantiles(values, n=4), next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound is
marked "wide", one above the bound "OVER" (setup_s is held only to its
median, so its spread is shown but never marked).  --out also records the machine and run context: Python version, nproc,
cache sizes, commit hash and seeds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[label] = (index / "size").read_text().strip()
    return sizes


def commit_hash() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect outputs:\n{out.stderr}")
    return result, elapsed


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {name: [] for name in bounds} for w in names}
    run_s: dict[str, list[float]] = {w: [] for w in names}
    for seed in seeds:
        for workload in names:
            result, elapsed = run_once(workload, seed, spec["run_seconds"])
            run_s[workload].append(elapsed)
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)

    summary = {}
    for workload in names:
        durations = run_s[workload]
        print(f"{workload}: {len(seeds)} runs, {statistics.median(durations):.1f} s median run, "
              f"{max(durations):.1f} s longest")
        summary[workload] = {"run_s_median": statistics.median(durations), "metrics": {}}
        for name, bound in bounds.items():
            vals = values[workload][name]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            spread = (q3 - q1) / median
            mark = ""
            if name != "setup_s":
                mark = "OVER" if spread > bound else "wide" if spread > bound / 3 else "ok"
            print(f"  {name:12s} median {median:<14.6g} spread {spread:7.4f}  bound {bound}  {mark}")
            summary[workload]["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals,
            }

    if args.out:
        context = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cache": cache_sizes(),
            "commit": commit_hash(),
            "run_seconds": spec["run_seconds"],
            "order": "seed by seed, each seed over every workload in turn",
            "seeds": seeds,
        }
        args.out.write_text(json.dumps({"context": context, "workloads": summary}, indent=2) + "\n")


if __name__ == "__main__":
    main()
