"""Steadiness report: repeated runs of two sets, interleaved run by run.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 [--workloads maps fleet] \\
        [--b DIR]

Set A is this checkout; set B runs ``DIR/perfbench/run.py`` (by
default this checkout too, which measures the benchmark's own noise;
point ``--b`` at another checkout to compare it with this one).  Every
run measures ``run_seconds`` from ``BENCHMARK.json``.  Run ``i`` of
both sets uses seed ``i``; pairs alternate which set goes first, so
host drift falls on both sides alike.

For every end-to-end metric the report prints each set's median,
quartiles and spread ``(q3 - q1) / median`` against the metric's bound,
and how much worse B's median is than A's.  It names every metric whose
spread exceeds its bound, or whose medians differ by more than it in
either direction, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import END_TO_END, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    process = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(RUN_SECONDS),
            "--trace", "0",
        ],
        cwd=checkout,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if process.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as ``statistics.quantiles``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def worse(spec, a: float, b: float) -> float:
    """How much worse B's median is than A's, as a share of A's."""
    if not a:
        return 0.0
    change = (b - a) if spec.better == "lower" else (a - b)
    return change / a


def report(workload: str, sets: dict[str, list[dict]]) -> list[str]:
    misses = []
    print(f"\n{workload}: {len(sets['A'])} runs per set")
    print(
        f"  {'metric':<16} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12}"
        f" {'spread':>8} {'bound':>6}"
    )
    for spec in END_TO_END:
        medians = {}
        for label, runs in sets.items():
            values = [run[spec.name] for run in runs]
            middle, q1, q3, share = spread(values)
            medians[label] = middle
            flag = ""
            if share > spec.bound:
                flag = "  MISS"
                misses.append(f"{workload}/{spec.name} spread of set {label}")
            print(
                f"  {spec.name:<16} {label:<3} {middle:>12.6g} {q1:>12.6g}"
                f" {q3:>12.6g} {share:>8.4f} {spec.bound:>6}{flag}"
            )
        moved = worse(spec, medians["A"], medians["B"])
        # The sets must agree: B beating A by more than the bound is a
        # miss as well.
        flag = "  MISS" if abs(moved) > spec.bound else ""
        if flag:
            misses.append(f"{workload}/{spec.name} medians of B and A")
        print(f"  {spec.name:<16} B-A {moved:>+12.4f} worse share{flag}")
    return misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--b", type=Path, default=HERE.parent)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    misses = []
    for workload in args.workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for index in range(args.runs):
            seed = args.first_seed + index
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            for label in order:
                checkout = HERE.parent if label == "A" else args.b
                sets[label].append(run_once(checkout, workload, seed))
                print(f"  {workload} seed {seed} set {label}: {sets[label][-1]}", flush=True)
        misses += report(workload, sets)
    if misses:
        print("\nmetrics beyond their bound:")
        for miss in misses:
            print(f"  {miss}")
        return 1
    print("\nevery metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
