"""Benchmark entry point: one workload, one seed, one measured window.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {maps,serve,fleet} --seed N \\
        --seconds S --trace {0,1}

Every measurement runs in fresh ``child.py`` processes.  An untraced
run (``--trace 0``) starts the workload in five processes one after
another; each sets up and then measures for a fifth of ``S``.
``setup_s`` is the median of the five set-ups, and the window metrics
pool the five windows, so one run samples the host at five moments
instead of one.  A traced run (``--trace 1``) starts one process that
measures for ``S``, traces every other op and prints the per-layer
table.

Human-readable lines (every metric with its unit and sample count, the
host probes, the state filesystem and every set-up time) come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every op verified; a run that cannot start (no ``src/``
beside ``perfbench/``, a child that crashes) exits non-zero without a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import DOCTOR_KINDS, END_TO_END, PER_LAYER, WORKLOADS, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where workloads keep their state; removed after every run.
WORKDIR = ROOT / ".perfbench-run"
#: Fresh processes per untraced run; each measures a fifth of the window.
PROCESSES = 5
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args, seconds: float, doctor: str | None, deadline: float) -> dict:
    """Start one fresh workload process and return its JSON result."""
    workdir = WORKDIR / f"{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if doctor:
        command += ["--doctor", doctor]
    try:
        command += ["--t0", repr(time.monotonic())]
        # A session of its own, so a timeout can stop the child together
        # with any server it started.
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise SystemExit(f"error: {args.workload} process timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if process.returncode != 0:
        raise SystemExit(
            f"error: {args.workload} process exited {process.returncode}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {args.workload} process printed no result")
    return json.loads(lines[-1])


def pool(results: list[dict]) -> dict:
    """End-to-end metrics over the windows of several processes."""
    attempted = sum(result["attempted"] for result in results)
    verified = sum(result["verified"] for result in results)
    latencies = [ms for result in results for ms in result["latencies_ms"]]
    return {
        "setup_s": [median(r["setup_s"] for r in results), len(results)],
        "ops_per_s": [verified / sum(r["wall_s"] for r in results), attempted],
        "op_p50_ms": [median(latencies), len(latencies)],
        "cpu_ms_per_op": [
            sum(r["cpu_s"] for r in results) * 1e3 / attempted,
            attempted,
        ],
        "peak_rss_mb": [median(r["peak_rss_mb"] for r in results), len(results)],
        "ok_share": [verified / attempted, attempted],
    }


def render(specs, measured: dict) -> tuple[list[str], dict]:
    """Table lines (value, unit, sample count) and the JSON ``metrics``.

    A metric without a value (a layer this workload does not run, or a
    tail percentile without enough samples beyond it) prints as ``-``
    and reads 0 in the JSON, always beside its sample count.
    """
    lines, metrics = [], {}
    for spec in specs:
        value, samples = measured.get(spec.name, [None, 0])
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {spec.name:<34} {shown:>12} {spec.unit:<6} n={samples}")
        metrics[spec.name] = {
            "value": 0.0 if value is None else value,
            "unit": spec.unit,
        }
    return lines, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--doctor",
        choices=DOCTOR_KINDS,
        default=None,
        help="corrupt one recorded result before verification "
        "(for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    count = 1 if args.trace else PROCESSES
    results = [
        # Only the last process is doctored: one wrong result must suffice.
        run_child(
            args,
            args.seconds / count,
            args.doctor if index == count - 1 else None,
            deadline,
        )
        for index in range(count)
    ]
    shutil.rmtree(WORKDIR, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        measured = results[0]["layers"]
    else:
        measured = pool(results)
    lines, metrics = render(PER_LAYER if args.trace else END_TO_END, measured)
    print("\n".join(lines))
    for result in results:
        info = result["info"]
        print(
            f"  set-up {result['setup_s']:.3f} s, window {result['wall_s']:.2f} s,"
            f" host probe {info['probe_ms'][0]:.2f} -> {info['probe_ms'][1]:.2f}"
            f" ms, state on {info['filesystem']}"
        )
    attempted = sum(result["attempted"] for result in results)
    failed = attempted - sum(result["verified"] for result in results)
    correct = all(result["setup_ok"] for result in results) and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
