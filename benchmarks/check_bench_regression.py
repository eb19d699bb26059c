"""CI guard: fail when the sweep benchmark regresses against baseline.

Compares a freshly produced ``benchmarks/output/BENCH_sweep.json``
against the committed baseline ``BENCH_sweep.json`` at the repo root.
Raw seconds are not comparable across machines, so both records carry
``calibration_seconds`` — the time of a fixed sort-dominated reference
workload on the machine that produced them (see
:func:`_artifacts.machine_calibration`) — and the baseline's sweep
time is rescaled by the calibration ratio before the comparison.  The
check fails (exit 1) when the calibrated sweep wall-clock regresses by
more than ``TOLERANCE``.

A missing baseline is a warning, not a failure: the first run on a new
branch (or a deliberate baseline refresh) must be able to produce the
artifact that later runs are held to.

Usage::

    python benchmarks/check_bench_regression.py \
        [--baseline BENCH_sweep.json] [--current benchmarks/output/BENCH_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Allowed calibrated slowdown before the check fails.
TOLERANCE = 0.25


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        print(f"warning: unreadable benchmark record {path}: {error}")
        return None


def check(baseline_path: Path, current_path: Path) -> int:
    baseline = _load(baseline_path)
    if baseline is None:
        print(
            f"warning: no baseline at {baseline_path}; skipping the "
            "regression check (commit benchmarks/output/BENCH_sweep.json "
            "from a clean run to arm it)"
        )
        return 0
    current = _load(current_path)
    if current is None:
        print(f"error: no fresh benchmark record at {current_path}")
        return 1

    required = ("sweep_seconds", "calibration_seconds")
    for record, label in ((baseline, "baseline"), (current, "current")):
        missing = [key for key in required if not record.get(key)]
        if missing:
            print(
                f"warning: {label} record lacks {', '.join(missing)}; "
                "skipping the regression check"
            )
            return 0

    # Rescale the baseline to this machine's speed: a baseline captured
    # on hardware 2x faster than CI would otherwise always "regress".
    scale = current["calibration_seconds"] / baseline["calibration_seconds"]
    allowed = baseline["sweep_seconds"] * scale * (1.0 + TOLERANCE)
    actual = current["sweep_seconds"]
    verdict = "OK" if actual <= allowed else "REGRESSION"
    print(
        f"sweep wall-clock: {actual:.3f} s vs calibrated baseline "
        f"{baseline['sweep_seconds']:.3f} s x {scale:.2f} "
        f"(allowed <= {allowed:.3f} s, tolerance {TOLERANCE:.0%}): {verdict}"
    )
    if actual > allowed:
        print(
            "error: sweep benchmark regressed beyond tolerance; if the "
            "slowdown is intentional, refresh the committed BENCH_sweep.json"
        )
        return 1
    return 0


def check_serve(
    baseline_path: Path, current_path: Path, require: bool = False
) -> int:
    """Gate the serving benchmark: correctness first, then speed.

    Correctness is absolute: a current record reporting any
    no-wrong-score violation — clean or chaos — fails outright,
    regression or not, and a record with a micro-batch section must
    balance its job ledger (jobs in == jobs out + refused).  Speed is
    calibrated like the sweep gate: clean *batched* streams/sec is
    held to a floor, clean p99 latency and recovery-after-SIGKILL to
    ceilings, each rescaled by the calibration ratio under the shared
    ``TOLERANCE``.  Batch occupancy gets a sanity floor rather than a
    calibrated one — with ``max_batch > 1`` and a fan-out plan, a mean
    occupancy collapsing to ~1 means the scheduler stopped batching
    even if throughput happens to pass on a fast machine.

    A missing *current* record is a warning by default (most CI jobs
    never run the serving benchmark) and an error under ``require``
    (the serve-smoke job, whose whole point is producing it).
    """
    current = _load(current_path)
    if current is None:
        if require:
            print(f"error: no fresh serve benchmark record at {current_path}")
            return 1
        print(
            f"note: no serve record at {current_path}; skipping the serve "
            "gate (run `pytest benchmarks/bench_serve.py` to produce one)"
        )
        return 0

    violations = sum(
        int(current.get(scenario, {}).get("violations", 0))
        for scenario in ("clean", "chaos")
    )
    if violations:
        print(
            f"error: serve benchmark reports {violations} no-wrong-score "
            "violation(s); this gate has no tolerance for wrong scores"
        )
        return 1
    recovery = current.get("recovery", {})
    if not recovery.get("bit_identical"):
        print("error: serve recovery was not bit-identical after SIGKILL")
        return 1
    batch = current.get("clean", {}).get("batch")
    if batch:
        settled = int(batch.get("jobs_out", 0)) + int(
            batch.get("refused", 0)
        )
        if settled != int(batch.get("jobs_in", 0)):
            print(
                f"error: micro-batch ledger does not balance "
                f"(jobs_in {batch.get('jobs_in')} != jobs_out + refused "
                f"{settled}); a score job entered the scheduler and "
                "never resolved"
            )
            return 1
        occupancy = float(batch.get("occupancy_mean", 0.0))
        # Quick records run a 2-tenant plan where near-solo batches
        # are legitimate; the occupancy floor binds on the fan-out
        # plan only.
        if (
            not current.get("quick")
            and int(batch.get("max_batch", 1)) > 1
            and occupancy < 1.5
        ):
            print(
                f"error: mean batch occupancy {occupancy:.2f} is below "
                "the 1.5 sanity floor — the scheduler is not actually "
                "fusing cross-tenant work under the fan-out plan"
            )
            return 1
        print(
            f"serve batching: occupancy mean {occupancy:.2f} "
            f"(max {batch.get('occupancy_max')}), ledger balanced "
            f"({batch.get('jobs_in')} in == {settled} settled): OK"
        )

    baseline = _load(baseline_path)
    if baseline is None:
        print(
            f"warning: no serve baseline at {baseline_path}; correctness "
            "checked, rate gate skipped (commit "
            "benchmarks/output/BENCH_serve.json to arm it)"
        )
        return 0
    if baseline.get("plan") != current.get("plan"):
        print(
            f"note: serve plans differ (baseline {baseline.get('plan')} "
            f"vs current {current.get('plan')}); rate gate skipped, "
            "correctness gates applied"
        )
        return 0
    for record, label in ((baseline, "baseline"), (current, "current")):
        if not record.get("calibration_seconds"):
            print(
                f"warning: {label} serve record lacks calibration_seconds; "
                "skipping the rate gate"
            )
            return 0
    # scale > 1 means this machine is slower than the baseline's.
    scale = current["calibration_seconds"] / baseline["calibration_seconds"]

    failed = 0
    floor_rate = baseline.get("clean", {}).get("streams_per_sec")
    rate = current.get("clean", {}).get("streams_per_sec")
    if floor_rate and rate:
        floor = floor_rate / scale * (1.0 - TOLERANCE)
        verdict = "OK" if rate >= floor else "REGRESSION"
        print(
            f"serve throughput: {rate:.1f} streams/s vs calibrated "
            f"baseline {floor_rate:.1f} / {scale:.2f} "
            f"(floor >= {floor:.1f}, tolerance {TOLERANCE:.0%}): {verdict}"
        )
        failed += rate < floor
    for metric, path in (
        ("p99_ms", ("clean", "p99_ms")),
        ("recovery_seconds", ("recovery", "recovery_seconds")),
    ):
        reference = baseline.get(path[0], {}).get(path[1])
        actual = current.get(path[0], {}).get(path[1])
        if not reference or not actual:
            continue
        ceiling = reference * scale * (1.0 + TOLERANCE)
        verdict = "OK" if actual <= ceiling else "REGRESSION"
        print(
            f"serve {metric}: {actual:.3f} vs calibrated baseline "
            f"{reference:.3f} x {scale:.2f} "
            f"(ceiling <= {ceiling:.3f}, tolerance {TOLERANCE:.0%}): {verdict}"
        )
        failed += actual > ceiling
    if failed:
        print(
            "error: serve benchmark regressed beyond tolerance; if the "
            "slowdown is intentional, refresh the committed BENCH_serve.json"
        )
        return 1
    return 0


def check_fleet(
    baseline_path: Path, current_path: Path, require: bool = False
) -> int:
    """Gate the fleet benchmark: correctness first, then speed.

    Correctness is absolute: any cold refit at steady state, any
    delta-vs-refit divergence, or a traffic-weighted delta speedup
    below the record's own floor fails outright — these hold on any
    machine, no calibration involved.  Speed (steady-state events/sec
    floor, p99 touch-latency ceiling) is calibrated like the other
    gates, but only when baseline and current ran the same fleet size:
    a 5k-tenant quick record is not comparable to the committed
    100k-tenant baseline.

    A missing *current* record is a warning by default and an error
    under ``require`` (the fleet-smoke CI job).
    """
    current = _load(current_path)
    if current is None:
        if require:
            print(f"error: no fresh fleet benchmark record at {current_path}")
            return 1
        print(
            f"note: no fleet record at {current_path}; skipping the fleet "
            "gate (run `pytest benchmarks/bench_fleet.py` to produce one)"
        )
        return 0

    steady = current.get("steady_state", {})
    if int(steady.get("cold_refits", 0)):
        print(
            f"error: fleet steady state performed "
            f"{steady['cold_refits']} cold refit(s); every touch must be "
            "a delta update or a warm revival with delta replay"
        )
        return 1
    if int(steady.get("diverged", 0)):
        print(
            f"error: fleet reports {steady['diverged']} delta-fit "
            "divergence(s) from the cold-refit reference"
        )
        return 1
    speedup = current.get("speedup", {})
    weighted = speedup.get("traffic_weighted")
    floor = speedup.get("floor")
    if weighted is not None and floor is not None:
        verdict = "OK" if weighted >= floor else "REGRESSION"
        print(
            f"fleet delta speedup: {weighted:.1f}x traffic-weighted "
            f"(floor >= {floor:.1f}x): {verdict}"
        )
        if weighted < floor:
            print("error: delta-fit speedup fell below the record's floor")
            return 1

    baseline = _load(baseline_path)
    if baseline is None:
        print(
            f"warning: no fleet baseline at {baseline_path}; correctness "
            "checked, rate gate skipped (commit "
            "benchmarks/output/BENCH_fleet.json to arm it)"
        )
        return 0
    if baseline.get("tenants") != current.get("tenants"):
        print(
            f"note: fleet sizes differ (baseline {baseline.get('tenants')} "
            f"vs current {current.get('tenants')} tenants); rate gate "
            "skipped, correctness gates applied"
        )
        return 0
    for record, label in ((baseline, "baseline"), (current, "current")):
        if not record.get("calibration_seconds"):
            print(
                f"warning: {label} fleet record lacks calibration_seconds; "
                "skipping the rate gate"
            )
            return 0
    # scale > 1 means this machine is slower than the baseline's.
    scale = current["calibration_seconds"] / baseline["calibration_seconds"]

    failed = 0
    floor_rate = baseline.get("steady_state", {}).get("events_per_sec")
    rate = steady.get("events_per_sec")
    if floor_rate and rate:
        floor = floor_rate / scale * (1.0 - TOLERANCE)
        verdict = "OK" if rate >= floor else "REGRESSION"
        print(
            f"fleet throughput: {rate:.1f} events/s vs calibrated "
            f"baseline {floor_rate:.1f} / {scale:.2f} "
            f"(floor >= {floor:.1f}, tolerance {TOLERANCE:.0%}): {verdict}"
        )
        failed += rate < floor
    reference = baseline.get("steady_state", {}).get("p99_touch_ms")
    actual = steady.get("p99_touch_ms")
    if reference and actual:
        ceiling = reference * scale * (1.0 + TOLERANCE)
        verdict = "OK" if actual <= ceiling else "REGRESSION"
        print(
            f"fleet p99 touch: {actual:.3f} ms vs calibrated baseline "
            f"{reference:.3f} x {scale:.2f} "
            f"(ceiling <= {ceiling:.3f}, tolerance {TOLERANCE:.0%}): {verdict}"
        )
        failed += actual > ceiling
    if failed:
        print(
            "error: fleet benchmark regressed beyond tolerance; if the "
            "slowdown is intentional, refresh the committed BENCH_fleet.json"
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_sweep.json",
        help="committed baseline record (default: repo-root BENCH_sweep.json)",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "output" / "BENCH_sweep.json",
        help="freshly produced record to judge",
    )
    parser.add_argument(
        "--serve-baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_serve.json",
        help="committed serving baseline (default: repo-root BENCH_serve.json)",
    )
    parser.add_argument(
        "--serve-current",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "output" / "BENCH_serve.json",
        help="freshly produced serving record to judge",
    )
    parser.add_argument(
        "--require-serve",
        action="store_true",
        help="fail when the fresh serving record is missing (the "
        "serve-smoke CI job)",
    )
    parser.add_argument(
        "--serve-only",
        action="store_true",
        help="run only the serving gate (skip the sweep and fleet gates)",
    )
    parser.add_argument(
        "--fleet-baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_fleet.json",
        help="committed fleet baseline (default: repo-root BENCH_fleet.json)",
    )
    parser.add_argument(
        "--fleet-current",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "output" / "BENCH_fleet.json",
        help="freshly produced fleet record to judge",
    )
    parser.add_argument(
        "--require-fleet",
        action="store_true",
        help="fail when the fresh fleet record is missing (the "
        "fleet-smoke CI job)",
    )
    parser.add_argument(
        "--fleet-only",
        action="store_true",
        help="run only the fleet gate (skip the sweep and serve gates)",
    )
    args = parser.parse_args(argv)
    sweep_rc: int | None = None
    if not (args.serve_only or args.fleet_only):
        sweep_rc = check(args.baseline, args.current)
    serve_rc: int | None = None
    if not args.fleet_only:
        serve_rc = check_serve(
            args.serve_baseline, args.serve_current, require=args.require_serve
        )
    fleet_rc: int | None = None
    if not args.serve_only:
        fleet_rc = check_fleet(
            args.fleet_baseline, args.fleet_current, require=args.require_fleet
        )

    # One line per gate so the canonical CI job (bench-gates) shows at
    # a glance which check tripped; the diff detail is printed above by
    # the gate itself.
    gates = (
        ("sweep", sweep_rc),
        ("serve", serve_rc),
        ("fleet", fleet_rc),
    )
    print("gate summary:")
    for name, rc in gates:
        state = "skipped" if rc is None else ("PASS" if rc == 0 else "FAIL")
        print(f"  {name}: {state}")
    tripped = [name for name, rc in gates if rc]
    if tripped:
        print(f"error: tripped gate(s): {', '.join(tripped)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
