"""E22 — serving: latency, throughput, chaos, and recovery time.

The engineering benchmark behind :mod:`repro.serve`.  Three scenarios:

* **clean** — an in-process server under a high-concurrency seeded
  load plan (enough simultaneous tenants that the micro-batcher
  actually fuses cross-tenant work); records p50/p99 request latency,
  scored streams/sec and the batch-formation stats (occupancy, flush
  reasons), and asserts the no-wrong-score invariant (the load
  generator verifies every returned score bit-exactly against a local
  reference).
* **chaos** — the pre-batching plan shape with every serving fault
  kind injected at a fixed rate, so fault behavior stays comparable
  across records.  Faults must surface as refusals and retries only:
  zero violations, all tenants fully trained by the end.
* **recovery** — the real CLI server in a subprocess, killed with
  SIGKILL mid-life and restarted on the same state directory; records
  the wall-clock from respawn to a ready, bit-identical service.

Results land in ``benchmarks/output/BENCH_serve.json`` (with the
machine calibration constant), which CI's
``check_bench_regression.py --require-serve`` holds against the
committed repo-root baseline.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from _artifacts import machine_calibration, write_artifact, write_json_artifact

from repro.serve import (
    SERVE_FAULT_KINDS,
    ChaosDirector,
    LoadPlan,
    ScoringServer,
    ServeFaultSchedule,
    run_load,
)
from repro.serve.loadgen import request

CHAOS_RATE = 0.3
CHAOS_SEED = 17
RECOVERY_TIMEOUT = 30.0


def _clean_plan(quick: bool) -> LoadPlan:
    """The throughput plan: wide tenant fan-out so batches form."""
    if quick:
        return LoadPlan.quick(seed=19)
    return LoadPlan(
        tenants=16,
        train_chunks=2,
        chunk_events=400,
        scores_per_tenant=128,
        test_events=200,
        seed=19,
    )


def _chaos_plan(quick: bool) -> LoadPlan:
    """The fault plan: the pre-batching shape, kept for comparability."""
    if quick:
        return LoadPlan.quick(seed=19)
    return LoadPlan(
        tenants=4,
        train_chunks=8,
        chunk_events=400,
        scores_per_tenant=24,
        test_events=200,
        seed=19,
    )


async def _in_process_run(tmp_path, plan, chaos=None):
    server = ScoringServer(tmp_path, chaos=chaos or ChaosDirector())
    await server.start()
    try:
        report = await run_load("127.0.0.1", server.port, plan)
        stats = server._stats()
    finally:
        await server.stop()
    return report, stats


def test_bench_serve(tmp_path, quick):
    clean_plan = _clean_plan(quick)

    # -- clean -----------------------------------------------------------
    report, stats = asyncio.run(
        _in_process_run(tmp_path / "clean", clean_plan)
    )
    assert report.violations == [], report.violations[:3]
    assert report.scores_ok == (
        clean_plan.tenants * clean_plan.scores_per_tenant
    )
    clean = report.summary()
    batch = stats["batch"]
    clean["batch"] = {
        key: batch[key]
        for key in (
            "max_batch",
            "max_wait_us",
            "jobs_in",
            "jobs_out",
            "refused",
            "flushes",
            "groups",
            "occupancy_mean",
            "occupancy_max",
        )
    }

    # -- chaos -----------------------------------------------------------
    plan = _chaos_plan(quick)
    chaos = ChaosDirector(
        ServeFaultSchedule(
            rate=CHAOS_RATE, seed=CHAOS_SEED, kinds=SERVE_FAULT_KINDS
        )
    )
    chaos_report, chaos_stats = asyncio.run(
        _in_process_run(tmp_path / "chaos", plan, chaos)
    )
    assert chaos_report.violations == [], chaos_report.violations[:3]
    # chaos may refuse individual requests, but retries must converge
    # every tenant to full training
    assert chaos_report.trains_ok == plan.tenants * plan.train_chunks
    chaos_summary = chaos_report.summary()
    chaos_summary["injected"] = dict(chaos.injected)
    chaos_summary["lane_restarts"] = sum(
        lane["restarts"] for lane in chaos_stats["lanes"].values()
    )

    # -- recovery --------------------------------------------------------
    recovery = _measure_recovery(tmp_path / "recover", quick)

    payload = {
        "bench": "serve",
        "calibration_seconds": round(machine_calibration(), 4),
        "plan": {
            "tenants": clean_plan.tenants,
            "train_chunks": clean_plan.train_chunks,
            "scores_per_tenant": clean_plan.scores_per_tenant,
            "seed": clean_plan.seed,
        },
        "chaos_plan": {
            "tenants": plan.tenants,
            "train_chunks": plan.train_chunks,
            "scores_per_tenant": plan.scores_per_tenant,
            "seed": plan.seed,
        },
        "clean": clean,
        "chaos": chaos_summary,
        "recovery": recovery,
        "quick": quick,
    }
    write_json_artifact("BENCH_serve", payload)
    write_artifact(
        "bench_serve",
        "\n".join(
            [
                "serving benchmark (E22)",
                f"  clean: p50 {clean['p50_ms']} ms, p99 {clean['p99_ms']} ms, "
                f"{clean['streams_per_sec']} streams/s",
                f"  batching: mean occupancy "
                f"{clean['batch']['occupancy_mean']} "
                f"(max {clean['batch']['occupancy_max']}), "
                f"{clean['batch']['groups']} fused groups",
                f"  chaos: {sum(chaos.injected.values())} faults injected, "
                f"{chaos_summary['violations']} violations",
                f"  recovery after SIGKILL: "
                f"{recovery['recovery_seconds']} s "
                f"({recovery['tenants']} tenants, bit-identical)",
            ]
        ),
    )


def _spawn(state_dir: Path, ready_file: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parent.parent / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(state_dir),
            "--ready-file",
            str(ready_file),
            "--snapshot-every",
            "2",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _await_port(ready_file: Path) -> int:
    deadline = time.monotonic() + RECOVERY_TIMEOUT
    while time.monotonic() < deadline:
        if ready_file.exists():
            text = ready_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.02)
    raise TimeoutError(f"server never wrote {ready_file}")


def _measure_recovery(root: Path, quick: bool) -> dict:
    root.mkdir(parents=True)
    state_dir = root / "state"
    plan = LoadPlan.quick(seed=23) if quick else LoadPlan(seed=23)

    server = _spawn(state_dir, root / "ready-1")
    try:
        port = _await_port(root / "ready-1")
        report = asyncio.run(run_load("127.0.0.1", port, plan))
        assert report.violations == []

        async def digests():
            out = {}
            for index in range(plan.tenants):
                tid = f"tenant-{index:02d}"
                _, info = await request(
                    "127.0.0.1", port, "GET", f"/v1/tenants/{tid}"
                )
                out[tid] = info["digest"]
            return out

        before = asyncio.run(digests())
    finally:
        server.kill()
        server.wait(timeout=10)
    assert server.returncode == -signal.SIGKILL

    started = time.perf_counter()
    revived = _spawn(state_dir, root / "ready-2")
    try:
        port = _await_port(root / "ready-2")

        async def ready_and_digests():
            status, body = await request("127.0.0.1", port, "GET", "/readyz")
            assert status == 200 and body["ready"]
            out = {}
            for tid in before:
                _, info = await request(
                    "127.0.0.1", port, "GET", f"/v1/tenants/{tid}"
                )
                out[tid] = info["digest"]
            return out

        after = asyncio.run(ready_and_digests())
        recovery_seconds = time.perf_counter() - started
    finally:
        revived.terminate()
        revived.wait(timeout=10)

    assert after == before, "recovered tenant state is not bit-identical"
    return {
        "recovery_seconds": round(recovery_seconds, 3),
        "tenants": len(before),
        "bit_identical": True,
    }
