"""Chaos tests: every serving fault, zero wrong scores.

Marked ``faults`` so the dedicated CI fault-matrix job runs them; the
suite is small enough to also ride along in the default run.
"""

from __future__ import annotations

import asyncio
import tempfile

import numpy as np
import pytest

from repro.exceptions import DetectorConfigurationError
from repro.serve import (
    SERVE_FAULT_KINDS,
    ChaosDirector,
    LoadPlan,
    ScoringServer,
    ServeFaultSchedule,
    run_load,
)
from repro.serve.chaos import WorkerCrashFault

pytestmark = pytest.mark.faults


class TestServeFaultSchedule:
    def test_rejects_sweep_only_kinds(self):
        with pytest.raises(DetectorConfigurationError, match="unknown fault"):
            ServeFaultSchedule(rate=0.5, kinds=("raise",))

    def test_defaults_to_full_serving_vocabulary(self):
        schedule = ServeFaultSchedule(rate=0.5)
        assert schedule.kinds == SERVE_FAULT_KINDS

    def test_decisions_are_deterministic(self):
        a = ServeFaultSchedule(rate=0.5, seed=9)
        b = ServeFaultSchedule(rate=0.5, seed=9)
        keys = [f"t|score|{i}" for i in range(50)]
        assert [a.decide(k, 1) for k in keys] == [b.decide(k, 1) for k in keys]
        drawn = {a.decide(k, 1) for k in keys} - {None}
        assert drawn <= set(SERVE_FAULT_KINDS)
        assert drawn  # rate 0.5 over 50 keys draws something

    def test_retry_attempts_are_fault_free_by_default(self):
        schedule = ServeFaultSchedule(rate=1.0, seed=9)
        assert schedule.decide("k", 1) is not None
        assert schedule.decide("k", 2) is None


class TestChaosDirector:
    def test_inactive_director_is_a_no_op(self):
        director = ChaosDirector()
        events = np.asarray([1, 2, 3], dtype=np.int64)
        assert director.maybe_corrupt_events(events, 8, "k") is events
        assert not director.store_read_faulty("k")
        director.maybe_worker_crash("k")  # no raise
        assert not director.active

    def test_corruption_pushes_a_code_out_of_the_alphabet(self):
        schedule = ServeFaultSchedule(
            rate=1.0, seed=3, kinds=("corrupt-event",)
        )
        director = ChaosDirector(schedule)
        events = np.asarray([1, 2, 3, 4], dtype=np.int64)
        poisoned = director.maybe_corrupt_events(events, 8, "k")
        assert poisoned is not events
        assert events.tolist() == [1, 2, 3, 4]  # original untouched
        assert poisoned.max() >= 8  # detectable by validation
        assert (poisoned != events).sum() == 1

    def test_worker_crash_raises_base_exception(self):
        schedule = ServeFaultSchedule(
            rate=1.0, seed=3, kinds=("worker-crash",)
        )
        director = ChaosDirector(schedule)
        with pytest.raises(WorkerCrashFault):
            director.maybe_worker_crash("k")
        assert not isinstance(WorkerCrashFault("x"), Exception)

    def test_injections_are_counted(self):
        schedule = ServeFaultSchedule(rate=1.0, seed=3, kinds=("store-read",))
        director = ChaosDirector(schedule)
        assert director.store_read_faulty("k")
        assert director.injected == {"store-read": 1}


async def _chaos_run(kinds, rate=0.5, seed=11, plan_seed=5):
    with tempfile.TemporaryDirectory() as root:
        schedule = ServeFaultSchedule(rate=rate, seed=seed, kinds=kinds)
        chaos = ChaosDirector(schedule)
        server = ScoringServer(root, chaos=chaos)
        await server.start()
        try:
            report = await run_load(
                "127.0.0.1", server.port, LoadPlan.quick(seed=plan_seed)
            )
        finally:
            await server.stop()
        return report, chaos, server


class TestNoWrongScoreUnderChaos:
    """The invariant: faults produce refusals/retries, never bad bytes."""

    @pytest.mark.parametrize("kind", SERVE_FAULT_KINDS)
    def test_single_fault_kind(self, kind):
        report, chaos, _ = asyncio.run(_chaos_run((kind,)))
        assert report.violations == []
        if kind != "store-read":  # store-read only fires at recovery
            assert chaos.injected.get(kind, 0) > 0

    def test_all_fault_kinds_together(self):
        report, chaos, server = asyncio.run(
            _chaos_run(SERVE_FAULT_KINDS, rate=0.4)
        )
        assert report.violations == []
        assert sum(chaos.injected.values()) > 0
        # chaos or not, every tenant converged to full training
        assert report.trains_ok == 6

    def test_worker_crashes_restart_lanes(self):
        report, chaos, server = asyncio.run(
            _chaos_run(("worker-crash",), rate=0.6)
        )
        assert report.violations == []
        restarts = sum(
            lane.restarts for lane in server._lanes.values()
        )
        assert restarts == chaos.injected.get("worker-crash", 0)
        assert restarts > 0

    def test_store_read_fault_forces_full_log_recovery(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as root:
                server = ScoringServer(root, snapshot_every=1)
                await server.start()
                report = await run_load(
                    "127.0.0.1", server.port, LoadPlan.quick(seed=2)
                )
                digests = {
                    tid: state.digest()
                    for tid, state in server.tenants.tenants.items()
                }
                await server.stop()
                assert report.violations == []

                # restart with snapshot reads failing: recovery must
                # fall back to the full WAL, bit-identically
                chaos = ChaosDirector(
                    ServeFaultSchedule(
                        rate=1.0, seed=1, kinds=("store-read",)
                    )
                )
                revived = ScoringServer(root, chaos=chaos)
                await revived.start()
                try:
                    assert revived.recovery is not None
                    assert revived.recovery.from_snapshot == 0
                    assert revived.recovery.tenants == len(digests)
                    for tid, digest in digests.items():
                        assert (
                            revived.tenants.tenants[tid].digest() == digest
                        )
                finally:
                    await revived.stop()

        asyncio.run(scenario())
