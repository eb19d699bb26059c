"""Fault-matrix tests: every failure mode x every backend recovers.

Each test injects failures on a seeded
:class:`~repro.runtime.faults.FaultSchedule` and asserts the sweep
still produces a map bit-identical to the fault-free serial reference
— the recovery paths are proven, not assumed.  The module is marked
``faults`` so CI can run it as a dedicated job under a hard timeout
(``pytest -m faults``).
"""

from __future__ import annotations

import pytest

from repro.evaluation.performance_map import build_performance_map
from repro.exceptions import (
    DetectorConfigurationError,
    SweepAbortedError,
    TransientTaskError,
)
from repro.io import checkpoint_load
from repro.runtime import (
    FaultSchedule,
    ResiliencePolicy,
    RetryPolicy,
    SweepEngine,
)
from repro.runtime.faults import FAULT_KINDS, apply_fault, wrap_factory

pytestmark = pytest.mark.faults

BACKENDS = ("serial", "process")
FAMILY = "stide"


@pytest.fixture(scope="module")
def reference_map(suite):
    """The fault-free serial map every faulted sweep must reproduce."""
    return build_performance_map(FAMILY, suite)


def _assert_identical(actual, reference, suite) -> None:
    for anomaly_size in suite.anomaly_sizes:
        for window_length in suite.window_lengths:
            assert actual.cell(anomaly_size, window_length) == reference.cell(
                anomaly_size, window_length
            )


def _faulted_sweep(suite, backend, schedule, checkpoint=None, **policy_kwargs):
    policy_kwargs.setdefault("retry", RetryPolicy(retries=2, backoff=0.001))
    policy = ResiliencePolicy(fault_schedule=schedule, **policy_kwargs)
    engine = SweepEngine(max_workers=2, executor=backend, resilience=policy)
    maps, report = engine.sweep_with_report([FAMILY], suite, checkpoint=checkpoint)
    return maps[FAMILY], report


def _fired_blocks(schedule, suite) -> list[int]:
    """Window lengths whose first attempt draws a fault (deterministic)."""
    return [
        window_length
        for window_length in suite.window_lengths
        if schedule.decide(f"{FAMILY}:{window_length}", 1) is not None
    ]


class TestFaultSchedule:
    def test_decisions_are_deterministic(self):
        schedule = FaultSchedule(rate=0.5, seed=9, kinds=FAULT_KINDS)
        decisions = [schedule.decide("stide:7", n) for n in range(1, 5)]
        assert decisions == [schedule.decide("stide:7", n) for n in range(1, 5)]

    def test_zero_rate_never_fires(self):
        schedule = FaultSchedule(rate=0.0)
        assert all(
            schedule.decide(f"stide:{w}", 1) is None for w in range(2, 16)
        )

    def test_attempts_past_max_are_exempt(self):
        schedule = FaultSchedule(rate=1.0, max_attempt=1)
        assert schedule.decide("stide:4", 1) == "raise"
        assert schedule.decide("stide:4", 2) is None

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"rate": -0.1},
            {"rate": 1.5},
            {"kinds": ("segfault",)},
            {"kinds": ()},
            {"max_attempt": 0},
            {"hang_seconds": 0.0},
        ),
    )
    def test_invalid_schedules_rejected(self, kwargs):
        with pytest.raises(DetectorConfigurationError):
            FaultSchedule(**kwargs)

    def test_crash_downgrades_outside_worker_processes(self):
        schedule = FaultSchedule(rate=1.0, kinds=("crash",))
        with pytest.raises(TransientTaskError, match="downgraded"):
            apply_fault(schedule, "stide:4", 1)

    def test_wrapped_factory_faults_at_construction(self):
        schedule = FaultSchedule(rate=1.0, kinds=("raise",))
        factory = wrap_factory(lambda window_length: window_length, schedule)
        with pytest.raises(TransientTaskError):
            factory(5)


class TestRaiseRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_raises_recover_bit_identically(
        self, backend, suite, reference_map
    ):
        schedule = FaultSchedule(rate=0.2, seed=7, kinds=("raise",))
        fired = _fired_blocks(schedule, suite)
        assert fired, "seed must inject at least one fault"
        performance_map, report = _faulted_sweep(suite, backend, schedule)
        _assert_identical(performance_map, reference_map, suite)
        assert report.total_retries >= len(fired)
        assert report.failed == 0
        assert report.degradations == ()


class TestHangRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hangs_time_out_and_recover_bit_identically(
        self, backend, suite, reference_map
    ):
        schedule = FaultSchedule(
            rate=0.15, seed=3, kinds=("hang",), hang_seconds=0.4
        )
        fired = _fired_blocks(schedule, suite)
        assert fired, "seed must inject at least one hang"
        performance_map, report = _faulted_sweep(
            suite, backend, schedule, task_timeout=0.1
        )
        _assert_identical(performance_map, reference_map, suite)
        assert report.total_retries >= len(fired)
        timed_out = [
            task for task in report.tasks if any("wall-clock" in e for e in task.errors)
        ]
        assert {t.window_length for t in timed_out} >= set(fired)


class TestLatencyFaults:
    def test_delay_is_deterministic_and_bounded(self):
        schedule = FaultSchedule(
            rate=1.0, kinds=("latency",), latency_seconds=0.02
        )
        delays = [schedule.latency_delay(f"stide:{w}", 1) for w in range(2, 16)]
        assert delays == [
            schedule.latency_delay(f"stide:{w}", 1) for w in range(2, 16)
        ]
        assert all(0.0 <= delay < 0.02 for delay in delays)
        assert len(set(delays)) > 1  # the draw actually varies by key

    def test_latency_stalls_then_proceeds(self):
        import time

        schedule = FaultSchedule(
            rate=1.0, kinds=("latency",), latency_seconds=0.02
        )
        started = time.monotonic()
        corrupt = apply_fault(schedule, "stide:4", 1)
        elapsed = time.monotonic() - started
        assert corrupt is False  # the task completes normally
        assert elapsed >= schedule.latency_delay("stide:4", 1)

    def test_invalid_latency_seconds_rejected(self):
        with pytest.raises(DetectorConfigurationError, match="latency_seconds"):
            FaultSchedule(latency_seconds=0.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slow_tasks_still_finish_bit_identically(
        self, backend, suite, reference_map
    ):
        # Unlike hang, latency stays below any armed timeout: the sweep
        # must succeed with zero retries, merely slower.
        schedule = FaultSchedule(
            rate=0.3, seed=2, kinds=("latency",), latency_seconds=0.02
        )
        fired = _fired_blocks(schedule, suite)
        assert fired, "seed must inject at least one latency stall"
        performance_map, report = _faulted_sweep(
            suite, backend, schedule, task_timeout=30.0
        )
        _assert_identical(performance_map, reference_map, suite)
        assert report.total_retries == 0
        assert report.failed == 0


class TestCorruptionRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_blocks_fail_validation_and_recover(
        self, backend, suite, reference_map
    ):
        schedule = FaultSchedule(rate=0.2, seed=11, kinds=("corrupt",))
        fired = _fired_blocks(schedule, suite)
        assert fired, "seed must inject at least one corruption"
        performance_map, report = _faulted_sweep(suite, backend, schedule)
        _assert_identical(performance_map, reference_map, suite)
        assert report.total_retries >= len(fired)
        corrupted = [
            task for task in report.tasks if any("corrupt" in e for e in task.errors)
        ]
        assert {t.window_length for t in corrupted} >= set(fired)


class TestBrokenPoolDegradation:
    def test_process_crash_degrades_to_serial(self, suite, reference_map):
        schedule = FaultSchedule(rate=0.15, seed=5, kinds=("crash",))
        assert _fired_blocks(schedule, suite), "seed must inject a crash"
        performance_map, report = _faulted_sweep(suite, "process", schedule)
        _assert_identical(performance_map, reference_map, suite)
        assert report.requested_backend == "process"
        assert report.final_backend == "serial"
        assert report.degradations
        assert report.degradations[0].startswith("process->serial")

    def test_degradation_can_be_disabled(self, suite):
        schedule = FaultSchedule(rate=0.15, seed=5, kinds=("crash",))
        with pytest.raises(SweepAbortedError, match="no degradation"):
            _faulted_sweep(suite, "process", schedule, degrade=False)

    @pytest.mark.parametrize("backend", ("serial",))
    def test_crash_downgrades_to_transient_off_process(
        self, backend, suite, reference_map
    ):
        schedule = FaultSchedule(rate=0.15, seed=5, kinds=("crash",))
        performance_map, report = _faulted_sweep(suite, backend, schedule)
        _assert_identical(performance_map, reference_map, suite)
        assert report.degradations == ()
        assert report.total_retries >= 1


class TestAcceptance:
    """ISSUE acceptance criteria, asserted end to end."""

    def test_twenty_percent_transient_failure_rate_is_bit_identical(
        self, suite, reference_map
    ):
        # Acceptance: a 20% injected transient failure rate must yield
        # a map bit-identical to the fault-free run.
        schedule = FaultSchedule(rate=0.2, seed=7, kinds=("raise", "corrupt"))
        for backend in BACKENDS:
            performance_map, report = _faulted_sweep(suite, backend, schedule)
            _assert_identical(performance_map, reference_map, suite)
            assert report.failed == 0

    def test_killed_sweep_resumes_from_checkpoint(
        self, suite, reference_map, tmp_path
    ):
        # Acceptance: a sweep killed mid-run resumes, skipping at least
        # the checkpointed fraction of cells (asserted via RunReport).
        checkpoint = tmp_path / "killed.jsonl"
        kill_schedule = FaultSchedule(rate=0.1, seed=2, kinds=("fatal",))
        with pytest.raises(SweepAbortedError) as excinfo:
            _faulted_sweep(
                suite,
                "serial",
                kill_schedule,
                retry=RetryPolicy(retries=0),
                checkpoint=checkpoint,
            )
        aborted_report = excinfo.value.report
        assert aborted_report is not None and aborted_report.failed == 1
        checkpointed = sum(
            len(cells) for cells in checkpoint_load(checkpoint).values()
        )
        assert 0 < checkpointed < suite.case_count()
        assert checkpointed == aborted_report.cells_completed

        engine = SweepEngine(executor="serial", resilience=ResiliencePolicy())
        maps, report = engine.sweep_with_report(
            [FAMILY], suite, checkpoint=checkpoint, resume_from=checkpoint
        )
        _assert_identical(maps[FAMILY], reference_map, suite)
        assert report.cells_resumed == checkpointed
        assert report.resumed_fraction >= checkpointed / suite.case_count()
        assert report.completed + report.resumed == len(suite.window_lengths)
