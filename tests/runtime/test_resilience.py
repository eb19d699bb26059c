"""Tests for repro.runtime.resilience — retries, timeouts, checkpoints."""

from __future__ import annotations

import pytest

from repro.detectors.stide import StideDetector
from repro.evaluation.experiment import run_paper_experiment
from repro.evaluation.performance_map import CellResult, build_performance_map
from repro.evaluation.robustness import replicate_shapes, stide_shape
from repro.evaluation.scoring import DetectionOutcome, ResponseClass
from repro.exceptions import (
    CheckpointError,
    DetectorConfigurationError,
    EvaluationError,
    SweepAbortedError,
    TaskTimeoutError,
    TransientTaskError,
)
from repro.io import checkpoint_append, checkpoint_load
from repro.runtime import ResiliencePolicy, RetryPolicy, SweepEngine
from repro.runtime.resilience import ResilientRunner, SweepTask


def _assert_maps_identical(expected, actual, suite) -> None:
    assert expected.detector_name == actual.detector_name
    for anomaly_size in suite.anomaly_sizes:
        for window_length in suite.window_lengths:
            assert expected.cell(anomaly_size, window_length) == actual.cell(
                anomaly_size, window_length
            )


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(backoff=0.1, jitter=0.5, seed=42)
        assert policy.delay("stide:4", 1) == policy.delay("stide:4", 1)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff=0.1, backoff_factor=2.0, max_backoff=0.3, jitter=0.0
        )
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.3)  # capped
        assert policy.delay("k", 9) == pytest.approx(0.3)

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(backoff=1.0, backoff_factor=1.0, jitter=0.25)
        for attempt in range(1, 20):
            delay = policy.delay("key", attempt)
            assert 1.0 <= delay <= 1.25

    def test_keys_jitter_independently(self):
        policy = RetryPolicy(backoff=1.0, jitter=1.0, seed=0)
        assert policy.delay("a:1", 1) != policy.delay("b:1", 1)

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"retries": -1},
            {"backoff": -0.1},
            {"backoff_factor": 0.5},
            {"jitter": -0.1},
        ),
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(DetectorConfigurationError):
            RetryPolicy(**kwargs)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(DetectorConfigurationError, match="task_timeout"):
            ResiliencePolicy(task_timeout=0.0)


class TestFromArgs:
    """The shared ``--retries``/``--task-timeout`` CLI semantics."""

    class _Args:
        def __init__(self, retries=None, task_timeout=None):
            self.retries = retries
            self.task_timeout = task_timeout

    def test_no_flags_means_no_policy(self):
        assert ResiliencePolicy.from_args(self._Args()) is None
        assert ResiliencePolicy.from_args(object()) is None

    def test_retries_alone(self):
        policy = ResiliencePolicy.from_args(self._Args(retries=5))
        assert policy is not None
        assert policy.retry.retries == 5
        assert policy.task_timeout is None

    def test_timeout_alone_applies_default_retries(self):
        policy = ResiliencePolicy.from_args(self._Args(task_timeout=1.5))
        assert policy is not None
        assert policy.task_timeout == 1.5
        assert policy.retry.retries == 2

    def test_both_flags(self):
        policy = ResiliencePolicy.from_args(
            self._Args(retries=0, task_timeout=3.0)
        )
        assert policy is not None
        assert policy.retry.retries == 0
        assert policy.task_timeout == 3.0


def _task(key, fn, validate=None):
    """A task whose body ``fn`` runs inline or in a worker process."""
    name, _, window = key.partition(":")
    return SweepTask(
        key=key,
        name=name,
        window_length=int(window),
        run=fn,
        process_payload=(fn, ()),
        validate=validate,
    )


def _fast_policy(**kwargs) -> ResiliencePolicy:
    kwargs.setdefault("retry", RetryPolicy(retries=2, backoff=0.001))
    return ResiliencePolicy(**kwargs)


# Task bodies are module-level so the process backend can pickle them.


def _flaky(attempt: int):
    if attempt < 3:
        raise TransientTaskError("boom")
    return ("ok", attempt)


def _hopeless(attempt: int):
    raise TransientTaskError("always")


def _fatal(attempt: int):
    raise EvaluationError("bad inputs")


def _slow_once(attempt: int):
    import time as _time

    if attempt == 1:
        _time.sleep(0.4)
    return ("ok", None)


def _echo_attempt(attempt: int):
    return (attempt, None)


class TestResilientRunner:
    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_transient_failures_are_retried(self, backend):
        runner = ResilientRunner(_fast_policy(), backend, max_workers=2)
        results = {}
        runner.run(
            [_task("stide:4", _flaky)],
            lambda task, result: results.update({task.key: result}),
        )
        assert results["stide:4"] == ("ok", 3)
        (report,) = runner.task_reports()
        assert report.status == "completed"
        assert report.attempts == 3
        assert report.retried
        assert len(report.errors) == 2

    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_retry_budget_exhaustion_aborts(self, backend):
        runner = ResilientRunner(
            _fast_policy(retry=RetryPolicy(retries=1, backoff=0.001)),
            backend,
            max_workers=2,
        )
        with pytest.raises(SweepAbortedError, match="retry budget"):
            runner.run([_task("stide:4", _hopeless)], lambda *_: None)
        (report,) = runner.task_reports()
        assert report.status == "failed"
        assert report.attempts == 2

    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_fatal_errors_abort_immediately(self, backend):
        runner = ResilientRunner(_fast_policy(), backend, max_workers=2)
        with pytest.raises(SweepAbortedError, match="failed fatally"):
            runner.run([_task("stide:4", _fatal)], lambda *_: None)

    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_timeout_is_retried_as_transient(self, backend):
        runner = ResilientRunner(
            _fast_policy(task_timeout=0.1), backend, max_workers=2
        )
        results = {}
        runner.run(
            [_task("stide:4", _slow_once)],
            lambda task, result: results.update({task.key: result}),
        )
        assert results["stide:4"] == ("ok", None)
        (report,) = runner.task_reports()
        assert report.attempts == 2
        assert any("wall-clock" in error for error in report.errors)

    def test_timeout_error_is_transient(self):
        assert issubclass(TaskTimeoutError, TransientTaskError)

    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_validation_failures_are_retried(self, backend):
        def validate(result):
            if result[0] < 2:
                raise TransientTaskError("corrupt")

        runner = ResilientRunner(_fast_policy(), backend, max_workers=2)
        results = {}
        runner.run(
            [_task("stide:4", _echo_attempt, validate)],
            lambda t, result: results.update({t.key: result}),
        )
        assert results["stide:4"] == (2, None)

    def test_completed_tasks_survive_a_later_abort(self):
        def good(attempt: int):
            return ("done", None)

        def bad(attempt: int):
            raise EvaluationError("fatal")

        runner = ResilientRunner(_fast_policy(), "serial", max_workers=1)
        delivered = []
        with pytest.raises(SweepAbortedError):
            runner.run(
                [_task("stide:2", good), _task("stide:3", bad)],
                lambda task, _result: delivered.append(task.key),
            )
        assert delivered == ["stide:2"]
        statuses = {r.key: r.status for r in runner.task_reports()}
        assert statuses == {"stide:2": "completed", "stide:3": "failed"}


def _outcome(value: float) -> DetectionOutcome:
    return DetectionOutcome(
        response_class=ResponseClass.WEAK,
        max_in_span=value,
        max_outside_span=value / 3.0,
        span_start=7,
        span_stop=19,
        spurious_alarms=1,
    )


class TestCheckpointIO:
    def test_round_trip_is_bit_identical(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        # 0.1 + 0.2 exercises full float precision through JSON.
        original = CellResult(
            anomaly_size=3, window_length=5, outcome=_outcome(0.1 + 0.2)
        )
        checkpoint_append(path, "stide", original)
        loaded = checkpoint_load(path)
        assert loaded["stide"][(3, 5)] == original

    def test_append_accumulates_and_duplicates_last_write_wins(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        first = CellResult(anomaly_size=2, window_length=4, outcome=_outcome(0.5))
        second = CellResult(anomaly_size=2, window_length=4, outcome=_outcome(0.75))
        checkpoint_append(path, "markov", first)
        checkpoint_append(path, "markov", second)
        loaded = checkpoint_load(path)
        assert loaded["markov"][(2, 4)] == second

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            checkpoint_load(tmp_path / "absent.jsonl")

    def test_torn_tail_is_tolerated_even_in_strict_mode(self, tmp_path):
        # A SIGKILL mid-append can only truncate the LAST line; that
        # signature is recovered from (skip + recompute), never raised.
        path = tmp_path / "cells.jsonl"
        checkpoint_append(
            path,
            "stide",
            CellResult(anomaly_size=2, window_length=4, outcome=_outcome(0.5)),
        )
        with path.open("a") as handle:
            handle.write('{"detector": "stide", "anomaly_si')  # truncated
        recovered = checkpoint_load(path)
        assert (2, 4) in recovered["stide"]
        assert len(recovered["stide"]) == 1

    def test_mid_file_damage_still_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        checkpoint_append(
            path,
            "stide",
            CellResult(anomaly_size=2, window_length=4, outcome=_outcome(0.5)),
        )
        lines = path.read_text().splitlines()
        lines.insert(0, '{"detector": "stide", "anomaly_si')  # NOT the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            checkpoint_load(path)
        recovered = checkpoint_load(path, strict=False)
        assert (2, 4) in recovered["stide"]


class TestResilientSweep:
    @pytest.fixture(scope="class")
    def serial_map(self, suite):
        return build_performance_map("stide", suite)

    def test_clean_run_report(self, suite, serial_map):
        engine = SweepEngine(max_workers=2, resilience=ResiliencePolicy())
        maps, report = engine.sweep_with_report(["stide"], suite)
        _assert_maps_identical(serial_map, maps["stide"], suite)
        assert report.requested_backend == "process"
        assert report.final_backend == "process"
        assert report.degradations == ()
        assert report.completed == len(suite.window_lengths)
        assert report.failed == 0
        assert report.total_retries == 0
        assert report.cells_completed == suite.case_count()
        assert report.cells_resumed == 0
        assert "resilient sweep" in report.summary()

    def test_sweep_routes_through_resilient_path(self, suite, serial_map):
        engine = SweepEngine(executor="serial", resilience=ResiliencePolicy())
        maps = engine.sweep(["stide"], suite)
        _assert_maps_identical(serial_map, maps["stide"], suite)

    def test_plain_sweep_retries_a_transient_fault(self, suite, serial_map):
        # No policy configured: the engine's default one still retries.
        alphabet_size = suite.training.alphabet.size
        built = []

        def flaky_factory(window_length: int) -> StideDetector:
            built.append(window_length)
            if window_length == 5 and built.count(5) == 1:
                raise TransientTaskError("first DW 5 build fails")
            return StideDetector(window_length, alphabet_size)

        maps = SweepEngine(executor="serial").sweep([flaky_factory], suite)
        _assert_maps_identical(serial_map, maps["stide"], suite)
        assert built.count(5) == 2

    def test_plain_sweep_aborts_on_a_fatal_fault(self, suite):
        alphabet_size = suite.training.alphabet.size

        def broken_factory(window_length: int) -> StideDetector:
            if window_length == 5:
                raise EvaluationError("DW 5 is misconfigured")
            return StideDetector(window_length, alphabet_size)

        with pytest.raises(SweepAbortedError, match="failed fatally"):
            SweepEngine(executor="serial").sweep([broken_factory], suite)

    def test_checkpoint_streams_every_cell(self, suite, tmp_path):
        path = tmp_path / "sweep.jsonl"
        engine = SweepEngine(executor="serial")
        engine.sweep(["stide"], suite, checkpoint=path)
        loaded = checkpoint_load(path)
        assert len(loaded["stide"]) == suite.case_count()

    def test_resume_skips_checkpointed_blocks(self, suite, serial_map, tmp_path):
        path = tmp_path / "sweep.jsonl"
        engine = SweepEngine(executor="serial")
        engine.sweep(["stide"], suite, checkpoint=path)
        # Simulate a mid-run kill: keep only the first 6 blocks' cells.
        kept = 6 * len(suite.anomaly_sizes)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:kept]))
        maps, report = SweepEngine(executor="serial").sweep_with_report(
            ["stide"], suite, checkpoint=path, resume_from=path
        )
        _assert_maps_identical(serial_map, maps["stide"], suite)
        assert report.resumed == 6
        assert report.cells_resumed == kept
        assert report.completed == len(suite.window_lengths) - 6
        assert report.resumed_fraction == pytest.approx(
            kept / suite.case_count()
        )

    def test_partial_block_is_recomputed_in_full(self, suite, serial_map, tmp_path):
        path = tmp_path / "sweep.jsonl"
        SweepEngine(executor="serial").sweep(["stide"], suite, checkpoint=path)
        # Keep one full block plus half of the next one.
        block = len(suite.anomaly_sizes)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: block + block // 2]))
        maps, report = SweepEngine(executor="serial").sweep_with_report(
            ["stide"], suite, resume_from=path
        )
        _assert_maps_identical(serial_map, maps["stide"], suite)
        assert report.resumed == 1
        assert report.cells_resumed == block

    def test_resume_tolerates_a_kill_truncated_final_line(
        self, suite, serial_map, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        SweepEngine(executor="serial").sweep(["stide"], suite, checkpoint=path)
        # A kill mid-write leaves the last line torn; resume must
        # recompute that block, not abort.
        torn = path.read_text()[: len(path.read_text()) // 2].rstrip("\n")[:-30]
        path.write_text(torn)
        maps, report = SweepEngine(executor="serial").sweep_with_report(
            ["stide"], suite, resume_from=path
        )
        _assert_maps_identical(serial_map, maps["stide"], suite)
        assert report.resumed > 0

    def test_abort_attaches_partial_report(self, suite, tmp_path):
        from repro.runtime import FaultSchedule

        path = tmp_path / "aborted.jsonl"
        policy = ResiliencePolicy(
            retry=RetryPolicy(retries=0),
            fault_schedule=FaultSchedule(rate=0.1, seed=2, kinds=("fatal",)),
        )
        engine = SweepEngine(executor="serial", resilience=policy)
        with pytest.raises(SweepAbortedError) as excinfo:
            engine.sweep_with_report(["stide"], suite, checkpoint=path)
        report = excinfo.value.report
        assert report is not None
        assert report.failed == 1
        # Every completed block reached the checkpoint before the abort.
        checkpointed = sum(len(v) for v in checkpoint_load(path).values())
        assert checkpointed == report.cells_completed

    def test_run_paper_experiment_surfaces_run_report(self, suite):
        engine = SweepEngine(executor="serial", resilience=ResiliencePolicy())
        result = run_paper_experiment(
            suite=suite, detectors=("stide",), engine=engine
        )
        assert result.run_report is not None
        assert result.run_report.completed == len(suite.window_lengths)


class TestFailFastValidation:
    def test_process_executor_rejects_factories_before_any_work(self, suite):
        calls = []

        def factory(window_length: int):
            calls.append(window_length)
            raise AssertionError("factory must not run")

        engine = SweepEngine(executor="process", max_workers=2)
        with pytest.raises(EvaluationError, match="registered detector names"):
            engine.sweep([factory], suite)
        assert calls == []  # fail fast: the factory was never invoked
        assert len(engine.window_cache) == 0  # and nothing was packed

    def test_constructor_validates_before_touching_streams(self):
        with pytest.raises(EvaluationError, match="max_workers"):
            SweepEngine(max_workers=0)
        with pytest.raises(EvaluationError, match="unknown executor"):
            SweepEngine(executor="quantum")


class TestReplicationCheckpoints:
    def test_replications_reuse_per_seed_checkpoints(self, params, tmp_path):
        first = replicate_shapes(
            params,
            seeds=[11],
            detectors={"stide": stide_shape},
            checkpoint_dir=tmp_path,
        )
        checkpoint = tmp_path / "replication-seed11.jsonl"
        assert checkpoint.exists()
        cells = checkpoint_load(checkpoint)["stide"]
        before = dict(cells)
        # A re-run resumes from the checkpoint instead of recomputing:
        # the file's records are adopted unchanged (bit-identical).
        second = replicate_shapes(
            params,
            seeds=[11],
            detectors={"stide": stide_shape},
            checkpoint_dir=tmp_path,
        )
        assert checkpoint_load(checkpoint)["stide"] == before
        assert first.all_held == second.all_held
