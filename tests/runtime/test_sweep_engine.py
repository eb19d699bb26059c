"""Tests for repro.runtime.engine — parallel/sequential equivalence."""

from __future__ import annotations

import glob
import os
import pickle
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datagen.suite import build_suite
from repro.datagen.training import generate_training_data
from repro.detectors.registry import available_detectors, create_detector
from repro.detectors.stide import StideDetector
from repro.evaluation.experiment import run_paper_experiment
from repro.evaluation.performance_map import build_performance_map
from repro.evaluation.robustness import (
    full_coverage_shape,
    replicate_shapes,
    stide_shape,
)
from repro.exceptions import EvaluationError
from repro.params import scaled_params
from repro.runtime import SweepEngine, WindowCache
from repro.runtime import engine as engine_module
from repro.runtime.resilience import ResilientRunner, handoff_prefix

REPO = Path(__file__).resolve().parents[2]

#: The families sharing the window cache in the tentpole sweep.
FAMILIES = ("stide", "t-stide", "markov", "lane-brodley")


def _assert_maps_identical(expected, actual, suite) -> None:
    """Cell-for-cell equality over the full grid."""
    assert expected.detector_name == actual.detector_name
    assert expected.anomaly_sizes == actual.anomaly_sizes
    assert expected.window_lengths == actual.window_lengths
    for anomaly_size in suite.anomaly_sizes:
        for window_length in suite.window_lengths:
            assert expected.cell(anomaly_size, window_length) == actual.cell(
                anomaly_size, window_length
            ), (
                f"{expected.detector_name} cell (AS={anomaly_size}, "
                f"DW={window_length}) differs between serial and engine"
            )


class TestParallelSequentialEquivalence:
    @pytest.fixture(scope="class")
    def serial_maps(self, suite):
        return {name: build_performance_map(name, suite) for name in FAMILIES}

    def test_default_sweep_matches_serial_cell_for_cell(self, suite, serial_maps):
        engine = SweepEngine(max_workers=2)
        assert engine.executor == "process"
        engine_maps = engine.sweep(FAMILIES, suite)
        for name in FAMILIES:
            _assert_maps_identical(serial_maps[name], engine_maps[name], suite)

    def test_serial_executor_matches_serial_loop(self, suite, serial_maps):
        engine_maps = SweepEngine(executor="serial").sweep(FAMILIES, suite)
        for name in FAMILIES:
            _assert_maps_identical(serial_maps[name], engine_maps[name], suite)

    def test_run_paper_experiment_engine_wiring(self, suite, serial_maps):
        result = run_paper_experiment(
            suite=suite,
            detectors=("stide", "lane-brodley"),
            engine=SweepEngine(max_workers=2),
        )
        for name in ("stide", "lane-brodley"):
            _assert_maps_identical(serial_maps[name], result.map_for(name), suite)

    def test_factory_spec_matches_name_spec(self, suite, serial_maps):
        alphabet_size = suite.training.alphabet.size

        def factory(window_length: int) -> StideDetector:
            return StideDetector(window_length, alphabet_size)

        engine_maps = SweepEngine(max_workers=2).sweep([factory], suite)
        _assert_maps_identical(serial_maps["stide"], engine_maps["stide"], suite)

    def test_engine_less_experiment_sweeps_serially(self, suite, serial_maps):
        result = run_paper_experiment(suite=suite, detectors=("stide", "markov"))
        # No engine given: one serial sweep, never a pool.
        assert result.run_report.requested_backend == "serial"
        assert result.run_report.final_backend == "serial"
        for name in ("stide", "markov"):
            _assert_maps_identical(serial_maps[name], result.map_for(name), suite)


class TestOneScorePath:
    @pytest.mark.parametrize("name", available_detectors())
    def test_cached_score_stream_equals_uncached(self, suite, name):
        """A cached ``score_stream`` scores each distinct window once and
        scatters the responses back; it must equal the uncached path,
        which scores every window, bit for bit on every test stream."""
        windows = (2, 6, 15) if name == "neural-network" else suite.window_lengths
        cache = WindowCache()
        for window in windows:
            detector = create_detector(
                name, window, suite.training.alphabet.size
            ).fit(suite.training.stream)
            for anomaly_size in suite.anomaly_sizes:
                stream = suite.stream(anomaly_size).stream
                direct = detector.attach_cache(None).score_stream(stream)
                cached = detector.attach_cache(cache).score_stream(stream)
                distinct, _inverse = cache.unique(stream, window)
                assert len(distinct) < len(direct)
                assert cached.tobytes() == direct.tobytes(), (
                    f"{name} AS={anomaly_size} DW={window}"
                )


class TestEngineValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(EvaluationError, match="unknown executor"):
            SweepEngine(executor="fibers")
        with pytest.raises(EvaluationError, match="unknown executor"):
            SweepEngine(executor="thread")

    def test_backend_follows_worker_count_and_specs(self, suite):
        alphabet_size = suite.training.alphabet.size

        def factory(window_length: int) -> StideDetector:
            return StideDetector(window_length, alphabet_size)

        assert SweepEngine(max_workers=1).executor == "serial"
        engine = SweepEngine(max_workers=2)
        assert engine.executor == "process"
        # Factory specs cannot be pickled into a worker: they run serial.
        _map, report = engine.sweep_with_report([factory], suite)
        assert report.requested_backend == "serial"

    def test_zero_workers_rejected(self):
        with pytest.raises(EvaluationError, match="max_workers"):
            SweepEngine(max_workers=0)

    def test_empty_detector_list_rejected(self, suite):
        with pytest.raises(EvaluationError, match="at least one detector"):
            SweepEngine().sweep((), suite)

    def test_duplicate_families_rejected(self, suite):
        with pytest.raises(EvaluationError, match="duplicate"):
            SweepEngine().sweep(("stide", "stide"), suite)

    def test_process_executor_rejects_factories(self, suite):
        alphabet_size = suite.training.alphabet.size

        def factory(window_length: int) -> StideDetector:
            return StideDetector(window_length, alphabet_size)

        with pytest.raises(EvaluationError, match="registered detector names"):
            SweepEngine(executor="process").sweep((factory,), suite)


class TestFitStats:
    """``last_fit_stats.computed``: the blocks a sweep fitted itself.

    perfbench's ``maps`` workload reports it as ``engine.fits_computed``.
    """

    #: The four families of the paper's Figures 3-6.
    PAPER = ("stide", "markov", "lane-brodley", "neural-network")

    def test_counts_every_block_serial_and_process(self, suite):
        blocks = len(self.PAPER) * len(suite.window_lengths)
        serial = SweepEngine(max_workers=1)
        serial_maps = serial.sweep(self.PAPER, suite)
        assert serial.last_fit_stats.computed == blocks
        pooled = SweepEngine(max_workers=2)
        pooled_maps, report = pooled.sweep_with_report(self.PAPER, suite)
        assert report.final_backend == "process"
        assert pooled.last_fit_stats.computed == blocks
        assert report.fits_computed == blocks
        for name in self.PAPER:
            _assert_maps_identical(serial_maps[name], pooled_maps[name], suite)

    @pytest.mark.parametrize("max_workers", (1, 2))
    def test_resumed_blocks_are_not_counted(self, suite, tmp_path, max_workers):
        checkpoint = tmp_path / "cells.jsonl"
        SweepEngine(max_workers=1).sweep(["stide"], suite, checkpoint=checkpoint)
        engine = SweepEngine(max_workers=max_workers)
        maps, report = engine.sweep_with_report(
            ["stide", "markov"], suite, resume_from=checkpoint
        )
        windows = len(suite.window_lengths)
        assert report.resumed == windows
        assert engine.last_fit_stats.computed == windows
        assert report.fits_computed == windows
        plain = SweepEngine(max_workers=1).sweep(["stide", "markov"], suite)
        for name in ("stide", "markov"):
            _assert_maps_identical(plain[name], maps[name], suite)


class TestCacheSharing:
    def test_families_share_one_training_sort(self, suite):
        engine = SweepEngine(max_workers=2)
        engine.sweep(("stide", "t-stide"), suite)
        stats = engine.window_cache.stats
        # The second family's fits should hit the first family's
        # training-stream artifacts at every window length.
        assert stats.hits > 0
        assert stats.hit_rate > 0.3


class TestSuiteRelease:
    """A long-lived serial engine pins only the suite it swept last."""

    @staticmethod
    def _suite(seed):
        training = generate_training_data(scaled_params(12_000, seed))
        return build_suite(training=training)

    def test_serial_sweeps_release_the_previous_suite(self):
        engine = SweepEngine(max_workers=1)
        cache = engine.window_cache
        for seed in (1, 2, 3):
            suite = self._suite(seed)
            engine.sweep(["stide"], suite)
            streams = [suite.training.stream] + [
                suite.stream(size).stream for size in suite.anomaly_sizes
            ]
            assert sorted(cache._streams) == sorted(map(id, streams))
            assert all(
                id(stream) in {key[0] for key in cache._entries}
                for stream in streams
            )

    def test_sweeps_of_one_suite_stay_warm(self, suite):
        engine = SweepEngine(max_workers=1)
        engine.sweep(["stide"], suite)
        before = engine.window_cache.stats
        engine.sweep(["t-stide"], suite)
        after = engine.window_cache.stats
        # Every t-stide fit reads stide's training tables; only
        # t-stide's own derivations miss.
        assert after.hits - before.hits > after.misses - before.misses


class TestOneSweepPerSuite:
    """A multi-family caller makes one engine sweep per suite.

    Under the process backend each sweep writes the suite's handoff
    file and starts a pool, so a caller that swept family by family
    paid both once per family.
    """

    @pytest.fixture
    def sweeps(self, monkeypatch):
        counts = {"handoffs": 0, "pools": 0}
        write_handoff = SweepEngine._write_handoff
        new_pool = ResilientRunner._new_pool

        def counting_handoff(suite):
            counts["handoffs"] += 1
            return write_handoff(suite)

        def counting_pool(runner, pools):
            counts["pools"] += 1
            return new_pool(runner, pools)

        monkeypatch.setattr(
            SweepEngine, "_write_handoff", staticmethod(counting_handoff)
        )
        monkeypatch.setattr(ResilientRunner, "_new_pool", counting_pool)
        return counts

    @pytest.mark.parametrize("command", ("atlas", "select"))
    def test_cli_shares_the_suite_once(self, command, sweeps, capsys):
        from repro.cli import main

        exit_code = main(
            [command, "--stream-len", "12000", "--seed", "7", "--jobs", "2"]
            + ["--detectors", "stide", "t-stide", "markov"]
        )
        assert exit_code == 0, capsys.readouterr().err
        assert sweeps == {"handoffs": 1, "pools": 1}

    def test_replications_share_each_suite_once(self, params, sweeps):
        seeds = (11, 47)
        report = replicate_shapes(
            params,
            seeds=seeds,
            detectors={"stide": stide_shape, "markov": full_coverage_shape},
            engine=SweepEngine(max_workers=2),
        )
        assert report.all_held, report.summary()
        assert sweeps == {"handoffs": len(seeds), "pools": len(seeds)}


def _handoff_files(pid: int | None = None) -> list[str]:
    """The suite handoff files a sweep in process ``pid`` left behind."""
    prefix = handoff_prefix(os.getpid() if pid is None else pid)
    return glob.glob(os.path.join(tempfile.gettempdir(), prefix + "*"))


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie or a recycled pid counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split()[2] != "Z"
    except OSError:
        return False


class TestHandoff:
    """Process tasks carry the path of one pickled suite, not the suite."""

    def test_process_payload_is_under_one_kib(self, suite, monkeypatch):
        sizes = []
        submit = ResilientRunner._submit

        def measuring_submit(runner, pool, state, attempt):
            sizes.append(len(pickle.dumps(state.task.process_payload)))
            return submit(runner, pool, state, attempt)

        monkeypatch.setattr(ResilientRunner, "_submit", measuring_submit)
        SweepEngine(max_workers=2).sweep(FAMILIES, suite)
        assert len(sizes) == len(FAMILIES) * len(suite.window_lengths)
        # The suite itself pickles to about a megabyte at this scale.
        assert max(sizes) < 1024 < len(pickle.dumps(suite)) // 100

    def test_worker_loads_the_suite_once(self, suite, monkeypatch):
        monkeypatch.setattr(engine_module, "_WORKER_SUITE", None)
        path = SweepEngine._write_handoff(suite)
        try:
            loaded, cache = engine_module._load_handoff(path)
            again, same_cache = engine_module._load_handoff(path)
        finally:
            Path(path).unlink()
        assert again is loaded and same_cache is cache

    def test_worker_load_rebuilds_identical_suite(self, suite, monkeypatch):
        monkeypatch.setattr(engine_module, "_WORKER_SUITE", None)
        path = SweepEngine._write_handoff(suite)
        try:
            loaded, _ = engine_module._load_handoff(path)
        finally:
            Path(path).unlink()
        np.testing.assert_array_equal(
            loaded.training.stream, suite.training.stream
        )
        assert loaded.anomaly_sizes == suite.anomaly_sizes
        for anomaly_size in suite.anomaly_sizes:
            original = suite.stream(anomaly_size)
            rebuilt = loaded.stream(anomaly_size)
            np.testing.assert_array_equal(rebuilt.stream, original.stream)
            assert rebuilt.anomaly == original.anomaly
            assert rebuilt.position == original.position

    @pytest.mark.parametrize("start_method", ("spawn", "forkserver"))
    def test_fresh_interpreter_workers_match_serial(self, start_method):
        """Workers that import everything afresh sweep the same maps.

        Under ``forkserver`` the workers' parent is the fork server, not
        the sweeping process; the parent watch must not mistake that
        for a dead sweep (the pool would break and degrade to serial).
        """
        script = textwrap.dedent(
            """
            import multiprocessing
            import sys

            from repro.datagen.suite import build_suite
            from repro.datagen.training import generate_training_data
            from repro.params import scaled_params
            from repro.runtime import SweepEngine

            if __name__ == "__main__":
                multiprocessing.set_start_method(sys.argv[1], force=True)
                suite = build_suite(
                    training=generate_training_data(scaled_params(12_000, seed=7))
                )
                families = ("stide", "t-stide", "markov", "lane-brodley")
                spawned, report = SweepEngine(max_workers=2).sweep_with_report(
                    families, suite
                )
                serial = SweepEngine(max_workers=1).sweep(families, suite)
                differing = sum(
                    spawned[name].cell(size, window)
                    != serial[name].cell(size, window)
                    for name in families
                    for size in suite.anomaly_sizes
                    for window in suite.window_lengths
                )
                print(report.final_backend, differing)
            """
        )
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-c", script, start_method],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["process", "0"]

    def test_process_sweep_leaves_no_handoff_file(self, suite):
        engine = SweepEngine(max_workers=2, executor="process")
        engine.sweep(("stide",), suite)
        assert _handoff_files() == []

    def test_aborted_sweep_leaves_no_handoff_file(self, suite):
        from repro.exceptions import SweepAbortedError
        from repro.runtime import FaultSchedule, ResiliencePolicy, RetryPolicy

        policy = ResiliencePolicy(
            retry=RetryPolicy(retries=0),
            fault_schedule=FaultSchedule(rate=1.0, kinds=("fatal",)),
        )
        engine = SweepEngine(
            max_workers=2, executor="process", resilience=policy
        )
        with pytest.raises(SweepAbortedError):
            engine.sweep_with_report(("stide",), suite)
        assert _handoff_files() == []


@pytest.mark.faults
class TestCrashCleanup:
    def test_crashed_workers_leave_no_handoff_file(self, suite):
        """Workers hard-killed mid-task must not strand the handoff."""
        from repro.runtime import FaultSchedule, ResiliencePolicy, RetryPolicy

        policy = ResiliencePolicy(
            retry=RetryPolicy(retries=3, backoff=0.01, jitter=0.0),
            fault_schedule=FaultSchedule(rate=0.4, seed=11, kinds=("crash",)),
        )
        engine = SweepEngine(
            max_workers=2, executor="process", resilience=policy
        )
        engine.sweep_with_report(("stide",), suite)
        assert _handoff_files() == []

    def test_killed_sweep_process_leaves_no_workers_or_handoff(self):
        """SIGKILL of the sweeping process must not strand its pool."""
        script = textwrap.dedent(
            """
            from repro.datagen.suite import build_suite
            from repro.datagen.training import generate_training_data
            from repro.params import scaled_params
            from repro.runtime import FaultSchedule, ResiliencePolicy, SweepEngine

            suite = build_suite(
                training=generate_training_data(scaled_params(8_000, seed=11))
            )
            hang = FaultSchedule(rate=1.0, kinds=("hang",), hang_seconds=120.0)
            print("sweeping", flush=True)
            SweepEngine(
                max_workers=2, resilience=ResiliencePolicy(fault_schedule=hang)
            ).sweep(["stide"], suite)
            """
        )
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        victim = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=REPO,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        children = Path(f"/proc/{victim.pid}/task/{victim.pid}/children")
        workers: list[int] = []
        try:
            assert victim.stdout.readline().strip() == "sweeping"
            deadline = time.monotonic() + 60
            # Wait for the handoff file and both (hanging) workers.
            while not (_handoff_files(victim.pid) and len(workers) >= 2):
                assert victim.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
                workers = [int(pid) for pid in children.read_text().split()]
            victim.kill()
            victim.wait(timeout=10)
            deadline = time.monotonic() + 20
            while (
                _handoff_files(victim.pid)
                or any(_alive(pid) for pid in workers)
            ) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [pid for pid in workers if _alive(pid)] == []
            assert _handoff_files(victim.pid) == []
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=10)
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, 9)
            for path in _handoff_files(victim.pid):
                os.unlink(path)
