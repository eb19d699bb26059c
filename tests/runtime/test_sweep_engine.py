"""Tests for repro.runtime.engine — parallel/sequential equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.suite import build_suite
from repro.datagen.training import generate_training_data
from repro.detectors.neural import NeuralDetector
from repro.detectors.registry import create_detector
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
from repro.runtime import MEMOIZED_FAMILIES, SweepEngine, WindowCache
from repro.runtime.resilience import ResilientRunner

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

    def test_process_sweep_matches_serial(self, suite, serial_maps):
        engine = SweepEngine(max_workers=2, executor="process")
        engine_maps = engine.sweep(("stide",), suite)
        _assert_maps_identical(serial_maps["stide"], engine_maps["stide"], suite)

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


class TestMemoizedScoring:
    def test_expensive_families_are_memoized_by_default(self):
        assert {"lane-brodley", "neural-network"} <= MEMOIZED_FAMILIES

    @pytest.mark.parametrize("name", sorted(MEMOIZED_FAMILIES - {"neural-network"}))
    def test_memoized_responses_equal_score_stream(self, suite, name):
        detector = create_detector(
            name, 5, suite.training.alphabet.size
        ).fit(suite.training.stream)
        stream = suite.stream(suite.anomaly_sizes[0]).stream
        direct = detector.score_stream(stream)
        cache = WindowCache()
        unique_rows, inverse = cache.unique(stream, 5)
        memoized = detector.score_windows(unique_rows)[inverse]
        np.testing.assert_array_equal(direct, memoized)

    def test_neural_memoized_responses_equal_score_stream(self):
        training = np.tile(np.arange(5), 60)
        detector = NeuralDetector(3, 5).fit(training)
        stream = np.tile(np.arange(5), 8)
        direct = detector.score_stream(stream)
        cache = WindowCache()
        unique_rows, inverse = cache.unique(stream, 3)
        memoized = detector.score_windows(unique_rows)[inverse]
        np.testing.assert_array_equal(direct, memoized)


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

    Under the process backend each sweep publishes the suite into a
    shared-memory arena and starts a pool, so a caller that swept
    family by family paid both once per family.
    """

    @pytest.fixture
    def sweeps(self, monkeypatch):
        counts = {"shares": 0, "pools": 0}
        share_suite = SweepEngine._share_suite
        new_pool = ResilientRunner._new_pool

        def counting_share(engine, suite):
            counts["shares"] += 1
            return share_suite(engine, suite)

        def counting_pool(runner, pools):
            counts["pools"] += 1
            return new_pool(runner, pools)

        monkeypatch.setattr(SweepEngine, "_share_suite", counting_share)
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
        assert sweeps == {"shares": 1, "pools": 1}

    def test_replications_share_each_suite_once(self, params, sweeps):
        seeds = (11, 47)
        report = replicate_shapes(
            params,
            seeds=seeds,
            detectors={"stide": stide_shape, "markov": full_coverage_shape},
            engine=SweepEngine(max_workers=2),
        )
        assert report.all_held, report.summary()
        assert sweeps == {"shares": len(seeds), "pools": len(seeds)}
