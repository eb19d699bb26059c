"""Tests for repro.datagen.training — the paper's corpus structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.markov_source import CycleJumpSource
from repro.datagen.training import TrainingData, generate_training_data
from repro.exceptions import DataGenerationError
from repro.params import scaled_params
from repro.sequences.alphabet import Alphabet


class TestGeneration:
    def test_stream_has_requested_length(self, training):
        assert training.length == training.params.training_length

    def test_alphabet_matches_params(self, training):
        assert training.alphabet.size == training.params.alphabet_size

    def test_deterministic_under_seed(self):
        params = scaled_params(20_000, seed=99)
        a = generate_training_data(params)
        b = generate_training_data(params)
        assert np.array_equal(a.stream, b.stream)

    def test_different_seeds_differ(self):
        a = generate_training_data(scaled_params(20_000, seed=1))
        b = generate_training_data(scaled_params(20_000, seed=2))
        assert not np.array_equal(a.stream, b.stream)

    def test_refractory_defaults_above_max_window(self, training):
        refractory = training.source.jump_spec.refractory
        assert refractory > training.params.max_window_size
        assert refractory > training.params.max_anomaly_size

    def test_too_short_stream_fails_validation(self):
        # 500 elements cannot contain all 7 jump pairs reliably.
        params = scaled_params(500, seed=3)
        with pytest.raises(DataGenerationError):
            generate_training_data(params)


class TestCorpusStructure:
    """The paper's Section 5.3 properties."""

    def test_cycle_dominates(self, training):
        # The paper: 98% of the stream is the repeated cycle.
        assert training.cycle_run_fraction() > 0.95

    def test_deviations_exist(self, training):
        assert len(training.jump_positions()) > 50

    def test_every_jump_pair_present_and_rare(self, training):
        store = training.analyzer.store_for(2)
        threshold = training.params.rare_threshold
        for pair in training.source.jump_pairs():
            assert store.contains(pair)
            assert 0 < store.relative_frequency(pair) < threshold

    def test_cycle_pairs_common(self, training):
        store = training.analyzer.store_for(2)
        threshold = training.params.rare_threshold
        size = training.alphabet.size
        for state in range(size):
            pair = (state, (state + 1) % size)
            assert store.relative_frequency(pair) >= threshold

    def test_jumps_respect_refractory(self, training):
        gaps = np.diff(training.jump_positions())
        assert gaps.min() >= training.source.jump_spec.refractory

    def test_validate_passes_on_shared_corpus(self, training):
        training.validate()  # should not raise


class TestTrainingDataValidation:
    def _make(self, stream: np.ndarray) -> TrainingData:
        params = scaled_params(max(1, len(stream)))
        return TrainingData(
            stream=stream,
            alphabet=Alphabet.of_size(8),
            source=CycleJumpSource(alphabet_size=8),
            params=params,
        )

    def test_rejects_empty_stream(self):
        with pytest.raises(DataGenerationError, match="non-empty"):
            self._make(np.asarray([], dtype=np.int64))

    def test_validate_rejects_cycle_free_stream(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 8, size=5_000)
        data = self._make(stream)
        with pytest.raises(DataGenerationError, match="cycle fraction"):
            data.validate()

    def test_validate_rejects_missing_jump_pairs(self):
        # A pure cycle has a perfect cycle fraction but no jumps at all.
        stream = np.arange(5_000, dtype=np.int64) % 8
        data = self._make(stream)
        with pytest.raises(DataGenerationError, match="never occurred"):
            data.validate()

    def test_analyzer_cached(self, training):
        assert training.analyzer is training.analyzer
