"""Tests for repro.runtime.fitindex — the incremental training index.

The tentpole contract: for ANY window length, the index's
(rows, inverse, counts) decomposition — derived incrementally, each
order from the one below — is bit-identical to a direct
``np.unique(view, axis=0, ...)``, and detector tables fitted through
it are indistinguishable from tables fitted directly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.detectors.registry import create_detector
from repro.exceptions import WindowError
from repro.runtime import TrainingIndex, WindowCache
from repro.runtime.fitindex import FitLedger, FitRecord
from repro.sequences.windows import windows_array


def _reference(stream: np.ndarray, window_length: int):
    view = windows_array(stream, window_length)
    rows, inverse, counts = np.unique(
        view, axis=0, return_inverse=True, return_counts=True
    )
    return rows, inverse.reshape(-1), counts


def _stream(alphabet_size: int, length: int = 600, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed + alphabet_size)
    return rng.integers(0, alphabet_size, size=length).astype(np.int64)


def _assert_levels_match_unique(stream: np.ndarray, orders) -> None:
    """Every level equals ``np.unique(view, axis=0, ...)``, dtypes too."""
    index = TrainingIndex(stream)
    for window_length in orders:
        view = windows_array(stream, window_length)
        rows, first, inverse, counts = np.unique(
            view,
            axis=0,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        level = index.level(window_length)
        for got, expected in (
            (level.first, first),
            (level.inverse, inverse.reshape(-1)),
            (level.counts, counts),
        ):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        got_rows, got_inverse, got_counts = index.decomposition(window_length)
        assert got_rows.dtype == rows.dtype
        np.testing.assert_array_equal(got_rows, rows)
        assert got_inverse is level.inverse and got_counts is level.counts


class TestTrainingIndex:
    @pytest.mark.parametrize("alphabet_size", range(2, 10))
    def test_bit_identical_to_direct_unique_over_grid(self, alphabet_size):
        """The acceptance grid: AS in 2..9 x DW in 1..15, bit-identical."""
        _assert_levels_match_unique(_stream(alphabet_size), range(1, 16))

    def test_unpackable_corner(self):
        """AS=32, DW=13: 65 bits — past the packed-integer budget."""
        stream = _stream(32, length=400)
        index = TrainingIndex(stream)
        rows, inverse, counts = index.decomposition(13)
        expected_rows, expected_inverse, expected_counts = _reference(stream, 13)
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(inverse, expected_inverse)
        np.testing.assert_array_equal(counts, expected_counts)

    def test_descending_order_queries(self):
        """Derivation is ascending internally; query order is free."""
        stream = _stream(4)
        index = TrainingIndex(stream)
        for window_length in (9, 3, 6, 2):
            rows, inverse, counts = index.decomposition(window_length)
            expected_rows, _inverse, expected_counts = _reference(
                stream, window_length
            )
            np.testing.assert_array_equal(rows, expected_rows)
            np.testing.assert_array_equal(counts, expected_counts)

    def test_rows_are_reconstruction(self):
        stream = _stream(5)
        index = TrainingIndex(stream)
        rows, inverse, _counts = index.decomposition(4)
        np.testing.assert_array_equal(rows[inverse], windows_array(stream, 4))

    def test_counts_sum_to_window_count(self):
        stream = _stream(3)
        index = TrainingIndex(stream)
        _rows, _inverse, counts = index.decomposition(7)
        assert counts.sum() == len(stream) - 7 + 1

    def test_too_long_window_raises(self):
        stream = np.arange(5, dtype=np.int64)
        with pytest.raises(WindowError):
            TrainingIndex(stream).decomposition(6)

    def test_bad_window_length_raises(self):
        with pytest.raises(WindowError):
            TrainingIndex(_stream(3)).decomposition(0)


class TestCountingRefinement:
    """Streams that steer the refinement onto one path or the other."""

    def test_key_space_past_the_window_count(self):
        """Alphabet 64, length 300: the low orders take the unique path."""
        stream = _stream(64, length=300)
        span = TrainingIndex(stream).level(1).group_count
        assert span * span > len(stream) - 1
        _assert_levels_match_unique(stream, range(1, 16))

    def test_sparse_huge_symbols_size_nothing(self):
        """Symbol values {-5, 3, 10**12} size no array: only ranks do."""
        rng = np.random.default_rng(3)
        stream = rng.choice(np.array([-5, 3, 10**12]), size=500)
        tracemalloc.start()
        try:
            TrainingIndex(stream).level(15)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        _assert_levels_match_unique(stream, range(1, 16))

    def test_paper_training_stream(self, training):
        """The 60k paper stream: the dense path at every order."""
        _assert_levels_match_unique(training.stream, range(1, 16))


class TestIndexDerivedDetectorTables:
    """Index-backed fits must equal direct fits for every family."""

    FAMILIES = ("stide", "t-stide", "markov", "lane-brodley", "hamming")

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("alphabet_size", (2, 5, 9))
    def test_fit_through_index_matches_direct(self, name, alphabet_size):
        stream = _stream(alphabet_size)
        probe = windows_array(stream, 6)[:64]
        direct = create_detector(name, 6, alphabet_size)
        direct.fit(stream)
        indexed = create_detector(name, 6, alphabet_size)
        indexed.attach_cache(WindowCache())
        indexed.fit(stream)
        np.testing.assert_array_equal(
            direct.score_batch(probe), indexed.score_batch(probe)
        )

    def test_unpackable_family_corner(self):
        """Markov at AS=32, DW=13 walks the unpacked dictionary path."""
        stream = _stream(32, length=400)
        probe = windows_array(stream, 13)[:32]
        direct = create_detector("markov", 13, 32)
        direct.fit(stream)
        indexed = create_detector("markov", 13, 32)
        indexed.attach_cache(WindowCache())
        indexed.fit(stream)
        np.testing.assert_array_equal(
            direct.score_batch(probe), indexed.score_batch(probe)
        )


class TestFitLedger:
    def test_snapshot_counts_origins(self):
        ledger = FitLedger()
        ledger.record(FitRecord(origin="computed"))
        ledger.record(FitRecord(origin="store"))
        ledger.record(FitRecord(origin="computed"))
        ledger.record(None)  # factory path: no record
        stats = ledger.snapshot()
        assert stats.computed == 2
        assert stats.from_store == 1
