"""Tests for the fit index: the window cache's one counting chain per
stream.

The contract: for ANY window length, the ``unique``/``unique_counts``/
``packed_db`` tables a :class:`~repro.runtime.cache.WindowCache` reads
off its per-stream :class:`~repro.sequences.ngram_store.NgramStore`
are bit-identical to a direct ``np.unique(view, axis=0, ...)``, and
detector tables fitted through them are indistinguishable from tables
fitted directly.  The chain itself is tested order by order in
``tests/sequences/test_ngram_store.py``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.detectors.registry import create_detector
from repro.exceptions import WindowError
from repro.runtime import WindowCache
from repro.sequences.windows import pack_windows, packable, windows_array
from tests.sequences.test_ngram_store import (
    assert_same,
    random_stream as _stream,
    unique_reference,
)


def _assert_cache_matches_unique(
    stream: np.ndarray, orders, alphabet_size: int | None = None
) -> None:
    """The cache's tables at every order equal ``np.unique``, dtypes too."""
    cache = WindowCache()
    for window_length in orders:
        rows, _first, inverse, counts = unique_reference(stream, window_length)
        got_rows, got_counts = cache.unique_counts(stream, window_length)
        assert_same(got_rows, rows)
        assert_same(got_counts, counts)
        unique_rows, got_inverse = cache.unique(stream, window_length)
        assert_same(unique_rows, rows)
        assert_same(got_inverse, inverse)
        if alphabet_size and packable(alphabet_size, window_length):
            view = windows_array(stream, window_length)
            assert_same(
                cache.packed_db(stream, window_length, alphabet_size),
                np.unique(pack_windows(view, alphabet_size)),
            )


class TestTrainingIndex:
    """The cache's chain, read through the fit-side API."""

    @pytest.mark.parametrize("alphabet_size", range(2, 10))
    def test_bit_identical_to_direct_unique_over_grid(self, alphabet_size):
        """The acceptance grid: AS in 2..9 x DW in 1..15, bit-identical."""
        _assert_cache_matches_unique(
            _stream(alphabet_size), range(1, 16), alphabet_size
        )

    def test_unpackable_corner(self):
        """AS=32, DW=13: 65 bits — past the packed-integer budget."""
        _assert_cache_matches_unique(_stream(32, length=400), [13], 32)

    def test_descending_order_queries(self):
        """The chain grows ascending; query order is free."""
        _assert_cache_matches_unique(_stream(4), (9, 3, 6, 2), 4)

    def test_rows_are_reconstruction(self):
        stream = _stream(5)
        rows, inverse = WindowCache().unique(stream, 4)
        np.testing.assert_array_equal(rows[inverse], windows_array(stream, 4))

    def test_counts_sum_to_window_count(self):
        stream = _stream(3)
        _rows, counts = WindowCache().unique_counts(stream, 7)
        assert counts.sum() == len(stream) - 7 + 1

    def test_too_long_window_raises(self):
        stream = np.arange(5, dtype=np.int64)
        cache = WindowCache()
        with pytest.raises(WindowError):
            cache.unique_counts(stream, 6)
        with pytest.raises(WindowError):
            cache.unique(stream, 6)
        with pytest.raises(WindowError):
            WindowCache().unique(np.zeros(0, dtype=np.int64), 2)

    def test_bad_window_length_raises(self):
        with pytest.raises(WindowError):
            WindowCache().unique_counts(_stream(3), 0)


class TestCountingRefinement:
    """Streams that steer the refinement onto one path or the other."""

    def test_key_space_past_the_window_count(self):
        """Alphabet 64, length 300: the low orders take the unique path."""
        stream = _stream(64, length=300)
        _rows, counts = WindowCache().unique_counts(stream, 1)
        assert len(counts) ** 2 > len(stream) - 1
        _assert_cache_matches_unique(stream, range(1, 16))

    def test_sparse_huge_symbols_size_nothing(self):
        """Symbol values {-5, 3, 10**12} size no array: only ranks do."""
        rng = np.random.default_rng(3)
        stream = rng.choice(np.array([-5, 3, 10**12]), size=500)
        tracemalloc.start()
        try:
            WindowCache().unique_counts(stream, 15)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        _assert_cache_matches_unique(stream, range(1, 16))

    def test_paper_training_stream(self, training):
        """The 60k paper stream: the dense path at every order."""
        _assert_cache_matches_unique(
            training.stream, range(1, 16), training.alphabet.size
        )


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
            direct.score_windows(probe), indexed.score_windows(probe)
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
            direct.score_windows(probe), indexed.score_windows(probe)
        )

