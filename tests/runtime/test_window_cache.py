"""Tests for repro.runtime.cache — the shared window-artifact cache."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.detectors.registry import create_detector
from repro.runtime import WindowCache
from repro.sequences.windows import windows_array

STREAM = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0, 2], dtype=np.int64)
ALPHABET = 4


@pytest.fixture()
def cache() -> WindowCache:
    return WindowCache()


class TestWindowsArtifact:
    def test_matches_windows_array(self, cache):
        np.testing.assert_array_equal(
            cache.windows(STREAM, 3), windows_array(STREAM, 3)
        )

    def test_second_lookup_returns_same_object(self, cache):
        first = cache.windows(STREAM, 3)
        assert cache.windows(STREAM, 3) is first

    def test_window_lengths_do_not_collide(self, cache):
        assert cache.windows(STREAM, 2).shape[1] == 2
        assert cache.windows(STREAM, 3).shape[1] == 3

    def test_streams_do_not_collide(self, cache):
        other = np.array([3, 3, 3, 3, 3], dtype=np.int64)
        np.testing.assert_array_equal(
            cache.windows(other, 2), windows_array(other, 2)
        )
        np.testing.assert_array_equal(
            cache.windows(STREAM, 2), windows_array(STREAM, 2)
        )


class TestUniqueArtifact:
    @pytest.mark.parametrize("window_length", (2, 4, 6))
    def test_matches_numpy_unique(self, cache, window_length):
        rows, inverse = cache.unique(STREAM, window_length)
        expected_rows, expected_inverse = np.unique(
            windows_array(STREAM, window_length), axis=0, return_inverse=True
        )
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(inverse, expected_inverse.reshape(-1))

    @pytest.mark.parametrize("window_length", (2, 4, 6))
    def test_scatter_reconstructs_view(self, cache, window_length):
        rows, inverse = cache.unique(STREAM, window_length)
        np.testing.assert_array_equal(
            rows[inverse], windows_array(STREAM, window_length)
        )

    @pytest.mark.parametrize("window_length", (2, 4, 6))
    def test_counts_match_numpy_unique(self, cache, window_length):
        rows, counts = cache.unique_counts(STREAM, window_length)
        expected_rows, expected_counts = np.unique(
            windows_array(STREAM, window_length), axis=0, return_counts=True
        )
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(counts, expected_counts)

    def test_unpackable_window_falls_back(self, cache):
        # 40 * log2(4) = 80 bits: over the packed budget.
        long_stream = np.tile(STREAM, 8)
        rows, inverse = cache.unique(long_stream, 40)
        expected_rows, expected_inverse = np.unique(
            windows_array(long_stream, 40), axis=0, return_inverse=True
        )
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(inverse, expected_inverse.reshape(-1))


class TestAccounting:
    def test_stats_count_hits_and_misses(self, cache):
        cache.windows(STREAM, 3)
        cache.windows(STREAM, 3)
        cache.windows(STREAM, 2)
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.requests == 3
        assert 0.0 < stats.hit_rate < 1.0

    def test_unused_cache_hit_rate(self, cache):
        assert cache.stats.hit_rate == 0.0

    def test_clear_drops_entries(self, cache):
        cache.windows(STREAM, 3)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_clear_keeps_lifetime_counters(self, cache):
        cache.windows(STREAM, 3)
        cache.windows(STREAM, 3)
        cache.clear()
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1

    def test_merge_counts_folds_worker_stats(self, cache):
        cache.windows(STREAM, 3)  # 1 miss
        cache.merge_counts(hits=10, misses=4)
        stats = cache.stats
        assert stats.hits == 10
        assert stats.misses == 5

    def test_merge_counts_rejects_negative_counters(self, cache):
        with pytest.raises(ValueError, match="negative"):
            cache.merge_counts(hits=-1, misses=0)
        with pytest.raises(ValueError, match="negative"):
            cache.merge_counts(hits=0, misses=-1)

    def test_evict_one_window_length(self, cache):
        cache.windows(STREAM, 2)
        cache.windows(STREAM, 3)
        assert cache.evict(STREAM, 3) == 1
        assert len(cache) == 1
        # The survivor is still served as a hit.
        cache.windows(STREAM, 2)
        assert cache.stats.hits == 1

    def test_evict_whole_stream(self, cache):
        other = np.array([3, 3, 3, 3, 3], dtype=np.int64)
        cache.windows(STREAM, 2)
        cache.unique(STREAM, 2)
        cache.windows(other, 2)
        assert cache.evict(STREAM) == 2
        assert len(cache) == 1
        np.testing.assert_array_equal(
            cache.windows(other, 2), windows_array(other, 2)
        )

    def test_evict_releases_pinned_stream_reference(self, cache):
        stream = np.array([1, 2, 1, 2, 1], dtype=np.int64)
        cache.windows(stream, 2)
        assert id(stream) in cache._streams
        cache.evict(stream, 3)  # other artifacts remain: still pinned
        assert id(stream) in cache._streams
        cache.evict(stream)
        assert id(stream) not in cache._streams

    def test_evict_unknown_stream_is_a_noop(self, cache):
        cache.windows(STREAM, 2)
        unknown = np.array([9, 9, 9], dtype=np.int64)
        assert cache.evict(unknown) == 0
        assert len(cache) == 1

    def test_concurrent_requests_compute_once(self, cache):
        start = threading.Barrier(8)

        def worker() -> None:
            start.wait()
            cache.windows(STREAM, 3)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.stats.misses == 1
        assert cache.stats.hits == 7


class TestReleaseStream:
    def test_release_drops_artifacts_index_and_pin(self, cache):
        cache.windows(STREAM, 2)
        cache.unique(STREAM, 3)
        assert id(STREAM) in cache._streams
        assert cache.release_stream(STREAM) == 2
        assert len(cache) == 0
        assert id(STREAM) not in cache._streams
        assert id(STREAM) not in cache._stores

    def test_release_unknown_stream_is_a_noop(self, cache):
        unknown = np.array([9, 9, 9], dtype=np.int64)
        assert cache.release_stream(unknown) == 0

    def test_released_stream_recomputes_cleanly(self, cache):
        rows, inverse = cache.unique(STREAM, 3)
        cache.release_stream(STREAM)
        again_rows, again_inverse = cache.unique(STREAM, 3)
        np.testing.assert_array_equal(rows, again_rows)
        np.testing.assert_array_equal(inverse, again_inverse)


class TestValidatedMemo:
    def test_validation_runs_once_per_stream(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return STREAM

        for _ in range(4):
            assert cache.validated(STREAM, ALPHABET, compute) is STREAM
        assert len(calls) == 1

    def test_validation_keyed_by_alphabet(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return STREAM

        cache.validated(STREAM, 4, compute)
        cache.validated(STREAM, 5, compute)
        assert len(calls) == 2


def _per_window_arrays(root: object, stream: np.ndarray) -> list[np.ndarray]:
    """int64 arrays reachable from ``root`` with one entry per window of
    ``stream`` (any order up to 15), other than the stream itself."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if (
                obj.ndim == 1
                and obj.dtype == np.int64
                and len(obj) >= len(stream) - 14
                and not np.shares_memory(obj, stream)
            ):
                found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(vars(obj).values())
    return found


class TestChainMemory:
    def test_fits_keep_one_per_window_array(self, training):
        """Stide, t-Stide and Markov at DW 2..15 on the 60k stream hold
        the chain's newest groups and no other per-window array."""
        stream = training.stream
        cache = WindowCache()
        for family in ("stide", "t-stide", "markov"):
            for window in range(2, 16):
                detector = create_detector(family, window, training.alphabet.size)
                detector.attach_cache(cache).fit(stream)
        assert len(_per_window_arrays(cache, stream)) == 1
