"""Tests for repro.sequences.ngram_store."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import WindowError
from repro.sequences.ngram_store import NgramStore
from repro.sequences.windows import windows_array

STREAM = [0, 1, 2, 0, 1, 2, 0, 1, 3]


def unique_reference(stream: np.ndarray, length: int):
    """``(rows, first, inverse, counts)`` of ``np.unique(view, axis=0)``."""
    rows, first, inverse, counts = np.unique(
        windows_array(stream, length),
        axis=0,
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    return rows, first, inverse.reshape(-1), counts


def assert_same(got: np.ndarray, expected: np.ndarray) -> None:
    """Equal values and dtypes."""
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def random_stream(alphabet_size: int, length: int = 600, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed + alphabet_size)
    return rng.integers(0, alphabet_size, size=length).astype(np.int64)


def naive_counts(stream, length: int) -> dict[tuple[int, ...], int]:
    """Window counts by a plain dict, in lexicographic order."""
    counted = Counter(
        tuple(int(code) for code in stream[start : start + length])
        for start in range(len(stream) - length + 1)
    )
    return dict(sorted(counted.items()))


class TestConstruction:
    def test_requires_a_length(self):
        with pytest.raises(WindowError, match="at least one"):
            NgramStore([])

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(WindowError, match="positive"):
            NgramStore([0, 2])

    def test_lengths_sorted_and_deduplicated(self):
        assert NgramStore([3, 2, 3]).lengths == (2, 3)

    def test_from_stream_counts(self):
        store = NgramStore.from_stream(STREAM, [2])
        assert store.count((0, 1)) == 3

    def test_from_stream_rejects_2d(self):
        with pytest.raises(WindowError, match="one-dimensional"):
            NgramStore.from_stream(np.zeros((2, 2)), [2])


class TestCounts:
    @pytest.fixture()
    def store(self) -> NgramStore:
        return NgramStore.from_stream(STREAM, [1, 2, 3])

    def test_total_is_window_count(self, store: NgramStore):
        assert store.total(2) == len(STREAM) - 1

    def test_total_unindexed_length_raises(self, store: NgramStore):
        with pytest.raises(WindowError, match="not indexed"):
            store.total(5)

    def test_distinct(self, store: NgramStore):
        assert store.distinct(1) == 4

    def test_count_absent_ngram_is_zero(self, store: NgramStore):
        assert store.count((3, 3)) == 0

    def test_counts_view_is_copy(self, store: NgramStore):
        view = store.counts(2)
        view[(9, 9)] = 1
        assert store.count((9, 9)) == 0

    def test_contains(self, store: NgramStore):
        assert store.contains((1, 2))
        assert not store.contains((2, 2))

    def test_dunder_contains(self, store: NgramStore):
        assert (1, 2) in store
        assert (9, 9, 9, 9) not in store  # unindexed length: False, not raise
        assert "xy" not in store

    def test_counts_sum_to_total(self, store: NgramStore):
        for length in store.lengths:
            assert sum(store.counts(length).values()) == store.total(length)

    def test_counts_match_naive_in_lexicographic_order(self, store: NgramStore):
        for length in store.lengths:
            assert list(store.counts(length).items()) == list(
                naive_counts(STREAM, length).items()
            )

    def test_stream_shorter_than_length_counts_nothing(self):
        store = NgramStore.from_stream([4, 5], [1, 3, 4])
        assert store.total(3) == 0
        assert store.distinct(3) == 0
        assert store.counts(4) == {}
        assert store.count((4, 5, 4)) == 0
        assert store.count((4,)) == 1

    def test_repr_mentions_lengths(self):
        assert "2" in repr(NgramStore.from_stream(STREAM, [2]))


class TestFrequencies:
    @pytest.fixture()
    def store(self) -> NgramStore:
        return NgramStore.from_stream(STREAM, [2])

    def test_relative_frequency(self, store: NgramStore):
        assert store.relative_frequency((0, 1)) == pytest.approx(3 / 8)

    def test_relative_frequency_absent(self, store: NgramStore):
        assert store.relative_frequency((3, 0)) == 0.0

    def test_relative_frequency_empty_store(self):
        store = NgramStore([2])
        assert store.relative_frequency((0, 1)) == 0.0

    def test_rare_ngrams(self, store: NgramStore):
        rare = store.rare_ngrams(2, threshold=0.2)
        assert (1, 3) in rare  # occurs once out of 8 windows
        assert (0, 1) not in rare

    def test_rare_ngrams_empty_store(self):
        assert NgramStore([2]).rare_ngrams(2, 0.5) == []


class TestIndex:
    def test_index_adds_new_lengths(self):
        store = NgramStore.from_stream(STREAM, [2])
        store.index(3)
        assert store.lengths == (2, 3)
        assert store.count((0, 1, 2)) == 2

    def test_index_rejects_nonpositive_lengths(self):
        with pytest.raises(WindowError, match="positive"):
            NgramStore.from_stream(STREAM, [2]).index(-1)

    def test_extension_equals_a_fresh_build(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 5, size=400)
        grown = NgramStore.from_stream(stream, [2])
        grown.index(4)
        grown.index(7, 9)
        fresh = NgramStore.from_stream(stream, [2, 4, 7, 9])
        for length in (2, 4, 7, 9):
            assert grown.counts(length) == fresh.counts(length)
            np.testing.assert_array_equal(grown.rows(length), fresh.rows(length))

    def test_keeps_one_per_window_array(self):
        """Fifteen orders over 60k events hold about one window array,
        not one per order (15 int64 arrays would be 7.2 MB)."""
        stream = np.tile(np.arange(8), 7_500)
        stream[::97] = 3
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = NgramStore.from_stream(stream, range(1, 16))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert store.distinct(15) > 8
        assert held < 2 * stream.nbytes


class TestChain:
    """Every order of the chain equals ``np.unique(view, axis=0, ...)``:
    its rows, first starts, groups and counts, values and dtypes."""

    @staticmethod
    def assert_orders_match_unique(stream: np.ndarray, orders) -> None:
        """Indexed one order at a time, as a sweep asks for them."""
        store = NgramStore([orders[0]], stream)
        for length in orders:
            store.index(length)
            rows, first, inverse, counts = unique_reference(stream, length)
            assert_same(store.rows(length), rows)
            assert_same(store.first(length), first)
            assert_same(store.groups(length), inverse)
            assert_same(store.row_counts(length), counts)

    @pytest.mark.parametrize("alphabet_size", range(2, 10))
    def test_bit_identical_to_unique_over_grid(self, alphabet_size):
        """AS in 2..9 x orders 1..15."""
        self.assert_orders_match_unique(random_stream(alphabet_size), range(1, 16))

    def test_unpackable_corner(self):
        """AS=32, DW=13: 65 bits, past the packed-integer budget."""
        self.assert_orders_match_unique(random_stream(32, length=400), [13])

    def test_descending_order_queries(self):
        """Orders below the newest are one walk of the stream."""
        stream = random_stream(4)
        store = NgramStore([9], stream)
        for length in (9, 3, 6, 2):
            store.index(length)
            _rows, first, inverse, counts = unique_reference(stream, length)
            assert_same(store.groups(length), inverse)
            assert_same(store.first(length), first)
            assert_same(store.row_counts(length), counts)

    def test_rows_are_reconstruction(self):
        stream = random_stream(5)
        store = NgramStore([4], stream)
        np.testing.assert_array_equal(
            store.rows(4)[store.groups(4)], windows_array(stream, 4)
        )

    def test_key_space_past_the_window_count(self):
        """Alphabet 64, length 300: the low orders take the unique path."""
        stream = random_stream(64, length=300)
        assert NgramStore([1], stream).distinct(1) ** 2 > len(stream) - 1
        self.assert_orders_match_unique(stream, range(1, 16))

    def test_sparse_huge_symbols_size_nothing(self):
        """Symbol values {-5, 3, 10**12} size no array: only ranks do."""
        rng = np.random.default_rng(3)
        stream = rng.choice(np.array([-5, 3, 10**12]), size=500)
        tracemalloc.start()
        try:
            NgramStore([15], stream)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        self.assert_orders_match_unique(stream, range(1, 16))

    def test_paper_training_stream(self, training):
        """The 60k paper stream: the dense path at every order."""
        self.assert_orders_match_unique(training.stream, range(1, 16))


class TestWindowCounts:
    @pytest.fixture()
    def store(self) -> NgramStore:
        return NgramStore.from_stream(STREAM, [1, 2, 3])

    def test_counts_every_window_of_a_probe_stream(self, store: NgramStore):
        probe = np.asarray([0, 1, 2, 2, 0, 1, 3, 7])
        counts = store.window_counts(probe, 2, 3)
        for length in (2, 3):
            expected = naive_counts(STREAM, length)
            assert counts[length].tolist() == [
                expected.get(tuple(probe[i : i + length].tolist()), 0)
                for i in range(len(probe) - length + 1)
            ]

    def test_rows_of_a_2d_probe_are_separate(self, store: NgramStore):
        probes = np.asarray([[0, 1, 2], [1, 2, 0], [2, 2, 2], [9, 0, 1]])
        assert store.window_counts(probes, 3)[3][:, 0].tolist() == [2, 2, 0, 0]

    def test_unindexed_length_raises(self, store: NgramStore):
        with pytest.raises(WindowError, match="not indexed"):
            store.window_counts(np.asarray(STREAM), 4)

    def test_probe_shorter_than_length_has_no_windows(self, store: NgramStore):
        assert store.window_counts(np.asarray([0, 1]), 3)[3].shape == (0,)


SPARSE = (-5, 3, 10**12)


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=80),
    st.integers(1, 6),
)
def test_counts_sum_to_window_count_property(stream: list[int], length: int):
    """Sum of all n-gram counts equals the stream's window count."""
    store = NgramStore.from_stream(stream, [length])
    assert sum(store.counts(length).values()) == max(0, len(stream) - length + 1)


@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=60),
        st.lists(st.sampled_from(SPARSE), max_size=60),
        st.lists(st.integers(0, 63), max_size=60),
    ),
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
)
def test_counts_match_a_naive_dict(stream: list[int], lengths: list[int]):
    """Every table, total and count equals a plain dict count, including
    sparse symbols near 1e12 and streams shorter than the length."""
    store = NgramStore.from_stream(stream, lengths)
    for length in set(lengths):
        expected = naive_counts(stream, length)
        assert list(store.counts(length).items()) == list(expected.items())
        assert store.total(length) == max(0, len(stream) - length + 1)
        assert store.distinct(length) == len(expected)
        for ngram, count in expected.items():
            assert store.count(ngram) == count


@given(
    st.lists(st.sampled_from(SPARSE), min_size=1, max_size=50),
    st.lists(st.sampled_from((*SPARSE, 0)), max_size=40),
    st.integers(1, 7),
)
def test_window_counts_match_a_naive_dict(
    stream: list[int], probe: list[int], length: int
):
    """Batched counts of every probe window equal per-window dict lookups."""
    store = NgramStore.from_stream(stream, [length])
    expected = naive_counts(stream, length)
    counts = store.window_counts(np.asarray(probe, dtype=np.int64), length)[length]
    assert counts.tolist() == [
        expected.get(tuple(probe[start : start + length]), 0)
        for start in range(len(probe) - length + 1)
    ]
