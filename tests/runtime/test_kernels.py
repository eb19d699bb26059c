"""Kernel equivalence: batch scoring must match the scalar rules bit for bit.

Every detector family's ``score_windows`` runs through a vectorized
kernel (:mod:`repro.runtime.kernels`).  These tests pin each kernel to
an *independent* reference implementation — plain Python loops over
tuples and Counters, written directly from the papers' scoring rules,
sharing no code with the kernels — over randomized alphabets and the
full window range of the paper's grid, packable and not.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.detectors.hamming import HammingDetector
from repro.detectors.lane_brodley import LaneBrodleyDetector
from repro.detectors.markov import MarkovDetector
from repro.detectors.mlp import MlpConfig
from repro.detectors.neural import NeuralDetector
from repro.detectors.stide import StideDetector
from repro.detectors.tstide import TStideDetector
from repro.runtime.kernels import (
    count_lookup,
    hamming_batch_distance,
    lb_batch_similarity,
    markov_batch_response,
    merge_sorted_counts,
    merge_sorted_unique,
    sorted_membership,
)

#: (alphabet size, window length) grid: the paper's DW extremes, a
#: mid-grid point, and one combination beyond the 63-bit packing
#: budget (5 bits x 13 symbols = 65 > 63) exercising the tuple paths.
GRIDS = [(8, 2), (4, 7), (6, 15), (32, 13)]

STREAM_LENGTH = 400
PROBE_COUNT = 200


def _rng(alphabet_size: int, window_length: int) -> np.random.Generator:
    return np.random.default_rng(10_000 * alphabet_size + window_length)


def _training_stream(alphabet_size: int, window_length: int) -> np.ndarray:
    rng = _rng(alphabet_size, window_length)
    # A small effective vocabulary makes repeated (hence common/rare)
    # windows likely even at DW 15.
    vocabulary = rng.integers(0, alphabet_size, size=5)
    return vocabulary[rng.integers(0, len(vocabulary), size=STREAM_LENGTH)].astype(
        np.int64
    )


def _probe_windows(
    stream: np.ndarray, alphabet_size: int, window_length: int
) -> np.ndarray:
    """Seen, unseen, and edge-case probe windows.

    Mixes training windows (seen), uniform random windows (mostly
    foreign), windows whose context is seen but whose final symbol is
    novel, and fully foreign contexts.
    """
    rng = _rng(alphabet_size, window_length)
    seen = np.stack(
        [
            stream[i : i + window_length]
            for i in rng.integers(0, len(stream) - window_length + 1, size=60)
        ]
    )
    random_rows = rng.integers(
        0, alphabet_size, size=(PROBE_COUNT - len(seen) - 20, window_length)
    )
    # Seen context, novel last symbol.
    context_seen = seen[:10].copy()
    context_seen[:, -1] = (context_seen[:, -1] + 1) % alphabet_size
    # Foreign context (constant runs of the highest symbol are absent
    # from the 5-symbol training vocabulary with high probability).
    foreign = np.full((10, window_length), alphabet_size - 1, dtype=np.int64)
    foreign[:, 0] = np.arange(10) % alphabet_size
    return np.concatenate([seen, random_rows, context_seen, foreign]).astype(np.int64)


def _window_tuples(stream: np.ndarray, length: int) -> list[tuple[int, ...]]:
    return [
        tuple(int(c) for c in stream[i : i + length])
        for i in range(len(stream) - length + 1)
    ]


@pytest.fixture(params=GRIDS, ids=lambda grid: f"AS{grid[0]}-DW{grid[1]}")
def grid(request):
    alphabet_size, window_length = request.param
    stream = _training_stream(alphabet_size, window_length)
    probes = _probe_windows(stream, alphabet_size, window_length)
    return alphabet_size, window_length, stream, probes


class TestStideEquivalence:
    def test_matches_tuple_set_reference(self, grid):
        alphabet_size, window_length, stream, probes = grid
        database = set(_window_tuples(stream, window_length))
        expected = np.array(
            [0.0 if tuple(row) in database else 1.0 for row in probes.tolist()]
        )
        detector = StideDetector(window_length, alphabet_size).fit(stream)
        np.testing.assert_array_equal(detector.score_windows(probes), expected)


class TestTStideEquivalence:
    @pytest.mark.parametrize("rare_threshold", [0.005, 0.1])
    def test_matches_counter_reference(self, grid, rare_threshold):
        alphabet_size, window_length, stream, probes = grid
        counts = Counter(_window_tuples(stream, window_length))
        bound = rare_threshold * sum(counts.values())
        common = {key for key, n in counts.items() if n >= bound}
        expected = np.array(
            [0.0 if tuple(row) in common else 1.0 for row in probes.tolist()]
        )
        detector = TStideDetector(
            window_length, alphabet_size, rare_threshold=rare_threshold
        ).fit(stream)
        np.testing.assert_array_equal(detector.score_windows(probes), expected)


def _markov_reference(
    stream: np.ndarray,
    probes: np.ndarray,
    window_length: int,
    rare_floor: float,
    unseen: float,
) -> np.ndarray:
    """The papers' conditional-probability rule, in pure Python floats."""
    joint = Counter(_window_tuples(stream, window_length))
    context = Counter(_window_tuples(stream, window_length - 1))
    total = sum(joint.values())
    out = []
    for row in probes.tolist():
        key = tuple(row)
        j = joint.get(key, 0)
        c = context.get(key[:-1], 0)
        if j == 0 or (rare_floor > 0.0 and j < rare_floor * total):
            response = unseen if (j == 0 and c == 0) else 1.0
        elif c == 0:
            response = 1.0
        else:
            response = 1.0 - j / c
        out.append(min(1.0, max(0.0, response)))
    return np.array(out)


class TestMarkovEquivalence:
    @pytest.mark.parametrize(
        ("rare_floor", "unseen"),
        [(0.005, 1.0), (0.0, 1.0), (0.3, 0.25), (0.005, 0.0)],
    )
    def test_matches_counter_reference(self, grid, rare_floor, unseen):
        alphabet_size, window_length, stream, probes = grid
        expected = _markov_reference(
            stream, probes, window_length, rare_floor, unseen
        )
        detector = MarkovDetector(
            window_length,
            alphabet_size,
            rare_floor=rare_floor,
            unseen_context_response=unseen,
        ).fit(stream)
        np.testing.assert_array_equal(detector.score_windows(probes), expected)

    def test_matches_scalar_window_response(self, grid):
        """The batch path equals the detector's own scalar rule."""
        alphabet_size, window_length, stream, probes = grid
        detector = MarkovDetector(window_length, alphabet_size).fit(stream)
        scalar = np.array(
            [
                detector._window_response(tuple(int(c) for c in row))
                for row in probes
            ]
        )
        np.testing.assert_array_equal(detector.score_windows(probes), scalar)


class TestLaneBrodleyEquivalence:
    def test_matches_run_weight_reference(self, grid):
        alphabet_size, window_length, stream, probes = grid
        database = sorted(set(_window_tuples(stream, window_length)))

        def similarity(x, y):
            run = total = 0
            for a, b in zip(x, y):
                run = run + 1 if a == b else 0
                total += run
            return total

        maximum = window_length * (window_length + 1) // 2
        expected = np.array(
            [
                1.0 - max(similarity(row, entry) for entry in database) / maximum
                for row in probes.tolist()
            ]
        )
        detector = LaneBrodleyDetector(window_length, alphabet_size).fit(stream)
        np.testing.assert_array_equal(detector.score_windows(probes), expected)


class TestHammingEquivalence:
    def test_matches_mismatch_reference(self, grid):
        alphabet_size, window_length, stream, probes = grid
        database = sorted(set(_window_tuples(stream, window_length)))
        expected = np.array(
            [
                min(
                    sum(a != b for a, b in zip(row, entry))
                    for entry in database
                )
                / window_length
                for row in probes.tolist()
            ]
        )
        detector = HammingDetector(window_length, alphabet_size).fit(stream)
        np.testing.assert_array_equal(detector.score_windows(probes), expected)


class TestNeuralEquivalence:
    def test_batch_matches_per_row_scoring(self):
        alphabet_size, window_length = 6, 4
        stream = _training_stream(alphabet_size, window_length)
        probes = _probe_windows(stream, alphabet_size, window_length)
        detector = NeuralDetector(
            window_length,
            alphabet_size,
            config=MlpConfig(hidden_units=8, epochs=30),
        ).fit(stream)
        batched = detector.score_windows(probes)
        # One minimal stream per row.
        per_row = np.array([detector.score_window(row) for row in probes])
        np.testing.assert_allclose(batched, per_row, rtol=0, atol=1e-12)


class TestKernelPrimitives:
    def test_sorted_membership_empty_database(self):
        probes = np.array([1, 2, 3], dtype=np.int64)
        result = sorted_membership(probes, np.array([], dtype=np.int64))
        np.testing.assert_array_equal(result, np.zeros(3, dtype=bool))

    def test_sorted_membership_hits_and_misses(self):
        database = np.array([2, 5, 9], dtype=np.int64)
        probes = np.array([0, 2, 4, 5, 9, 10], dtype=np.int64)
        np.testing.assert_array_equal(
            sorted_membership(probes, database),
            np.array([False, True, False, True, True, False]),
        )

    def test_count_lookup_missing_probes_are_zero(self):
        codes = np.array([3, 7], dtype=np.int64)
        counts = np.array([4, 9], dtype=np.int64)
        probes = np.array([1, 3, 5, 7, 11], dtype=np.int64)
        np.testing.assert_array_equal(
            count_lookup(probes, codes, counts),
            np.array([0, 4, 0, 9, 0], dtype=np.int64),
        )

    def test_markov_batch_response_stays_clipped(self):
        joint = np.array([0, 5, 5, 1], dtype=np.int64)
        context = np.array([0, 5, 0, 10], dtype=np.int64)
        responses = markov_batch_response(joint, context, 0.0, 0.25)
        assert responses.min() >= 0.0 and responses.max() <= 1.0
        # unseen context & unseen joint -> configured response
        assert responses[0] == 0.25
        # certain transition -> 0
        assert responses[1] == 0.0
        # counted joint under an uncounted context -> maximal
        assert responses[2] == 1.0

    def test_lb_chunking_is_invisible(self):
        rng = np.random.default_rng(3)
        windows = rng.integers(0, 4, size=(50, 6)).astype(np.int64)
        database = rng.integers(0, 4, size=(30, 6)).astype(np.int64)
        one_chunk = lb_batch_similarity(windows, database, 10**9)
        many_chunks = lb_batch_similarity(windows, database, 6)
        np.testing.assert_array_equal(one_chunk, many_chunks)

    def test_hamming_chunking_is_invisible(self):
        rng = np.random.default_rng(4)
        windows = rng.integers(0, 4, size=(50, 6)).astype(np.int64)
        database = rng.integers(0, 4, size=(30, 6)).astype(np.int64)
        one_chunk = hamming_batch_distance(windows, database, 10**9)
        many_chunks = hamming_batch_distance(windows, database, 6)
        np.testing.assert_array_equal(one_chunk, many_chunks)

    @pytest.mark.parametrize("seed", range(5))
    def test_merge_sorted_unique_matches_union1d(self, seed):
        rng = np.random.default_rng(seed)
        table = np.unique(rng.integers(0, 200, size=60))
        delta = np.unique(rng.integers(0, 200, size=20))
        merged = merge_sorted_unique(table, delta)
        np.testing.assert_array_equal(merged, np.union1d(table, delta))

    def test_merge_sorted_unique_saturated_delta_is_allocation_free(self):
        table = np.array([2, 5, 9], dtype=np.int64)
        merged = merge_sorted_unique(table, np.array([5, 9], dtype=np.int64))
        assert merged is table  # the same array object: no allocation

    def test_merge_sorted_unique_empty_table(self):
        delta = np.array([1, 3], dtype=np.int64)
        np.testing.assert_array_equal(
            merge_sorted_unique(np.array([], dtype=np.int64), delta), delta
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_merge_sorted_counts_matches_unique_scatter_add(self, seed):
        rng = np.random.default_rng(100 + seed)
        values = np.unique(rng.integers(0, 150, size=50))
        counts = rng.integers(1, 9, size=len(values)).astype(np.int64)
        delta_values = np.unique(rng.integers(0, 150, size=25))
        delta_counts = rng.integers(1, 9, size=len(delta_values)).astype(
            np.int64
        )
        merged_values, merged_counts = merge_sorted_counts(
            values, counts, delta_values, delta_counts
        )
        # The multi-stream reference idiom: unique over the concat
        # plus a scatter-add.
        ref_values, inverse = np.unique(
            np.concatenate([values, delta_values]), return_inverse=True
        )
        ref_counts = np.zeros(len(ref_values), dtype=np.int64)
        np.add.at(
            ref_counts, inverse, np.concatenate([counts, delta_counts])
        )
        np.testing.assert_array_equal(merged_values, ref_values)
        np.testing.assert_array_equal(merged_counts, ref_counts)

    def test_merge_sorted_counts_saturated_delta_keeps_values_array(self):
        values = np.array([1, 4, 8], dtype=np.int64)
        counts = np.array([2, 2, 2], dtype=np.int64)
        merged_values, merged_counts = merge_sorted_counts(
            values,
            counts,
            np.array([4], dtype=np.int64),
            np.array([3], dtype=np.int64),
        )
        assert merged_values is values  # no new values: same array object
        np.testing.assert_array_equal(merged_counts, [2, 5, 2])
        np.testing.assert_array_equal(counts, [2, 2, 2])  # input untouched

    def test_merge_sorted_counts_empty_table(self):
        delta_values = np.array([3, 7], dtype=np.int64)
        delta_counts = np.array([1, 2], dtype=np.int64)
        merged_values, merged_counts = merge_sorted_counts(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            delta_values,
            delta_counts,
        )
        np.testing.assert_array_equal(merged_values, delta_values)
        np.testing.assert_array_equal(merged_counts, delta_counts)
