"""E13 — throughput: detector scoring rates on long streams.

Not a paper figure — an engineering benchmark recording how fast each
similarity metric scores a long categorical stream, for sizing
deployments of the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from _artifacts import write_artifact

from repro.detectors.registry import create_detector
from repro.detectors.stide import sorted_membership
from repro.sequences.windows import pack_windows, windows_array

WINDOW_LENGTH = 6
TEST_LENGTH = 100_000

_RESULTS: dict[str, float] = {}
_MEMBERSHIP: dict[tuple[str, int], float] = {}


@pytest.mark.parametrize(
    "name", ("stide", "t-stide", "markov", "lane-brodley")
)
def test_scoring_throughput(benchmark, training, name):
    detector = create_detector(name, WINDOW_LENGTH, 8)
    detector.fit(training.stream)
    test_stream = training.stream[:TEST_LENGTH]

    responses = benchmark(detector.score_stream, test_stream)

    assert len(responses) == len(test_stream) - WINDOW_LENGTH + 1
    mean_seconds = benchmark.stats.stats.mean
    _RESULTS[name] = len(responses) / mean_seconds
    lines = [
        f"Throughput (DW={WINDOW_LENGTH}, stream {len(test_stream)} elements):"
    ]
    lines.extend(
        f"  {detector_name:<14} {rate:>14,.0f} windows/s"
        for detector_name, rate in sorted(_RESULTS.items())
    )
    write_artifact("throughput", "\n".join(lines))


_BATCH_RESULTS: dict[str, float] = {}


@pytest.mark.parametrize(
    "name", ("stide", "t-stide", "markov", "lane-brodley", "hamming")
)
def test_batch_scoring_throughput(benchmark, training, name):
    """One batched kernel pass over the stream's distinct windows.

    The sweep engine's unique-window regime: deduplicate the test
    windows, push the whole batch through
    :meth:`~repro.detectors.base.AnomalyDetector.score_windows` at once.
    """
    detector = create_detector(name, WINDOW_LENGTH, 8)
    detector.fit(training.stream)
    rows = np.unique(
        windows_array(training.stream[:TEST_LENGTH], WINDOW_LENGTH), axis=0
    )

    responses = benchmark(detector.score_windows, rows)

    assert len(responses) == len(rows)
    _BATCH_RESULTS[name] = len(rows) / benchmark.stats.stats.mean
    lines = [
        f"Batch kernel throughput (DW={WINDOW_LENGTH}, "
        f"{len(rows):,} distinct windows):"
    ]
    lines.extend(
        f"  {detector_name:<14} {rate:>14,.0f} windows/s"
        for detector_name, rate in sorted(_BATCH_RESULTS.items())
    )
    write_artifact("batch_throughput", "\n".join(lines))


@pytest.mark.parametrize("window_length", (6, 14))
@pytest.mark.parametrize("strategy", ("isin", "searchsorted"))
def test_stide_membership_strategy(benchmark, training, strategy, window_length):
    """Stide's database membership test: np.isin vs bisection.

    The packed normal database is already sorted (``np.unique``
    output), so per-probe ``searchsorted`` bisection skips the
    hash/sort machinery ``np.isin`` rebuilds on every call.  At small
    windows (packed range 8**6) ``np.isin`` can fall back to an O(1)
    lookup table and wins; at the grid's large windows (8**14 exceeds
    any table budget) it must sort-merge and bisection pulls ahead, so
    both regimes are recorded.
    """
    windows = windows_array(training.stream, window_length)
    packed = pack_windows(windows, training.alphabet.size)
    database = np.unique(packed[: len(packed) // 2])
    probes = packed[:TEST_LENGTH]

    if strategy == "isin":
        known = benchmark(np.isin, probes, database)
    else:
        known = benchmark(sorted_membership, probes, database)

    assert known.dtype == bool and len(known) == len(probes)
    key = (strategy, window_length)
    _MEMBERSHIP[key] = len(probes) / benchmark.stats.stats.mean
    lines = [f"Stide membership ({len(probes):,} probes):"]
    lines.extend(
        f"  {name:<14} DW={length:<3} {rate:>16,.0f} probes/s"
        for (name, length), rate in sorted(_MEMBERSHIP.items())
    )
    for length in sorted({length for _name, length in _MEMBERSHIP}):
        isin = _MEMBERSHIP.get(("isin", length))
        bisect = _MEMBERSHIP.get(("searchsorted", length))
        if isin and bisect:
            lines.append(
                f"  DW={length}: searchsorted/isin ratio {bisect / isin:.2f}x"
            )
    write_artifact("stide_membership", "\n".join(lines))


def test_fit_throughput(benchmark, training):
    """Time fitting Stide's normal database on the full training stream."""
    detector = create_detector("stide", WINDOW_LENGTH, 8)

    benchmark(detector.fit, training.stream)

    assert detector.is_fitted
