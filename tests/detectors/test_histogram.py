"""Tests for repro.detectors.histogram."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors import histogram
from repro.detectors.histogram import HistogramDetector
from repro.detectors.registry import available_detectors, create_detector

TRAIN = [0, 1, 2, 3] * 30


class TestBasics:
    @pytest.fixture()
    def detector(self) -> HistogramDetector:
        return HistogramDetector(4, 8).fit(TRAIN)

    def test_registered(self):
        assert "histogram" in available_detectors()
        assert isinstance(create_detector("histogram", 3, 8), HistogramDetector)

    def test_cycle_windows_share_one_histogram(self, detector):
        # Every window of the pure cycle holds each symbol once.
        assert detector.profile_size == 1

    def test_normal_window_distance_zero(self, detector):
        assert detector.distance_to_normal((0, 1, 2, 3)) == 0
        assert detector.score_window((2, 3, 0, 1)) == 0.0

    def test_order_blindness(self, detector):
        """Any permutation of a normal histogram scores 0."""
        assert detector.score_window((3, 1, 0, 2)) == 0.0

    def test_frequency_anomaly_scores(self, detector):
        # Four copies of one symbol: histogram distance 6 of max 8.
        assert detector.distance_to_normal((0, 0, 0, 0)) == 6
        assert detector.score_window((0, 0, 0, 0)) == pytest.approx(6 / 8)

    def test_responses_in_unit_interval(self, detector):
        responses = detector.score_stream([0, 0, 1, 1, 2, 2, 3, 3])
        assert responses.min() >= 0.0 and responses.max() <= 1.0

    def test_maximal_requires_disjoint_symbols(self):
        # Train on symbols {0,1}; a window of {2,3} is maximally far.
        detector = HistogramDetector(2, 4).fit([0, 1] * 20)
        assert detector.score_window((2, 3)) == 1.0

    def test_deduplicated_scoring_matches_scalar(self, detector):
        test = [0, 1, 2, 3, 3, 2, 1, 0]
        responses = detector.score_stream(test)
        for i in range(len(test) - 3):
            assert responses[i] == pytest.approx(
                detector.score_window(tuple(test[i : i + 4]))
            )

    def test_chunking_is_invisible(self, monkeypatch):
        detector = HistogramDetector(4, 8).fit([0, 1, 2, 3, 3, 5] * 30)
        stream = np.random.default_rng(3).integers(0, 8, 500)
        whole = detector.score_stream(stream)
        monkeypatch.setattr(histogram, "CHUNK_ELEMENTS", 50)
        assert detector.score_stream(stream).tobytes() == whole.tobytes()


class TestAnomalyTypeAxis:
    """The detector-diversity punchline: different anomaly *types*."""

    def test_blind_to_order_only_mfs(self, training, suite):
        """The paper's MFSs reorder common symbols; the histogram
        detector cannot see them anywhere on the grid."""
        for window_length in (3, 6, 10):
            detector = HistogramDetector(window_length, 8).fit(training.stream)
            for anomaly_size in (3, 6, 9):
                injected = suite.stream(anomaly_size)
                span = injected.incident_span(window_length)
                responses = detector.score_stream(injected.stream)
                # Windows inside the incident span reorder cycle symbols
                # and at most swap a couple of counts.
                assert responses[span.start : span.stop].max() < 1.0

    def test_catches_frequency_burst_stide_misses(self):
        """A burst assembled from windows that each exist in training:
        Stide sees nothing, the histogram detector fires."""
        from repro.detectors import StideDetector

        # Training: alternation plus an isolated 0-run of 2 and 1-run
        # of 2, so all 2-windows exist.
        train = [0, 1] * 50 + [0, 0, 1, 1] + [0, 1] * 50
        burst = [0, 1, 0, 0, 0, 0, 0, 0, 1, 0]  # heavy zero burst
        stide = StideDetector(2, 2).fit(train)
        histogram = HistogramDetector(6, 2).fit(train)
        assert stide.score_stream(burst).max() == 0.0  # every pair known
        assert histogram.score_stream(burst).max() > 0.3
