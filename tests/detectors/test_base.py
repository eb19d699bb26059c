"""Tests for repro.detectors.base — the shared detector protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.base import AnomalyDetector, FittedState
from repro.exceptions import (
    DetectorConfigurationError,
    NotFittedError,
    WindowError,
)


class ConstantDetector(AnomalyDetector):
    """Minimal concrete detector for protocol tests."""

    name = "constant"

    def __init__(self, window_length: int, alphabet_size: int, value: float = 0.0):
        super().__init__(window_length, alphabet_size)
        self._value = value
        self.fitted_streams: list[np.ndarray] = []

    def _fit(self, training_streams):
        self.fitted_streams = training_streams

    def _score_windows(self, windows):
        return np.full(len(windows), self._value)


class MisbehavingDetector(ConstantDetector):
    """Returns the wrong number of responses."""

    name = "misbehaving"

    def _score_windows(self, windows):
        return np.zeros(1)


class TestConfiguration:
    def test_rejects_window_below_two(self):
        with pytest.raises(DetectorConfigurationError, match="window_length"):
            ConstantDetector(1, 8)

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(DetectorConfigurationError, match="alphabet_size"):
            ConstantDetector(3, 1)

    def test_rejects_bad_tolerance(self):
        class Bad(ConstantDetector):
            def __init__(self):
                AnomalyDetector.__init__(self, 3, 8, response_tolerance=1.0)

        with pytest.raises(DetectorConfigurationError, match="tolerance"):
            Bad()

    def test_properties(self):
        detector = ConstantDetector(4, 8)
        assert detector.window_length == 4
        assert detector.alphabet_size == 8
        assert detector.response_tolerance == 0.0
        assert "DW=4" in detector.describe()


class TestLifecycle:
    def test_starts_unfitted(self):
        assert not ConstantDetector(3, 8).is_fitted

    def test_fit_returns_self(self):
        detector = ConstantDetector(3, 8)
        assert detector.fit([0, 1, 2, 3]) is detector
        assert detector.is_fitted

    def test_score_before_fit_raises(self):
        with pytest.raises(NotFittedError, match="fitted"):
            ConstantDetector(3, 8).score_stream([0, 1, 2, 3])

    def test_fitted_state_enum(self):
        assert FittedState.UNFITTED.value == "unfitted"
        assert FittedState.FITTED.value == "fitted"

    def test_repr_mentions_state(self):
        detector = ConstantDetector(3, 8)
        assert "unfitted" in repr(detector)
        detector.fit([0, 1, 2])
        assert "fitted" in repr(detector)


class TestFitValidation:
    def test_rejects_streams_all_too_short(self):
        with pytest.raises(WindowError, match="no training stream"):
            ConstantDetector(5, 8).fit_many([[0, 1], [2]])

    def test_short_streams_dropped_long_kept(self):
        detector = ConstantDetector(3, 8)
        detector.fit_many([[0, 1], [0, 1, 2, 3]])
        assert len(detector.fitted_streams) == 1

    def test_rejects_out_of_alphabet_codes(self):
        with pytest.raises(WindowError, match="outside the alphabet"):
            ConstantDetector(2, 8).fit([0, 8])

    def test_rejects_negative_codes(self):
        with pytest.raises(WindowError, match="outside the alphabet"):
            ConstantDetector(2, 8).fit([0, -1])

    def test_rejects_2d_streams(self):
        with pytest.raises(WindowError, match="one-dimensional"):
            ConstantDetector(2, 8).fit(np.zeros((3, 3)))


class TestScoring:
    def test_response_count(self):
        detector = ConstantDetector(3, 8).fit([0, 1, 2, 3])
        assert len(detector.score_stream([0, 1, 2, 3, 4])) == 3

    def test_score_window_scalar(self):
        detector = ConstantDetector(3, 8, value=0.5).fit([0, 1, 2])
        assert detector.score_window((0, 1, 2)) == 0.5

    def test_score_window_shape_checked(self):
        detector = ConstantDetector(3, 8).fit([0, 1, 2])
        with pytest.raises(WindowError, match="length 3"):
            detector.score_window((0, 1))

    def test_rejects_short_test_stream(self):
        detector = ConstantDetector(4, 8).fit([0, 1, 2, 3])
        with pytest.raises(WindowError, match="shorter than the"):
            detector.score_stream([0, 1])

    def test_response_shape_enforced(self):
        detector = MisbehavingDetector(3, 8).fit([0, 1, 2, 3])
        with pytest.raises(WindowError, match="responses"):
            detector.score_stream([0, 1, 2, 3, 4])


class TestDecisionStream:
    def test_binary_detector_decisions(self):
        detector = ConstantDetector(3, 8, value=1.0).fit([0, 1, 2])
        assert detector.decision_stream([0, 1, 2, 3]).tolist() == [True, True]

    def test_tolerance_honored(self):
        class Graded(ConstantDetector):
            name = "graded"

            def __init__(self):
                AnomalyDetector.__init__(self, 3, 8, response_tolerance=0.1)
                self._value = 0.92

        detector = Graded().fit([0, 1, 2])
        assert detector.decision_stream([0, 1, 2, 3]).all()

    def test_sub_threshold_stays_quiet(self):
        detector = ConstantDetector(3, 8, value=0.8).fit([0, 1, 2])
        assert not detector.decision_stream([0, 1, 2, 3]).any()

    def test_matches_paper_threshold_on_stide(self, training):
        from repro.detectors import StideDetector

        stide = StideDetector(4, 8).fit(training.stream[:5000])
        test = training.stream[5000:8000]
        decisions = stide.decision_stream(test)
        assert decisions.tolist() == (stide.score_stream(test) == 1.0).tolist()
