"""Tests for repro.detectors.registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import (
    PAPER_DETECTORS,
    available_detectors,
    create_detector,
    detector_class,
    register_detector,
)
from repro.exceptions import DetectorConfigurationError


class TestLookup:
    def test_all_paper_detectors_registered(self):
        names = available_detectors()
        for name in PAPER_DETECTORS:
            assert name in names

    def test_available_is_sorted(self):
        names = available_detectors()
        assert list(names) == sorted(names)

    def test_detector_class_lookup(self):
        assert detector_class("stide").name == "stide"

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(DetectorConfigurationError, match="available"):
            detector_class("nonexistent")

    def test_create_detector(self):
        detector = create_detector("stide", 5, 8)
        assert detector.window_length == 5
        assert not detector.is_fitted

    def test_create_forwards_kwargs(self):
        detector = create_detector("markov", 3, 8, rare_floor=0.02)
        assert detector.rare_floor == 0.02

    def test_create_every_registered_detector(self):
        stream = np.arange(40) % 8
        for name in available_detectors():
            detector = create_detector(name, 3, 8)
            if name == "neural-network":
                continue  # training cost; covered in its own tests
            detector.fit(stream)
            assert detector.is_fitted


class TestRegistration:
    def test_register_and_use_custom_detector(self):
        class EchoDetector(AnomalyDetector):
            name = "echo-test-detector"

            def _fit(self, training_streams):
                pass

            def _score_windows(self, windows):
                return np.zeros(len(windows))

        try:
            register_detector(EchoDetector)
            assert "echo-test-detector" in available_detectors()
            detector = create_detector("echo-test-detector", 2, 8)
            assert isinstance(detector, EchoDetector)
        finally:
            from repro.detectors import registry

            registry._REGISTRY.pop("echo-test-detector", None)

    def test_rejects_duplicate_name(self):
        class Impostor(AnomalyDetector):
            name = "stide"

            def _fit(self, training_streams):
                pass

            def _score_windows(self, windows):
                return np.zeros(0)

        with pytest.raises(DetectorConfigurationError, match="already"):
            register_detector(Impostor)

    def test_rejects_default_name(self):
        class Nameless(AnomalyDetector):
            def _fit(self, training_streams):
                pass

            def _score_windows(self, windows):
                return np.zeros(0)

        with pytest.raises(DetectorConfigurationError, match="name"):
            register_detector(Nameless)
