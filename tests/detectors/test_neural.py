"""Tests for repro.detectors.neural."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.mlp import MlpConfig
from repro.detectors.neural import NeuralDetector
from repro.sequences.windows import windows_array

CYCLE = [0, 1, 2, 3] * 50

FAST = MlpConfig(hidden_units=16, epochs=250, learning_rate=0.6, seed=3)


class TestBasics:
    @pytest.fixture(scope="class")
    def detector(self) -> NeuralDetector:
        return NeuralDetector(2, 4, config=FAST).fit(CYCLE)

    def test_default_tolerance(self):
        assert NeuralDetector(2, 8).response_tolerance == 0.1

    def test_config_exposed(self, detector):
        assert detector.config is FAST

    def test_final_loss_recorded(self, detector):
        assert detector.final_training_loss < 0.5

    def test_normal_transition_low_response(self, detector):
        assert detector.score_window((0, 1)) < 0.2

    def test_foreign_transition_high_response(self, detector):
        assert detector.score_window((0, 2)) > 0.9

    def test_responses_in_unit_interval(self, detector):
        responses = detector.score_stream([0, 1, 2, 3, 0, 2, 1, 3])
        assert responses.min() >= 0.0 and responses.max() <= 1.0

    def test_deduplicated_scoring_matches_per_window(self, detector):
        test = [0, 1, 2, 3, 0, 1]
        responses = detector.score_stream(test)
        for i in range(len(test) - 1):
            assert responses[i] == pytest.approx(
                detector.score_window(tuple(test[i : i + 2]))
            )

    def test_score_windows_matches_row_wise_on_unsorted_duplicates(self):
        """Entry ``i`` is row ``i``'s response, whatever the order and repeats.

        BLAS may round a row's last bit differently with the batch
        shape, so the row-wise comparison allows a float64 rounding error.
        """
        detector = NeuralDetector(4, 6, config=FAST).fit(
            np.random.default_rng(5).integers(0, 6, 3000)
        )
        rows = np.random.default_rng(6).integers(0, 6, (60, 4))
        rows = np.concatenate([rows, rows[::-3], rows[:5]])
        batch = detector.score_windows(rows)
        single = np.array([detector.score_window(row) for row in rows])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "stream",
        [
            np.full(40, 3),
            np.random.default_rng(7).integers(0, 6, 120),
        ],
        ids=["constant", "repetitive"],
    )
    def test_served_windows_equal_stream_scores_bitwise(
        self, stream, monkeypatch
    ):
        """``score_windows`` of a stream's windows is ``score_stream``, bit for bit.

        ``repro serve`` scores a request's raw windows, duplicates
        included.  BLAS may round a row differently with the batch
        shape, so both paths must feed the network the same batch.
        """
        detector = NeuralDetector(4, 6, config=FAST).fit(
            np.random.default_rng(5).integers(0, 6, 3000)
        )
        network = detector._network
        batches = []

        def recording_predict(inputs):
            batches.append(inputs.copy())
            return type(network).predict_proba(network, inputs)

        monkeypatch.setattr(network, "predict_proba", recording_predict)
        served = detector.score_windows(windows_array(stream, 4))
        reference = detector.score_stream(stream)
        assert np.array_equal(served, reference)
        served_batch, reference_batch = batches
        np.testing.assert_array_equal(served_batch, reference_batch)

    def test_deterministic_under_seed(self):
        a = NeuralDetector(2, 4, config=FAST).fit(CYCLE)
        b = NeuralDetector(2, 4, config=FAST).fit(CYCLE)
        test = [0, 1, 2, 0]
        assert np.allclose(a.score_stream(test), b.score_stream(test))


class TestPaperBehavior:
    """Figure 6: the NN mimics the Markov detector when well tuned,
    and degrades when mistuned (the Section 7 caveat)."""

    def test_detects_mfs_across_grid_when_tuned(self, training, suite):
        for anomaly_size, window_length in ((3, 2), (6, 4), (9, 5), (4, 9)):
            detector = NeuralDetector(window_length, 8).fit(training.stream)
            injected = suite.stream(anomaly_size)
            span = injected.incident_span(window_length)
            responses = detector.score_stream(injected.stream)
            threshold = 1.0 - detector.response_tolerance
            assert responses[span.start : span.stop].max() >= threshold, (
                f"AS={anomaly_size} DW={window_length}"
            )

    def test_mistuned_network_weakens_the_signal(self, training, suite):
        """Ablation E10: starving the network opens weak/blind cells."""
        crippled = MlpConfig(
            hidden_units=1, epochs=3, learning_rate=0.01, momentum=0.0, seed=0
        )
        detector = NeuralDetector(4, 8, config=crippled).fit(training.stream)
        injected = suite.stream(6)
        span = injected.incident_span(4)
        responses = detector.score_stream(injected.stream)
        threshold = 1.0 - detector.response_tolerance
        assert responses[span.start : span.stop].max() < threshold

    def test_no_spurious_maximal_responses_on_background(self, training, suite):
        detector = NeuralDetector(3, 8).fit(training.stream)
        injected = suite.stream(5)
        span = injected.incident_span(3)
        responses = detector.score_stream(injected.stream)
        outside = np.delete(responses, np.arange(span.start, span.stop))
        assert outside.max() < 1.0 - detector.response_tolerance


class TestKernelVersioning:
    """Plan stages computed by the version-1 training algorithm are
    never adopted."""

    #: The family fingerprint of a version-1 ``NeuralDetector(2, 4, FAST)``.
    VERSION_1 = (
        "family=neural-network;as=4;tol=0.1;hidden=16;lr=0.6;"
        "mom=0.9;epochs=250;seed=3;init=0.5"
    )

    def test_fingerprint_carries_the_kernel_version(self):
        fingerprint = NeuralDetector(2, 4, config=FAST).family_fingerprint()
        assert fingerprint.endswith(";kernel=2")
        assert fingerprint == self.VERSION_1 + ";kernel=2"
