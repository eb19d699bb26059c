"""Tests for repro.detectors.mlp — the NumPy feed-forward network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.mlp import STOP_INTERVAL, STOP_MIN_GAIN, MlpConfig, NextSymbolMlp
from repro.exceptions import DetectorConfigurationError


class TestConfig:
    def test_rejects_no_hidden_units(self):
        with pytest.raises(DetectorConfigurationError, match="hidden_units"):
            MlpConfig(hidden_units=0)

    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(DetectorConfigurationError, match="learning_rate"):
            MlpConfig(learning_rate=0.0)

    def test_rejects_momentum_of_one(self):
        with pytest.raises(DetectorConfigurationError, match="momentum"):
            MlpConfig(momentum=1.0)

    def test_rejects_zero_epochs(self):
        with pytest.raises(DetectorConfigurationError, match="epochs"):
            MlpConfig(epochs=0)


class TestNetwork:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(DetectorConfigurationError, match="dimensions"):
            NextSymbolMlp(0, 4, MlpConfig())
        with pytest.raises(DetectorConfigurationError, match="dimensions"):
            NextSymbolMlp(4, 1, MlpConfig())

    def test_predict_proba_is_distribution(self):
        network = NextSymbolMlp(6, 4, MlpConfig(epochs=1))
        inputs = np.eye(6)[:3]
        probabilities = network.predict_proba(inputs)
        assert probabilities.shape == (3, 4)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert (probabilities >= 0).all()

    def test_train_validates_lengths(self):
        network = NextSymbolMlp(4, 3, MlpConfig(epochs=1))
        with pytest.raises(DetectorConfigurationError, match="equal length"):
            network.train(np.eye(4), np.zeros(3, dtype=int), np.ones(4))

    def test_train_validates_weights(self):
        network = NextSymbolMlp(4, 3, MlpConfig(epochs=1))
        with pytest.raises(DetectorConfigurationError, match="sum"):
            network.train(np.eye(4), np.zeros(4, dtype=int), np.zeros(4))

    def test_learns_deterministic_mapping(self):
        """One-hot input i -> target i % 3, learnable exactly."""
        config = MlpConfig(hidden_units=16, epochs=600, learning_rate=0.8, seed=0)
        network = NextSymbolMlp(6, 3, config)
        inputs = np.eye(6)
        targets = np.arange(6) % 3
        loss = network.train(inputs, targets, np.ones(6))
        predictions = network.predict_proba(inputs).argmax(axis=1)
        assert predictions.tolist() == targets.tolist()
        assert loss < 0.1

    def test_learns_weighted_conditional(self):
        """Sample weights shape the learned conditional distribution."""
        config = MlpConfig(hidden_units=12, epochs=800, learning_rate=0.6, seed=1)
        network = NextSymbolMlp(2, 2, config)
        # Context 0 -> target 0 with weight 95, target 1 with weight 5.
        inputs = np.asarray([[1.0, 0.0], [1.0, 0.0]])
        targets = np.asarray([0, 1])
        network.train(inputs, targets, np.asarray([95.0, 5.0]))
        probabilities = network.predict_proba(inputs[:1])[0]
        assert probabilities[0] == pytest.approx(0.95, abs=0.05)

    def test_seeded_initialization_reproducible(self):
        a = NextSymbolMlp(4, 3, MlpConfig(seed=5, epochs=1))
        b = NextSymbolMlp(4, 3, MlpConfig(seed=5, epochs=1))
        x = np.eye(4)
        assert np.allclose(a.predict_proba(x), b.predict_proba(x))

    def test_different_seeds_differ(self):
        a = NextSymbolMlp(4, 3, MlpConfig(seed=5, epochs=1))
        b = NextSymbolMlp(4, 3, MlpConfig(seed=6, epochs=1))
        x = np.eye(4)
        assert not np.allclose(a.predict_proba(x), b.predict_proba(x))

    def test_training_reduces_loss(self):
        inputs = np.eye(5)
        targets = np.asarray([0, 1, 2, 3, 0])
        weights = np.ones(5)
        short = NextSymbolMlp(5, 4, MlpConfig(seed=2, epochs=5))
        long = NextSymbolMlp(5, 4, MlpConfig(seed=2, epochs=400))
        assert long.train(inputs, targets, weights) < short.train(
            inputs, targets, weights
        )


def reference_train(start, inputs, targets, sample_weights, config):
    """The documented training algorithm, written plainly.

    Full-batch weighted cross-entropy with momentum on the folded
    layout (constant-1 input and hidden columns carry the biases), the
    learning constant folded into the sample weights, and the
    convergence stop checked every ``STOP_INTERVAL`` epochs before that
    epoch's update.  Returns ``(weights, loss, epochs_run)``.
    """
    weights = sample_weights / sample_weights.sum()
    budget = config.epochs
    n = len(inputs)
    layer1 = np.vstack([start["w1"], start["b1"]])
    layer2 = np.vstack([start["w2"], start["b2"]])
    x = np.hstack([inputs, np.ones((n, 1))])
    one_hot = np.eye(layer2.shape[1])[targets]
    scaled = (config.learning_rate * weights)[:, None]
    velocity1 = np.zeros_like(layer1)
    velocity2 = np.zeros_like(layer2)
    previous = np.inf
    for epoch in range(budget + 1):
        act = np.tanh(x @ layer1)
        h = np.hstack([act, np.ones((n, 1))])
        logits = h @ layer2
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        if epoch % STOP_INTERVAL == 0 or epoch == budget:
            picked = np.clip(probs[np.arange(n), targets], 1e-12, 1.0)
            loss = -float(weights @ np.log(picked))
            if epoch == budget or previous - loss < STOP_MIN_GAIN * previous:
                break
            previous = loss
        delta_out = (probs - one_hot) * scaled
        delta_hidden = (delta_out @ layer2[:-1].T) * (1.0 - act * act)
        velocity1 = velocity1 * config.momentum - x.T @ delta_hidden
        velocity2 = velocity2 * config.momentum - h.T @ delta_out
        layer1 = layer1 + velocity1
        layer2 = layer2 + velocity2
    trained = {"w1": layer1[:-1], "b1": layer1[-1], "w2": layer2[:-1], "b2": layer2[-1]}
    return trained, loss, epoch


def one_hot_problem(n, context_length, alphabet_size, seed):
    """Random one-hot contexts, next-symbol targets and counts."""
    rng = np.random.default_rng(seed)
    contexts = rng.integers(0, alphabet_size, size=(n, context_length))
    inputs = np.zeros((n, context_length * alphabet_size))
    for position in range(context_length):
        inputs[np.arange(n), position * alphabet_size + contexts[:, position]] = 1.0
    targets = rng.integers(0, alphabet_size, size=n)
    counts = rng.integers(1, 50, size=n).astype(float)
    return inputs, targets, counts


def assert_matches_reference(network, inputs, targets, counts):
    start = network.export_weights()
    loss = network.train(inputs, targets, counts)
    expected, expected_loss, epochs_run = reference_train(
        start, inputs, targets, counts, network.config
    )
    trained = network.export_weights()
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(trained[name], expected[name]), name
    assert loss == expected_loss
    return epochs_run


class TestKernelMatchesReference:
    """The in-place training kernel equals the plain algorithm bit for bit."""

    @pytest.mark.parametrize(
        ("n", "context_length", "alphabet_size", "config", "stops"),
        [
            (1, 1, 4, MlpConfig(), True),
            (6, 2, 3, MlpConfig(hidden_units=8), True),
            (40, 3, 5, MlpConfig(), True),
            # The paper's largest fit: DW=15 over AS=8, 106 distinct rows.
            (106, 14, 8, MlpConfig(), False),
        ],
        ids=["one-row", "6x6", "40x15", "106x112"],
    )
    def test_cold_fit(self, n, context_length, alphabet_size, config, stops):
        inputs, targets, counts = one_hot_problem(n, context_length, alphabet_size, n)
        network = NextSymbolMlp(inputs.shape[1], alphabet_size, config)
        epochs_run = assert_matches_reference(network, inputs, targets, counts)
        assert (epochs_run < config.epochs) is stops


class TestConvergenceStop:
    def test_stops_before_the_cap_on_a_plateau(self):
        """Conflicting targets plateau at their entropy; a higher cap
        changes nothing because the stop has already fired."""
        inputs = np.asarray([[1.0, 0.0], [1.0, 0.0]])
        targets = np.asarray([0, 1])
        counts = np.asarray([95.0, 5.0])
        capped = NextSymbolMlp(2, 2, MlpConfig(seed=1, epochs=400))
        uncapped = NextSymbolMlp(2, 2, MlpConfig(seed=1, epochs=4000))
        loss = capped.train(inputs, targets, counts)
        assert uncapped.train(inputs, targets, counts) == loss
        for name, array in capped.export_weights().items():
            assert np.array_equal(array, uncapped.export_weights()[name])
        entropy = -(0.95 * np.log(0.95) + 0.05 * np.log(0.05))
        assert entropy <= loss < 1.1 * entropy

    def test_returned_loss_belongs_to_the_returned_weights(self):
        inputs, targets, counts = one_hot_problem(20, 2, 4, 3)
        network = NextSymbolMlp(8, 4, MlpConfig())
        loss = network.train(inputs, targets, counts)
        probs = network.predict_proba(inputs)[np.arange(20), targets]
        recomputed = -(counts / counts.sum() * np.log(probs)).sum()
        assert loss == pytest.approx(recomputed, rel=1e-9)
