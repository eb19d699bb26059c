"""A small, dependency-free multilayer perceptron (NumPy only).

This is the learning machinery behind
:class:`~repro.detectors.neural.NeuralDetector`.  It is deliberately
period-appropriate: a multilayer feed-forward network trained by
backpropagation with a learning constant and a momentum constant — the
exact parameter vocabulary the paper takes from Zurada's textbook when
discussing the neural detector's tuning sensitivity (Section 7).

The network maps a one-hot-encoded context to a softmax distribution
over next symbols and is trained with weighted cross-entropy on the
distinct (context, next-symbol) pairs of the training stream, weights
being the pairs' occurrence counts.  Training is full-batch gradient
descent with momentum; initialization is seeded, so results are
reproducible.

The training kernel (algorithm version 2, see ``DESIGN.md``) keeps every
parameter in one flat buffer with the biases folded into the weight
matrices — a constant-1 input column and a constant-1 hidden column —
so each layer is one matrix product forward and one for its gradient,
and it stops early once the loss has converged (:data:`STOP_INTERVAL`,
:data:`STOP_MIN_GAIN`).  The network is small, so training cost is
per-call overhead, not arithmetic: the epoch loop allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DetectorConfigurationError

#: Epochs between two convergence checks.
STOP_INTERVAL = 10

#: Training stops once the loss improved by less than this fraction of
#: its value :data:`STOP_INTERVAL` epochs earlier.
STOP_MIN_GAIN = 1e-3


@dataclass(frozen=True)
class MlpConfig:
    """Hyperparameters of the feed-forward network.

    Attributes:
        hidden_units: size of the single hidden layer.
        learning_rate: the "learning constant".
        momentum: the "momentum constant".
        epochs: cap on the number of full-batch passes (training stops
            earlier once the loss has converged).
        seed: weight-initialization seed.
        init_scale: uniform initialization half-width.
    """

    hidden_units: int = 32
    learning_rate: float = 0.5
    momentum: float = 0.9
    epochs: int = 400
    seed: int = 7
    init_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.hidden_units < 1:
            raise DetectorConfigurationError(
                f"hidden_units must be >= 1, got {self.hidden_units}"
            )
        if self.learning_rate <= 0:
            raise DetectorConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise DetectorConfigurationError(
                f"momentum must lie in [0, 1), got {self.momentum}"
            )
        if self.epochs < 1:
            raise DetectorConfigurationError(f"epochs must be >= 1, got {self.epochs}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class NextSymbolMlp:
    """One-hidden-layer softmax classifier for next-symbol prediction.

    Args:
        input_dim: size of the one-hot context vector.
        output_dim: alphabet size.
        config: training hyperparameters.
    """

    def __init__(self, input_dim: int, output_dim: int, config: MlpConfig) -> None:
        if input_dim < 1 or output_dim < 2:
            raise DetectorConfigurationError(
                f"invalid MLP dimensions: input {input_dim}, output {output_dim}"
            )
        self._config = config
        hidden = config.hidden_units
        first = (input_dim + 1) * hidden
        # One flat parameter buffer; each layer is a (fan-in + 1, fan-out)
        # view whose last row is the layer's bias.
        self._params = np.zeros(first + (hidden + 1) * output_dim)
        self._layer1 = self._params[:first].reshape(input_dim + 1, hidden)
        self._layer2 = self._params[first:].reshape(hidden + 1, output_dim)
        rng = np.random.default_rng(config.seed)
        scale = config.init_scale
        self._layer1[:-1] = rng.uniform(-scale, scale, size=(input_dim, hidden))
        self._layer2[:-1] = rng.uniform(-scale, scale, size=(hidden, output_dim))

    @property
    def config(self) -> MlpConfig:
        """The hyperparameters this network was built with."""
        return self._config

    def _views(self) -> dict[str, np.ndarray]:
        return {
            "w1": self._layer1[:-1],
            "b1": self._layer1[-1],
            "w2": self._layer2[:-1],
            "b2": self._layer2[-1],
        }

    def export_weights(self) -> dict[str, np.ndarray]:
        """Copies of the current parameters, keyed ``w1/b1/w2/b2``.

        The serialization behind the fleet model store: loading the
        export back (same dimensions) restores a network whose
        predictions are bit-identical.
        """
        return {name: view.copy() for name, view in self._views().items()}

    def load_weights(self, state: dict[str, np.ndarray]) -> bool:
        """Install exported parameters; ``True`` on success.

        Dimension-checked against this network's architecture; any
        missing or mis-shaped array leaves the network untouched and
        returns ``False`` (the model store is corruption-tolerant, so
        loads must never trust their payload).
        """
        views = self._views()
        try:
            arrays = {
                name: np.asarray(state[name], dtype=np.float64) for name in views
            }
        except (KeyError, TypeError, ValueError):
            return False
        if any(arrays[name].shape != view.shape for name, view in views.items()):
            return False
        for name, view in views.items():
            view[...] = arrays[name]
        return True

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Softmax next-symbol distributions for a batch of contexts."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        hidden = np.tanh(inputs @ self._layer1[:-1] + self._layer1[-1])
        return _softmax(hidden @ self._layer2[:-1] + self._layer2[-1])

    def train(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        sample_weights: np.ndarray,
    ) -> float:
        """Fit with weighted cross-entropy; returns the trained loss.

        Full-batch gradient descent with momentum.  Every
        :data:`STOP_INTERVAL` epochs the loss is read off the forward
        pass; training stops there, before that epoch's update, once
        the loss improved by less than :data:`STOP_MIN_GAIN` of its
        previous reading.  The returned loss is always the loss of the
        weights the network ends with.

        Args:
            inputs: (n, input_dim) one-hot context batch.
            targets: (n,) integer next-symbol codes.
            sample_weights: (n,) non-negative weights (occurrence
                counts); normalized internally.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.int64)
        weights = np.asarray(sample_weights, dtype=np.float64)
        if len(inputs) != len(targets) or len(inputs) != len(weights):
            raise DetectorConfigurationError(
                "inputs, targets and sample_weights must have equal length"
            )
        if weights.sum() <= 0:
            raise DetectorConfigurationError("sample weights must sum to > 0")
        weights = weights / weights.sum()
        config = self._config
        budget = config.epochs
        layer1, layer2, params = self._layer1, self._layer2, self._params
        n, hidden, output_dim = len(inputs), layer1.shape[1], layer2.shape[1]
        # Folded operands: the constant-1 columns multiply the bias rows.
        x = np.ones((n, layer1.shape[0]))
        x[:, :-1] = inputs
        h = np.ones((n, hidden + 1))
        one_hot = np.zeros((n, output_dim))
        one_hot[np.arange(n), targets] = 1.0
        picks = np.arange(n) * output_dim + targets
        # The learning constant rides on the per-sample weights, so the
        # gradients come out pre-scaled.
        scaled = (config.learning_rate * weights)[:, None]
        # Per-epoch temporaries, written in place with out=.
        act = np.empty((n, hidden))
        slope = np.empty((n, hidden))
        delta_hidden = np.empty((n, hidden))
        probs = np.empty((n, output_dim))
        delta_out = np.empty((n, output_dim))
        row = np.empty((n, 1))
        picked = np.empty(n)
        gradient = np.empty_like(params)
        grad1 = gradient[: layer1.size].reshape(layer1.shape)
        grad2 = gradient[layer1.size :].reshape(layer2.shape)
        velocity = np.zeros_like(params)
        w2_t = layer2[:-1].T
        momentum = config.momentum
        previous = np.inf
        for epoch in range(budget + 1):
            np.matmul(x, layer1, out=act)
            np.tanh(act, out=act)
            h[:, :-1] = act
            np.matmul(h, layer2, out=probs)
            np.maximum.reduce(probs, axis=1, keepdims=True, out=row)
            probs -= row
            np.exp(probs, out=probs)
            np.add.reduce(probs, axis=1, keepdims=True, out=row)
            probs /= row
            if epoch % STOP_INTERVAL == 0 or epoch == budget:
                np.take(probs, picks, out=picked)
                np.clip(picked, 1e-12, 1.0, out=picked)
                np.log(picked, out=picked)
                loss = -float(weights @ picked)
                if epoch == budget or previous - loss < STOP_MIN_GAIN * previous:
                    break
                previous = loss
            # Backpropagation of the weighted cross-entropy.
            np.subtract(probs, one_hot, out=delta_out)
            delta_out *= scaled
            np.matmul(delta_out, w2_t, out=delta_hidden)
            np.multiply(act, act, out=slope)
            np.subtract(1.0, slope, out=slope)
            delta_hidden *= slope
            np.matmul(x.T, delta_hidden, out=grad1)
            np.matmul(h.T, delta_out, out=grad2)
            velocity *= momentum
            velocity -= gradient
            params += velocity
        return loss
