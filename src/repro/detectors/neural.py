"""Neural-network anomaly detector (Debar et al., 1992).

The detector employs the sequential ordering of events via a multilayer
feed-forward network that predicts the next categorical element from
the current context of ``DW - 1`` elements.  It uses no explicit
probabilistic concepts, but its function approximation mimics the
conditional probabilities of the Markov detector — exactly the paper's
characterization (Sections 5.2 and 7).

For a window ``w`` the response is ``1 - P_net(w[-1] | w[:-1])``.  The
network emits *graded* responses: a rare transition yields a response
close to, but not exactly, 1.  The detector therefore carries a nonzero
``response_tolerance`` (default 0.1): responses within the tolerance of
1 are treated as maximal by the evaluation harness, the thresholding
role the paper assigns to the NN's critical detection-threshold
parameter.  With a well-tuned network the resulting coverage mimics the
Markov detector (Figure 6); degrading the tuning (few hidden units, a
poor learning constant, too few epochs) weakens the anomaly signal and
opens blind/weak regions — the paper's reliability caveat, exercised by
the ablation bench E10.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.detectors.mlp import MlpConfig, NextSymbolMlp
from repro.exceptions import DetectorConfigurationError

#: Version of the :meth:`NextSymbolMlp.train` algorithm, part of the
#: family fingerprint: plan stages computed by a different algorithm
#: are never adopted.
KERNEL_VERSION = 2


class NeuralDetector(AnomalyDetector):
    """Feed-forward next-symbol predictor with graded responses.

    Args:
        window_length: the detector window ``DW`` (>= 2); the network
            conditions on the ``DW - 1`` preceding elements.
        alphabet_size: number of symbol codes.
        config: network hyperparameters (defaults are the well-tuned
            configuration used for Figure 6).
        response_tolerance: slack under which a response counts as
            maximal (the detection-threshold setting; default 0.1).
    """

    name = "neural-network"

    def __init__(
        self,
        window_length: int,
        alphabet_size: int,
        config: MlpConfig | None = None,
        response_tolerance: float = 0.1,
    ) -> None:
        super().__init__(
            window_length, alphabet_size, response_tolerance=response_tolerance
        )
        self._config = config or MlpConfig()
        self._network: NextSymbolMlp | None = None
        self._final_loss: float | None = None

    @property
    def config(self) -> MlpConfig:
        """The network hyperparameters."""
        return self._config

    @property
    def final_training_loss(self) -> float:
        """Weighted cross-entropy at the end of training."""
        self._require_fitted()
        assert self._final_loss is not None
        return self._final_loss

    def _one_hot_contexts(self, contexts: np.ndarray) -> np.ndarray:
        """Encode (n, DW-1) integer contexts as flat one-hot vectors."""
        n, context_length = contexts.shape
        encoded = np.zeros((n, context_length * self.alphabet_size))
        offsets = np.arange(context_length) * self.alphabet_size
        flat_index = (contexts + offsets[None, :]).ravel()
        rows = np.repeat(np.arange(n), context_length)
        encoded[rows, flat_index] = 1.0
        return encoded

    def _fit(self, training_streams: list[np.ndarray]) -> None:
        # Distinct rows arrive in lexicographic order — exactly the
        # sorted-tuple order the training set uses.
        windows, counts = self._distinct_windows(training_streams)
        if not len(windows):
            raise DetectorConfigurationError("no training windows available")
        weights = counts.astype(float)
        contexts = windows[:, :-1]
        targets = windows[:, -1]
        network = NextSymbolMlp(
            input_dim=(self.window_length - 1) * self.alphabet_size,
            output_dim=self.alphabet_size,
            config=self._config,
        )
        self._final_loss = network.train(
            self._one_hot_contexts(contexts), targets, weights
        )
        self._network = network

    # -- persistence -------------------------------------------------------------

    def _extra_fingerprint(self) -> str:
        c = self._config
        return (
            f"hidden={c.hidden_units};lr={c.learning_rate!r};"
            f"mom={c.momentum!r};epochs={c.epochs};seed={c.seed};"
            f"init={c.init_scale!r};kernel={KERNEL_VERSION}"
        )

    def _fit_state(self) -> dict[str, np.ndarray] | None:
        if self._network is None or self._final_loss is None:
            return None
        state = self._network.export_weights()
        state["final_loss"] = np.asarray(self._final_loss, dtype=np.float64)
        return state

    def _load_fit_state(self, state: dict[str, np.ndarray]) -> bool:
        if "final_loss" not in state:
            return False
        network = NextSymbolMlp(
            input_dim=(self.window_length - 1) * self.alphabet_size,
            output_dim=self.alphabet_size,
            config=self._config,
        )
        if not network.load_weights(state):
            return False
        self._network = network
        self._final_loss = float(np.asarray(state["final_loss"]))
        return True

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        assert self._network is not None
        # Deduplicate windows: one forward pass per distinct window, and
        # the same batch whether a caller passes a stream's distinct
        # windows (the cached score path) or all of them (serve, uncached
        # streams) — BLAS may round a row differently with the batch shape.
        unique_rows, inverse = np.unique(windows, axis=0, return_inverse=True)
        probabilities = self._network.predict_proba(
            self._one_hot_contexts(unique_rows[:, :-1])
        )
        predicted = probabilities[np.arange(len(unique_rows)), unique_rows[:, -1]]
        responses = np.clip(1.0 - predicted, 0.0, 1.0)
        return responses[inverse.reshape(-1)]
