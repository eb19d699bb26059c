"""Windowed Markov-chain likelihood detector (Jha, Tan & Maxion, CSFW'01).

The paper's Markov detector scores single transitions.  Its cited
precursor — *Markov Chains, Classifiers, and Intrusion Detection*
(reference [12]) — scores whole windows by their chain likelihood: the
probability that a first-order Markov chain fitted to training emits
the window's transition sequence.

For a window ``w`` of length ``DW`` the raw likelihood is::

    L(w) = P(w_0) * prod_{i=1..DW-1} P(w_i | w_{i-1})

and the response is ``1 - L(w) ** (1 / (DW - 1))`` — the geometric mean
of the per-transition probabilities, so responses are comparable across
window lengths (a raw product would vanish with ``DW`` and saturate the
score).  A window containing any unseen transition (or starting from an
unseen state) scores the maximal response.

This detector complements the paper's four: it is probability-based
like the transition Markov detector, but aggregates evidence over the
whole window, so a single rare transition inside an otherwise-common
window yields a high-but-not-maximal response.

A coverage caveat worth noting (and tested): because the chain is
first-order, it models *pairs* — and every pair of a minimal foreign
sequence of size >= 3 exists in training, by minimality.  The chain
detector therefore produces strong graded responses in an MFS's
incident span but never the maximal response the paper's strict
threshold demands: aggregation over the window trades the transition
detector's maximal rare-event response for cross-window comparability.
Yet another instance of the paper's thesis that a detector's internals,
not its design intentions, determine its coverage.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import register_detector
from repro.exceptions import DetectorConfigurationError


class MarkovChainDetector(AnomalyDetector):
    """Whole-window likelihood under a fitted first-order Markov chain.

    Args:
        window_length: the detector window ``DW`` (>= 2).
        alphabet_size: number of symbol codes.
        response_tolerance: slack for the maximal-response criterion
            (default 0.05 — likelihoods of windows containing unseen
            transitions are exactly 0, but near-zero likelihoods from
            flooring interactions deserve the same treatment).
    """

    name = "markov-chain"

    def __init__(
        self,
        window_length: int,
        alphabet_size: int,
        response_tolerance: float = 0.05,
    ) -> None:
        super().__init__(
            window_length, alphabet_size, response_tolerance=response_tolerance
        )
        self._transitions: np.ndarray | None = None
        self._initial: np.ndarray | None = None

    @property
    def transition_matrix(self) -> np.ndarray:
        """The fitted row-stochastic transition matrix (copy)."""
        self._require_fitted()
        assert self._transitions is not None
        return self._transitions.copy()

    def _fit(self, training_streams: list[np.ndarray]) -> None:
        size = self.alphabet_size
        counts = np.zeros((size, size), dtype=np.float64)
        starts = np.zeros(size, dtype=np.float64)
        for stream in training_streams:
            np.add.at(counts, (stream[:-1], stream[1:]), 1.0)
            values, value_counts = np.unique(stream, return_counts=True)
            starts[values] += value_counts
        row_sums = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            transitions = np.where(row_sums > 0, counts / row_sums, 0.0)
        total = starts.sum()
        if total == 0:
            raise DetectorConfigurationError("no training symbols observed")
        self._transitions = transitions
        self._initial = starts / total

    def window_likelihood(self, window: tuple[int, ...]) -> float:
        """Raw chain likelihood of one window (product form)."""
        self._require_fitted()
        assert self._transitions is not None and self._initial is not None
        codes = [int(c) for c in window]
        likelihood = float(self._initial[codes[0]])
        for previous, current in zip(codes, codes[1:]):
            likelihood *= float(self._transitions[previous, current])
        return likelihood

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        assert self._transitions is not None and self._initial is not None
        # Per-position transition probabilities, vectorized over windows.
        probabilities = self._transitions[windows[:, :-1], windows[:, 1:]]
        transition_count = self.window_length - 1
        with np.errstate(divide="ignore"):
            log_probabilities = np.where(
                probabilities > 0, np.log(probabilities), -np.inf
            )
        geometric_mean = np.exp(log_probabilities.sum(axis=1) / transition_count)
        responses = 1.0 - geometric_mean
        # Windows starting from a never-seen symbol are maximally anomalous.
        unseen_start = self._initial[windows[:, 0]] == 0.0
        responses[unseen_start] = 1.0
        return np.clip(responses, 0.0, 1.0)


register_detector(MarkovChainDetector)
