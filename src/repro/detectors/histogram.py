"""Histogram detector: frequency profiles without sequential ordering.

Denning's original anomaly-detection model and its NIDES-style
descendants profile *frequencies*, not orderings.  This detector is
that family reduced to the paper's fixed-window setting: training
collects the set of symbol histograms exhibited by normal windows; a
test window's response is the normalized L1 distance between its
histogram and the nearest normal histogram.

It is the mirror image of the sequence detectors' blindness:

* a minimal foreign sequence built from *common symbols in a novel
  order* has the same histogram as normal windows — the histogram
  detector is blind across the paper's entire map;
* a *frequency* anomaly (a burst of one symbol) can hide from Stide
  when each window ordering exists in training, yet lights the
  histogram detector up.

Detector diversity, in other words, spans anomaly *types*, not just
regions of the (AS, DW) grid — the E24 bench charts both axes.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import register_detector

#: Bound on the elements of one chunk's difference tensor.
CHUNK_ELEMENTS = 4_000_000


class HistogramDetector(AnomalyDetector):
    """Nearest-normal-histogram distance over fixed windows.

    Args:
        window_length: the detector window ``DW`` (>= 2).
        alphabet_size: number of symbol codes.
        response_tolerance: slack for the maximal-response criterion
            (default 0 — the distance is exact).
    """

    name = "histogram"

    def __init__(
        self,
        window_length: int,
        alphabet_size: int,
        response_tolerance: float = 0.0,
    ) -> None:
        super().__init__(
            window_length, alphabet_size, response_tolerance=response_tolerance
        )
        self._normal_histograms: np.ndarray | None = None

    @property
    def profile_size(self) -> int:
        """Number of distinct normal histograms stored."""
        self._require_fitted()
        assert self._normal_histograms is not None
        return int(len(self._normal_histograms))

    def _histograms(self, windows: np.ndarray) -> np.ndarray:
        """Per-row symbol-count histograms, shape (n, alphabet_size)."""
        n, size = len(windows), self.alphabet_size
        cells = windows + (np.arange(n) * size)[:, None]
        return np.bincount(cells.ravel(), minlength=n * size).reshape(n, size)

    def _fit(self, training_streams: list[np.ndarray]) -> None:
        # A histogram depends on its window alone: the distinct
        # windows exhibit every normal histogram.
        rows, _counts = self._distinct_windows(training_streams)
        self._normal_histograms = np.unique(self._histograms(rows), axis=0)

    def distance_to_normal(self, window: tuple[int, ...] | np.ndarray) -> int:
        """L1 distance of the window's histogram to the nearest normal one."""
        self._require_fitted()
        view = np.asarray(window).reshape(1, -1)
        return int(self._distances(self._histograms(view))[0])

    def _distances(self, histograms: np.ndarray) -> np.ndarray:
        """L1 distance of each histogram to the nearest normal one.

        Computed over row chunks, so the ``(rows, profiles, alphabet)``
        difference tensor stays under :data:`CHUNK_ELEMENTS` however
        long an uncached test stream is.
        """
        profiles = self._normal_histograms
        assert profiles is not None
        step = max(1, CHUNK_ELEMENTS // profiles.size)
        # An empty batch still makes one (empty) chunk to concatenate.
        return np.concatenate(
            [
                np.abs(histograms[start : start + step, None, :] - profiles)
                .sum(axis=2)
                .min(axis=1)
                for start in range(0, max(len(histograms), 1), step)
            ]
        )

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        distances = self._distances(self._histograms(windows))
        # Two length-DW histograms differ by at most 2*DW counts.
        return distances / (2 * self.window_length)


register_detector(HistogramDetector)
