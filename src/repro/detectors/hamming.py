"""Hamming-distance detector — the positional foil to Lane & Brodley.

Section 7 traces L&B's blindness to its adjacency-weighted metric:
a foreign sequence mismatching a normal one only at the window's edge
loses almost no similarity.  The natural control is the *unweighted*
positional metric — plain Hamming distance to the nearest normal
window — under which mismatch position is irrelevant by construction.

Response: ``min over database of hamming(window, entry) / DW``.  The
response for a single mismatch is ``1/DW`` wherever the mismatch sits,
eliminating L&B's edge bias; but like L&B the detector reaches the
maximal response only for windows mismatching every database entry at
every position, so it remains blind to minimal foreign sequences under
the paper's strict threshold.  The pair (L&B, Hamming) demonstrates
that fixing one pathology of a similarity metric need not change its
coverage class — measured maps, not design intuitions, decide
(the E17 comparison bench).
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import register_detector
from repro.runtime.kernels import hamming_batch_distance


class HammingDetector(AnomalyDetector):
    """Minimum normalized Hamming distance to the normal database.

    Args:
        window_length: the detector window ``DW`` (>= 2).
        alphabet_size: number of symbol codes.
        chunk_elements: soft bound on the comparison tensor per scoring
            chunk (memory control).
    """

    name = "hamming"

    def __init__(
        self,
        window_length: int,
        alphabet_size: int,
        chunk_elements: int = 8_000_000,
    ) -> None:
        super().__init__(window_length, alphabet_size, response_tolerance=0.0)
        self._chunk_elements = max(chunk_elements, window_length)
        self._database: np.ndarray | None = None

    @property
    def database_size(self) -> int:
        """Number of distinct normal windows stored."""
        self._require_fitted()
        assert self._database is not None
        return int(len(self._database))

    def _fit(self, training_streams: list[np.ndarray]) -> None:
        self._database, _counts = self._distinct_windows(training_streams)

    def _fit_state(self) -> dict[str, np.ndarray] | None:
        if self._database is None:
            return None
        return {"database": np.ascontiguousarray(self._database)}

    def _load_fit_state(self, state: dict[str, np.ndarray]) -> bool:
        database = np.asarray(state.get("database"))
        if database.ndim != 2 or database.shape[1] != self.window_length:
            return False
        self._database = database.astype(np.int64, copy=False)
        return True

    def distance_to_normal(self, window: tuple[int, ...] | np.ndarray) -> int:
        """Minimum Hamming distance of ``window`` over the database."""
        self._require_fitted()
        row = np.asarray(window).reshape(1, -1)
        return int(self._chunk_distances(row)[0])

    def _chunk_distances(self, windows: np.ndarray) -> np.ndarray:
        """Minimum database distance per row, via the shared
        :func:`~repro.runtime.kernels.hamming_batch_distance` kernel."""
        assert self._database is not None
        return hamming_batch_distance(
            windows, self._database, self._chunk_elements
        )

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        return self._chunk_distances(windows) / self.window_length


register_detector(HammingDetector)
