"""Lane & Brodley adjacency-weighted similarity detector (AAAI-97).

The L&B similarity between two equal-length sequences compares elements
at the same positions.  A mismatch contributes 0; a match contributes a
weight that grows with the length of the current run of adjacent
matches:

    w_i = 0            if x_i != y_i
    w_i = w_{i-1} + 1  if x_i == y_i        (w_{-1} = 0)

    Sim(x, y) = sum_i w_i

Identical sequences score ``DW (DW+1) / 2`` (15 for ``DW = 5``); a
single mismatch at the final position scores ``DW (DW-1) / 2`` (10 for
``DW = 5``) — the two worked examples of the paper's Figure 7.

A test window's similarity to *normal* is its maximum similarity over
the normal database; the response is ``1 - Sim / Sim_max``.  The
maximal response 1 requires a window matching **no** database sequence
at **any** position — essentially impossible when the database covers
every phase of the training cycle, which is why the paper finds L&B
blind across the entire performance map (Figure 3) and biased in favor
of foreign sequences whose single mismatching element sits at the
window edge (Section 7).
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.runtime.kernels import lb_batch_similarity


def lb_similarity(first: np.ndarray | list[int], second: np.ndarray | list[int]) -> int:
    """The L&B similarity of two equal-length sequences (Figure 7).

    The run-weight recurrence ``w_i = (w_{i-1} + 1) [x_i == y_i]`` is
    evaluated in closed form: at a matching position ``i`` the weight
    equals the distance to the most recent mismatch, so a cumulative
    maximum over mismatch positions replaces the element loop.

    The paper's two Figure 7 worked examples, at ``DW = 5``:
    identical sequences score ``5 * 6 / 2``,

    >>> lb_similarity([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
    15

    and a single mismatch at the final position scores ``5 * 4 / 2``:

    >>> lb_similarity([0, 1, 2, 3, 4], [0, 1, 2, 3, 9])
    10

    Raises:
        ValueError: if the sequences differ in length.
    """
    x = np.asarray(first)
    y = np.asarray(second)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(
            f"sequences must be 1-D and equal length, got {x.shape} vs {y.shape}"
        )
    matches = x == y
    positions = np.arange(len(matches))
    last_mismatch = np.maximum.accumulate(np.where(matches, -1, positions))
    weights = np.where(matches, positions - last_mismatch, 0)
    return int(weights.sum())


def lb_max_similarity(window_length: int) -> int:
    """Similarity of identical sequences: ``DW (DW+1) / 2``."""
    return window_length * (window_length + 1) // 2


class LaneBrodleyDetector(AnomalyDetector):
    """Maximum adjacency-weighted similarity against the normal database.

    Args:
        window_length: the detector window ``DW`` (>= 2).
        alphabet_size: number of symbol codes.
        chunk_elements: soft bound on the ``windows x database x DW``
            comparison tensor per scoring chunk (memory control).
    """

    name = "lane-brodley"

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

    def similarity_to_normal(self, window: tuple[int, ...] | np.ndarray) -> int:
        """Maximum L&B similarity of ``window`` over the normal database."""
        self._require_fitted()
        assert self._database is not None
        row = np.asarray(window).reshape(1, -1)
        return int(self._chunk_similarities(row)[0])

    def _chunk_similarities(self, windows: np.ndarray) -> np.ndarray:
        """Best similarity against the database for each window row.

        Delegates to the shared
        :func:`~repro.runtime.kernels.lb_batch_similarity` kernel.
        """
        assert self._database is not None
        return lb_batch_similarity(windows, self._database, self._chunk_elements)

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        best = self._chunk_similarities(windows)
        return 1.0 - best / lb_max_similarity(self.window_length)
