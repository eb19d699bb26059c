"""Stide: sequence time-delay embedding (Forrest et al., 1996).

Stide is completely dependent upon the sequential ordering of
categorical elements.  Training slides a window of length ``DW`` over
the training data and stores every distinct window in a *normal
database*.  At test time each window either matches a database entry
(response 0, normal) or does not (response 1, anomalous).  No
frequencies or probabilities are involved, which is precisely why Stide
is blind to rare-but-present sequences and to any minimal foreign
sequence shorter than its window (Figure 5 of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.runtime.kernels import merge_sorted_unique, sorted_membership
from repro.sequences.windows import pack_windows, packable as _packable

__all__ = ["StideDetector", "sorted_membership"]


class StideDetector(AnomalyDetector):
    """Exact-match sequence detector with a binary response.

    Args:
        window_length: the detector window ``DW`` (>= 2).
        alphabet_size: number of symbol codes.
    """

    name = "stide"
    _delta_table = "_packed_db"

    def __init__(self, window_length: int, alphabet_size: int) -> None:
        super().__init__(window_length, alphabet_size, response_tolerance=0.0)
        self._packed_db: np.ndarray | None = None
        self._tuple_db: set[tuple[int, ...]] | None = None

    @property
    def database_size(self) -> int:
        """Number of distinct normal windows stored."""
        self._require_fitted()
        if self._packed_db is not None:
            return int(len(self._packed_db))
        assert self._tuple_db is not None
        return len(self._tuple_db)

    def _fit(self, training_streams: list[np.ndarray]) -> None:
        if _packable(self.alphabet_size, self.window_length):
            self._packed_db, _counts = self._fold_tables(training_streams)
            self._tuple_db = None
        else:
            rows, _counts = self._distinct_windows(training_streams)
            # One C pass over the table instead of per-element int().
            self._tuple_db = set(map(tuple, rows.tolist()))
            self._packed_db = None

    def _fold_delta(self, combined: np.ndarray) -> None:
        """Merge the appended windows into the packed normal database.

        The new distinct windows are exactly the distinct ``DW``-grams
        of the combined tail; packing preserves lexicographic order, so
        one ``np.unique`` over the packed batch plus a bisection splice
        into the sorted database
        (:func:`~repro.runtime.kernels.merge_sorted_unique`)
        reproduces a cold refit bit for bit.  A batch with no unseen
        windows — the saturated steady state — leaves the database
        array untouched.
        """
        delta = np.unique(self._packed_direct(combined))
        self._packed_db = merge_sorted_unique(self._packed_db, delta)

    def _fit_state(self) -> dict[str, np.ndarray] | None:
        if self._packed_db is not None:
            return {"packed_db": self._packed_db}
        if self._tuple_db is not None:
            rows = np.asarray(sorted(self._tuple_db), dtype=np.int64)
            return {"rows_db": rows.reshape(len(self._tuple_db), self.window_length)}
        return None

    def _load_fit_state(self, state: dict[str, np.ndarray]) -> bool:
        if "packed_db" in state:
            packed = np.asarray(state["packed_db"])
            if packed.ndim != 1 or not np.issubdtype(packed.dtype, np.integer):
                return False
            self._packed_db = packed.astype(np.int64, copy=False)
            self._tuple_db = None
            return True
        if "rows_db" in state:
            rows = np.asarray(state["rows_db"])
            if rows.ndim != 2 or rows.shape[1] != self.window_length:
                return False
            self._tuple_db = set(map(tuple, rows.tolist()))
            self._packed_db = None
            return True
        return False

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        if self._packed_db is not None:
            known = sorted_membership(
                pack_windows(windows, self.alphabet_size), self._packed_db
            )
        else:
            assert self._tuple_db is not None
            known = np.fromiter(
                (key in self._tuple_db for key in map(tuple, windows.tolist())),
                dtype=bool,
                count=len(windows),
            )
        return (~known).astype(np.float64)

    def contains(self, window: tuple[int, ...]) -> bool:
        """Whether ``window`` is in the normal database."""
        return self.score_window(window) == 0.0
