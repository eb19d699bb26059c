"""t-Stide: Stide with a rare-window threshold (Warrender et al., 1999).

The "t" variant extends Stide's foreign-match test with frequency:
windows that *do* occur in training, but below a rarity threshold, also
elicit the maximal response.  The paper cites this family when defining
rarity (relative frequency under 0.5%) and when discussing why
probability-blind detectors cannot respond to rare sequences; t-stide
is the canonical sequence detector that can.

Response semantics:

* foreign window — response 1.0;
* rare window (present, relative frequency < ``rare_threshold``) —
  response 1.0;
* common window — response 0.0.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.exceptions import DetectorConfigurationError
from repro.runtime.kernels import merge_sorted_counts, sorted_membership
from repro.sequences.windows import pack_windows, packable


class TStideDetector(AnomalyDetector):
    """Stide extended with the rare-sequence criterion.

    Args:
        window_length: the detector window ``DW`` (>= 2).
        alphabet_size: number of symbol codes.
        rare_threshold: relative-frequency bound below which a stored
            window still counts as anomalous (paper default 0.5%).
    """

    name = "t-stide"
    _delta_table = "_packed_counts"

    def __init__(
        self,
        window_length: int,
        alphabet_size: int,
        rare_threshold: float = 0.005,
    ) -> None:
        super().__init__(window_length, alphabet_size, response_tolerance=0.0)
        if not 0.0 < rare_threshold < 1.0:
            raise DetectorConfigurationError(
                f"rare_threshold must lie in (0, 1), got {rare_threshold}"
            )
        self._rare_threshold = float(rare_threshold)
        self._common_packed: np.ndarray | None = None
        self._common_tuples: set[tuple[int, ...]] | None = None
        # Full (value, count) table behind the common filter — retained
        # on packable fits so delta updates can re-derive the filter
        # after merging a batch's counts.
        self._packed_values: np.ndarray | None = None
        self._packed_counts: np.ndarray | None = None
        self._total_windows = 0

    @property
    def rare_threshold(self) -> float:
        """Relative-frequency bound defining rarity."""
        return self._rare_threshold

    def _fit(self, training_streams: list[np.ndarray]) -> None:
        if packable(self.alphabet_size, self.window_length):
            values, counts = self._fold_tables(training_streams)
            self._set_table(values, counts, int(counts.sum()))
            self._common_tuples = None
        else:
            rows, counts = self._distinct_windows(training_streams)
            total = int(counts.sum())
            bound = self._rare_threshold * total
            self._common_tuples = set(map(tuple, rows[counts >= bound].tolist()))
            self._common_packed = None
            self._packed_values = None
            self._packed_counts = None
            self._total_windows = total

    def _set_table(self, values: np.ndarray, counts: np.ndarray, total: int) -> None:
        """Adopt a packed (value, count) table and derive its common filter."""
        self._packed_values = values
        self._packed_counts = counts
        self._total_windows = total
        self._common_packed = values[counts >= self._rare_threshold * total]

    def _extra_fingerprint(self) -> str:
        return f"rare={self._rare_threshold!r}"

    def clone_unfitted(self) -> "TStideDetector":
        return type(self)(
            self.window_length, self.alphabet_size, self._rare_threshold
        )

    def _fold_delta(self, combined: np.ndarray) -> None:
        """Merge appended window counts and re-derive the common table.

        The batch's distinct ``DW``-grams and counts are one packed
        ``np.unique`` over the combined tail, folded into the retained
        sorted table by bisection
        (:func:`~repro.runtime.kernels.merge_sorted_counts`) — the
        fold a cold fit runs per training stream, so the re-filtered
        common table matches refitting on the full stream exactly.
        """
        delta_values, delta_counts = np.unique(
            self._packed_direct(combined), return_counts=True
        )
        values, counts = merge_sorted_counts(
            self._packed_values, self._packed_counts, delta_values, delta_counts
        )
        total = self._total_windows + (len(combined) - self.window_length + 1)
        self._set_table(values, counts, total)

    def _fit_state(self) -> dict[str, np.ndarray] | None:
        if self._common_packed is not None:
            state = {"common_packed": self._common_packed}
            if self._packed_values is not None and self._packed_counts is not None:
                # The full table rides along so a reloaded state keeps
                # its delta-fit capability (schema v3).
                state["table_values"] = self._packed_values
                state["table_counts"] = self._packed_counts
                state["table_total"] = np.asarray(
                    self._total_windows, dtype=np.int64
                )
            return state
        if self._common_tuples is not None:
            rows = np.asarray(sorted(self._common_tuples), dtype=np.int64)
            return {
                "common_rows": rows.reshape(
                    len(self._common_tuples), self.window_length
                )
            }
        return None

    def _load_fit_state(self, state: dict[str, np.ndarray]) -> bool:
        if "common_packed" in state:
            packed = np.asarray(state["common_packed"])
            if packed.ndim != 1 or not np.issubdtype(packed.dtype, np.integer):
                return False
            self._common_packed = packed.astype(np.int64, copy=False)
            self._common_tuples = None
            self._packed_values = None
            self._packed_counts = None
            self._total_windows = 0
            names = ("table_values", "table_counts", "table_total")
            if all(name in state for name in names):
                values = np.asarray(state["table_values"])
                counts = np.asarray(state["table_counts"])
                if (
                    values.ndim == 1
                    and counts.shape == values.shape
                    and np.issubdtype(values.dtype, np.integer)
                    and np.issubdtype(counts.dtype, np.integer)
                ):
                    self._packed_values = values.astype(np.int64, copy=False)
                    self._packed_counts = counts.astype(np.int64, copy=False)
                    self._total_windows = int(np.asarray(state["table_total"]))
            return True
        if "common_rows" in state:
            rows = np.asarray(state["common_rows"])
            if rows.ndim != 2 or rows.shape[1] != self.window_length:
                return False
            self._common_tuples = set(map(tuple, rows.tolist()))
            self._common_packed = None
            return True
        return False

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        if self._common_packed is not None:
            common = sorted_membership(
                pack_windows(windows, self.alphabet_size), self._common_packed
            )
        else:
            assert self._common_tuples is not None
            common = np.fromiter(
                (key in self._common_tuples for key in map(tuple, windows.tolist())),
                dtype=bool,
                count=len(windows),
            )
        return (~common).astype(np.float64)
