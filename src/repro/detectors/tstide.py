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

from collections.abc import Sequence

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.exceptions import DetectorConfigurationError
from repro.runtime import telemetry
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
        total = 0
        if packable(self.alphabet_size, self.window_length):
            value_parts, count_parts = [], []
            for stream in training_streams:
                shared = self._shared_unique_counts(stream)
                if shared is not None:
                    _rows, stream_counts = shared
                    # Count-aligned with the decomposition rows, and
                    # the same array Stide's fit of this stream shares.
                    stream_values = self._packed_database(stream)
                else:
                    stream_values, stream_counts = np.unique(
                        self._packed_view(stream), return_counts=True
                    )
                value_parts.append(stream_values)
                count_parts.append(stream_counts)
                total += int(stream_counts.sum())
            if len(value_parts) == 1:
                values, counts = value_parts[0], count_parts[0]
            else:
                values, inverse = np.unique(
                    np.concatenate(value_parts), return_inverse=True
                )
                counts = np.zeros(len(values), dtype=np.int64)
                np.add.at(counts, inverse, np.concatenate(count_parts))
            common = values[counts >= self._rare_threshold * total]
            self._common_packed = common
            self._common_tuples = None
            self._packed_values = values
            self._packed_counts = counts.astype(np.int64, copy=False)
            self._total_windows = total
        else:
            counts: dict[tuple[int, ...], int] = {}
            for stream in training_streams:
                view = self._windows_view(stream)
                total += len(view)
                rows, row_counts = np.unique(view, axis=0, return_counts=True)
                # One C pass over the distinct rows instead of a
                # per-element int() loop over every window.
                for key, n in zip(map(tuple, rows.tolist()), row_counts.tolist()):
                    counts[key] = counts.get(key, 0) + n
            bound = self._rare_threshold * total
            self._common_tuples = {key for key, n in counts.items() if n >= bound}
            self._common_packed = None
            self._packed_values = None
            self._packed_counts = None
            self._total_windows = total

    def _extra_fingerprint(self) -> str:
        return f"rare={self._rare_threshold!r}"

    @property
    def supports_delta_fit(self) -> bool:
        return (
            self.is_fitted
            and self._packed_values is not None
            and self._packed_counts is not None
        )

    def clone_unfitted(self) -> "TStideDetector":
        return type(self)(
            self.window_length, self.alphabet_size, self._rare_threshold
        )

    def update_batch(
        self,
        new_events: Sequence[int] | np.ndarray,
        prior_tail: Sequence[int] | np.ndarray,
    ) -> "TStideDetector":
        """Merge appended window counts and re-derive the common table.

        The batch's distinct ``DW``-grams and counts are one packed
        ``np.unique`` over the combined tail; merging into the
        retained sorted table is a bisection splice
        (:func:`~repro.runtime.kernels.merge_sorted_counts`) — bit-
        identical to the ``np.unique`` + scatter-add a multi-stream
        cold fit uses, so the re-filtered common table matches
        refitting on the full stream exactly.
        """
        combined = self._delta_combined(new_events, prior_tail)
        if self._packed_values is None or self._packed_counts is None:
            raise DetectorConfigurationError(
                "t-stide delta fits require the packed count table (this "
                "fit exceeded the 63-bit packing budget)"
            )
        delta_values, delta_counts = np.unique(
            self._delta_packed(combined), return_counts=True
        )
        values, counts = merge_sorted_counts(
            self._packed_values,
            self._packed_counts,
            delta_values,
            delta_counts.astype(np.int64, copy=False),
        )
        total = self._total_windows + (len(combined) - self.window_length + 1)
        self._packed_values = values
        self._packed_counts = counts
        self._total_windows = total
        self._common_packed = values[counts >= self._rare_threshold * total]
        self._note_delta_update()
        return self

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

    def _common(self, view: np.ndarray, packed: np.ndarray | None) -> np.ndarray:
        """Common-window membership for each window row."""
        if self._common_packed is not None:
            assert packed is not None
            return sorted_membership(packed, self._common_packed)
        assert self._common_tuples is not None
        return np.fromiter(
            (key in self._common_tuples for key in map(tuple, view.tolist())),
            dtype=bool,
            count=len(view),
        )

    def _score(self, test_stream: np.ndarray) -> np.ndarray:
        count = len(test_stream) - self.window_length + 1
        telemetry.count("kernel.membership.windows", count)
        telemetry.count("kernel.membership.cells")
        if self._common_packed is not None:
            packed = self._packed_view(test_stream)
            common = sorted_membership(packed, self._common_packed)
        else:
            common = self._common(self._windows_view(test_stream), None)
        return (~common).astype(np.float64)

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        packed = (
            pack_windows(windows, self.alphabet_size)
            if self._common_packed is not None
            else None
        )
        return (~self._common(windows, packed)).astype(np.float64)
