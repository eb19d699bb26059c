"""Markov conditional-probability detector (Jha et al. / Teng et al.).

For every window of size ``DW`` from the test data the detector
calculates the probability that the window's final element follows its
preceding ``DW - 1`` elements, estimated from training counts:

    P(x | ctx) = count(ctx + x) / count(ctx)

and reports ``1 - P`` — a score between 0 (very probable, normal) and 1
(improbable, anomalous).  A window of 2 therefore conditions on a
single element, which is why the paper's Markov results start at
``DW = 2`` (the Markov assumption).

Two estimation details govern coverage, and both are exposed:

* ``rare_floor`` — transitions whose joint ``DW``-gram relative
  frequency in training falls below this bound are assigned
  probability 0, i.e. the maximal response.  The paper's Figure 4
  (full-space coverage, including ``DW < AS``) and its statement that
  the Markov detector "will detect foreign sequences as well as a
  variety of rare sequences" correspond to flooring at the corpus
  rarity threshold (0.5%).  Setting ``rare_floor=0`` gives the
  unfloored estimator, under which the detector's maximal-response
  coverage collapses to roughly Stide's (ablation E11 in DESIGN.md).
* ``unseen_context_response`` — the response emitted when the context
  itself never occurred in training (the conditional is undefined).
  A foreign context is itself maximally anomalous, so the default is 1.

**Count representation.**  On the packable grid (every window fits a
63-bit packed integer) the joint and context counts are sorted packed
code/count array pairs, and scoring is one
:func:`~repro.runtime.kernels.count_lookup` bisection per table plus
the vectorized :func:`~repro.runtime.kernels.markov_batch_response`
rule — no per-window Python at all.  Off the packable grid the counts
fall back to tuple-keyed dictionaries and the scalar
:meth:`~MarkovDetector._window_response` rule, with window keys built
via ``ndarray.tolist`` (one C pass) rather than per-element ``int()``
conversion.  Both paths implement the identical response function.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.exceptions import DetectorConfigurationError
from repro.runtime.kernels import (
    count_lookup,
    markov_batch_response,
    merge_sorted_counts,
)
from repro.sequences.windows import (
    pack_window,
    pack_windows,
    packable,
    symbol_bits,
)


class MarkovDetector(AnomalyDetector):
    """Conditional-probability detector over fixed-length windows.

    Args:
        window_length: the detector window ``DW`` (>= 2); the context
            length is ``DW - 1``.
        alphabet_size: number of symbol codes.
        rare_floor: joint-frequency bound below which a transition is
            treated as probability 0 (default 0.005, the paper's rarity
            threshold).  Use 0.0 for the exact empirical estimator.
        unseen_context_response: response for windows whose context is
            foreign to training (default 1.0).
    """

    name = "markov"
    _delta_table = "_joint_codes"

    def __init__(
        self,
        window_length: int,
        alphabet_size: int,
        rare_floor: float = 0.005,
        unseen_context_response: float = 1.0,
    ) -> None:
        super().__init__(window_length, alphabet_size, response_tolerance=0.0)
        if not 0.0 <= rare_floor < 1.0:
            raise DetectorConfigurationError(
                f"rare_floor must lie in [0, 1), got {rare_floor}"
            )
        if not 0.0 <= unseen_context_response <= 1.0:
            raise DetectorConfigurationError(
                "unseen_context_response must lie in [0, 1], got "
                f"{unseen_context_response}"
            )
        self._rare_floor = float(rare_floor)
        self._unseen_context_response = float(unseen_context_response)
        # Packable representation: sorted packed codes + aligned counts.
        self._joint_codes: np.ndarray | None = None
        self._joint_counts: np.ndarray | None = None
        self._context_codes: np.ndarray | None = None
        self._context_counts_arr: np.ndarray | None = None
        # Fallback representation for windows beyond the 63-bit budget.
        self._window_counts: dict[tuple[int, ...], int] = {}
        self._context_counts: dict[tuple[int, ...], int] = {}
        self._total_windows = 0

    @property
    def rare_floor(self) -> float:
        """Joint-frequency bound for the probability floor."""
        return self._rare_floor

    @property
    def _packable(self) -> bool:
        """Whether ``DW``-grams fit the 63-bit packed-integer budget."""
        return packable(self.alphabet_size, self.window_length)

    def _count(
        self, streams: list[np.ndarray], length: int
    ) -> dict[tuple[int, ...], int]:
        """Tuple-keyed count table (the unpackable fallback)."""
        rows, counts = self._distinct_windows(streams, length)
        # tolist() converts the whole table in one C pass; the
        # resulting tuples of Python ints match the per-element
        # tuple(int(c) ...) keys bit for bit.
        return dict(zip(map(tuple, rows.tolist()), counts.tolist()))

    def _fit(self, training_streams: list[np.ndarray]) -> None:
        if self._packable:
            self._joint_codes, self._joint_counts = self._fold_tables(
                training_streams
            )
            self._context_codes, self._context_counts_arr = self._fold_tables(
                training_streams, self.window_length - 1
            )
            self._total_windows = int(self._joint_counts.sum())
            self._window_counts = {}
            self._context_counts = {}
        else:
            self._joint_codes = self._joint_counts = None
            self._context_codes = self._context_counts_arr = None
            self._window_counts = self._count(training_streams, self.window_length)
            self._context_counts = self._count(
                training_streams, self.window_length - 1
            )
            self._total_windows = sum(self._window_counts.values())

    def _extra_fingerprint(self) -> str:
        return (
            f"floor={self._rare_floor!r};"
            f"unseen={self._unseen_context_response!r}"
        )

    def clone_unfitted(self) -> "MarkovDetector":
        return type(self)(
            self.window_length,
            self.alphabet_size,
            self._rare_floor,
            self._unseen_context_response,
        )

    def _fold_delta(self, combined: np.ndarray) -> None:
        """Fold a batch's joint and context count deltas into the tables.

        Two packed ``np.unique`` passes over the combined tail (orders
        ``DW`` and ``DW - 1``) produce the delta count tables, which
        fold into the retained sorted tables by bisection
        (:func:`~repro.runtime.kernels.merge_sorted_counts`), as a cold
        fit folds each training stream.  The context windows of the
        combined tail over-count the full stream by exactly one gram:
        the window at position 0 lies entirely inside the old stream
        (it is the old stream's final ``DW - 1``-gram, so it is already
        counted — and already present — in the old context table).
        Its delta count is decremented before the merge, which restores
        bit-identity with a cold refit.
        """
        joint_values, joint_counts = np.unique(
            self._packed_direct(combined), return_counts=True
        )
        ctx_packed = self._packed_direct(combined, self.window_length - 1)
        ctx_values, ctx_counts = np.unique(ctx_packed, return_counts=True)
        ctx_counts[np.searchsorted(ctx_values, ctx_packed[0])] -= 1
        self._joint_codes, self._joint_counts = merge_sorted_counts(
            self._joint_codes, self._joint_counts, joint_values, joint_counts
        )
        self._context_codes, self._context_counts_arr = merge_sorted_counts(
            self._context_codes, self._context_counts_arr, ctx_values, ctx_counts
        )
        self._total_windows += len(combined) - self.window_length + 1

    def _fit_state(self) -> dict[str, np.ndarray] | None:
        total = np.asarray(self._total_windows, dtype=np.int64)
        if self._joint_codes is not None:
            return {
                "joint_codes": self._joint_codes,
                "joint_counts": self._joint_counts,
                "context_codes": self._context_codes,
                "context_counts": self._context_counts_arr,
                "total": total,
            }
        if self._window_counts:
            keys = sorted(self._window_counts)
            ctx_keys = sorted(self._context_counts)
            return {
                "window_rows": np.asarray(keys, dtype=np.int64),
                "window_counts": np.asarray(
                    [self._window_counts[k] for k in keys], dtype=np.int64
                ),
                "context_rows": np.asarray(ctx_keys, dtype=np.int64),
                "context_row_counts": np.asarray(
                    [self._context_counts[k] for k in ctx_keys], dtype=np.int64
                ),
                "total": total,
            }
        return None

    def _load_fit_state(self, state: dict[str, np.ndarray]) -> bool:
        if "total" not in state:
            return False
        total = int(np.asarray(state["total"]))
        if "joint_codes" in state:
            needed = ("joint_codes", "joint_counts", "context_codes", "context_counts")
            if not all(name in state for name in needed):
                return False
            arrays = [np.asarray(state[name]) for name in needed]
            if any(a.ndim != 1 for a in arrays):
                return False
            self._joint_codes, self._joint_counts = arrays[0], arrays[1]
            self._context_codes, self._context_counts_arr = arrays[2], arrays[3]
            self._window_counts = {}
            self._context_counts = {}
            self._total_windows = total
            return True
        needed = ("window_rows", "window_counts", "context_rows", "context_row_counts")
        if not all(name in state for name in needed):
            return False
        rows = np.asarray(state["window_rows"])
        ctx_rows = np.asarray(state["context_rows"])
        if rows.ndim != 2 or rows.shape[1] != self.window_length:
            return False
        if ctx_rows.ndim != 2 or ctx_rows.shape[1] != self.window_length - 1:
            return False
        self._joint_codes = self._joint_counts = None
        self._context_codes = self._context_counts_arr = None
        self._window_counts = dict(
            zip(map(tuple, rows.tolist()), np.asarray(state["window_counts"]).tolist())
        )
        self._context_counts = dict(
            zip(
                map(tuple, ctx_rows.tolist()),
                np.asarray(state["context_row_counts"]).tolist(),
            )
        )
        self._total_windows = total
        return True

    def _lookup(self, key: tuple[int, ...]) -> tuple[int, int]:
        """(joint, context) training counts for one window key."""
        if self._joint_codes is not None:
            code = pack_window(key, self.alphabet_size)
            probe = np.asarray([code], dtype=np.int64)
            joint = int(
                count_lookup(probe, self._joint_codes, self._joint_counts)[0]
            )
            context = int(
                count_lookup(
                    probe >> symbol_bits(self.alphabet_size),
                    self._context_codes,
                    self._context_counts_arr,
                )[0]
            )
            return joint, context
        return (
            self._window_counts.get(key, 0),
            self._context_counts.get(key[:-1], 0),
        )

    def transition_probability(self, window: tuple[int, ...]) -> float:
        """The floored estimate of P(last element | preceding context).

        Raises:
            NotFittedError: if the detector is unfitted.
        """
        self._require_fitted()
        key = tuple(int(c) for c in window)
        joint, context = self._lookup(key)
        if joint == 0:
            return 0.0
        if self._rare_floor > 0.0 and joint < self._rare_floor * self._total_windows:
            return 0.0
        if context == 0:
            return 0.0
        return joint / context

    def _window_response(self, key: tuple[int, ...]) -> float:
        """The response for one window key (the scalar scoring rule).

        The reference implementation the batch kernel must match bit
        for bit (``tests/runtime/test_kernels.py``).
        """
        floor_count = self._rare_floor * self._total_windows
        joint, context_count = self._lookup(key)
        if joint == 0 or (self._rare_floor > 0.0 and joint < floor_count):
            if context_count == 0 and joint == 0:
                response = self._unseen_context_response
            else:
                response = 1.0
        else:
            if context_count == 0:
                response = 1.0
            else:
                response = 1.0 - joint / context_count
        return min(1.0, max(0.0, response))

    def _batch_response(self, packed: np.ndarray) -> np.ndarray:
        """Vectorized responses for packed window codes (one kernel pass)."""
        joint = count_lookup(packed, self._joint_codes, self._joint_counts)
        # Packing is big-endian (first symbol highest weight), so the
        # DW-1 context of a window code is one symbol-width shift away.
        context = count_lookup(
            packed >> symbol_bits(self.alphabet_size),
            self._context_codes,
            self._context_counts_arr,
        )
        return markov_batch_response(
            joint,
            context,
            self._rare_floor * self._total_windows,
            self._unseen_context_response,
        )

    def _tuple_responses(self, view: np.ndarray) -> np.ndarray:
        """Memoized scalar responses for the unpackable fallback."""
        responses = np.empty(len(view), dtype=np.float64)
        memo: dict[tuple[int, ...], float] = {}
        for i, key in enumerate(map(tuple, view.tolist())):
            response = memo.get(key)
            if response is None:
                response = self._window_response(key)
                memo[key] = response
            responses[i] = response
        return responses

    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        if self._joint_codes is not None:
            return self._batch_response(
                pack_windows(windows, self.alphabet_size)
            )
        return self._tuple_responses(windows)
