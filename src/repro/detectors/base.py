"""Detector protocol shared by all similarity metrics.

A detector is configured with a window length, *fitted* on one or more
training streams, and then produces one response per window of a test
stream.  Responses lie in ``[0, 1]``: 0 is completely normal, 1 is
maximally anomalous.  The response for the window starting at stream
index ``i`` is stored at index ``i`` of the response array, so a test
stream of length ``L`` yields ``L - DW + 1`` responses.

Detectors that emit graded responses (Markov, neural network) also
declare a ``response_tolerance``: the slack within which a response is
considered *maximal* by the evaluation harness.  Binary detectors
(Stide, and L&B's extremes) use tolerance 0.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from enum import Enum

import numpy as np

from repro.exceptions import DetectorConfigurationError, NotFittedError, WindowError
from repro.runtime import telemetry
from repro.runtime.kernels import merge_sorted_counts
from repro.sequences.ngram_store import NgramStore
from repro.sequences.windows import pack_windows, window_count, windows_array


class FittedState(Enum):
    """Lifecycle of a detector instance."""

    UNFITTED = "unfitted"
    FITTED = "fitted"


class AnomalyDetector(abc.ABC):
    """Abstract base class for fixed-window sequence anomaly detectors.

    Args:
        window_length: the detector window ``DW``; must be at least 2
            (the paper's minimum — a window of 1 carries no sequential
            ordering and has no analogue for the Markov/NN detectors).
        alphabet_size: number of symbol codes the detector will see.
        response_tolerance: slack under which a response still counts
            as maximal (see module docstring).
    """

    #: Human-readable detector family name; subclasses override.
    name: str = "abstract"

    def __init__(
        self,
        window_length: int,
        alphabet_size: int,
        response_tolerance: float = 0.0,
    ) -> None:
        if window_length < 2:
            raise DetectorConfigurationError(
                f"window_length must be >= 2, got {window_length}"
            )
        if alphabet_size < 2:
            raise DetectorConfigurationError(
                f"alphabet_size must be >= 2, got {alphabet_size}"
            )
        if not 0.0 <= response_tolerance < 1.0:
            raise DetectorConfigurationError(
                f"response_tolerance must lie in [0, 1), got {response_tolerance}"
            )
        self._window_length = int(window_length)
        self._alphabet_size = int(alphabet_size)
        self._response_tolerance = float(response_tolerance)
        self._state = FittedState.UNFITTED
        self._window_cache: object | None = None

    # -- configuration ---------------------------------------------------------

    @property
    def window_length(self) -> int:
        """The detector window ``DW``."""
        return self._window_length

    @property
    def alphabet_size(self) -> int:
        """Number of symbol codes the detector accepts."""
        return self._alphabet_size

    @property
    def response_tolerance(self) -> float:
        """Slack under which a response counts as maximal."""
        return self._response_tolerance

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._state is FittedState.FITTED

    def describe(self) -> str:
        """One-line description used by reports."""
        return f"{self.name}(DW={self._window_length})"

    # -- shared window artifacts --------------------------------------------------

    def attach_cache(self, cache: object | None) -> "AnomalyDetector":
        """Share a :class:`repro.runtime.WindowCache` with this detector.

        Once attached, the detector's window tables (fits) and
        test-stream dedup (scores) go through the cache, so every
        consumer of the same (stream, window length) pair — other
        detector families included — reuses one derivation.  Pass ``None`` to detach.  Responses are unchanged
        either way; the cache only eliminates repeated work.

        Returns:
            ``self``, for chaining.
        """
        self._window_cache = cache
        return self

    def family_fingerprint(self) -> str:
        """Canonical description of everything but the window length.

        The family name, alphabet size, tolerance and the family's
        hyperparameters (:meth:`_extra_fingerprint`): identifies a
        family across every window length of a sweep (experiment plans
        fingerprint stages by it).
        """
        parts = [
            f"family={self.name}",
            f"as={self._alphabet_size}",
            f"tol={self._response_tolerance!r}",
        ]
        extra = self._extra_fingerprint()
        if extra:
            parts.append(extra)
        return ";".join(parts)

    def _extra_fingerprint(self) -> str:
        """Family hyperparameters beyond (DW, AS); subclasses override."""
        return ""

    def _fit_state(self) -> dict[str, np.ndarray] | None:
        """Serialize the fitted model as named arrays, or ``None``.

        The tenant model store persists fitted detectors through it
        (:meth:`export_fit_state`), and delta fits are verified by
        comparing it with a cold refit's.  Subclasses returning a state
        must make :meth:`_load_fit_state` its exact inverse: a load
        followed by scoring must be bit-identical to fitting.
        """
        return None

    def _load_fit_state(self, state: dict[str, np.ndarray]) -> bool:
        """Restore a :meth:`_fit_state` payload; ``True`` on success.

        Must tolerate arbitrary payloads (the model store's tiers are
        corruption-tolerant): return ``False`` for anything unusable
        and the caller falls back to fitting.
        """
        return False

    def _distinct_windows(
        self, streams: list[np.ndarray], window_length: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct windows of ``streams`` with their counts.

        The one window table every fit reads: rows in lexicographic
        order with their occurrences over all of the streams, exactly
        ``np.unique(windows, axis=0, return_counts=True)`` over every
        stream's windows (windows never span two streams).  Each
        stream's table comes off its counting chain: the attached
        cache's (:meth:`WindowCache.unique_counts`, shared by every
        family and fit on the stream), else an
        :class:`~repro.sequences.ngram_store.NgramStore` built for the
        call.  Several streams are merged here and nowhere else.
        Streams shorter than the window add nothing.
        """
        length = self._window_length if window_length is None else window_length
        cache = self._window_cache
        tables = []
        for stream in streams:
            if len(stream) < length:
                continue
            if cache is not None:
                tables.append(
                    cache.unique_counts(stream, length)  # type: ignore[attr-defined]
                )
            else:
                chain = NgramStore([length], stream)
                tables.append((chain.rows(length), chain.row_counts(length)))
        if len(tables) == 1:
            return tables[0]
        rows, inverse = np.unique(
            np.concatenate([rows for rows, _ in tables]),
            axis=0,
            return_inverse=True,
        )
        counts = np.zeros(len(rows), dtype=np.int64)
        np.add.at(
            counts, inverse.reshape(-1), np.concatenate([c for _, c in tables])
        )
        return rows, counts

    def _window_table(
        self, stream: np.ndarray, window_length: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted packed codes of ``stream``'s windows, with their counts.

        The table the count families fold: read off the attached
        cache's counting chain (:meth:`WindowCache.packed_db` and
        :meth:`WindowCache.unique_counts`, shared by every family and
        fit on the same stream), else one packed ``np.unique``.  The
        same arrays either way, since packing preserves lexicographic
        order.
        """
        length = self._window_length if window_length is None else window_length
        cache = self._window_cache
        if cache is None:
            return np.unique(
                self._packed_direct(stream, length), return_counts=True
            )
        _rows, counts = cache.unique_counts(  # type: ignore[attr-defined]
            stream, length
        )
        codes = cache.packed_db(  # type: ignore[attr-defined]
            stream, length, self._alphabet_size
        )
        return codes, counts

    def _fold_tables(
        self, streams: list[np.ndarray], window_length: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every stream's :meth:`_window_table`, folded into an empty table.

        A cold fit is the fold :meth:`update_batch` runs on a delta
        tail, started from nothing:
        :func:`~repro.runtime.kernels.merge_sorted_counts` is bit-
        identical to ``np.unique`` over the concatenated tables plus a
        scatter-add of their counts, and returns a lone stream's table
        as it is.  Streams shorter than the window add nothing.
        """
        length = self._window_length if window_length is None else window_length
        codes = counts = np.zeros(0, dtype=np.int64)
        for stream in streams:
            if len(stream) >= length:
                codes, counts = merge_sorted_counts(
                    codes, counts, *self._window_table(stream, length)
                )
        return codes, counts

    # -- streaming delta fits -----------------------------------------------------

    #: The attribute holding the sorted packed table :meth:`update_batch`
    #: folds into; ``None`` for families without a delta path.
    _delta_table: str | None = None

    @property
    def supports_delta_fit(self) -> bool:
        """Whether :meth:`update_batch` can extend this fitted state.

        ``True`` only for a fitted count family (Stide, t-Stide,
        Markov) whose fit holds its packed table
        (:attr:`_delta_table`).  Fits past the 63-bit packing budget
        hold tuple tables instead and refit, as do families without an
        incremental form (e.g. the neural network).
        """
        table = self._delta_table
        return (
            self.is_fitted
            and table is not None
            and getattr(self, table) is not None
        )

    def update_batch(
        self,
        new_events: Sequence[int] | np.ndarray,
        prior_tail: Sequence[int] | np.ndarray,
    ) -> "AnomalyDetector":
        """Fold a batch of appended training events into the fit.

        The detector was fitted on some stream ``S``; the caller is
        appending ``new_events`` to it.  The only windows of
        ``S ++ new_events`` not already counted are the windows of
        ``prior_tail ++ new_events`` — ``prior_tail`` must be the last
        ``DW - 1`` events of ``S`` — so the delta is one slide-and-
        pack plus ``np.unique`` over that short tail alone, merged
        into the already-sorted packed tables by bisection
        (:func:`~repro.runtime.kernels.merge_sorted_unique` /
        :func:`~repro.runtime.kernels.merge_sorted_counts`).  The
        result is bit-identical to a cold refit on the full stream
        (``repro.runtime.deltafit.verify_delta`` asserts it), at a
        cost proportional to the batch, not the stream: a batch whose
        windows are all already known touches ``O(batch log table)``
        elements and allocates nothing.

        Returns:
            ``self``, for chaining.

        Raises:
            DetectorConfigurationError: for families without a delta
                path, or fits without a packed table
                (:attr:`supports_delta_fit`).
            NotFittedError: if :meth:`fit` has not been called.
            WindowError: on a wrong-length ``prior_tail``, an empty
                batch, or out-of-alphabet codes.
        """
        combined = self._delta_combined(new_events, prior_tail)
        if not self.supports_delta_fit:
            raise DetectorConfigurationError(
                f"this {self.name} fit has no packed table to fold a "
                "delta into; refit instead"
            )
        self._fold_delta(combined)
        telemetry.count("detector.delta_update")
        return self

    def _fold_delta(self, combined: np.ndarray) -> None:
        """Merge the windows of a validated delta tail into the tables.

        Count families override this; :meth:`update_batch` calls it
        only when :attr:`supports_delta_fit` holds.
        """
        raise NotImplementedError

    def clone_unfitted(self) -> "AnomalyDetector":
        """A fresh unfitted detector with this one's configuration.

        The delta-fit verify hook fits the clone cold on the full
        stream and compares states bit for bit.  Subclasses with extra
        hyperparameters override to carry them.
        """
        return type(self)(self._window_length, self._alphabet_size)

    def export_fit_state(self) -> dict[str, np.ndarray] | None:
        """The serialized fitted model (public :meth:`_fit_state`)."""
        self._require_fitted()
        return self._fit_state()

    def import_fit_state(self, state: dict[str, np.ndarray]) -> bool:
        """Adopt a serialized fitted state; ``True`` on success.

        The public inverse of :meth:`export_fit_state` for callers
        that persist models (the sharded fleet store).  On success the
        detector is fitted.
        """
        if not self._load_fit_state(dict(state)):
            return False
        self._state = FittedState.FITTED
        return True

    def state_nbytes(self) -> int:
        """Approximate bytes held by the serialized fitted state."""
        state = self._fit_state() if self.is_fitted else None
        if not state:
            return 0
        return int(sum(np.asarray(a).nbytes for a in state.values()))

    def _delta_combined(
        self,
        new_events: Sequence[int] | np.ndarray,
        prior_tail: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """The validated combined tail ``prior_tail ++ new_events``.

        Every window of the combined tail is either one of the
        appended windows or (at position 0 for lengths up to
        ``DW - 1``) the old stream's final gram — the shared setup for
        each family's :meth:`update_batch`.
        """
        self._require_fitted()
        tail = self._validate_now(prior_tail)
        new = self._validate_now(new_events)
        if len(tail) != self._window_length - 1:
            raise WindowError(
                f"prior_tail must hold the last {self._window_length - 1} "
                f"fitted events, got {len(tail)}"
            )
        if len(new) == 0:
            raise WindowError("update_batch requires at least one new event")
        return np.concatenate([tail, new])

    def _packed_direct(
        self, stream: np.ndarray, window_length: int | None = None
    ) -> np.ndarray:
        """Packed windows of ``stream``, bypassing the window cache.

        Delta tails are one-shot streams (a fresh batch every call),
        so caching their sliding views would only grow the cache; the
        direct slide-and-pack is a handful of vector ops over a batch-
        sized array.  Uncached fits pack the same way.
        """
        length = self._window_length if window_length is None else window_length
        return pack_windows(windows_array(stream, length), self._alphabet_size)

    # -- training ----------------------------------------------------------------

    def fit(self, training_stream: Sequence[int] | np.ndarray) -> "AnomalyDetector":
        """Acquire normal behavior from a single training stream.

        Args:
            training_stream: encoded stream of symbol codes; must be
                at least one window long.

        Returns:
            ``self``, for chaining.
        """
        return self.fit_many([training_stream])

    def fit_many(
        self, training_streams: Iterable[Sequence[int] | np.ndarray]
    ) -> "AnomalyDetector":
        """Acquire normal behavior from multiple independent streams.

        Windows never span stream junctions, matching the convention
        for pooling per-process traces.

        Raises:
            WindowError: if no stream contains a full window, or codes
                fall outside the alphabet.
        """
        streams = [self._validated(stream) for stream in training_streams]
        usable = [s for s in streams if len(s) >= self._window_length]
        if not usable:
            raise WindowError(
                f"no training stream contains a window of length {self._window_length}"
            )
        self._fit(usable)
        self._state = FittedState.FITTED
        return self

    def _validated(self, stream: Sequence[int] | np.ndarray) -> np.ndarray:
        """Canonical int64 view of ``stream``, alphabet-checked.

        With a cache attached, validation of ndarray streams is
        memoized per (stream identity, alphabet), so a sweep scans its
        training stream once, not once per detector.  Non-ndarray
        inputs (lists) have no stable identity and validate inline.
        """
        cache = self._window_cache
        if cache is not None and isinstance(stream, np.ndarray):
            return cache.validated(  # type: ignore[attr-defined]
                stream,
                self._alphabet_size,
                lambda: self._validate_now(stream),
            )
        return self._validate_now(stream)

    def _validate_now(self, stream: Sequence[int] | np.ndarray) -> np.ndarray:
        data = np.asarray(stream)
        if data.ndim != 1:
            raise WindowError(f"stream must be one-dimensional, got shape {data.shape}")
        if len(data) and (data.min() < 0 or data.max() >= self._alphabet_size):
            raise WindowError(
                "stream contains codes outside the alphabet "
                f"[0, {self._alphabet_size - 1}]"
            )
        return data.astype(np.int64, copy=False)

    # -- scoring ----------------------------------------------------------------

    def score_stream(self, test_stream: Sequence[int] | np.ndarray) -> np.ndarray:
        """Responses for every window of ``test_stream``.

        Returns:
            ``float64`` array of length ``len(test_stream) - DW + 1``;
            entry ``i`` is the response for the window starting at ``i``.

        Raises:
            NotFittedError: if :meth:`fit` has not been called.
            WindowError: if the stream is shorter than one window.
        """
        self._require_fitted()
        data = self._validated(test_stream)
        if len(data) < self._window_length:
            raise WindowError(
                f"test stream of length {len(data)} is shorter than the "
                f"detector window {self._window_length}"
            )
        responses = self._score(data)
        expected = window_count(len(data), self._window_length)
        if responses.shape != (expected,):
            raise WindowError(
                f"{self.name} produced {responses.shape} responses, "
                f"expected ({expected},)"
            )
        return responses

    def decision_stream(
        self, test_stream: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Boolean alarms under the paper's maximal-response criterion.

        Equivalent to thresholding :meth:`score_stream` at
        ``1 - response_tolerance`` — the detector's own notion of a
        maximal response.  Deployments wanting other operating points
        should threshold the response stream explicitly (see
        :mod:`repro.detectors.threshold`).
        """
        responses = self.score_stream(test_stream)
        return responses >= 1.0 - self._response_tolerance

    def score_windows(self, windows: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
        """Responses for a batch of independent windows.

        Unlike :meth:`score_stream`, the rows of ``windows`` are
        unrelated events — entry ``i`` of the result is exactly
        :meth:`score_window` of row ``i``.  It is the family's
        :meth:`_score_windows`, the kernel :meth:`score_stream` runs
        too (see :meth:`_score`), behind shape and alphabet checks.

        Args:
            windows: 2-D batch of shape ``(n, DW)`` with in-alphabet
                codes.

        Returns:
            ``float64`` array of length ``n``.

        Raises:
            NotFittedError: if :meth:`fit` has not been called.
            WindowError: on shape or alphabet violations.
        """
        self._require_fitted()
        data = np.asarray(windows)
        if data.ndim != 2 or data.shape[1] != self._window_length:
            raise WindowError(
                f"expected a (n, {self._window_length}) window batch, "
                f"got shape {data.shape}"
            )
        if data.size and (data.min() < 0 or data.max() >= self._alphabet_size):
            raise WindowError(
                "window codes outside the alphabet "
                f"[0, {self._alphabet_size - 1}]"
            )
        return self._scored_batch(data.astype(np.int64, copy=False))

    def _scored_batch(self, windows: np.ndarray) -> np.ndarray:
        """:meth:`_score_windows` of a validated batch, shape-checked."""
        telemetry.observe("kernel.batch_size", len(windows))
        responses = self._score_windows(windows)
        if responses.shape != (len(windows),):
            raise WindowError(
                f"{self.name} produced {responses.shape} batch responses, "
                f"expected ({len(windows)},)"
            )
        return responses

    def score_window(self, window: Sequence[int]) -> float:
        """Response for a single window (length exactly ``DW``)."""
        data = np.asarray(window)
        if data.shape != (self._window_length,):
            raise WindowError(
                f"expected a window of length {self._window_length}, "
                f"got shape {data.shape}"
            )
        return float(self.score_stream(data)[0])

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"{self.name} detector must be fitted before scoring"
            )

    # -- subclass contract --------------------------------------------------------

    @abc.abstractmethod
    def _fit(self, training_streams: list[np.ndarray]) -> None:
        """Build the normal-behavior model from validated streams."""

    def _score(self, test_stream: np.ndarray) -> np.ndarray:
        """Per-window responses of a validated stream: the one score path.

        With a cache attached, the stream's distinct windows are scored
        once and scattered back through :meth:`WindowCache.unique`; a
        sweep's injected streams repeat a few hundred windows thousands
        of times.  Without one, every window is scored as it stands: a
        one-off stream (a tenant's request) would pay for a dedup pass
        it cannot reuse.  Every family scores each row on its own, so
        both give the same bits.
        """
        cache = self._window_cache
        if cache is None:
            return self._scored_batch(
                windows_array(test_stream, self._window_length)
            )
        rows, inverse = cache.unique(  # type: ignore[attr-defined]
            test_stream, self._window_length
        )
        return self._scored_batch(rows)[inverse]

    @abc.abstractmethod
    def _score_windows(self, windows: np.ndarray) -> np.ndarray:
        """Responses in ``[0, 1]`` for a validated ``(n, DW)`` batch.

        Row ``i``'s response must depend on row ``i`` alone: the score
        path (:meth:`_score`) feeds it a stream's distinct windows or
        all of them, and both must give the same bits.
        """

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}(window_length={self._window_length}, {state})"
