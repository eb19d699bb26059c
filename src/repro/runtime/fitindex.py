"""One-pass multi-order training index and fit accounting.

Fitting is the dominant remaining cost of a performance-map sweep:
every ``(family, DW)`` cell re-slides, re-sorts and re-counts the same
training stream from scratch, once per window length per family.  Yet
the paper's maps (Figures 3-6) sweep DW ∈ {2..15} over a *fixed*
training stream — exactly the regime where one shared index can serve
every window length.

:class:`TrainingIndex` computes, per stream, a single chain of
unique-window decompositions: for every order ``L`` the distinct
windows of length ``L`` (in lexicographic order), the inverse scatter
index, and the occurrence counts — the frequency table every detector
family's fit reduces to.  The order-``L`` decomposition is *derived
from the order-(L-1) decomposition* rather than recomputed:

* windows of length ``L`` starting at position ``i`` are exactly the
  pairs ``(window_{L-1}[i], stream[i + L - 1])``;
* the previous level's group ids are lexicographically ordered (by
  induction; the base level is a plain ``np.unique`` over symbols), so
  the key ``group * span + rank`` (``rank`` the next symbol's order-1
  group id, ``span`` the distinct symbol count) orders the length-``L``
  windows lexicographically.

Counting the keys refines one order into the next (DESIGN S52): a
dense ``np.bincount`` pass when the key space is no larger than the
window count, else one 1-D ``np.unique`` of the keys.  Symbol values
never size an array, only their ranks do.  The chain is shared by
every family: Stide / t-Stide membership tables, the Markov joint
*and* context tables at every order, and the Lane&Brodley / Hamming
unique-window databases are all projections of the same decomposition
(the DW-1 Markov context table falls out of the chain for free on the
way to DW).

The decompositions are bit-identical to ``np.unique(view, axis=0,
return_index/inverse/counts)`` — ``tests/runtime/test_fitindex.py``
proves it per family over the full AS x DW grid, including the
unpackable corner — so plugging the index under
:class:`~repro.runtime.cache.WindowCache` changes no response value.

The module also hosts the :class:`FitRecord`/:class:`FitStats`
accounting the sweep engine aggregates into its
:class:`~repro.runtime.resilience.RunReport`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.exceptions import WindowError
from repro.runtime import telemetry
from repro.sequences.ngram_store import count_keys
from repro.sequences.windows import windows_array


@dataclass(frozen=True)
class Decomposition:
    """One order's unique-window decomposition of a stream.

    ``rows[inverse]`` reconstructs the full window sequence;
    ``counts[g]`` is the number of windows in group ``g``; ``first[g]``
    is the start position of group ``g``'s first occurrence.  Rows are
    in lexicographic order, exactly as ``np.unique(view, axis=0)``.
    """

    window_length: int
    inverse: np.ndarray
    counts: np.ndarray
    first: np.ndarray

    @property
    def group_count(self) -> int:
        """Number of distinct windows at this order."""
        return len(self.counts)


class TrainingIndex:
    """Incremental unique-window index over one fixed stream.

    The index is built lazily: asking for order ``L`` extends the chain
    from the highest order already computed, one counting refinement
    per missing level.  Instances are not thread-safe on their own —
    :class:`~repro.runtime.cache.WindowCache` serializes access under
    its artifact lock.

    Args:
        stream: the 1-D integer stream to index.  The index keeps a
            reference (levels refer into it).
    """

    def __init__(self, stream: np.ndarray) -> None:
        data = np.asarray(stream)
        if data.ndim != 1:
            raise WindowError(
                f"stream must be one-dimensional, got shape {data.shape}"
            )
        if len(data) == 0:
            raise WindowError("cannot index an empty stream")
        self._stream = data
        self._levels: dict[int, Decomposition] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._extensions = 0

    @property
    def stream(self) -> np.ndarray:
        """The indexed stream."""
        return self._stream

    @property
    def max_order(self) -> int:
        """Highest window length computed so far (0 when untouched)."""
        return max(self._levels, default=0)

    @property
    def extensions(self) -> int:
        """Number of incremental level extensions performed (for tests)."""
        return self._extensions

    def nbytes(self) -> int:
        """Approximate memory footprint of the computed levels."""
        total = 0
        for level in self._levels.values():
            total += level.inverse.nbytes + level.counts.nbytes + level.first.nbytes
        for rows in self._rows.values():
            total += rows.nbytes
        return total

    # -- level construction ----------------------------------------------------

    def _base_level(self) -> Decomposition:
        """Order 1: a plain ``np.unique`` over single symbols."""
        _values, first, inverse, counts = np.unique(
            self._stream,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        return Decomposition(
            window_length=1,
            inverse=inverse.reshape(-1).astype(np.int64, copy=False),
            counts=counts.astype(np.int64, copy=False),
            first=first.astype(np.int64, copy=False),
        )

    def _extend(self, previous: Decomposition) -> Decomposition:
        """Derive order ``L`` from order ``L - 1``.

        A length-``L`` window at start ``i`` is the pair
        ``(group_{L-1}[i], stream[i + L - 1])``, keyed ``group * span +
        rank``; the ascending distinct keys are the new groups in
        lexicographic order, each first seen at its smallest start
        index — ``np.unique``'s conventions.
        """
        length = previous.window_length + 1
        n = len(self._stream) - length + 1
        if n < 1:
            raise WindowError(
                f"stream of length {len(self._stream)} is shorter than "
                f"window length {length}"
            )
        telemetry.count("fitindex.extensions")
        with telemetry.span("fitindex", "extend", window_length=length):
            return self._extend_level(previous, length, n)

    def _extend_level(
        self, previous: Decomposition, length: int, n: int
    ) -> Decomposition:
        """The counting refinement behind :meth:`_extend` (DESIGN S52, S53)."""
        base = self._levels[1]
        span = len(base.counts)
        keys = previous.inverse[:n] * span + base.inverse[length - 1 :]
        inverse, counts, first = count_keys(keys, previous.group_count * span)
        self._extensions += 1
        return Decomposition(
            window_length=length, inverse=inverse, counts=counts, first=first
        )

    def level(self, window_length: int) -> Decomposition:
        """The order-``window_length`` decomposition, building as needed.

        Raises:
            WindowError: when the stream is shorter than the window.
        """
        if window_length < 1:
            raise WindowError(
                f"window length must be positive, got {window_length}"
            )
        if len(self._stream) < window_length:
            raise WindowError(
                f"stream of length {len(self._stream)} is shorter than "
                f"window length {window_length}"
            )
        cached = self._levels.get(window_length)
        if cached is not None:
            return cached
        highest = 0
        for length in self._levels:
            if length < window_length and length > highest:
                highest = length
        if highest == 0:
            current = self._base_level()
            self._levels[1] = current
            highest = 1
        else:
            current = self._levels[highest]
        while current.window_length < window_length:
            current = self._extend(current)
            self._levels[current.window_length] = current
        return current

    def rows(self, window_length: int) -> np.ndarray:
        """The distinct windows at ``window_length``, lexicographic.

        Materialized once per order from the first-occurrence index —
        identical to ``np.unique(view, axis=0)``.
        """
        cached = self._rows.get(window_length)
        if cached is not None:
            return cached
        level = self.level(window_length)
        view = windows_array(self._stream, window_length)
        rows = np.ascontiguousarray(view[level.first])
        self._rows[window_length] = rows
        return rows

    def decomposition(
        self, window_length: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, inverse, counts)`` at ``window_length``.

        Exactly the triple ``np.unique(view, axis=0,
        return_inverse=True, return_counts=True)`` would produce, with
        rows shared per order across callers.
        """
        level = self.level(window_length)
        return self.rows(window_length), level.inverse, level.counts


# -- fit accounting ------------------------------------------------------------


@dataclass(frozen=True)
class FitRecord:
    """How one detector fit was obtained.

    Attributes:
        origin: ``"computed"`` (a real fit ran) or ``"store"`` (loaded
            from the artifact store — zero fitting work).
        store_key: the content-addressed key consulted, when a store
            was attached.
    """

    origin: str = "computed"
    store_key: str | None = None


@dataclass(frozen=True)
class FitStats:
    """Aggregate fit accounting for one sweep (rides on RunReport)."""

    computed: int = 0
    from_store: int = 0


class FitLedger:
    """Thread-safe accumulator of :class:`FitRecord` events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._computed = 0
        self._from_store = 0

    def record(self, record: FitRecord | None) -> None:
        """Fold one block's fit record into the ledger."""
        if record is None:
            return
        with self._lock:
            if record.origin == "store":
                self._from_store += 1
            else:
                self._computed += 1

    def snapshot(self) -> FitStats:
        """An immutable view of the counters so far."""
        with self._lock:
            return FitStats(
                computed=self._computed,
                from_store=self._from_store,
            )

