"""Fit accounting for sweeps.

:class:`FitRecord` says how one detector fit was obtained (computed,
or loaded from the artifact store); :class:`FitLedger` folds the
records of a sweep into the :class:`FitStats` that ride on the sweep
engine's :class:`~repro.runtime.resilience.RunReport`.

The window-count tables those fits read come from one counting chain
per stream, :class:`~repro.sequences.ngram_store.NgramStore`, held by
:class:`~repro.runtime.cache.WindowCache` (DESIGN S56); its build time
is traced under the ``fitindex`` span phase.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


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

