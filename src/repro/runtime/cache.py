"""Shared sliding-window artifacts for sweep evaluation.

Sweeping several detector families over the suite grid re-derives the
same intermediate products again and again: every family reduces the
same training stream to the same window table, and scores the same
highly repetitive test windows.  :class:`WindowCache` computes each
(stream, window length) artifact exactly once and hands the identical
arrays to every consumer:

* ``windows``   — the 2-D sliding-window view of a stream;
* ``unique``    — the distinct windows plus the inverse scatter index
  (every detector's score path: each distinct test window is scored
  once and scattered back);
* ``counts``    — the distinct windows plus their occurrence counts
  (the frequency table every detector family's fit reduces to);
* ``packed_db`` — a training stream's sorted distinct packed keys at
  one order (the table Stide, t-Stide and Markov fold).

The last three read one :class:`~repro.sequences.ngram_store.NgramStore`
per stream (DESIGN S56): the counting chain that also builds the
evaluation suite, extended one order at a time as longer windows are
asked for.

Streams are keyed by identity: the cache retains a reference to every
stream it has seen, so an ``id`` can never be recycled while the cache
lives.  A stream the cache has not seen before is simply a miss — the
artifact is computed and stored; correctness never depends on a hit.

The cache is thread-safe.  Artifacts are computed under the lock, which
deliberately serializes the *first* derivation of each artifact: when
several workers race for the same (stream, DW) slide, exactly one pays
for it and the rest share the result.

**Cross-process statistics.**  The cache itself is never shared across
processes — each process-backend worker builds a private cache, so the
parent's counters would undercount a process sweep by exactly the
workers' traffic.  The sweep engine closes that gap by shipping each
worker's :class:`CacheStats` back with its results and folding them
into the shared cache via :meth:`WindowCache.merge_counts`; after any
sweep, ``engine.window_cache.stats`` therefore covers all backends.
(Only the *counters* travel; the artifacts themselves stay
process-local, which is the point of the process backend.)  Each
worker keeps one cache for every task of a sweep and builds its own
counting chains in it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.exceptions import WindowError
from repro.runtime import telemetry
from repro.sequences.ngram_store import NgramStore
from repro.sequences.windows import pack_windows, windows_array

#: Cache key: (stream identity, window length, artifact tag, extra).
#: ``extra`` is the alphabet size where the artifact depends on it.
_Key = tuple[int, int, str, object]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters for observability and benchmarks."""

    hits: int
    misses: int

    @property
    def requests(self) -> int:
        """Total artifact lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0


class WindowCache:
    """Per-(stream, window length) memo of slide/pack/unique artifacts.

    One instance is meant to be shared by every detector and worker of
    a sweep; detectors consult it through
    :meth:`repro.detectors.base.AnomalyDetector.attach_cache`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[_Key, object] = {}
        self._streams: dict[int, np.ndarray] = {}
        self._stores: dict[int, NgramStore] = {}
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the hit/miss counters."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses)

    def merge_counts(self, hits: int, misses: int) -> None:
        """Fold another cache's counters into this one.

        Used by the sweep engine to aggregate the private caches of
        process-backend workers, so :attr:`stats` stays accurate across
        every executor (see the module docstring).
        """
        if hits < 0 or misses < 0:
            raise ValueError("cache counters cannot be negative")
        with self._lock:
            self._hits += hits
            self._misses += misses

    def clear(self) -> None:
        """Drop every cached artifact and retained stream reference.

        Counters are kept: stats describe the cache's lifetime traffic,
        not its current contents.
        """
        with self._lock:
            self._entries.clear()
            self._streams.clear()
            self._stores.clear()

    def evict(self, stream: np.ndarray, window_length: int | None = None) -> int:
        """Drop the artifacts derived from ``stream``.

        Args:
            stream: the stream whose artifacts to evict (matched by
                identity, exactly as lookups are keyed).
            window_length: evict only this window length's artifacts;
                all of the stream's artifacts when omitted.

        Returns:
            The number of cache entries removed.  The pinned stream
            reference is released once no artifact of the stream
            remains, letting its ``id`` be recycled safely.
        """
        with self._lock:
            stream_id = id(stream)

            doomed = [
                key
                for key in self._entries
                if key[0] == stream_id
                and (window_length is None or key[1] == window_length)
            ]
            for key in doomed:
                del self._entries[key]
            if not any(key[0] == stream_id for key in self._entries):
                self._streams.pop(stream_id, None)
                self._stores.pop(stream_id, None)
        return len(doomed)

    def release_stream(self, stream: np.ndarray) -> int:
        """Fully forget ``stream``: artifacts, counting chain, pin.

        The explicit antidote to the identity-keying footgun: the
        cache retains a reference to every stream it has seen so its
        ``id`` can never be recycled, which means a long-lived engine
        sweeping many suites grows without bound unless someone lets
        go.  Suite turnover calls this when a stream's artifacts can no
        longer be asked for.

        Equivalent to :meth:`evict` over every window length; returns
        the number of entries dropped.
        """
        return self.evict(stream)

    def _get(self, stream: np.ndarray, key: _Key, compute):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                telemetry.count("cache.hit")
                return entry
            self._misses += 1
            telemetry.count("cache.miss")
            with telemetry.span("cache", key[2], window_length=key[1]):
                entry = compute()
            self._entries[key] = entry
            # Pin the stream so its id() stays valid for the cache's life.
            self._streams.setdefault(key[0], stream)
            return entry

    def windows(self, stream: np.ndarray, window_length: int) -> np.ndarray:
        """The sliding-window view of ``stream`` at ``window_length``.

        Equivalent to :func:`repro.sequences.windows.windows_array`,
        computed at most once per (stream, window length).
        """
        key = (id(stream), window_length, "windows", 0)
        return self._get(
            stream, key, lambda: windows_array(stream, window_length)
        )

    def packed_db(
        self, stream: np.ndarray, window_length: int, alphabet_size: int
    ) -> np.ndarray:
        """Sorted distinct packed keys of ``stream`` at ``window_length``.

        The packed table Stide, t-Stide and Markov fold, aligned with
        :meth:`unique_counts`: lexicographic rows under order-preserving
        bit packing come out sorted, so every family reads one table
        per (training stream, order, alphabet).
        """
        # Resolve the rows before entering _get: the cache lock is not
        # reentrant.
        rows, _counts = self.unique_counts(stream, window_length)
        key = (id(stream), window_length, "packed_db", alphabet_size)
        return self._get(stream, key, lambda: pack_windows(rows, alphabet_size))

    def unique(
        self, stream: np.ndarray, window_length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct windows of ``stream`` plus the inverse scatter index.

        Returns ``(unique_rows, inverse)`` with
        ``unique_rows[inverse]`` exactly the full window sequence —
        the dedup-and-scatter every cached detector scores through
        (:meth:`~repro.detectors.base.AnomalyDetector._score`).  Rows
        are in lexicographic order, matching
        ``np.unique(windows, axis=0)``.  Asked for in ascending window
        lengths, as a sweep does, each inverse is the chain's newest
        order; any other order costs one walk of the stream.

        Raises:
            WindowError: when the stream is shorter than the window.
        """
        key = (id(stream), window_length, "unique", -1)

        def compute() -> tuple[np.ndarray, np.ndarray]:
            store = self._chain(stream, window_length)
            return store.rows(window_length), store.groups(window_length)

        return self._get(stream, key, compute)

    def unique_counts(
        self, stream: np.ndarray, window_length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct windows of ``stream`` plus their occurrence counts.

        Returns ``(unique_rows, counts)`` exactly as
        ``np.unique(windows, axis=0, return_counts=True)`` would — the
        frequency table behind every detector family's fit
        (:meth:`~repro.detectors.base.AnomalyDetector._distinct_windows`)
        — read off
        the stream's counting chain, so no per-window array of the
        order is kept.

        Raises:
            WindowError: when the stream is shorter than the window.
        """
        key = (id(stream), window_length, "counts", -1)

        def compute() -> tuple[np.ndarray, np.ndarray]:
            store = self._chain(stream, window_length)
            return store.rows(window_length), store.row_counts(window_length)

        return self._get(stream, key, compute)

    def _chain(self, stream: np.ndarray, window_length: int) -> NgramStore:
        """``stream``'s counting chain, indexed through ``window_length``.

        Called under the cache lock, so chain growth is serialized.
        One chain per stream, keyed without the alphabet: every family
        at every alphabet reads the same orders.
        """
        if len(stream) < window_length:
            raise WindowError(
                f"stream of length {len(stream)} is shorter than "
                f"window length {window_length}"
            )
        store = self._stores.get(id(stream))
        if store is not None and window_length in store.lengths:
            return store
        telemetry.count("fitindex.extensions")
        with telemetry.span("fitindex", "extend", window_length=window_length):
            if store is None:
                store = self._stores[id(stream)] = NgramStore(
                    [window_length], stream
                )
            else:
                store.index(window_length)
        return store

    def validated(self, stream: np.ndarray, alphabet_size: int, compute):
        """Memoized per-(stream, alphabet) training-stream validation.

        ``fit_many`` used to re-validate the same training stream once
        per detector; routing validation through the cache makes it
        once per (stream, alphabet) across every family and window
        length of a sweep.  ``compute`` performs the actual validation
        and returns the canonical int64 array.
        """
        key = (id(stream), 0, "validated", alphabet_size)
        return self._get(stream, key, compute)
