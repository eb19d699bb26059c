"""Persistent content-addressed store for fitted detector state.

The sweep engine's :class:`~repro.runtime.cache.WindowCache` removes
redundant work *within* one run; atlas builds, shape-replication seeds
and checkpoint-resumed sweeps repeat the identical fits *across* runs.
:class:`ArtifactStore` closes that gap: a fitted detector's state is
written once under a content-addressed key and every later run — any
process, any machine sharing the directory — loads it instead of
fitting.

**Key schema.**  A key is the SHA-256 hex digest of a canonical
recipe string::

    repro-fit/<schema version>
    stream=<sha256 of each training stream's bytes + shape + dtype>
    config=<detector fingerprint: family, DW, AS, family hyperparams>

Anything that could change the fitted state is in the recipe: the
exact training bytes, the full detector configuration, and
:data:`STORE_SCHEMA_VERSION`, which is bumped whenever the serialized
state layout (or fitting semantics) changes so stale entries from
older code are unreachable rather than wrongly loaded.

**Value format.**  Each entry is a single uncompressed ``.npz`` file
(``root/<key[:2]>/<key>.npz``) holding the detector's
``_fit_state()`` arrays.  Uncompressed npz keeps values
``np.load``-cheap — the zip member is a plain ``.npy`` image read
lazily per array — at a small disk-size cost.  Loads use
``allow_pickle=False``: values are arrays only, so a store directory
is data, never code.

**Failure containment.**  The store is an optimization layer and must
never turn a cache problem into a run failure: a torn write, truncated
file, zip corruption or permission error on read is treated as a miss
(the bad entry is unlinked best-effort) and the caller simply fits.
Writes are atomic (temp file + ``os.replace``) so concurrent writers
of the same key are idempotent and readers never observe a partial
entry.

**Eviction.**  With a byte cap configured, least-recently-used entries
(mtime order; hits refresh mtime) are unlinked after each put until
the store fits the cap.  The entry just written is always protected so
a put can never evict itself.
"""

from __future__ import annotations

import hashlib
import io
import os
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.runtime import telemetry

#: Bump when the serialized fit-state layout or fitting semantics
#: change: old entries become unreachable (a miss), never misread.
#: v2: packed databases switched from base-AS to bit-width packing,
#: which changes the stored key values for non-power-of-two alphabets.
#: v3: t-stide states gained the full (value, count) table behind the
#: common filter so reloaded fits keep their delta-fit capability.
STORE_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class StoreStats:
    """Store traffic counters for observability and benchmarks."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0


def stream_digest(stream: np.ndarray) -> str:
    """Content digest of one training stream.

    Hashes the canonical int64 little-endian bytes plus the shape, so
    equal-content streams digest identically regardless of the layout
    or byte order they happen to arrive in.
    """
    data = np.ascontiguousarray(np.asarray(stream, dtype="<i8"))
    hasher = hashlib.sha256()
    hasher.update(str(data.shape).encode("ascii"))
    hasher.update(data.tobytes())
    return hasher.hexdigest()


def streams_digest(streams: tuple[np.ndarray, ...] | list[np.ndarray]) -> str:
    """Combined digest of an ordered collection of training streams."""
    hasher = hashlib.sha256()
    hasher.update(f"streams/{len(streams)}".encode("ascii"))
    for stream in streams:
        hasher.update(stream_digest(stream).encode("ascii"))
    return hasher.hexdigest()


def fit_key(digest: str, fingerprint: str) -> str:
    """The content-addressed key for (training content, detector config).

    Args:
        digest: :func:`streams_digest` of the training streams.
        fingerprint: the detector's configuration fingerprint (see
            :meth:`repro.detectors.base.AnomalyDetector.config_fingerprint`).
    """
    recipe = (
        f"repro-fit/{STORE_SCHEMA_VERSION}\n"
        f"stream={digest}\n"
        f"config={fingerprint}\n"
    )
    return hashlib.sha256(recipe.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Content-addressed, corruption-tolerant on-disk artifact store.

    Thread-safe within a process; safe across processes by atomicity
    of ``os.replace`` (the worst cross-process race is two writers
    producing the same bytes for the same key).

    Args:
        root: store directory; created on first use.
        cap_bytes: optional LRU size cap.  ``None`` disables eviction.
    """

    def __init__(self, root: str | Path, cap_bytes: int | None = None) -> None:
        if cap_bytes is not None and cap_bytes <= 0:
            raise ValueError(f"cap_bytes must be positive, got {cap_bytes}")
        self._root = Path(root)
        self._cap = cap_bytes
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    @property
    def cap_bytes(self) -> int | None:
        """The LRU size cap (``None`` when uncapped)."""
        return self._cap

    @property
    def stats(self) -> StoreStats:
        """A snapshot of the traffic counters."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
            )

    def spec(self) -> tuple[str, int | None]:
        """A picklable ``(root, cap)`` description for process workers.

        Workers reconstruct an equivalent store from the spec; the
        directory is the shared state, so separate instances in
        separate processes see each other's entries.
        """
        return str(self._root), self._cap

    @classmethod
    def from_spec(cls, spec: "tuple[str, int | None] | None") -> "ArtifactStore | None":
        """Inverse of :meth:`spec` (identity on ``None``)."""
        if spec is None:
            return None
        root, cap = spec
        return cls(root, cap_bytes=cap)

    def _path(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.npz"

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1

    def get(self, key: str, kind: str = "fit") -> dict[str, np.ndarray] | None:
        """Load the arrays stored under ``key``, or ``None`` on a miss.

        Any read failure — missing file, torn write, zip or npy
        corruption — is a miss; a corrupt entry is unlinked so it
        cannot poison later lookups.  Never raises.

        Args:
            key: the content address (see :func:`fit_key`).
            kind: telemetry tag — ``"fit"`` for the per-block fit
                lookup (the traffic the ``fits:`` provenance counters
                mirror); other kinds (``"plan"``, ``"shard"``,
                ``"snapshot"``) count under ``store.<kind>.*`` so the
                ``store.hit == fits.from_store`` trace invariant holds
                exactly on stores those callers share.
        """
        prefix = "store" if kind == "fit" else f"store.{kind}"
        path = self._path(key)
        with telemetry.span("store", "get", kind=kind):
            try:
                with np.load(path, allow_pickle=False) as archive:
                    arrays = {name: archive[name] for name in archive.files}
            except FileNotFoundError:
                self._count(hit=False)
                telemetry.count(f"{prefix}.miss")
                return None
            except Exception:
                # Corrupt or unreadable: demote to a miss and clear the slot.
                try:
                    path.unlink()
                except OSError:
                    pass
                self._count(hit=False)
                telemetry.count(f"{prefix}.corrupt")
                telemetry.count(f"{prefix}.miss")
                return None
            try:
                now = None  # current time
                os.utime(path, times=now)
            except OSError:
                pass  # LRU freshness is best-effort
            self._count(hit=True)
            telemetry.count(f"{prefix}.hit")
        return arrays

    def put(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Store ``arrays`` under ``key`` atomically.

        Failures (disk full, permissions) are swallowed: the store is
        an optimization, and a failed put only means a future miss.
        """
        path = self._path(key)
        with telemetry.span("store", "put"):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                buffer = io.BytesIO()
                # Uncompressed: members are raw .npy images, cheap to load.
                np.savez(buffer, **arrays)
                tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
                with open(tmp, "wb") as handle:
                    handle.write(buffer.getbuffer())
                os.replace(tmp, path)
            except Exception:
                try:
                    tmp.unlink()
                except (OSError, UnboundLocalError):
                    pass
                return
            with self._lock:
                self._puts += 1
            telemetry.count("store.put")
            if self._cap is not None:
                self._evict_over_cap(protect=path)

    def entries(self) -> list[Path]:
        """Every entry file currently in the store (unordered)."""
        if not self._root.is_dir():
            return []
        return [
            path
            for path in self._root.glob("??/*.npz")
            if path.is_file()
        ]

    def size_bytes(self) -> int:
        """Total bytes of all entries currently on disk."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _evict_over_cap(self, protect: Path) -> None:
        """Unlink LRU entries until the store fits the cap.

        ``protect`` (the entry just written) is never evicted, so a
        put always leaves its own value readable even when the single
        entry exceeds the cap.
        """
        survey = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            survey.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in survey)
        if total <= self._cap:
            return
        survey.sort(key=lambda item: item[0])  # oldest first
        evicted = 0
        for _mtime, size, path in survey:
            if total <= self._cap:
                break
            if path == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self._evictions += evicted
            telemetry.count("store.eviction", evicted)

    def verify(self) -> tuple[int, int]:
        """Scrub the store: ``(readable entries, purged corrupt entries)``.

        Opens every entry; unreadable ones are unlinked.  Useful for
        tests and operational checks, not required for correctness
        (reads already demote corruption to misses).
        """
        good = 0
        purged = 0
        for path in self.entries():
            try:
                with zipfile.ZipFile(path) as archive:
                    bad = archive.testzip()
                if bad is not None:
                    raise OSError(f"corrupt member {bad}")
                good += 1
            except Exception:
                try:
                    path.unlink()
                    purged += 1
                except OSError:
                    pass
        return good, purged
