"""Persistent content-addressed store for named arrays.

:class:`ArtifactStore` keeps the artifacts that must outlive a
process: an experiment plan's stage payloads (under
``repro.plans.spec.stage_key``), a serving tenant's WAL snapshots
(``repro.serve.wal.snapshot_key``) and the cold tier of the sharded
model store (``ShardedStore.cold_key``).  Each caller builds its own
SHA-256 content address; the store only guarantees that what a
``get`` returns is exactly what a ``put`` wrote under that key.
Sweeps keep no fitted state here: every fit reads the window cache's
one counting chain, which is cheaper than a load (DESIGN S60).

**Value format.**  Each entry is a single uncompressed ``.npz`` file
(``root/<key[:2]>/<key>.npz``).  Uncompressed npz keeps values
``np.load``-cheap — the zip member is a plain ``.npy`` image read
lazily per array — at a small disk-size cost.  Loads use
``allow_pickle=False``: values are arrays only, so a store directory
is data, never code.

**Failure containment.**  The store must never turn a cache problem
into a run failure: a torn write, truncated file, zip corruption or
permission error on read is treated as a miss (the bad entry is
unlinked best-effort) and the caller recomputes.  Writes are atomic
(temp file + ``os.replace``) so concurrent writers of the same key are
idempotent and readers never observe a partial entry.
"""

from __future__ import annotations

import hashlib
import io
import os
from pathlib import Path

import numpy as np

from repro.runtime import telemetry

#: The artifact layout version.  Plan stage fingerprints fold it in,
#: so bumping it invalidates every cached stage payload.
#: v2: packed databases switched from base-AS to bit-width packing,
#: which changes the stored key values for non-power-of-two alphabets.
#: v3: t-stide states gained the full (value, count) table behind the
#: common filter so reloaded fits keep their delta-fit capability.
STORE_SCHEMA_VERSION = 3


def stream_digest(stream: np.ndarray) -> str:
    """Content digest of one event stream.

    Hashes the canonical int64 little-endian bytes plus the shape, so
    equal-content streams digest identically regardless of the layout
    or byte order they happen to arrive in.
    """
    data = np.ascontiguousarray(np.asarray(stream, dtype="<i8"))
    hasher = hashlib.sha256()
    hasher.update(str(data.shape).encode("ascii"))
    hasher.update(data.tobytes())
    return hasher.hexdigest()


class ArtifactStore:
    """Content-addressed, corruption-tolerant on-disk artifact store.

    Safe across threads and processes by atomicity of ``os.replace``
    (the worst race is two writers producing the same bytes for the
    same key).

    Args:
        root: store directory; created on first use.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)

    def _path(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.npz"

    def get(self, key: str, kind: str) -> dict[str, np.ndarray] | None:
        """Load the arrays stored under ``key``, or ``None`` on a miss.

        Any read failure — missing file, torn write, zip or npy
        corruption — is a miss; a corrupt entry is unlinked so it
        cannot poison later lookups.  Never raises.

        Args:
            key: the caller's content address.
            kind: what the caller stores (``"plan"``, ``"shard"``,
                ``"snapshot"``); lookups count under
                ``store.<kind>.hit`` / ``.miss`` / ``.corrupt``.
        """
        prefix = f"store.{kind}"
        path = self._path(key)
        with telemetry.span("store", "get", kind=kind):
            try:
                with np.load(path, allow_pickle=False) as archive:
                    arrays = {name: archive[name] for name in archive.files}
            except FileNotFoundError:
                telemetry.count(f"{prefix}.miss")
                return None
            except Exception:
                # Corrupt or unreadable: demote to a miss and clear the slot.
                try:
                    path.unlink()
                except OSError:
                    pass
                telemetry.count(f"{prefix}.corrupt")
                telemetry.count(f"{prefix}.miss")
                return None
            telemetry.count(f"{prefix}.hit")
        return arrays

    def put(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Store ``arrays`` under ``key`` atomically.

        Failures (disk full, permissions) are swallowed: a failed put
        only means a future miss.
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
            telemetry.count("store.put")
