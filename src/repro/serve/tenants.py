"""Multi-tenant normal databases with crash-safe persistence.

One tenant = one normal database: the concatenated training stream its
detectors fit on.  Because every detector family in the registry fits
deterministically from that stream, recovering the stream bit-exactly
(the :mod:`repro.serve.wal` contract) recovers every score the service
would have produced — the property the crash-recovery integration test
asserts end to end.

Fitted models live in a tiered :class:`~repro.runtime.shardstore.
ShardedStore`; ingest delta-fits them (bit-identical to a refit) and
an evicted or restarted model revives with one delta replay.  Methods
are synchronous: the server runs every tenant operation on its
event-loop thread, so no locks are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import create_detector
from repro.exceptions import (
    DetectorConfigurationError,
    ScoreRefusal,
    TenantRecoveryError,
)
from repro.runtime import telemetry
from repro.runtime.deltafit import verify_delta
from repro.runtime.shardstore import ShardedStore
from repro.runtime.store import ArtifactStore, stream_digest
from repro.serve.wal import DEFAULT_SEGMENT_BYTES, TenantJournal

#: Default per-tenant alphabet when a create request does not name one
#: (the paper corpus alphabet).
DEFAULT_ALPHABET_SIZE = 8

#: Hot-tier byte cap of the default model store (``--hot-cap-mb``).
DEFAULT_HOT_CAP_BYTES = 64 * 1024 * 1024

#: Delta updates between two live cross-checks of a delta-fitted model
#: against a cold refit (``--delta-verify-every``).
DEFAULT_DELTA_VERIFY_EVERY = 256


@dataclass
class TenantState:
    """One tenant's in-memory state, mirrored by its journal."""

    tenant_id: str
    alphabet_size: int
    events: np.ndarray
    seq: int = 0
    journal: TenantJournal | None = None
    quarantined: str | None = None

    @property
    def event_count(self) -> int:
        """Training events accumulated so far."""
        return int(len(self.events))

    def digest(self) -> str:
        """Content digest of the normal database (recovery audits)."""
        return stream_digest(self.events)


@dataclass(frozen=True)
class RecoveryReport:
    """What a service restart reconstructed from disk."""

    tenants: int = 0
    from_snapshot: int = 0
    replayed_records: int = 0
    quarantined: tuple[str, ...] = ()


def default_model_store(
    directory: str | Path, hot_cap_bytes: int = DEFAULT_HOT_CAP_BYTES
) -> ShardedStore:
    """The serving model store; its cold tier is ``directory/cold``."""
    cold = ArtifactStore(Path(directory) / "cold")
    return ShardedStore(directory, hot_cap_bytes=hot_cap_bytes, cold=cold)


def _create_detector(
    family: str, window: int, alphabet_size: int
) -> AnomalyDetector:
    """:func:`create_detector`, refusing a bad (family, window) with 422.

    An unknown family or a window the family rejects is the client's
    error, so it must not surface as a crash that advances the
    tenant's circuit breaker.
    """
    try:
        return create_detector(family, window, alphabet_size)
    except DetectorConfigurationError as error:
        raise ScoreRefusal(
            str(error), status=422, reason="invalid-detector"
        ) from None


class TenantStateStore:
    """All tenants of one service instance, journaled under one root.

    Layout: ``<root>/tenants/<tenant id>/{wal.jsonl,manifest.json}``,
    an artifact store (``<root>/store`` by default) holding the
    snapshots, and the model store (``<root>/models`` by default).

    Args:
        root: service state directory.
        store: snapshot store; defaults to ``ArtifactStore(root/"store")``.
        snapshot_every: take a snapshot every N ingests (0 disables).
        fsync: forwarded to each tenant's journal.
        models: the tiered model store, or the directory to build
            :func:`default_model_store` in (a relative path resolves
            under ``root``).  Fitted detectors live in its hot LRU,
            ingests *delta-fit* the count-based families in place
            (bit-identical to a refit, cost proportional to the
            batch), and serialized states ride the warm/cold tiers so
            a restart replays deltas instead of refitting.
        delta_verify_every: every N delta updates, cross-check one
            updated detector against a cold refit of the full stream
            (0 disables).  A divergence — which the deltafit tests say
            cannot happen — invalidates the model and counts under
            ``serve.delta.diverged``, which ``repro trace validate``
            requires to be zero.
        wal_segment_bytes: forwarded to each tenant's journal; rotated
            segments fully covered by a verified snapshot are pruned.
    """

    def __init__(
        self,
        root: str | Path,
        store: ArtifactStore | None = None,
        snapshot_every: int = 8,
        fsync: bool = False,
        models: ShardedStore | str | Path = "models",
        delta_verify_every: int = DEFAULT_DELTA_VERIFY_EVERY,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        self._root = Path(root)
        self._store = (
            store
            if store is not None
            else ArtifactStore(self._root / "store")
        )
        self._snapshot_every = int(snapshot_every)
        self._fsync = fsync
        self._models = (
            models
            if isinstance(models, ShardedStore)
            else default_model_store(self._root / models)
        )
        self._delta_verify_every = int(delta_verify_every)
        self._wal_segment_bytes = int(wal_segment_bytes)
        self._delta_updates = 0
        self._resident_bytes = 0
        self._tenants: dict[str, TenantState] = {}

    @property
    def root(self) -> Path:
        """The service state directory."""
        return self._root

    @property
    def store(self) -> ArtifactStore:
        """The snapshot artifact store."""
        return self._store

    @property
    def tenants(self) -> dict[str, TenantState]:
        """Live tenants by id (includes quarantined ones)."""
        return self._tenants

    @property
    def models(self) -> ShardedStore:
        """The tiered model store."""
        return self._models

    def _tenant_dir(self, tenant_id: str) -> Path:
        return self._root / "tenants" / tenant_id

    def _journal(self, tenant_id: str) -> TenantJournal:
        return TenantJournal(
            self._tenant_dir(tenant_id),
            fsync=self._fsync,
            segment_bytes=self._wal_segment_bytes,
        )

    @staticmethod
    def model_key(tenant_id: str, family: str, window: int) -> str:
        """The fleet-store key for one (tenant, family, window) model."""
        return f"{tenant_id}|{family}|{window}"

    def _account_events(self, delta_bytes: int) -> None:
        """Track per-tenant training-stream residency (``/stats``)."""
        if delta_bytes:
            self._resident_bytes += int(delta_bytes)
            telemetry.count("serve.tenants.resident_bytes", int(delta_bytes))

    # -- lifecycle --------------------------------------------------------

    def peek_alphabet(self, tenant_id: str) -> int | None:
        """The tenant's alphabet size without any refusal semantics.

        The batch scheduler groups queued jobs by (family, window,
        alphabet) *before* they are scored; this peek must not
        pre-empt the refusals (unknown tenant, quarantine) that group
        scoring raises, so it answers ``None`` for anything it cannot
        see instead of raising.
        """
        state = self._tenants.get(tenant_id)
        return None if state is None else state.alphabet_size

    def get(self, tenant_id: str) -> TenantState:
        """The tenant, or a :class:`ScoreRefusal` (404) if unknown."""
        state = self._tenants.get(tenant_id)
        if state is None:
            raise ScoreRefusal(
                f"unknown tenant {tenant_id!r}",
                status=404,
                reason="unknown-tenant",
            )
        if state.quarantined is not None:
            raise ScoreRefusal(
                f"tenant {tenant_id!r} is quarantined: {state.quarantined}",
                status=503,
                reason="quarantined",
            )
        return state

    def open(
        self, tenant_id: str, alphabet_size: int | None = None
    ) -> TenantState:
        """The tenant, created (and journaled) if it does not exist.

        A new tenant's id names its directory under ``<root>/tenants``,
        so an id that is empty, ``.``/``..``, or holds a path separator
        or NUL is refused (422): it would journal outside that
        directory, where :meth:`recover_all` never looks.
        """
        state = self._tenants.get(tenant_id)
        if state is not None:
            if state.quarantined is not None:
                raise ScoreRefusal(
                    f"tenant {tenant_id!r} is quarantined: "
                    f"{state.quarantined}",
                    status=503,
                    reason="quarantined",
                )
            return state
        if tenant_id in ("", ".", "..") or any(
            char in tenant_id for char in "/\\\0"
        ):
            raise ScoreRefusal(
                f"invalid tenant id {tenant_id!r}",
                status=422,
                reason="invalid-tenant",
            )
        size = (
            int(alphabet_size)
            if alphabet_size is not None
            else DEFAULT_ALPHABET_SIZE
        )
        if size < 2:
            raise ScoreRefusal(
                f"alphabet_size must be >= 2, got {size}",
                status=422,
                reason="invalid-alphabet",
            )
        journal = self._journal(tenant_id)
        journal.write_manifest(size)
        state = TenantState(
            tenant_id=tenant_id,
            alphabet_size=size,
            events=np.empty(0, dtype=np.int64),
            journal=journal,
        )
        self._tenants[tenant_id] = state
        telemetry.count("serve.tenant.created")
        return state

    # -- mutation ---------------------------------------------------------

    def validate_events(
        self, events: object, alphabet_size: int
    ) -> np.ndarray:
        """Canonical int64 view of a request's events, or a 422 refusal.

        The *only* gate between wire input and detector input: a
        poisoned payload (out-of-alphabet codes, wrong shape, NaNs)
        becomes an explicit refusal here — the pipeline never scores
        what it could not validate, which is half of the no-wrong-score
        invariant.
        """
        try:
            data = np.asarray(events, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as error:
            raise ScoreRefusal(
                f"events are not an integer sequence: {error}",
                status=422,
                reason="invalid-events",
            ) from None
        if data.ndim != 1 or data.size == 0:
            raise ScoreRefusal(
                f"events must be a non-empty flat sequence, got shape "
                f"{data.shape}",
                status=422,
                reason="invalid-events",
            )
        if data.min() < 0 or data.max() >= alphabet_size:
            raise ScoreRefusal(
                "events contain codes outside the alphabet "
                f"[0, {alphabet_size - 1}]",
                status=422,
                reason="invalid-events",
            )
        return data

    def ingest(self, state: TenantState, events: np.ndarray) -> int:
        """Append validated training events; returns the new ``seq``.

        WAL-first: the record is durable before the in-memory state
        (and therefore any acknowledgement) reflects it.  The
        tenant's hot detectors are *delta-fitted* in place —
        bit-identical to a refit at a cost proportional to the batch.
        """
        seq = state.seq + 1
        assert state.journal is not None
        state.journal.append(seq, events)
        prior = state.events
        state.events = (
            events.copy()
            if state.event_count == 0
            else np.concatenate([prior, events])
        )
        state.seq = seq
        self._account_events(int(np.asarray(events).nbytes))
        self._delta_update_models(state, events, prior)
        telemetry.count("serve.ingest")
        telemetry.count("serve.ingest.events", len(events))
        if self._snapshot_every and seq % self._snapshot_every == 0:
            key = state.journal.snapshot(
                state.tenant_id,
                seq,
                state.events,
                state.alphabet_size,
                self._store,
            )
            if key is not None:
                # The snapshot is verified readable: rotated WAL
                # segments it fully covers are dead weight.
                state.journal.prune_segments(seq)
                self._demote_models(state)
        return seq

    # -- model store ------------------------------------------------------

    @staticmethod
    def _stream_prefix_digest(events: np.ndarray, count: int) -> str:
        """Digest of the first ``min(64, count)`` events.

        The training stream is append-only, so this prefix is stable
        for every model persisted at ``event_count >= count`` — a
        cheap identity check that catches a recreated tenant whose
        (seq, event count) happen to collide with stale model arrays.
        """
        return stream_digest(events[: min(64, int(count))])

    def _stage_model(
        self,
        state: TenantState,
        key: str,
        detector: AnomalyDetector,
        cold: bool = False,
    ) -> None:
        """Cache a model hot; persist its fit state, if any, warm (and cold)."""
        exported = detector.export_fit_state()
        if exported:
            arrays = dict(exported)
            arrays["__meta"] = np.asarray(
                [state.seq, state.event_count, state.alphabet_size],
                dtype=np.int64,
            )
            digest = self._stream_prefix_digest(
                state.events, state.event_count
            )
            arrays["__digest"] = np.frombuffer(
                digest.encode("ascii"), dtype=np.uint8
            ).copy()
            self._models.put(key, arrays, cold=cold)
        self._models.hot.put(key, detector, detector.state_nbytes())

    def _hot_models(self, state: TenantState) -> list[tuple[str, AnomalyDetector]]:
        """The tenant's hot (key, detector) pairs.

        An id may hold ``|``: prefix ``a|`` also lists tenant ``a|b``'s
        keys, so the id before a key's last two fields must match.
        """
        models = []
        for key in self._models.hot.keys_with_prefix(f"{state.tenant_id}|"):
            detector = None
            if key.rsplit("|", 2)[0] == state.tenant_id:
                detector = self._models.hot.get(key)
            if isinstance(detector, AnomalyDetector):
                models.append((key, detector))
        return models

    def _delta_update_models(
        self, state: TenantState, batch: np.ndarray, prior: np.ndarray
    ) -> None:
        """Fold an ingested batch into the tenant's hot detectors.

        Detectors without a delta path (or fitted before one window of
        history existed) are invalidated and refit on next use; the
        count-based families merge the batch in place and re-persist.
        """
        for key, detector in self._hot_models(state):
            window = detector.window_length
            if not detector.supports_delta_fit or len(prior) < window - 1:
                self._models.invalidate(key)
                continue
            tail = prior[len(prior) - (window - 1) :]
            detector.update_batch(batch, tail)
            self._delta_updates += 1
            telemetry.count("serve.delta.update")
            if (
                self._delta_verify_every
                and self._delta_updates % self._delta_verify_every == 0
            ):
                telemetry.count("serve.delta.verify")
                if not verify_delta(detector, state.events):
                    telemetry.count("serve.delta.diverged")
                    self._models.invalidate(key)
                    continue
            self._stage_model(state, key, detector)

    def _demote_models(self, state: TenantState) -> None:
        """Write the tenant's hot models through to the cold tier.

        Runs at the snapshot cadence so a model's durable copy is
        never staler than the stream snapshot next to it.
        """
        for key, detector in self._hot_models(state):
            self._stage_model(state, key, detector, cold=True)

    def _load_model(
        self, state: TenantState, family: str, window: int, key: str
    ) -> AnomalyDetector | None:
        """Revive a detector from the warm/cold tiers, replaying deltas.

        The stored ``__meta`` records the event count the arrays were
        fitted through; a shortfall against the tenant's current
        stream is closed with one :meth:`~repro.detectors.base.
        AnomalyDetector.update_batch` over the missed suffix — the
        recovery path that makes restarts replay deltas, not refits.
        Any mismatch (foreign digest, future meta, failed import)
        invalidates the entry and falls back to a cold fit.
        """
        held = self._models.get(key)
        if held is None:
            return None
        arrays = dict(held)
        meta = np.asarray(arrays.pop("__meta", np.empty(0))).ravel()
        stored_digest = arrays.pop("__digest", None)
        if meta.size != 3:
            self._models.invalidate(key)
            return None
        stored_count = int(meta[1])
        if (
            int(meta[2]) != state.alphabet_size
            or stored_count > state.event_count
            or stored_count < window
            or stored_digest is None
            or bytes(np.asarray(stored_digest, dtype=np.uint8)).decode(
                "ascii", "replace"
            )
            != self._stream_prefix_digest(state.events, stored_count)
        ):
            self._models.invalidate(key)
            return None
        detector = _create_detector(family, window, state.alphabet_size)
        if not detector.import_fit_state(arrays):
            self._models.invalidate(key)
            return None
        if stored_count < state.event_count:
            if not detector.supports_delta_fit:
                return None  # stale and not mergeable: refit
            detector.update_batch(
                state.events[stored_count:],
                state.events[stored_count - (window - 1) : stored_count],
            )
            telemetry.count("serve.delta.replay")
        return detector

    # -- recovery ---------------------------------------------------------

    def recover_all(self, store_faulty: bool = False) -> RecoveryReport:
        """Reconstruct every journaled tenant from disk.

        A tenant whose state cannot be reconstructed faithfully is
        *quarantined* — registered, but refusing all traffic with an
        advisory — so one damaged tenant never blocks the fleet and is
        never served from guessed state.

        Args:
            store_faulty: chaos hook — treat snapshot reads as failed.
        """
        tenants_dir = self._root / "tenants"
        recovered = 0
        from_snapshot = 0
        replayed = 0
        quarantined: list[str] = []
        if tenants_dir.is_dir():
            for directory in sorted(p for p in tenants_dir.iterdir() if p.is_dir()):
                tenant_id = directory.name
                journal = self._journal(tenant_id)
                try:
                    loaded = journal.recover(
                        self._store, store_faulty=store_faulty
                    )
                except TenantRecoveryError as error:
                    self._tenants[tenant_id] = TenantState(
                        tenant_id=tenant_id,
                        alphabet_size=DEFAULT_ALPHABET_SIZE,
                        events=np.empty(0, dtype=np.int64),
                        journal=journal,
                        quarantined=str(error),
                    )
                    quarantined.append(tenant_id)
                    telemetry.count("serve.tenant.quarantined")
                    continue
                if loaded is None:
                    continue
                self._tenants[tenant_id] = TenantState(
                    tenant_id=tenant_id,
                    alphabet_size=loaded.alphabet_size,
                    events=loaded.events,
                    seq=loaded.seq,
                    journal=journal,
                )
                self._account_events(int(loaded.events.nbytes))
                recovered += 1
                from_snapshot += int(loaded.from_snapshot)
                replayed += loaded.replayed_records
        telemetry.count("serve.tenant.recovered", recovered)
        return RecoveryReport(
            tenants=recovered,
            from_snapshot=from_snapshot,
            replayed_records=replayed,
            quarantined=tuple(quarantined),
        )

    # -- detectors --------------------------------------------------------

    def detector_for(
        self, state: TenantState, family: str, window: int
    ) -> AnomalyDetector:
        """A fitted detector for (tenant, family, window), cached.

        The lookup ladder is hot LRU → warm mmap shard (delta-replayed
        up to the current stream) → cold store → cold fit.

        Raises:
            ScoreRefusal: 422 ``insufficient-training`` when the
                tenant's normal database cannot support the window
                (fewer events than one window); 422 ``invalid-detector``
                for an unknown family or a window the family rejects.
        """
        key = self.model_key(state.tenant_id, family, window)
        hot = self._models.hot.get(key)
        if isinstance(hot, AnomalyDetector):
            # Ingest keeps hot models current, so no staleness check.
            return hot
        if state.event_count < window:
            raise ScoreRefusal(
                f"tenant {state.tenant_id!r} holds {state.event_count} "
                f"training events, fewer than one window of {window}",
                status=422,
                reason="insufficient-training",
            )
        detector = self._load_model(state, family, window, key)
        if detector is None:
            with telemetry.span(
                "serve",
                "fit",
                tenant=state.tenant_id,
                family=family,
                dw=window,
            ):
                detector = _create_detector(
                    family, window, state.alphabet_size
                )
                detector.fit(state.events)
            telemetry.count("serve.fit")
        self._stage_model(state, key, detector)
        return detector

    # -- observability ----------------------------------------------------

    def memory_stats(self) -> dict:
        """Per-tenant and model-tier memory accounting for ``/stats``.

        ``tenants_resident_bytes`` is maintained by counter deltas
        (mirrored to the ``serve.tenants.resident_bytes`` telemetry
        counter) and cross-checked here against the ground truth sum
        so a drift shows up as a failing assertion in the tests rather
        than a silently wrong dashboard.
        """
        actual = sum(
            int(state.events.nbytes) for state in self._tenants.values()
        )
        hot = self._models.hot.stats
        store = self._models.stats
        return {
            "tenants": len(self._tenants),
            "tenants_resident_bytes": actual,
            "tenants_resident_bytes_counter": int(self._resident_bytes),
            "hot_tier": {
                "resident_entries": hot.resident_entries,
                "resident_bytes": hot.resident_bytes,
                "cap_bytes": hot.cap_bytes,
                "hits": hot.hits,
                "misses": hot.misses,
                "evictions": hot.evictions,
            },
            "model_store": {
                "warm_hits": store.warm_hits,
                "warm_misses": store.warm_misses,
                "cold_hits": store.cold_hits,
                "promotions": store.promotions,
                "compactions": store.compactions,
                "pending_entries": store.pending_entries,
                "shard_entries": store.shard_entries,
            },
        }
