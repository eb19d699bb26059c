"""Model store integration: delta-fits, tiers, restart replay.

The tenant store's :class:`~repro.runtime.shardstore.ShardedStore`
must (a) fold ingested batches into hot detectors via
``update_batch`` instead of refitting, (b) revive evicted or restarted
models from the warm mmap tier and close the gap with one delta
replay, and (c) produce scores bit-identical to a cold fit of the
tenant's whole training stream throughout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.registry import create_detector
from repro.runtime.shardstore import ShardedStore
from repro.exceptions import ScoreRefusal
from repro.runtime.store import ArtifactStore
from repro.runtime.telemetry import (
    Telemetry,
    activated,
    check_trace_counters,
)
from repro.serve.tenants import TenantStateStore


def _models(tmp_path, **kwargs):
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("cold", ArtifactStore(tmp_path / "cold"))
    return ShardedStore(tmp_path / "models", **kwargs)


def _cold_fit(family, window, events):
    """The reference: a fresh detector fitted on the whole stream."""
    detector = create_detector(family, window, 8)
    detector.fit(np.concatenate(events).astype(np.int64))
    return detector


def _drive(store, tenant_id="acme", batches=6, seed=3):
    """Create a tenant, ingest ``batches`` chunks, return the chunks."""
    rng = np.random.default_rng(seed)
    state = store.open(tenant_id, alphabet_size=8)
    chunks = [rng.integers(0, 8, size=24) for _ in range(batches)]
    for chunk in chunks:
        store.ingest(state, store.validate_events(chunk.tolist(), 8))
    return state, chunks


class TestDeltaServing:
    def test_ingest_delta_updates_instead_of_refitting(self, tmp_path):
        collector = Telemetry()
        store = TenantStateStore(
            tmp_path / "state", models=_models(tmp_path)
        )
        state, _ = _drive(store, batches=1)
        with activated(collector):
            detector = store.detector_for(state, "stide", 6)
            for _ in range(5):
                batch = np.random.default_rng(9).integers(0, 8, size=16)
                store.ingest(state, store.validate_events(batch.tolist(), 8))
            assert store.detector_for(state, "stide", 6) is detector
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("serve.fit", 0) == 1  # the initial fit only
        assert counters.get("serve.delta.update", 0) == 5

    @pytest.mark.parametrize("family", ["stide", "t-stide", "markov"])
    def test_scores_bit_identical_to_refit_path(self, tmp_path, family):
        store = TenantStateStore(tmp_path / "fleet", models=_models(tmp_path))
        state, chunks = _drive(store, batches=4)
        store.detector_for(state, family, 5)  # fit early, then delta
        extra = np.random.default_rng(17).integers(0, 8, size=40)
        store.ingest(state, store.validate_events(extra.tolist(), 8))
        probe = np.random.default_rng(21).integers(0, 8, size=30)
        np.testing.assert_array_equal(
            store.detector_for(state, family, 5).score_stream(probe),
            _cold_fit(family, 5, [*chunks, extra]).score_stream(probe),
        )

    def test_ingest_leaves_a_tenant_sharing_the_id_prefix_alone(self, tmp_path):
        """Tenant ``a``'s batch must not reach the models of ``a|b``,
        whose hot-tier keys also start with ``a|``."""
        store = TenantStateStore(tmp_path / "state", models=_models(tmp_path))
        neighbour, chunks = _drive(store, tenant_id="a|b", batches=2)
        tenant, _ = _drive(store, tenant_id="a", batches=2, seed=5)
        store.detector_for(neighbour, "stide", 4)
        store.detector_for(tenant, "stide", 4)
        batch = np.random.default_rng(6).integers(0, 8, size=200)
        store.ingest(tenant, store.validate_events(batch.tolist(), 8))
        probe = np.random.default_rng(7).integers(0, 8, size=200)
        np.testing.assert_array_equal(
            store.detector_for(neighbour, "stide", 4).score_stream(probe),
            _cold_fit("stide", 4, chunks).score_stream(probe),
        )

    def test_verify_hook_runs_and_never_diverges(self, tmp_path):
        collector = Telemetry()
        store = TenantStateStore(
            tmp_path / "state",
            models=_models(tmp_path),
            delta_verify_every=1,
        )
        state, _ = _drive(store, batches=1)
        with activated(collector):
            store.detector_for(state, "markov", 4)
            for i in range(4):
                batch = np.random.default_rng(i).integers(0, 8, size=12)
                store.ingest(state, store.validate_events(batch.tolist(), 8))
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("serve.delta.verify", 0) == 4
        assert counters.get("serve.delta.diverged", 0) == 0

    def test_non_delta_family_is_invalidated_and_refit(self, tmp_path):
        collector = Telemetry()
        store = TenantStateStore(
            tmp_path / "state", models=_models(tmp_path)
        )
        state, _ = _drive(store, batches=2)
        with activated(collector):
            store.detector_for(state, "lane-brodley", 4)
            batch = np.random.default_rng(2).integers(0, 8, size=12)
            store.ingest(state, store.validate_events(batch.tolist(), 8))
            store.detector_for(state, "lane-brodley", 4)
        assert collector.metrics.snapshot()["counters"].get("serve.fit", 0) == 2

    def test_family_without_fit_state_stays_cached_hot(self, tmp_path):
        collector = Telemetry()
        store = TenantStateStore(tmp_path / "state", models=_models(tmp_path))
        state, _ = _drive(store, batches=2)
        with activated(collector):
            first = store.detector_for(state, "histogram", 4)
            assert store.detector_for(state, "histogram", 4) is first
        assert first.export_fit_state() is None
        assert collector.metrics.snapshot()["counters"].get("serve.fit", 0) == 1


class TestTenantDirectories:
    @pytest.mark.parametrize("tenant_id", ["", ".", "..", "a/b", "a\\b", "a\0b"])
    def test_path_like_ids_are_refused(self, tmp_path, tenant_id):
        store = TenantStateStore(tmp_path / "state", models=_models(tmp_path))
        with pytest.raises(ScoreRefusal) as refused:
            store.open(tenant_id)
        assert refused.value.status == 422
        assert list((tmp_path / "state").rglob("manifest.json")) == []
        assert list((tmp_path / "state").rglob("wal*.jsonl")) == []

    def test_recovered_journal_keeps_the_segment_size(self, tmp_path):
        store = TenantStateStore(
            tmp_path / "state", models=_models(tmp_path), wal_segment_bytes=256
        )
        _drive(store, batches=1)
        reborn = TenantStateStore(
            tmp_path / "state", models=_models(tmp_path), wal_segment_bytes=256
        )
        reborn.recover_all()
        state = reborn.get("acme")
        before = len(state.journal.segment_paths())
        rng = np.random.default_rng(8)
        for _ in range(4):
            batch = rng.integers(0, 8, size=24).tolist()
            reborn.ingest(state, reborn.validate_events(batch, 8))
        # 4 appends of ~100 bytes each rotate a 256-byte log at least once.
        assert len(state.journal.segment_paths()) > before


class TestWarmRevival:
    def test_restart_replays_deltas_not_refits(self, tmp_path):
        models = _models(tmp_path)
        store = TenantStateStore(
            tmp_path / "state", models=models, snapshot_every=2
        )
        state, _ = _drive(store, batches=5)
        origin = store.detector_for(state, "stide", 6)
        extra = np.random.default_rng(31).integers(0, 8, size=20)
        store.ingest(store.get("acme"), store.validate_events(extra.tolist(), 8))
        models.compact_all()

        # A fresh process: new hot tier, same shard files + WAL.
        collector = Telemetry()
        reborn_models = ShardedStore(
            tmp_path / "models",
            shards=4,
            cold=ArtifactStore(tmp_path / "cold"),
        )
        reborn = TenantStateStore(
            tmp_path / "state", models=reborn_models, snapshot_every=2
        )
        reborn.recover_all()
        recovered = reborn.get("acme")
        assert recovered.digest() == store.get("acme").digest()
        with activated(collector):
            revived = reborn.detector_for(recovered, "stide", 6)
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("serve.fit", 0) == 0  # no cold refit
        probe = np.random.default_rng(5).integers(0, 8, size=40)
        np.testing.assert_array_equal(
            revived.score_stream(probe), origin.score_stream(probe)
        )

    def test_hot_eviction_falls_back_to_warm_with_replay(self, tmp_path):
        collector = Telemetry()
        models = _models(tmp_path, hot_cap_bytes=1)  # evict instantly
        store = TenantStateStore(tmp_path / "state", models=models)
        state, chunks = _drive(store, batches=3)
        with activated(collector):
            first = store.detector_for(state, "stide", 5)
            # The 1-byte cap holds one entry: this put evicts `first`.
            store.detector_for(state, "t-stide", 5)
            batch = np.random.default_rng(7).integers(0, 8, size=16)
            store.ingest(state, store.validate_events(batch.tolist(), 8))
            again = store.detector_for(state, "stide", 5)
        assert again is not first  # revived, not cached
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("serve.fit", 0) == 2  # the two initial fits
        assert counters.get("serve.delta.replay", 0) >= 1
        probe = np.random.default_rng(8).integers(0, 8, size=25)
        np.testing.assert_array_equal(
            again.score_stream(probe),
            _cold_fit("stide", 5, [*chunks, batch]).score_stream(probe),
        )

    def test_foreign_model_arrays_are_invalidated(self, tmp_path):
        """A recreated tenant must not adopt a previous life's models."""
        models = _models(tmp_path)
        store = TenantStateStore(tmp_path / "state", models=models)
        state, _ = _drive(store, batches=3, seed=1)
        store.detector_for(state, "stide", 5)
        key = store.model_key("acme", "stide", 5)
        assert models.get(key) is not None
        models.hot.remove(key)  # simulate a restart's cold hot tier

        # Same id, same event count and seq, different content.
        imposter = TenantStateStore(tmp_path / "state2", models=models)
        imposter_state, _ = _drive(imposter, batches=3, seed=2)
        collector = Telemetry()
        with activated(collector):
            imposter.detector_for(imposter_state, "stide", 5)
        assert collector.metrics.snapshot()["counters"].get("serve.fit", 0) == 1


class TestMemoryAccounting:
    def test_memory_stats_counter_matches_ground_truth(self, tmp_path):
        store = TenantStateStore(
            tmp_path / "state", models=_models(tmp_path)
        )
        _drive(store, tenant_id="a", batches=3)
        _drive(store, tenant_id="b", batches=2)
        store.detector_for(store.get("a"), "stide", 5)
        stats = store.memory_stats()
        assert stats["tenants"] == 2
        assert (
            stats["tenants_resident_bytes"]
            == stats["tenants_resident_bytes_counter"]
        )
        assert stats["hot_tier"]["resident_entries"] == 1
        assert stats["hot_tier"]["resident_bytes"] > 0

    def test_trace_counters_validate_clean(self, tmp_path):
        collector = Telemetry()
        with activated(collector):
            store = TenantStateStore(
                tmp_path / "state",
                models=_models(tmp_path, hot_cap_bytes=4096),
                delta_verify_every=2,
            )
            for tenant in ("a", "b", "c"):
                state, _ = _drive(store, tenant_id=tenant, batches=2)
                store.detector_for(state, "stide", 5)
                batch = np.random.default_rng(4).integers(0, 8, size=16)
                store.ingest(state, store.validate_events(batch.tolist(), 8))
        problems = check_trace_counters(collector.metrics.snapshot()["counters"])
        assert problems == []

    def test_trace_counters_flag_divergence_and_imbalance(self):
        assert any(
            "diverged" in problem
            for problem in check_trace_counters({"serve.delta.diverged": 1})
        )
        assert any(
            "hot-tier flow" in problem
            for problem in check_trace_counters(
                {"serve.hot.insert": 3, "serve.hot.resident_entries": 2}
            )
        )
        assert any(
            "negative" in problem
            for problem in check_trace_counters(
                {"serve.tenants.resident_bytes": -8}
            )
        )
