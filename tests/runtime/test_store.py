"""Tests for repro.runtime.store — the persistent fit-artifact store.

Covers the content-addressed key schema (stability across processes),
corruption tolerance (a damaged entry is a miss, never an error), the
LRU byte cap, and the end-to-end sweep integration: store-warm re-runs
perform zero fits and reproduce every map cell, and warm-started
neural fits keep (or visibly surrender) the Figure-6 classification.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datagen.suite import build_suite
from repro.datagen.training import generate_training_data
from repro.detectors.mlp import MlpConfig
from repro.detectors.neural import NeuralDetector
from repro.detectors.registry import create_detector
from repro.params import scaled_params
from repro.runtime import (
    ArtifactStore,
    SweepEngine,
    WarmStartPolicy,
    fit_key,
    stream_digest,
    streams_digest,
)

STREAM = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0, 2] * 8, dtype=np.int64)


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def suite():
    params = scaled_params(12_000, seed=7)
    return build_suite(training=generate_training_data(params))


class TestKeySchema:
    def test_digest_ignores_input_dtype_and_layout(self):
        base = stream_digest(STREAM)
        assert stream_digest(STREAM.astype(np.int32)) == base
        assert stream_digest(np.asfortranarray(STREAM)) == base
        assert stream_digest(STREAM[::-1][::-1]) == base

    def test_digest_sees_content(self):
        changed = STREAM.copy()
        changed[0] += 1
        assert stream_digest(changed) != stream_digest(STREAM)

    def test_streams_digest_is_order_sensitive(self):
        a, b = STREAM[:20], STREAM[20:50]
        assert streams_digest([a, b]) != streams_digest([b, a])

    def test_fit_key_separates_configs(self):
        digest = stream_digest(STREAM)
        assert fit_key(digest, "stide;dw=4") != fit_key(digest, "stide;dw=5")

    def test_key_stable_across_processes(self, tmp_path):
        """The whole point of content addressing: another interpreter,
        same stream and config, must derive the same key (no id(),
        hash randomization, or dict order may leak in)."""
        detector = create_detector("stide", 4, 4)
        detector.attach_store(ArtifactStore(tmp_path))
        detector.fit(STREAM)
        here = detector.last_fit_report.store_key
        script = (
            "import numpy as np\n"
            "from repro.detectors.registry import create_detector\n"
            "from repro.runtime import ArtifactStore\n"
            "stream = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0, 2] * 8, "
            "dtype=np.int64)\n"
            "detector = create_detector('stide', 4, 4)\n"
            f"detector.attach_store(ArtifactStore({os.fspath(tmp_path)!r}))\n"
            "detector.fit(stream)\n"
            "print(detector.last_fit_report.store_key)\n"
            "print(detector.last_fit_report.origin)\n"
        )
        # The caller's environment minus any pinned hash seed, so the
        # child really runs under a different one; no bytecode caches
        # land in src/.
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONHASHSEED", None)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parents[2],
            env=env,
        )
        there, origin = result.stdout.split()
        assert there == here
        assert origin == "store"  # the other process actually loaded it


class TestRoundTrip:
    def test_put_get(self, store):
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.array(1.5)}
        store.put("ab" + "0" * 62, arrays)
        held = store.get("ab" + "0" * 62)
        assert held is not None
        np.testing.assert_array_equal(held["a"], arrays["a"])
        np.testing.assert_array_equal(held["b"], arrays["b"])

    def test_missing_key_is_miss(self, store):
        assert store.get("cd" + "1" * 62) is None
        assert store.stats.misses == 1

    def test_corrupted_entry_is_a_miss_and_is_purged(self, store):
        key = "ef" + "2" * 62
        store.put(key, {"a": np.arange(4)})
        path = store.root / key[:2] / f"{key}.npz"
        path.write_bytes(b"this is not a zip archive")
        assert store.get(key) is None
        assert not path.exists(), "corrupt entries must be unlinked"
        # The slot works again after the purge.
        store.put(key, {"a": np.arange(4)})
        assert store.get(key) is not None

    def test_truncated_entry_is_a_miss(self, store):
        key = "0a" + "3" * 62
        store.put(key, {"a": np.arange(1000)})
        path = store.root / key[:2] / f"{key}.npz"
        path.write_bytes(path.read_bytes()[:100])
        assert store.get(key) is None

    def test_verify_purges_only_corrupt_entries(self, store):
        store.put("11" + "0" * 62, {"a": np.arange(3)})
        store.put("22" + "0" * 62, {"a": np.arange(3)})
        bad = store.root / "22" / ("22" + "0" * 62 + ".npz")
        bad.write_bytes(b"garbage")
        good, purged = store.verify()
        assert (good, purged) == (1, 1)
        assert store.get("11" + "0" * 62) is not None

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, cap_bytes=0)


class TestLruEviction:
    def _fill(self, store, keys, size=1000):
        import time

        for offset, key in enumerate(keys):
            store.put(key, {"a": np.arange(size)})
            # Distinct mtimes make LRU order deterministic on coarse
            # filesystem timestamps.
            path = store.root / key[:2] / f"{key}.npz"
            stamp = time.time() - 100 + offset
            os.utime(path, times=(stamp, stamp))

    def test_oldest_entries_evicted_over_cap(self, tmp_path):
        keys = [f"{i:02d}" + "a" * 62 for i in range(4)]
        probe = ArtifactStore(tmp_path)
        probe.put(keys[0], {"a": np.arange(1000)})
        entry_bytes = probe.size_bytes()
        store = ArtifactStore(tmp_path, cap_bytes=int(entry_bytes * 2.5))
        self._fill(store, keys)
        survivors = {path.stem for path in store.entries()}
        assert keys[3] in survivors, "the newest entry must survive"
        assert keys[0] not in survivors, "the oldest entry must be evicted"
        assert store.size_bytes() <= store.cap_bytes
        assert store.stats.evictions >= 1

    def test_hit_refreshes_recency(self, tmp_path):
        keys = [f"{i:02d}" + "b" * 62 for i in range(3)]
        probe = ArtifactStore(tmp_path)
        probe.put(keys[0], {"a": np.arange(1000)})
        entry_bytes = probe.size_bytes()
        store = ArtifactStore(tmp_path, cap_bytes=int(entry_bytes * 2.5))
        self._fill(store, keys[:2])
        assert store.get(keys[0]) is not None  # refresh: now newest
        store.put(keys[2], {"a": np.arange(1000)})
        survivors = {path.stem for path in store.entries()}
        assert keys[0] in survivors, "a hit must protect against eviction"
        assert keys[1] not in survivors

    def test_put_never_evicts_itself(self, tmp_path):
        store = ArtifactStore(tmp_path, cap_bytes=1)  # tiny cap
        key = "33" + "c" * 62
        store.put(key, {"a": np.arange(1000)})
        assert store.get(key) is not None, "the just-written entry survives"


class TestSweepIntegration:
    FAMILIES = ("stide", "markov", "lane-brodley")

    def test_store_warm_rerun_is_zero_fit_and_bit_identical(
        self, suite, tmp_path
    ):
        cold_engine = SweepEngine(executor="serial", store=tmp_path / "s")
        cold_maps = cold_engine.sweep(self.FAMILIES, suite)
        assert cold_engine.last_fit_stats.from_store == 0

        warm_engine = SweepEngine(executor="serial", store=tmp_path / "s")
        warm_maps = warm_engine.sweep(self.FAMILIES, suite)
        stats = warm_engine.last_fit_stats
        assert stats.computed == 0, "a warm re-run must perform zero fits"
        assert stats.from_store == len(self.FAMILIES) * len(
            suite.window_lengths
        )
        mismatched = sum(
            cold_maps[name].cell(anomaly_size, window_length)
            != warm_maps[name].cell(anomaly_size, window_length)
            for name in self.FAMILIES
            for anomaly_size in suite.anomaly_sizes
            for window_length in suite.window_lengths
        )
        assert mismatched == 0

    def test_report_surfaces_store_traffic(self, suite, tmp_path):
        engine = SweepEngine(executor="serial", store=tmp_path / "s")
        engine.sweep(("stide",), suite)
        _maps, report = SweepEngine(
            executor="serial", store=tmp_path / "s"
        ).sweep_with_report(("stide",), suite)
        assert report.fits_from_store == len(suite.window_lengths)
        assert report.fits_computed == 0
        assert "from store" in report.summary()

    def test_no_warm_start_isolated_from_warm_entries(self, suite, tmp_path):
        """--no-warm-start must never load warm-trained neural weights:
        the two modes fork the content address."""
        warm = SweepEngine(
            executor="serial", store=tmp_path / "s", warm_start=True
        )
        warm.sweep(("neural-network",), suite)
        cold = SweepEngine(
            executor="serial", store=tmp_path / "s", warm_start=False
        )
        cold.sweep(("neural-network",), suite)
        stats = cold.last_fit_stats
        assert stats.from_store == 0, "cold run must miss warm-mode entries"
        assert stats.warm_started == 0
        assert stats.computed == len(suite.window_lengths)


class TestWarmStartClassification:
    """Warm-started neural fits on a Figure-6-style map."""

    def test_warm_map_keeps_or_reports_classification(self, suite, tmp_path):
        cold_engine = SweepEngine(executor="serial", warm_start=False)
        cold_map = cold_engine.sweep(["neural-network"], suite)["neural-network"]
        warm_engine = SweepEngine(
            executor="serial", store=tmp_path / "s", warm_start=True
        )
        warm_map = warm_engine.sweep(["neural-network"], suite)["neural-network"]
        stats = warm_engine.last_fit_stats
        assert stats.warm_started + stats.computed == len(
            suite.window_lengths
        )
        differing = [
            (anomaly_size, window_length)
            for anomaly_size in suite.anomaly_sizes
            for window_length in suite.window_lengths
            if cold_map.response_class(anomaly_size, window_length)
            is not warm_map.response_class(anomaly_size, window_length)
        ]
        # The acceptance contract: warm starting must reproduce the
        # blind/weak/capable classification, or the gate must have
        # auto-disabled (reported via the fit stats) wherever it risked
        # changing it.
        assert not differing or stats.warm_disabled, (
            f"classification changed at {differing} without any "
            "reported warm-start disable"
        )
        assert not differing, (
            f"warm-started map changed classification at {differing}"
        )

    def test_gate_rejection_reports_and_falls_back_cold(self):
        """An impossible tolerance forces the gate to reject: the fit
        must fall back to a cold fit and record the reason."""
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 4, size=400).astype(np.int64)
        config = MlpConfig(epochs=30)
        policy = WarmStartPolicy(epochs_fraction=0.1, loss_tolerance=0.0)
        from repro.runtime import WarmStartRegistry

        registry = WarmStartRegistry()
        donor = NeuralDetector(3, 4, config=config)
        donor.attach_warm_start(policy, registry)
        donor.fit(stream)
        assert donor.last_fit_report.origin == "computed"

        # Publish an unreachable donor loss so the gate must reject.
        registry.clear()
        registry.publish(
            donor._training_digest,
            donor.family_fingerprint(),
            3,
            donor._network.export_weights(),
            -1.0,
        )
        warm = NeuralDetector(4, 4, config=config)
        warm.attach_warm_start(policy, registry)
        warm.fit(stream)
        report = warm.last_fit_report
        assert report.origin == "computed"
        assert report.warm_disabled is not None
        assert "exceeded donor" in report.warm_disabled

    def test_warm_start_accepts_adjacent_donor(self):
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 4, size=400).astype(np.int64)
        config = MlpConfig(epochs=30)
        policy = WarmStartPolicy(epochs_fraction=0.5, loss_tolerance=10.0)
        from repro.runtime import WarmStartRegistry

        registry = WarmStartRegistry()
        donor = NeuralDetector(3, 4, config=config)
        donor.attach_warm_start(policy, registry)
        donor.fit(stream)
        warm = NeuralDetector(4, 4, config=config)
        warm.attach_warm_start(policy, registry)
        warm.fit(stream)
        report = warm.last_fit_report
        assert report.origin == "warm"
        assert report.warm_donor_window == 3
