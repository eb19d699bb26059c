"""Tests for repro.runtime.store — the persistent fit-artifact store.

Covers the content-addressed key schema (stability across processes),
corruption tolerance (a damaged entry is a miss, never an error), the
LRU byte cap, and the end-to-end sweep integration: a store changes no
bit of any map — cold store-backed sweeps, store-warm re-runs (zero
fits) and process-pool sweeps all equal a plain no-store sweep in every
cell field — and no key outside the cold fit address space is ever
read.
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
from repro.detectors.neural import NeuralDetector
from repro.detectors.registry import create_detector
from repro.params import scaled_params
from repro.runtime import (
    ArtifactStore,
    SweepEngine,
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


def _cells(maps):
    """Every cell of every map, keyed ``(family, AS, DW)``."""
    return {
        (name, anomaly_size, window_length): performance_map.cell(
            anomaly_size, window_length
        )
        for name, performance_map in maps.items()
        for anomaly_size in performance_map.anomaly_sizes
        for window_length in performance_map.window_lengths
    }


class TestSweepIntegration:
    FAMILIES = ("stide", "markov", "lane-brodley", "neural-network")

    @pytest.fixture(scope="class")
    def plain_cells(self, suite):
        """The no-store reference every store-backed sweep must equal."""
        return _cells(SweepEngine(executor="serial").sweep(self.FAMILIES, suite))

    def test_store_warm_rerun_is_zero_fit_and_bit_identical(
        self, suite, plain_cells, tmp_path
    ):
        fits = len(self.FAMILIES) * len(suite.window_lengths)
        for max_workers in (1, 2):
            path = tmp_path / f"jobs{max_workers}"
            cold_engine = SweepEngine(max_workers=max_workers, store=path)
            cold_maps = cold_engine.sweep(self.FAMILIES, suite)
            assert cold_engine.last_fit_stats.computed == fits
            assert cold_engine.last_fit_stats.from_store == 0
            assert _cells(cold_maps) == plain_cells, (
                f"a store-backed cold sweep at max_workers={max_workers} "
                "must equal the plain sweep"
            )

            warm_engine = SweepEngine(max_workers=max_workers, store=path)
            warm_maps = warm_engine.sweep(self.FAMILIES, suite)
            stats = warm_engine.last_fit_stats
            assert stats.computed == 0, "a warm re-run must perform zero fits"
            assert stats.from_store == fits
            assert _cells(warm_maps) == plain_cells

    def test_fresh_store_pool_sweeps_agree(self, suite, tmp_path):
        """Which worker fits which block cannot change a store-backed map."""
        first, second = (
            _cells(
                SweepEngine(max_workers=2, store=tmp_path / name).sweep(
                    self.FAMILIES, suite
                )
            )
            for name in ("a", "b")
        )
        assert first == second

    def test_report_surfaces_store_traffic(self, suite, tmp_path):
        engine = SweepEngine(executor="serial", store=tmp_path / "s")
        engine.sweep(("stide",), suite)
        _maps, report = SweepEngine(
            executor="serial", store=tmp_path / "s"
        ).sweep_with_report(("stide",), suite)
        assert report.fits_from_store == len(suite.window_lengths)
        assert report.fits_computed == 0
        assert "from store" in report.summary()


class TestWarmStartClassification:
    """A store-warm neural map on a Figure-6-style grid."""

    def test_warm_map_keeps_or_reports_classification(self, suite, tmp_path):
        """Loading every neural fit from the store must reproduce the
        blind/weak/capable classification of a plain sweep, cell for
        cell, with zero fits performed."""
        plain_map = SweepEngine(executor="serial").sweep(
            ["neural-network"], suite
        )["neural-network"]
        path = tmp_path / "s"
        SweepEngine(executor="serial", store=path).sweep(["neural-network"], suite)
        warm_engine = SweepEngine(executor="serial", store=path)
        warm_map = warm_engine.sweep(["neural-network"], suite)["neural-network"]
        stats = warm_engine.last_fit_stats
        assert stats.computed == 0
        assert stats.from_store == len(suite.window_lengths)
        differing = [
            (anomaly_size, window_length)
            for anomaly_size in suite.anomaly_sizes
            for window_length in suite.window_lengths
            if plain_map.response_class(anomaly_size, window_length)
            is not warm_map.response_class(anomaly_size, window_length)
        ]
        assert not differing, (
            f"store-warm map changed classification at {differing}"
        )


class TestNeuralFitKeys:
    """The neural network's store address space holds cold fits only."""

    #: The fingerprint of ``NeuralDetector(3, 8)`` with the default
    #: configuration.  Stores written by earlier checkouts hold their
    #: cold fits under this string; changing it orphans them.
    DEFAULT = (
        "family=neural-network;dw=3;as=8;tol=0.1;hidden=32;lr=0.5;"
        "mom=0.9;epochs=400;seed=7;init=0.5;kernel=2"
    )

    STREAM = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0, 2, 4, 6] * 8, dtype=np.int64)

    def test_default_fingerprint_is_pinned(self):
        assert NeuralDetector(3, 8).config_fingerprint() == self.DEFAULT

    def test_warm_trained_entry_is_never_loaded(self, tmp_path):
        """Entries keyed ``;warm=1`` were trained from another DW's
        weights; no fit may read them."""
        store = ArtifactStore(tmp_path)
        digest = streams_digest([self.STREAM])
        stale = NeuralDetector(3, 8).fit(self.STREAM)._fit_state()
        stale_key = fit_key(digest, self.DEFAULT + ";warm=1")
        store.put(stale_key, stale)
        detector = NeuralDetector(3, 8).attach_store(store)
        detector.fit(self.STREAM)
        assert detector.last_fit_report.origin == "computed"
        assert detector.last_fit_report.store_key == fit_key(digest, self.DEFAULT)
