"""Tests for repro.runtime.store — the persistent artifact store.

Covers the stream digest (stable across processes and hash seeds:
serve train acks and ``repro loadgen`` compare it across processes,
and WAL snapshot keys are built from it), round trips, corruption tolerance (a damaged entry
is a miss, never an error) with per-kind lookup counters, and the
neural network's family fingerprint that plan stage keys fold in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.detectors.neural import NeuralDetector
from repro.runtime import ArtifactStore, stream_digest
from repro.runtime.telemetry import Telemetry, activated

STREAM = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0, 2] * 8, dtype=np.int64)

#: ``stream_digest(STREAM)``, pinned so a change to the digest shows
#: here rather than as a serve-ack mismatch in ``repro loadgen``.
STREAM_DIGEST = "bc688470135aa31e6e10e919f0fa0c0ff89b36ba3450c89d3d07925817eeac82"


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


def _entry(tmp_path, key: str) -> Path:
    return tmp_path / "store" / key[:2] / f"{key}.npz"


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

    def test_key_stable_across_processes(self):
        """Another interpreter, under another hash seed, must derive the
        same digest (no id(), hash randomization, or dict order may
        leak in)."""
        assert stream_digest(STREAM) == STREAM_DIGEST
        script = (
            "import numpy as np\n"
            "from repro.runtime.store import stream_digest\n"
            "stream = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0, 2] * 8, "
            "dtype=np.int64)\n"
            "print(hash('seed'), stream_digest(stream))\n"
        )
        seen = []
        for seed in ("1", "2"):
            # No bytecode caches land in src/.
            env = dict(
                os.environ,
                PYTHONPATH="src",
                PYTHONDONTWRITEBYTECODE="1",
                PYTHONHASHSEED=seed,
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                cwd=Path(__file__).resolve().parents[2],
                env=env,
            )
            seen.append(result.stdout.split())
        (hash_a, digest_a), (hash_b, digest_b) = seen
        assert hash_a != hash_b, "the children must run under different seeds"
        assert digest_a == digest_b == STREAM_DIGEST


class TestRoundTrip:
    def test_put_get(self, store):
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.array(1.5)}
        store.put("ab" + "0" * 62, arrays)
        held = store.get("ab" + "0" * 62, kind="plan")
        assert held is not None
        np.testing.assert_array_equal(held["a"], arrays["a"])
        np.testing.assert_array_equal(held["b"], arrays["b"])

    def test_missing_key_is_miss(self, store):
        collector = Telemetry()
        with activated(collector):
            assert store.get("cd" + "1" * 62, kind="plan") is None
            store.put("cd" + "1" * 62, {"a": np.arange(2)})
            assert store.get("cd" + "1" * 62, kind="snapshot") is not None
        counters = collector.snapshot()["metrics"]["counters"]
        assert counters == {
            "store.plan.miss": 1,
            "store.put": 1,
            "store.snapshot.hit": 1,
        }

    def test_corrupted_entry_is_a_miss_and_is_purged(self, store, tmp_path):
        key = "ef" + "2" * 62
        store.put(key, {"a": np.arange(4)})
        path = _entry(tmp_path, key)
        path.write_bytes(b"this is not a zip archive")
        collector = Telemetry()
        with activated(collector):
            assert store.get(key, kind="shard") is None
        assert not path.exists(), "corrupt entries must be unlinked"
        counters = collector.snapshot()["metrics"]["counters"]
        assert counters == {"store.shard.corrupt": 1, "store.shard.miss": 1}
        # The slot works again after the purge.
        store.put(key, {"a": np.arange(4)})
        assert store.get(key, kind="shard") is not None

    def test_truncated_entry_is_a_miss(self, store, tmp_path):
        key = "0a" + "3" * 62
        store.put(key, {"a": np.arange(1000)})
        path = _entry(tmp_path, key)
        path.write_bytes(path.read_bytes()[:100])
        assert store.get(key, kind="plan") is None


class TestNeuralFitKeys:
    """The neural network's family fingerprint, which every plan stage
    sweeping it folds into its store key."""

    #: The family fingerprint of ``NeuralDetector(3, 8)`` with the
    #: default configuration.  Cached plan stages are keyed through
    #: this string; changing it invalidates every one of them.
    DEFAULT = (
        "family=neural-network;as=8;tol=0.1;hidden=32;lr=0.5;"
        "mom=0.9;epochs=400;seed=7;init=0.5;kernel=2"
    )

    def test_default_fingerprint_is_pinned(self):
        assert NeuralDetector(3, 8).family_fingerprint() == self.DEFAULT
