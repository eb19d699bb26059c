"""Tests for repro.runtime.arena — the zero-copy suite transport.

Covers the publish/attach round trip, refcounted release, the
``SharedSuite`` wire format and its per-process restore memo, the
cache/arena eviction coupling, and — most importantly — that no
``/dev/shm`` segment survives a sweep, normal or crashed.
"""

from __future__ import annotations

import glob
import pickle

import numpy as np
import pytest

from repro.exceptions import EvaluationError
from repro.runtime import SweepEngine, WindowArena, share_suite
from repro.runtime.arena import (
    SEGMENT_PREFIX,
    ArrayDescriptor,
    attach_array,
    detach_all,
)
from repro.runtime.cache import WindowCache

pytestmark = pytest.mark.skipif(
    not WindowArena.available(), reason="shared memory unavailable"
)


def _segment_paths() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-*")


@pytest.fixture()
def arena():
    arena = WindowArena()
    yield arena
    detach_all()
    arena.close()


class TestPublishAttach:
    def test_round_trip_preserves_values(self, arena):
        array = np.arange(240, dtype=np.int64).reshape(40, 6)
        descriptor = arena.publish(array)
        # The descriptor alone crosses the process boundary.
        descriptor = pickle.loads(pickle.dumps(descriptor))
        view = attach_array(descriptor)
        np.testing.assert_array_equal(view, array)
        assert not view.flags.writeable

    def test_descriptor_is_tiny(self, arena):
        array = np.zeros(100_000, dtype=np.int64)
        descriptor = arena.publish(array)
        assert len(pickle.dumps(descriptor)) < 200
        assert descriptor.nbytes == array.nbytes

    def test_attach_is_memoized_per_name(self, arena):
        array = np.arange(12, dtype=np.int64)
        descriptor = arena.publish(array)
        assert attach_array(descriptor) is attach_array(descriptor)

    def test_publish_after_close_raises(self, arena):
        arena.close()
        with pytest.raises(EvaluationError):
            arena.publish(np.zeros(3, dtype=np.int64))

    def test_descriptor_nbytes_matches_dtype(self):
        descriptor = ArrayDescriptor(name="x", shape=(3, 5), dtype="int64")
        assert descriptor.nbytes == 3 * 5 * 8


class TestRefcounting:
    def test_republish_returns_same_descriptor(self, arena):
        array = np.arange(8, dtype=np.int64)
        first = arena.publish(array)
        assert arena.publish(array) is first
        assert len(arena) == 1

    def test_release_unlinks_at_zero(self, arena):
        array = np.arange(8, dtype=np.int64)
        descriptor = arena.publish(array)
        arena.publish(array)
        path = f"/dev/shm/{descriptor.name}"
        assert arena.release(array) is False  # one reference remains
        assert glob.glob(path)
        assert arena.release(array) is True
        assert not glob.glob(path)

    def test_release_of_unknown_array_is_noop(self, arena):
        assert arena.release(np.zeros(3, dtype=np.int64)) is False

    def test_close_unlinks_everything(self):
        arena = WindowArena()
        names = [
            arena.publish(np.full(16, i, dtype=np.int64)).name for i in range(3)
        ]
        arena.close()
        assert arena.closed
        for name in names:
            assert not glob.glob(f"/dev/shm/{name}")
        arena.close()  # idempotent


class TestSharedSuite:
    def test_restore_rebuilds_identical_suite(self, arena, suite):
        transport = pickle.loads(pickle.dumps(share_suite(arena, suite)))
        restored = transport.restore()
        np.testing.assert_array_equal(
            restored.training.stream, suite.training.stream
        )
        assert restored.anomaly_sizes == suite.anomaly_sizes
        for anomaly_size in suite.anomaly_sizes:
            original = suite.stream(anomaly_size)
            rebuilt = restored.stream(anomaly_size)
            np.testing.assert_array_equal(rebuilt.stream, original.stream)
            assert rebuilt.anomaly == original.anomaly
            assert rebuilt.position == original.position

    def test_restore_is_memoized_per_process(self, arena, suite):
        transport = share_suite(arena, suite)
        again = pickle.loads(pickle.dumps(transport))
        assert transport.restore() is again.restore()

    def test_restore_credits_attaches_as_hits(self, arena, suite):
        transport = share_suite(arena, suite)
        cache = WindowCache()
        transport.restore(cache=cache)
        stats = cache.stats
        assert stats.hits == len(transport.descriptors())
        assert stats.misses == 0

    def test_payload_is_an_order_of_magnitude_lighter(self, arena, suite):
        transport = share_suite(arena, suite)
        assert len(pickle.dumps(suite)) >= 10 * len(pickle.dumps(transport))


class TestSharedTables:
    """Derived training tables ride the arena and seed worker caches."""

    WINDOWS = (2, 5, 9)

    def test_tables_published_per_window_length(self, arena, suite):
        transport = share_suite(
            arena, suite, cache=WindowCache(), window_lengths=self.WINDOWS
        )
        assert tuple(t.window_length for t in transport.training_tables) == (
            tuple(sorted(self.WINDOWS))
        )

    def test_restore_seeds_bit_identical_decompositions(self, arena, suite):
        transport = pickle.loads(
            pickle.dumps(
                share_suite(
                    arena, suite, cache=WindowCache(), window_lengths=self.WINDOWS
                )
            )
        )
        worker_cache = WindowCache()
        restored = transport.restore(cache=worker_cache)
        stream = restored.training.stream
        for window_length in self.WINDOWS:
            view = np.lib.stride_tricks.sliding_window_view(
                stream, window_length
            )
            expected_rows, expected_inverse, expected_counts = np.unique(
                view, axis=0, return_inverse=True, return_counts=True
            )
            rows, inverse = worker_cache.unique(stream, window_length)
            _rows, counts = worker_cache.unique_counts(stream, window_length)
            np.testing.assert_array_equal(rows, expected_rows)
            np.testing.assert_array_equal(
                inverse, expected_inverse.reshape(-1)
            )
            np.testing.assert_array_equal(counts, expected_counts)
        # Every query above was served from the seeded tables — the
        # worker never rebuilt an index over the training stream.
        assert worker_cache.stats.misses == 0

    def test_share_without_cache_publishes_no_tables(self, arena, suite):
        transport = share_suite(arena, suite, window_lengths=self.WINDOWS)
        assert transport.training_tables == ()


class TestCacheEvictionCoupling:
    def test_evict_releases_bound_segment(self, arena):
        stream = np.arange(64, dtype=np.int64) % 4
        descriptor = arena.publish(stream)
        cache = WindowCache()
        cache.bind_arena(arena)
        cache.windows(stream, 3)
        path = f"/dev/shm/{descriptor.name}"
        assert glob.glob(path)
        assert cache.evict(stream) == 1
        assert not glob.glob(path)

    def test_evict_without_arena_is_unchanged(self):
        stream = np.arange(64, dtype=np.int64) % 4
        cache = WindowCache()
        cache.windows(stream, 3)
        assert cache.evict(stream) == 1

    def test_unbind_decouples(self, arena):
        stream = np.arange(64, dtype=np.int64) % 4
        descriptor = arena.publish(stream)
        cache = WindowCache()
        cache.bind_arena(arena)
        cache.unbind_arena(arena)
        cache.windows(stream, 3)
        cache.evict(stream)
        assert glob.glob(f"/dev/shm/{descriptor.name}")

    def test_partial_evict_keeps_segment(self, arena):
        stream = np.arange(64, dtype=np.int64) % 4
        descriptor = arena.publish(stream)
        cache = WindowCache()
        cache.bind_arena(arena)
        cache.windows(stream, 3)
        cache.windows(stream, 4)
        cache.evict(stream, window_length=3)
        # An artifact of the stream survives, so the segment must too.
        assert glob.glob(f"/dev/shm/{descriptor.name}")


class TestPickleFallback:
    """Process sweeps ship pickled suites when shared memory fails."""

    FAMILIES = ("stide", "markov")

    @pytest.fixture(scope="class")
    def shm_maps(self, suite):
        return SweepEngine(max_workers=2).sweep(self.FAMILIES, suite)

    def _assert_same(self, expected, actual, suite) -> None:
        for name in self.FAMILIES:
            for anomaly_size in suite.anomaly_sizes:
                for window_length in suite.window_lengths:
                    assert expected[name].cell(
                        anomaly_size, window_length
                    ) == actual[name].cell(anomaly_size, window_length)

    def test_unavailable_shm_sweeps_pickled_suites(
        self, suite, shm_maps, monkeypatch
    ):
        from repro.runtime import engine as engine_module

        published = []
        real_share = engine_module.share_suite

        def recording_share(*args, **kwargs):
            published.append(args)
            return real_share(*args, **kwargs)

        monkeypatch.setattr(WindowArena, "available", staticmethod(lambda: False))
        monkeypatch.setattr(engine_module, "share_suite", recording_share)
        engine = SweepEngine(max_workers=2)
        pickled = engine.sweep(self.FAMILIES, suite)
        assert engine.executor == "process"
        assert published == []  # nothing went through the arena
        self._assert_same(shm_maps, pickled, suite)

    def test_failed_publish_sweeps_pickled_suites(
        self, suite, shm_maps, monkeypatch
    ):
        from repro.runtime import engine as engine_module

        def broken_share(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(engine_module, "share_suite", broken_share)
        pickled = SweepEngine(max_workers=2).sweep(self.FAMILIES, suite)
        self._assert_same(shm_maps, pickled, suite)
        assert _segment_paths() == []


class TestNoLeaks:
    def test_process_sweep_leaves_no_segments(self, suite):
        engine = SweepEngine(max_workers=2, executor="process")
        engine.sweep(("stide",), suite)
        assert _segment_paths() == []

    def test_aborted_resilient_sweep_leaves_no_segments(self, suite):
        from repro.exceptions import SweepAbortedError
        from repro.runtime import FaultSchedule, ResiliencePolicy, RetryPolicy

        policy = ResiliencePolicy(
            retry=RetryPolicy(retries=0),
            fault_schedule=FaultSchedule(rate=1.0, kinds=("fatal",)),
        )
        engine = SweepEngine(
            max_workers=2, executor="process", resilience=policy
        )
        with pytest.raises(SweepAbortedError):
            engine.sweep_with_report(("stide",), suite)
        assert _segment_paths() == []


@pytest.mark.faults
class TestCrashCleanup:
    def test_crashed_workers_leave_no_segments(self, suite):
        """Workers hard-killed mid-task must not strand segments."""
        from repro.runtime import FaultSchedule, ResiliencePolicy, RetryPolicy

        policy = ResiliencePolicy(
            retry=RetryPolicy(retries=3, backoff=0.01, jitter=0.0),
            fault_schedule=FaultSchedule(rate=0.4, seed=11, kinds=("crash",)),
        )
        engine = SweepEngine(
            max_workers=2, executor="process", resilience=policy
        )
        engine.sweep_with_report(("stide",), suite)
        assert _segment_paths() == []

    def test_killed_sweep_process_leaves_no_workers_or_segments(self):
        """SIGKILL of the sweeping process must not strand its pool."""
        import os
        import subprocess
        import sys
        import textwrap
        import time
        from pathlib import Path

        script = textwrap.dedent(
            """
            from repro.datagen.suite import build_suite
            from repro.datagen.training import generate_training_data
            from repro.params import scaled_params
            from repro.runtime import FaultSchedule, ResiliencePolicy, SweepEngine

            suite = build_suite(
                training=generate_training_data(scaled_params(8_000, seed=11))
            )
            hang = FaultSchedule(rate=1.0, kinds=("hang",), hang_seconds=120.0)
            print("sweeping", flush=True)
            SweepEngine(
                max_workers=2, resilience=ResiliencePolicy(fault_schedule=hang)
            ).sweep(["stide"], suite)
            """
        )
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        victim = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=Path(__file__).resolve().parents[2],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        segments = f"/dev/shm/{SEGMENT_PREFIX}-{victim.pid}-*"
        children = Path(f"/proc/{victim.pid}/task/{victim.pid}/children")
        workers: list[int] = []
        try:
            assert victim.stdout.readline().strip() == "sweeping"
            deadline = time.monotonic() + 60
            # Wait for the arena and both (hanging) workers to exist.
            while not (glob.glob(segments) and len(workers) >= 2):
                assert victim.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
                workers = [int(pid) for pid in children.read_text().split()]
            victim.kill()
            victim.wait(timeout=10)
            deadline = time.monotonic() + 20
            while (
                glob.glob(segments) or any(_alive(pid) for pid in workers)
            ) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [pid for pid in workers if _alive(pid)] == []
            assert glob.glob(segments) == []
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=10)
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, 9)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie or a recycled pid counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split()[2] != "Z"
    except OSError:
        return False
