"""Micro-batch scheduler tests: bit-identity, isolation, loop thread.

The load-bearing assertion lives in the seeded fuzz tests: for every
detector family, at packable and unpackable cells, a batched score is
**bit-identical** to a plain ``create_detector(...).fit(...)
.score_stream(...)`` reference.  Everything else checks the
blast-radius properties — a quarantined, breaker-open or failing
member fails alone, tenant work never leaves the event-loop thread,
and the scheduler's counter ledger balances.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading

import numpy as np
import pytest

from repro.detectors.registry import create_detector
from repro.exceptions import ScoreRefusal
from repro.runtime.telemetry import (
    Telemetry,
    activated,
    check_trace_counters,
)
from repro.serve import (
    BatchPolicy,
    BatchScheduler,
    ChaosDirector,
    LoadPlan,
    ScoreJob,
    ScoringServer,
    run_load,
)
from repro.serve.admission import Deadline
from repro.serve.batching import FLUSH_REASONS
from repro.serve.pipeline import ScorePipeline
from repro.serve.tenants import TenantStateStore

ALPHABET = 8

#: Every registered family the serving API exposes.
FAMILIES = (
    "stide",
    "t-stide",
    "markov",
    "lane-brodley",
    "hamming",
    "neural-network",
)

#: DW=4 packs into one 63-bit key per window for AS=8; DW=24 exceeds
#: the packing budget, so the count families fall back to their tuple
#: tables.
WINDOWS = (4, 24)

#: AS=32 spends 5 bits per symbol, so DW=13 (65 bits) is the smallest
#: unpackable window of the paper's grid.
WIDE_ALPHABET, UNPACKABLE_WINDOW = 32, 13


def run(coro):
    return asyncio.run(coro)


def _train_stream(
    seed: int, length: int = 600, alphabet: int = ALPHABET
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, alphabet, size=length).astype(np.int64)


def _make_job(tenant_id, family, window, events, seq, alphabet=ALPHABET):
    loop = asyncio.get_running_loop()
    return ScoreJob(
        tenant_id=tenant_id,
        family=family,
        window=window,
        alphabet_size=alphabet,
        events=events,
        key=f"{tenant_id}|score|{seq}",
        attempt=1,
        deadline=Deadline.after(30.0),
        future=loop.create_future(),
        enqueued_at=loop.time(),
    )


async def _fitted_store(
    root: str, tenants: int = 3, alphabet: int = ALPHABET
) -> TenantStateStore:
    store = TenantStateStore(root)
    for index in range(tenants):
        state = store.open(f"t{index:02d}", alphabet)
        store.ingest(state, _train_stream(100 + index, alphabet=alphabet))
    return store


def _reference(store, job) -> tuple[float, ...]:
    """The plain fit-then-score answer for one job, no serving path."""
    state = store.get(job.tenant_id)
    detector = create_detector(job.family, job.window, state.alphabet_size)
    return tuple(
        detector.fit(state.events).score_stream(job.events).tolist()
    )


async def _fuzz_against_reference(
    families, windows, alphabet: int, seed: int
) -> None:
    """Batch five random jobs per cell; each must match the reference."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as root:
        store = await _fitted_store(root, tenants=3, alphabet=alphabet)
        scheduler = BatchScheduler(
            ScorePipeline(store),
            ChaosDirector(),
            policy=BatchPolicy(max_batch=16, max_wait_us=2000.0),
        )
        try:
            for family in families:
                for window in windows:
                    jobs = []
                    for k in range(5):
                        tenant = f"t{rng.integers(0, 3):02d}"
                        events = rng.integers(
                            0, alphabet,
                            size=int(rng.integers(window + 1, 90)),
                        ).astype(np.int64)
                        jobs.append(
                            _make_job(tenant, family, window, events, k,
                                      alphabet=alphabet)
                        )
                    outcomes = await asyncio.gather(
                        *(scheduler.submit(job) for job in jobs)
                    )
                    for job, outcome in zip(jobs, outcomes):
                        assert outcome.scores == _reference(store, job), (
                            family, window, job.tenant_id,
                        )
        finally:
            await scheduler.close()
        snap = scheduler.snapshot()
        assert snap["jobs_in"] == snap["jobs_out"]
        assert snap["refused"] == 0


class TestFuzzBitIdentity:
    def test_batched_equals_sequential_all_families(self):
        """Seeded fuzz: fused batch scores == plain reference, bitwise."""
        run(_fuzz_against_reference(FAMILIES, WINDOWS, ALPHABET, 2026))

    def test_unpackable_cell_matches_reference(self):
        """AS=32/DW=13 overflows the 63-bit key: tuple tables, same bits."""
        families = ("stide", "t-stide", "markov", "lane-brodley")
        run(
            _fuzz_against_reference(
                families, (UNPACKABLE_WINDOW,), WIDE_ALPHABET, 2027
            )
        )

    def test_grouped_jobs_score_bit_identically(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as root:
                store = await _fitted_store(root, tenants=2)
                scheduler = BatchScheduler(
                    ScorePipeline(store),
                    ChaosDirector(),
                    policy=BatchPolicy(max_batch=4, max_wait_us=50000.0),
                )
                try:
                    jobs = [
                        _make_job(f"t{i:02d}", "stide", 4,
                                  _train_stream(7 + i, 60), i)
                        for i in range(2)
                    ]
                    tasks = [
                        asyncio.ensure_future(scheduler.submit(j))
                        for j in jobs
                    ]
                    outcomes = await asyncio.gather(*tasks)
                    for i, outcome in enumerate(outcomes):
                        assert (outcome.family, outcome.window) == ("stide", 4)
                        reference = create_detector("stide", 4, ALPHABET)
                        reference.fit(_train_stream(100 + i))
                        np.testing.assert_array_equal(
                            outcome.scores,
                            reference.score_stream(_train_stream(7 + i, 60)),
                        )
                finally:
                    await scheduler.close()

        run(scenario())


class TestBlastRadius:
    def test_mid_batch_quarantine_fails_only_that_member(self):
        """A tenant quarantined between enqueue and flush refuses alone."""

        async def scenario():
            with tempfile.TemporaryDirectory() as root:
                store = await _fitted_store(root, tenants=3)
                scheduler = BatchScheduler(
                    ScorePipeline(store),
                    ChaosDirector(),
                    policy=BatchPolicy(max_batch=8, max_wait_us=20000.0),
                )
                try:
                    jobs = [
                        _make_job(f"t{i:02d}", "stide", 4,
                                  _train_stream(50 + i, 60), i)
                        for i in range(3)
                    ]
                    tasks = [
                        asyncio.ensure_future(scheduler.submit(j))
                        for j in jobs
                    ]
                    # The scheduler task has not run yet (no await since
                    # submission), so the jobs are still queued: this
                    # quarantine lands strictly after enqueue, strictly
                    # before the batch flushes.
                    store.tenants["t01"].quarantined = "poisoned WAL"
                    results = await asyncio.gather(
                        *tasks, return_exceptions=True
                    )
                finally:
                    await scheduler.close()
                assert isinstance(results[1], ScoreRefusal)
                assert results[1].reason == "quarantined"
                for healthy in (0, 2):
                    assert results[healthy].scores == _reference(
                        store, jobs[healthy]
                    )
                snap = scheduler.snapshot()
                assert snap["jobs_out"] == 2
                assert snap["refused"] == 1

        run(scenario())

    def test_failing_kernel_call_refuses_only_that_member(self):
        """A member whose score_windows raises gets 503 score-failed."""

        async def scenario():
            with tempfile.TemporaryDirectory() as root:
                store = await _fitted_store(root, tenants=3)
                broken = store.detector_for(store.get("t01"), "markov", 4)

                def explode(windows):
                    raise RuntimeError("kernel fault")

                broken.score_windows = explode
                scheduler = BatchScheduler(
                    ScorePipeline(store),
                    ChaosDirector(),
                    policy=BatchPolicy(max_batch=8, max_wait_us=20000.0),
                )
                try:
                    jobs = [
                        _make_job(f"t{i:02d}", "markov", 4,
                                  _train_stream(70 + i, 60), i)
                        for i in range(3)
                    ]
                    results = await asyncio.gather(
                        *(scheduler.submit(job) for job in jobs),
                        return_exceptions=True,
                    )
                finally:
                    await scheduler.close()
                refusal = results[1]
                assert isinstance(refusal, ScoreRefusal)
                assert (refusal.status, refusal.reason) == (503, "score-failed")
                assert refusal.retryable
                for healthy in (0, 2):
                    assert results[healthy].scores == _reference(
                        store, jobs[healthy]
                    )
                snap = scheduler.snapshot()
                assert snap["occupancy_max"] == 3  # one batch of three
                assert snap["jobs_in"] == snap["jobs_out"] + snap["refused"]
                assert snap["refused"] == 1

        run(scenario())

    def test_breaker_open_member_does_not_poison_the_batch(self):
        """An open breaker refuses its tenant pre-batch; peers score."""
        from repro.serve.loadgen import request

        async def scenario(server):
            host, port = "127.0.0.1", server.port
            training = _train_stream(1).tolist()
            for tenant in ("blocked", "healthy"):
                status, _ = await request(
                    host, port, "POST", f"/v1/tenants/{tenant}/train",
                    {"events": training, "alphabet_size": ALPHABET},
                )
                assert status == 200
            breaker = server._breaker("blocked")
            for _ in range(server.policy.breaker_failures):
                breaker.record_failure()
            test = _train_stream(2, 80).tolist()
            results = await asyncio.gather(
                *(
                    request(
                        host, port, "POST",
                        f"/v1/tenants/{tenant}/score",
                        {"family": "stide", "window": 4, "events": test},
                    )
                    for tenant in ("blocked", "healthy", "healthy")
                )
            )
            assert results[0][0] == 503
            assert results[0][1]["reason"] == "breaker-open"
            from repro.detectors.registry import create_detector

            detector = create_detector("stide", 4, ALPHABET)
            detector.fit(np.asarray(training, dtype=np.int64))
            expected = detector.score_stream(
                np.asarray(test, dtype=np.int64)
            )
            for status, body in results[1:]:
                assert status == 200
                assert np.array_equal(np.asarray(body["scores"]), expected)

        async def with_server():
            with tempfile.TemporaryDirectory() as root:
                server = ScoringServer(root)
                await server.start()
                try:
                    await scenario(server)
                finally:
                    await server.stop()

        run(with_server())


class TestLoopThread:
    def test_train_and_score_run_on_the_loop_thread(self, monkeypatch):
        """Ingest and group scoring never leave the event-loop thread."""
        from repro.serve.loadgen import request

        seen: list[tuple[str, int]] = []
        ingest = TenantStateStore.ingest
        score_group = ScorePipeline.score_group

        def recording_ingest(self, *args, **kwargs):
            seen.append(("ingest", threading.get_ident()))
            return ingest(self, *args, **kwargs)

        def recording_score_group(self, *args, **kwargs):
            seen.append(("score_group", threading.get_ident()))
            return score_group(self, *args, **kwargs)

        monkeypatch.setattr(TenantStateStore, "ingest", recording_ingest)
        monkeypatch.setattr(
            ScorePipeline, "score_group", recording_score_group
        )

        async def scenario():
            loop_thread = threading.get_ident()
            with tempfile.TemporaryDirectory() as root:
                server = ScoringServer(root)
                await server.start()
                try:
                    host, port = "127.0.0.1", server.port
                    status, _ = await request(
                        host, port, "POST", "/v1/tenants/a/train",
                        {
                            "events": _train_stream(1).tolist(),
                            "alphabet_size": ALPHABET,
                        },
                    )
                    assert status == 200
                    status, body = await request(
                        host, port, "POST", "/v1/tenants/a/score",
                        {
                            "family": "stide",
                            "window": 4,
                            "events": _train_stream(2, 80).tolist(),
                        },
                    )
                    assert status == 200, body
                    names = [t.name for t in threading.enumerate()]
                finally:
                    await server.stop()
            return loop_thread, names

        loop_thread, names = run(scenario())
        assert {op for op, _ in seen} == {"ingest", "score_group"}
        assert all(ident == loop_thread for _, ident in seen), seen
        assert not [
            name for name in names
            if name.startswith(("serve-batch", "serve-score"))
        ], names


class TestSchedulerLedger:
    def test_flush_reasons_and_job_ledger_balance(self):
        async def scenario(collector):
            with tempfile.TemporaryDirectory() as root:
                server = ScoringServer(root)
                await server.start()
                try:
                    with activated(collector):
                        report = await run_load(
                            "127.0.0.1", server.port,
                            LoadPlan.quick(seed=5),
                        )
                        snap = server.batcher.snapshot()
                finally:
                    await server.stop()
                return report, snap

        collector = Telemetry()
        report, snap = run(scenario(collector))
        assert report.violations == []
        assert snap["jobs_in"] == snap["jobs_out"] + snap["refused"]
        assert set(snap["flushes"]) == set(FLUSH_REASONS)
        assert sum(snap["flushes"].values()) >= 1
        counters = collector.metrics.snapshot()["counters"]
        assert counters["serve.batch.jobs_in"] == snap["jobs_in"]
        assert check_trace_counters(counters) == []

    def test_trace_validator_flags_an_unbalanced_ledger(self):
        problems = check_trace_counters(
            {"serve.batch.jobs_in": 5, "serve.batch.jobs_out": 3}
        )
        assert any("never resolved" in p for p in problems)

    def test_trace_validator_flags_unaccounted_flushes(self):
        problems = check_trace_counters(
            {
                "serve.batch.jobs_in": 2,
                "serve.batch.jobs_out": 2,
                "serve.batch.flush": 3,
                "serve.batch.flush.solo": 2,
            }
        )
        assert any("flush" in p for p in problems)

    def test_solo_bypass_is_tagged(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as root:
                store = await _fitted_store(root, tenants=1)
                scheduler = BatchScheduler(
                    ScorePipeline(store),
                    ChaosDirector(),
                    policy=BatchPolicy(max_batch=8, max_wait_us=100000.0),
                )
                try:
                    outcome = await scheduler.submit(
                        _make_job("t00", "stide", 4,
                                  _train_stream(9, 60), 0)
                    )
                    assert len(outcome.scores) == 60 - 4 + 1
                finally:
                    await scheduler.close()
                # A lone job with an empty queue behind it must flush
                # immediately, never waiting out the 100ms budget.
                assert scheduler.snapshot()["flushes"]["solo"] == 1

        run(scenario())


class TestPolicyAndEquivalence:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_us"):
            BatchPolicy(max_wait_us=-1.0)

    def test_batch_max_one_produces_identical_dumps(self, tmp_path):
        """The CI diff in miniature: batched vs unbatched, same bytes."""

        async def one_run(policy, dump):
            with tempfile.TemporaryDirectory() as root:
                server = ScoringServer(root, batching=policy)
                await server.start()
                try:
                    report = await run_load(
                        "127.0.0.1", server.port,
                        LoadPlan.quick(seed=13), dump_scores=dump,
                    )
                finally:
                    await server.stop()
                assert report.violations == []

        batched = tmp_path / "batched.jsonl"
        unbatched = tmp_path / "unbatched.jsonl"
        run(one_run(BatchPolicy(max_batch=16, max_wait_us=1000.0), batched))
        run(one_run(BatchPolicy(max_batch=1), unbatched))
        assert batched.read_bytes() == unbatched.read_bytes()
        assert batched.stat().st_size > 0


class TestLoadgenModes:
    def test_open_loop_reports_co_safe_latency_and_reuses(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as root:
                server = ScoringServer(root)
                await server.start()
                try:
                    import dataclasses

                    plan = dataclasses.replace(
                        LoadPlan.quick(seed=21), arrival_rate=400.0
                    )
                    report = await run_load(
                        "127.0.0.1", server.port, plan
                    )
                finally:
                    await server.stop()
                return report

        report = run(scenario())
        assert report.violations == []
        assert report.mode == "open"
        assert report.target_rate == 400.0
        assert report.scores_ok > 0
        assert report.connections > 0
        # Persistent per-tenant connections: far fewer sockets than
        # requests, and reuses make up the difference.
        assert report.connections < report.requests
        assert report.keepalive_reuses > 0

    def test_closed_loop_remains_default(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as root:
                server = ScoringServer(root)
                await server.start()
                try:
                    report = await run_load(
                        "127.0.0.1", server.port, LoadPlan.quick(seed=22)
                    )
                finally:
                    await server.stop()
                return report

        report = run(scenario())
        assert report.violations == []
        assert report.mode == "closed"
        assert report.target_rate is None
        assert report.keepalive_reuses > 0
