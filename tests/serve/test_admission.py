"""Tests for deadlines, admission policy, and bulkhead lanes."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ScoreRefusal
from repro.serve.admission import AdmissionPolicy, Deadline, TenantLane


class TestDeadline:
    def test_after_and_remaining(self):
        clock = lambda: 10.0  # noqa: E731
        deadline = Deadline.after(2.0, clock)
        assert deadline.remaining(clock) == pytest.approx(2.0)
        deadline.check("start", clock)  # no raise

    def test_expired_refuses_with_stage(self):
        now = {"t": 0.0}
        clock = lambda: now["t"]  # noqa: E731
        deadline = Deadline.after(1.0, clock)
        now["t"] = 1.5
        with pytest.raises(ScoreRefusal) as excinfo:
            deadline.check("score:bisect", clock)
        assert excinfo.value.status == 504
        assert excinfo.value.reason == "deadline-exceeded"
        assert "score:bisect" in str(excinfo.value)

    def test_nonpositive_budget_refused(self):
        with pytest.raises(ScoreRefusal, match="budget"):
            Deadline.after(0.0)


class TestAdmissionPolicy:
    def test_budget_clamped_to_max(self):
        policy = AdmissionPolicy(default_budget=5.0, max_budget=10.0)
        assert policy.budget_for(None) == 5.0
        assert policy.budget_for(3.0) == 3.0
        assert policy.budget_for(99.0) == 10.0

    def test_invalid_requested_budget_refused(self):
        with pytest.raises(ScoreRefusal, match="budget"):
            AdmissionPolicy().budget_for(-1.0)

    @pytest.mark.parametrize(
        "requested",
        ["abc", [1], float("nan"), float("inf"), "1e400"],
        ids=["str", "list", "nan", "inf", "overflow"],
    )
    def test_malformed_requested_budget_refused_422(self, requested):
        with pytest.raises(ScoreRefusal, match="budget") as refused:
            AdmissionPolicy().budget_for(requested)
        assert refused.value.status == 422
        assert refused.value.reason == "invalid-deadline"

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError, match="queue_depth"):
            AdmissionPolicy(queue_depth=0)
        with pytest.raises(ValueError, match="default_budget"):
            AdmissionPolicy(default_budget=60.0, max_budget=30.0)


class TestTenantLane:
    def test_jobs_run_in_submission_order(self):
        async def scenario():
            lane = TenantLane("t", queue_depth=8)
            seen = []

            def job(i):
                async def run():
                    seen.append(i)
                    return i

                return run

            deadline = Deadline.after(5.0)
            results = await asyncio.gather(
                *(lane.submit(job(i), deadline) for i in range(5))
            )
            await lane.drain()
            return results, seen

        results, seen = asyncio.run(scenario())
        assert results == [0, 1, 2, 3, 4]
        assert seen == [0, 1, 2, 3, 4]

    def test_full_queue_refuses_429(self):
        async def scenario():
            lane = TenantLane("t", queue_depth=1)
            release = asyncio.Event()

            async def slow():
                await release.wait()
                return "slow"

            deadline = Deadline.after(5.0)
            first = asyncio.ensure_future(lane.submit(slow, deadline))
            await asyncio.sleep(0.01)  # worker picks up the slow job

            async def second():
                return "queued"

            queued = asyncio.ensure_future(lane.submit(second, deadline))
            await asyncio.sleep(0.01)  # fills the depth-1 queue
            with pytest.raises(ScoreRefusal) as excinfo:
                await lane.submit(second, deadline)
            release.set()
            assert await first == "slow"
            assert await queued == "queued"
            await lane.drain()
            return excinfo.value

        refusal = asyncio.run(scenario())
        assert refusal.status == 429
        assert refusal.reason == "queue-full"
        assert refusal.retry_after is not None

    def test_worker_crash_restarts_and_fails_job_retryably(self):
        async def scenario():
            lane = TenantLane("t", queue_depth=4)
            deadline = Deadline.after(5.0)

            async def bomb():
                raise RuntimeError("worker compromised")

            with pytest.raises(ScoreRefusal) as excinfo:
                await lane.submit(bomb, deadline)

            async def fine():
                return "recovered"

            result = await lane.submit(fine, deadline)
            await lane.drain()
            return excinfo.value, result, lane.restarts

        refusal, result, restarts = asyncio.run(scenario())
        assert refusal.status == 503
        assert refusal.reason == "worker-crash"
        assert refusal.retryable
        assert result == "recovered"
        assert restarts == 1

    def test_expired_job_refused_at_dequeue(self):
        async def scenario():
            lane = TenantLane("t", queue_depth=4)
            deadline = Deadline.after(0.01)
            await asyncio.sleep(0.05)

            async def never():  # pragma: no cover - must not run
                raise AssertionError("expired job must not execute")

            with pytest.raises(ScoreRefusal) as excinfo:
                await lane.submit(never, deadline)
            await lane.drain()
            return excinfo.value

        refusal = asyncio.run(scenario())
        assert refusal.status == 504

    def test_draining_lane_refuses(self):
        async def scenario():
            lane = TenantLane("t")

            async def fine():
                return 1

            await lane.submit(fine, Deadline.after(5.0))
            await lane.drain()
            with pytest.raises(ScoreRefusal) as excinfo:
                await lane.submit(fine, Deadline.after(5.0))
            return excinfo.value

        refusal = asyncio.run(scenario())
        assert refusal.status == 503
        assert refusal.reason == "draining"
