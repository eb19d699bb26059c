"""Admission control: deadlines, bounded queues, per-tenant bulkheads.

Three cooperating pieces, all refusal-first (overload produces HTTP
429/503/504 advisories, never queue collapse or a wrong score):

* :class:`Deadline` — a request's wall-clock budget, checked at every
  expensive stage so a request that can no longer make its budget is
  refused (504) instead of burning a lane on a doomed computation.
* :class:`AdmissionPolicy` — the serving limits (queue depth, default
  budget, breaker thresholds) in one place, shared by server and CLI.
* :class:`TenantLane` — the bulkhead: one bounded queue plus one
  worker task per tenant, so a slow or crashing tenant consumes only
  its own lane.  A worker that dies mid-job is restarted by its
  supervisor wrapper; the in-flight job is failed with a *retryable*
  refusal — acknowledged work is never silently dropped, and no
  partial result ever leaves the lane.

Lanes are also the hand-off point into the cross-tenant micro-batcher
(:mod:`repro.serve.batching`): a lane worker's score job enqueues into
the batch scheduler and awaits its fused outcome, which preserves
per-tenant ordering (one in-flight job per lane) while letting jobs
from *different* lanes fuse into one kernel call.  The lane-queue wait
is observed as ``serve.lane.wait_us`` so admission latency and batch
formation latency stay separable in traces.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.exceptions import ScoreRefusal
from repro.runtime import telemetry


@dataclass(frozen=True)
class Deadline:
    """A request's absolute wall-clock budget (monotonic seconds)."""

    expires_at: float
    budget: float

    @classmethod
    def after(cls, budget: float, clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``budget`` seconds from now."""
        if budget <= 0:
            raise ScoreRefusal(
                f"deadline budget must be > 0 seconds, got {budget}",
                status=422,
                reason="invalid-deadline",
            )
        return cls(expires_at=clock() + budget, budget=budget)

    def remaining(self, clock: Callable[[], float] = time.monotonic) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - clock()

    def check(self, stage: str, clock: Callable[[], float] = time.monotonic) -> None:
        """Refuse (504) when the budget is spent.

        ``stage`` names where the budget died (``queued``, ``fit``,
        ``score`` ...) so clients and traces can tell admission latency
        from compute latency.
        """
        if self.remaining(clock) <= 0:
            telemetry.count("serve.deadline.exceeded")
            raise ScoreRefusal(
                f"deadline of {self.budget:.3f}s exceeded at stage "
                f"{stage!r}",
                status=504,
                reason="deadline-exceeded",
            )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Serving limits for one service instance."""

    queue_depth: int = 16
    default_budget: float = 5.0
    max_budget: float = 30.0
    breaker_failures: int = 5
    breaker_reset: float = 2.0
    retry_after_hint: float = 0.05

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if not 0 < self.default_budget <= self.max_budget:
            raise ValueError(
                "default_budget must satisfy 0 < default <= max, got "
                f"{self.default_budget} vs {self.max_budget}"
            )

    def budget_for(self, requested: object) -> float:
        """Clamp a client-requested budget into policy bounds.

        ``requested`` is the raw JSON value: anything that is not a
        finite number > 0 refuses with 422 ``invalid-deadline``.
        """
        if requested is None:
            return self.default_budget
        try:
            budget = float(requested)
        except (TypeError, ValueError, OverflowError):
            budget = math.nan
        if not (math.isfinite(budget) and budget > 0):
            raise ScoreRefusal(
                "requested budget must be a finite number > 0, "
                f"got {requested!r}",
                status=422,
                reason="invalid-deadline",
            )
        return min(budget, self.max_budget)


class _Job:
    """One queued unit of work and the future its submitter awaits."""

    __slots__ = ("thunk", "deadline", "future", "enqueued_at")

    def __init__(
        self,
        thunk: Callable[[], Awaitable[object]],
        deadline: Deadline,
        future: asyncio.Future,
        enqueued_at: float,
    ) -> None:
        self.thunk = thunk
        self.deadline = deadline
        self.future = future
        self.enqueued_at = enqueued_at


class TenantLane:
    """Bounded single-worker execution lane for one tenant.

    The bulkhead: all of a tenant's requests serialise through this
    lane, so per-tenant state needs no locks and one tenant's overload
    surfaces as *its* 429s, not everyone's latency.

    Args:
        name: tenant id, for telemetry and advisories.
        queue_depth: bounded queue size; a full queue refuses (429).
        retry_after_hint: ``Retry-After`` seconds suggested on 429.
    """

    def __init__(
        self,
        name: str,
        queue_depth: int = 16,
        retry_after_hint: float = 0.05,
    ) -> None:
        self.name = name
        self._queue: asyncio.Queue[_Job | None] = asyncio.Queue(
            maxsize=queue_depth
        )
        self._retry_after = retry_after_hint
        self._supervisor: asyncio.Task | None = None
        self._draining = False
        self.restarts = 0
        self.completed = 0

    def _ensure_running(self) -> None:
        if self._supervisor is None or self._supervisor.done():
            self._supervisor = asyncio.get_running_loop().create_task(
                self._supervise(), name=f"lane-{self.name}"
            )

    async def submit(
        self, thunk: Callable[[], Awaitable[object]], deadline: Deadline
    ) -> object:
        """Run ``thunk`` on the lane worker; returns its result.

        Raises:
            ScoreRefusal: 429 when the queue is full, 503 while
                draining, or whatever refusal the job itself raised.
        """
        if self._draining:
            raise ScoreRefusal(
                f"lane {self.name!r} is draining",
                status=503,
                reason="draining",
                retry_after=1.0,
            )
        self._ensure_running()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        job = _Job(thunk, deadline, future, loop.time())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            telemetry.count("serve.admission.rejected")
            raise ScoreRefusal(
                f"tenant {self.name!r} queue is full "
                f"({self._queue.maxsize} deep)",
                status=429,
                reason="queue-full",
                retry_after=self._retry_after,
            ) from None
        return await future

    async def _supervise(self) -> None:
        """Run the worker loop, restarting it if a job escapes it.

        A job exception that is not a :class:`ScoreRefusal` means the
        worker itself was compromised (the chaos worker-crash fault
        models exactly this): the in-flight job is failed with a
        retryable 503 and a fresh worker picks up the queue.
        """
        while True:
            try:
                await self._work()
                return  # drained and closed cleanly
            except asyncio.CancelledError:
                raise
            except BaseException:
                self.restarts += 1
                telemetry.count("serve.lane.restart")

    async def _work(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.future.cancelled():
                continue
            telemetry.observe(
                "serve.lane.wait_us",
                (asyncio.get_running_loop().time() - job.enqueued_at) * 1e6,
            )
            try:
                job.deadline.check("queued")
                result = await job.thunk()
            except ScoreRefusal as refusal:
                job.future.set_exception(refusal)
            except asyncio.CancelledError:
                job.future.cancel()
                raise
            except BaseException as error:
                # Worker compromised: fail the job retryably, then let
                # the supervisor restart the worker.
                job.future.set_exception(
                    ScoreRefusal(
                        f"lane worker for {self.name!r} crashed: "
                        f"{type(error).__name__}: {error}",
                        status=503,
                        reason="worker-crash",
                        retry_after=self._retry_after,
                    )
                )
                raise
            else:
                self.completed += 1
                job.future.set_result(result)

    async def drain(self) -> None:
        """Stop admitting, finish queued jobs, stop the worker."""
        if self._draining:
            return
        self._draining = True
        if self._supervisor is None or self._supervisor.done():
            return
        await self._queue.put(None)
        await self._supervisor

    def snapshot(self) -> dict:
        """State for the stats endpoint."""
        return {
            "queued": self._queue.qsize(),
            "depth": self._queue.maxsize,
            "completed": self.completed,
            "restarts": self.restarts,
            "draining": self._draining,
        }
