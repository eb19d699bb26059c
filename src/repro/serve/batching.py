"""Cross-tenant dynamic micro-batching for the serving hot path.

The server's score path used to run one kernel call per request: each
tenant lane handed its job to a thread and the thread slid, packed and
bisected one stream.  The kernels underneath are batch engines — one
fused pass over many streams costs barely more than one stream — so
the serving layer leaves most of the hardware idle.  This module
closes that gap with an inference-server-style micro-batcher:

* :class:`ScoreJob` — one queued score request (tenant, cell, events,
  deadline) plus the future its lane awaits;
* :class:`BatchPolicy` — the adaptive formation knobs: ``max_batch``
  jobs per flush and a ``max_wait_us`` budget measured from the oldest
  job's enqueue time.  A job that finds the queue empty is flushed
  immediately (**solo** — single-job batches bypass the wait);
* :class:`BatchScheduler` — drains jobs from every tenant lane into
  one queue, forms batches, groups each batch by
  ``(family, window, alphabet)`` and runs every group as one fused
  kernel call (:meth:`~repro.serve.pipeline.ScorePipeline
  .score_group`) on the event-loop thread.

At serving size a group's kernel work is a fraction of a millisecond,
less than a thread hand-off costs, so groups run inline: no worker
pool, no executor, no GIL ping-pong between the loop and a worker.

**Flush reasons** — every flush is tagged with why it happened, and
the counters cross-check under ``repro trace validate``:

=========  ========================================================
``solo``   one job, empty queue behind it: dispatched with zero wait
``full``   the batch reached ``max_batch``
``timeout``  the oldest job's ``max_wait_us`` budget expired
``drain``  the scheduler is shutting down and flushed what was left
=========  ========================================================

Correctness is inherited, not re-argued: per-job failures (quarantine,
validation, deadline) fail *that job's* future only; a fused kernel
failure falls back to the sequential pipeline per job; and the fused
kernels themselves are bit-identical to sequential scoring (see
``DESIGN.md`` S48 and ``tests/serve/test_batching.py``), so batching
changes *when and where* a score is computed, never its value — the
loadgen no-wrong-score invariant holds with batching on or off.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.exceptions import ScoreRefusal
from repro.runtime import telemetry
from repro.serve.pipeline import ScoreOutcome, ScorePipeline

__all__ = [
    "FLUSH_REASONS",
    "BatchPolicy",
    "BatchScheduler",
    "ScoreJob",
]

#: Why a batch left the scheduler (see module docstring).
FLUSH_REASONS = ("solo", "full", "timeout", "drain")


@dataclass(frozen=True)
class BatchPolicy:
    """Adaptive batch-formation knobs for the scheduler.

    Args:
        max_batch: most jobs per flush (1 forces single-job batches —
            the unbatched-comparison mode CI diffs against).
        max_wait_us: longest a partially filled batch may wait for
            company, in microseconds, measured from the *oldest*
            member's enqueue time.  0 disables waiting entirely.
    """

    max_batch: int = 32
    max_wait_us: float = 250.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(
                f"max_wait_us must be >= 0, got {self.max_wait_us}"
            )


class ScoreJob:
    """One queued score request and the future its lane awaits.

    Carries everything :meth:`ScorePipeline.score_group` needs to
    resolve the job *at scoring time* — tenant state is re-fetched
    when the group runs, so a tenant quarantined between enqueue and
    flush refuses then, exactly like the sequential path.
    """

    __slots__ = (
        "tenant_id",
        "family",
        "window",
        "alphabet_size",
        "events",
        "key",
        "attempt",
        "deadline",
        "future",
        "enqueued_at",
    )

    def __init__(
        self,
        tenant_id: str,
        family: str,
        window: int,
        alphabet_size: int | None,
        events: object,
        key: str,
        attempt: int,
        deadline,
        future: asyncio.Future,
        enqueued_at: float,
    ) -> None:
        self.tenant_id = tenant_id
        self.family = family
        self.window = window
        self.alphabet_size = alphabet_size
        self.events = events
        self.key = key
        self.attempt = attempt
        self.deadline = deadline
        self.future = future
        self.enqueued_at = enqueued_at

    @property
    def group_key(self) -> tuple[str, int, int | None]:
        """Jobs sharing this key fuse into one kernel call."""
        return (self.family, self.window, self.alphabet_size)


class BatchScheduler:
    """Drains score jobs across tenant lanes into fused kernel calls.

    One asyncio task owns the queue: it greedily drains whatever is
    ready, applies the formation policy (solo bypass / fill to
    ``max_batch`` / wait out ``max_wait_us``), tags the flush with its
    reason, splits the batch into ``(family, window, alphabet)``
    groups and scores each group inline, resolving its jobs' futures
    before it takes the next batch.  The throughput comes from fusion
    (one kernel pass per group) and from never leaving the loop
    thread.

    Args:
        pipeline: the scoring pipeline (owns fused group scoring).
        chaos: fault director, threaded through to per-job corruption.
        policy: formation knobs; ``None`` uses defaults.
    """

    def __init__(
        self,
        pipeline: ScorePipeline,
        chaos,
        policy: BatchPolicy | None = None,
    ) -> None:
        self.policy = policy if policy is not None else BatchPolicy()
        self._pipeline = pipeline
        self._chaos = chaos
        self._queue: asyncio.Queue[ScoreJob | None] = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._closing = False
        self.jobs_in = 0
        self.jobs_out = 0
        self.refused = 0
        self.flushes: dict[str, int] = {r: 0 for r in FLUSH_REASONS}
        self.occupancy_sum = 0
        self.occupancy_max = 0
        self.group_count = 0

    # -- submission --------------------------------------------------------

    def _ensure_running(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="batch-scheduler"
            )

    async def submit(self, job: ScoreJob) -> ScoreOutcome:
        """Enqueue one job and await its outcome.

        Called from inside a tenant lane worker, so per-tenant order
        is preserved: the lane blocks on this future before taking its
        next job.  Raises whatever the scoring of *this* job raised.
        """
        if self._closing:
            raise ScoreRefusal(
                "batch scheduler is draining",
                status=503,
                reason="draining",
                retry_after=1.0,
            )
        self._ensure_running()
        self.jobs_in += 1
        telemetry.count("serve.batch.jobs_in")
        self._queue.put_nowait(job)
        outcome = await job.future
        assert isinstance(outcome, ScoreOutcome)
        return outcome

    # -- the drain loop ----------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        wait_budget = self.policy.max_wait_us / 1e6
        while True:
            job = await self._queue.get()
            if job is None:
                self._flush(self._drain_ready(), "drain")
                return
            batch = [job]
            closing = False
            while len(batch) < self.policy.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    closing = True
                    break
                batch.append(nxt)
            if closing:
                reason = "drain"
            elif len(batch) >= self.policy.max_batch:
                reason = "full"
            elif len(batch) == 1:
                # Solo bypass: an empty queue behind a lone job means
                # waiting could only add latency, never company.
                reason = "solo"
            elif wait_budget <= 0:
                reason = "timeout"
            else:
                reason = None
                flush_at = batch[0].enqueued_at + wait_budget
                while len(batch) < self.policy.max_batch:
                    remaining = flush_at - loop.time()
                    if remaining <= 0:
                        reason = "timeout"
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        reason = "timeout"
                        break
                    if nxt is None:
                        closing = True
                        reason = "drain"
                        break
                    batch.append(nxt)
                if reason is None:
                    reason = "full"
            self._flush(batch, reason)
            if closing:
                self._flush(self._drain_ready(), "drain")
                return

    def _drain_ready(self) -> list[ScoreJob]:
        rest: list[ScoreJob] = []
        while True:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return rest
            if nxt is not None:
                rest.append(nxt)

    def _flush(self, batch: list[ScoreJob], reason: str) -> None:
        if not batch:
            return
        now = asyncio.get_running_loop().time()
        telemetry.count("serve.batch.flush")
        telemetry.count(f"serve.batch.flush.{reason}")
        telemetry.observe("serve.batch.occupancy", len(batch))
        for job in batch:
            telemetry.observe(
                "serve.batch.wait_us", (now - job.enqueued_at) * 1e6
            )
        self.flushes[reason] += 1
        self.occupancy_sum += len(batch)
        self.occupancy_max = max(self.occupancy_max, len(batch))
        groups: dict[tuple, list[ScoreJob]] = {}
        for job in batch:
            groups.setdefault(job.group_key, []).append(job)
        for group in groups.values():
            self.group_count += 1
            telemetry.count("serve.batch.groups")
            self._run_group(group)

    # -- group execution ---------------------------------------------------

    def _run_group(self, jobs: list[ScoreJob]) -> None:
        try:
            results = self._pipeline.score_group(jobs, self._chaos)
        except Exception as error:  # every future must still resolve
            results = [error] * len(jobs)
        for job, result in zip(jobs, results):
            if job.future.done():
                continue
            if isinstance(result, ScoreOutcome):
                self.jobs_out += 1
                telemetry.count("serve.batch.jobs_out")
                job.future.set_result(result)
            else:
                self.refused += 1
                telemetry.count("serve.batch.refused")
                if isinstance(result, BaseException):
                    job.future.set_exception(result)
                else:  # pragma: no cover - defensive
                    job.future.set_exception(
                        ScoreRefusal(
                            f"batch produced no result ({result!r})",
                            status=503,
                            reason="batch-lost",
                            retry_after=0.1,
                        )
                    )

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Stop admitting and flush what is queued."""
        if self._closing:
            return
        self._closing = True
        if self._task is not None and not self._task.done():
            self._queue.put_nowait(None)
            await self._task

    def snapshot(self) -> dict:
        """Scheduler state for the stats endpoint."""
        flushes = sum(self.flushes.values())
        return {
            "max_batch": self.policy.max_batch,
            "max_wait_us": self.policy.max_wait_us,
            "jobs_in": self.jobs_in,
            "jobs_out": self.jobs_out,
            "refused": self.refused,
            "flushes": dict(self.flushes),
            "groups": self.group_count,
            "occupancy_mean": (
                round(self.occupancy_sum / flushes, 3) if flushes else 0.0
            ),
            "occupancy_max": self.occupancy_max,
        }
