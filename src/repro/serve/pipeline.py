"""The scoring pipeline: validate, fit (cached), score or refuse.

A score request travels: validate → fit (cached) → score → refuse on
failure.  Every score runs through one path, the fused group path the
micro-batcher drives (:meth:`ScorePipeline.score_group`): the group's
streams are slid once with
:func:`~repro.runtime.kernels.fused_stream_windows` and each member's
detector scores its own row span with ``score_windows`` — the same
bisection and count arithmetic ``score_stream`` runs, so responses are
bit-identical to a plain ``fit(...).score_stream(...)`` reference.

A member whose kernel call raises gets a retryable
:class:`~repro.exceptions.ScoreRefusal` (503, ``score-failed``); its
batchmates are unaffected.  That is the no-wrong-score invariant:
every path out of this module is either a correct score or an
explicit refusal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ScoreRefusal
from repro.runtime import telemetry
from repro.runtime.kernels import fused_stream_windows
from repro.serve.tenants import TenantState, TenantStateStore


@dataclass(frozen=True)
class ScoreOutcome:
    """One successful scoring response."""

    scores: tuple[float, ...]
    family: str
    window: int
    elapsed: float


class ScorePipeline:
    """Validated, deadline-aware scoring of fused job groups.

    Synchronous on purpose: the server calls it on the event-loop
    thread, where a serving-size score costs less than a hand-off to
    a worker thread would.

    Args:
        tenants: the tenant state store (fit cache lives there).
    """

    def __init__(self, tenants: TenantStateStore) -> None:
        self._tenants = tenants

    def prepare_group(
        self, jobs: list, chaos
    ) -> tuple[list, list[tuple[int, TenantState, np.ndarray, object]]]:
        """Resolve state, validation and detectors for a job group.

        Per-job failures (unknown or quarantined tenant, invalid or
        chaos-poisoned events, a spent deadline, a cell the tenant
        cannot support) land in the result slot for *that job only* —
        a poisoned member never blocks its batchmates.  Tenant state is
        fetched here, at scoring time, so a tenant quarantined after
        enqueue is refused rather than scored.

        Returns:
            ``(results, prepared)`` — the per-job result list with
            failures already filled in, and the surviving jobs as
            ``(index, state, validated_events, detector)`` tuples.
        """
        results: list = [None] * len(jobs)
        prepared: list[tuple[int, TenantState, np.ndarray, object]] = []
        for i, job in enumerate(jobs):
            try:
                job.deadline.check("batch:prepare")
                state = self._tenants.get(job.tenant_id)
                data = self._tenants.validate_events(
                    job.events, state.alphabet_size
                )
                data = chaos.maybe_corrupt_events(
                    data, state.alphabet_size, job.key, job.attempt
                )
                # Re-validate: a chaos-poisoned payload must be caught
                # here, never scored (same pair as the train path).
                data = self._tenants.validate_events(
                    data, state.alphabet_size
                )
                if len(data) < job.window:
                    raise ScoreRefusal(
                        f"test stream holds {len(data)} events, fewer "
                        f"than one window of {job.window}",
                        status=422,
                        reason="stream-too-short",
                    )
                job.deadline.check("fit")
                detector = self._tenants.detector_for(
                    state, job.family, job.window
                )
                prepared.append((i, state, data, detector))
            except Exception as error:
                results[i] = error
        return results, prepared

    def score_group(self, jobs: list, chaos) -> list:
        """Score one fused group (same family, window, alphabet).

        Prepare every job, slide the surviving streams in **one**
        :func:`~repro.runtime.kernels.fused_stream_windows` pass, and
        score each job's row span through its own detector.  A job
        whose kernel call fails is refused alone (503,
        ``score-failed``), so batching can only change *how* a score
        is computed, never which score a request gets.

        Args:
            jobs: objects with the :class:`~repro.serve.batching
                .ScoreJob` attributes (duck-typed to keep this module
                import-light).
            chaos: the fault director (per-job corruption hooks).

        Returns:
            One entry per job: a :class:`ScoreOutcome` or the
            exception that job should fail with.
        """
        started = time.monotonic()
        results, prepared = self.prepare_group(jobs, chaos)
        if prepared:
            self._score_prepared(jobs, prepared, results, started)
        return results

    def _score_prepared(
        self,
        jobs: list,
        prepared: list[tuple[int, TenantState, np.ndarray, object]],
        results: list,
        started: float,
    ) -> None:
        sample = jobs[prepared[0][0]]
        family, window = sample.family, sample.window
        # prepare_group refused every stream shorter than one window,
        # so the fused slide cannot fail on the survivors.
        windows, spans = fused_stream_windows(
            [data for _, _, data, _ in prepared], window
        )
        for (i, state, _data, detector), (start, stop) in zip(prepared, spans):
            try:
                jobs[i].deadline.check("score:fused")
                with telemetry.span(
                    "serve",
                    "score",
                    tenant=state.tenant_id,
                    family=family,
                    dw=window,
                    batch=len(prepared),
                ):
                    scores = detector.score_windows(windows[start:stop])
            except ScoreRefusal as refusal:
                results[i] = refusal
                continue
            except Exception as error:
                # The kernel call raised: refuse this member alone and
                # retryably; its batchmates still score.
                telemetry.count("serve.score.failed")
                results[i] = ScoreRefusal(
                    f"scoring failed for tenant {state.tenant_id!r} cell "
                    f"({family}, DW={window}): {type(error).__name__}: "
                    f"{error}",
                    status=503,
                    reason="score-failed",
                    retry_after=0.1,
                )
                continue
            telemetry.count("serve.score")
            results[i] = ScoreOutcome(
                scores=tuple(scores.tolist()),
                family=family,
                window=window,
                elapsed=time.monotonic() - started,
            )

