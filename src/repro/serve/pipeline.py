"""The scoring pipeline and its degradation ladder.

A score request travels: validate → fit (cached) → score at the best
applicable kernel tier → fall down the ladder on failure → refuse.
The ladder reuses the sweep engine's tier semantics
(:func:`~repro.runtime.kernels.resolve_kernel_tier`):

1. **automaton** — the one-pass multi-order membership automaton,
   when the cell is packable and within the profile's order budget;
2. **bisect** — the classic per-DW ``searchsorted`` membership path,
   always applicable;
3. **refuse** — a :class:`~repro.exceptions.ScoreRefusal` (503) with a
   machine-readable advisory.

Because the tiers are bit-identical by construction (asserted by
``tests/runtime/test_kernels.py``), falling down the ladder changes
*how* a response is computed, never its value — degradation trades
speed, not correctness, which is the other half of the no-wrong-score
invariant: every path out of this module is either a correct score or
an explicit refusal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ScoreRefusal
from repro.runtime import telemetry
from repro.runtime.automaton import BatchStreamCodes
from repro.runtime.kernels import (
    TIER_AUTO,
    TIER_BISECT,
    fused_stream_windows,
    resolve_kernel_tier,
)
from repro.sequences.windows import packable
from repro.serve.admission import Deadline
from repro.serve.tenants import TenantState, TenantStateStore

#: The tier label fused batch scoring reports.  Fused kernels reuse the
#: bisect tier's membership/count arithmetic on a batch-packed key
#: array, so "fused" is a *how*, not a different *what* — responses
#: are bit-identical to either sequential tier.
TIER_FUSED = "fused"

#: Families whose packed fit state admits the fused packed-key kernel
#: (``score_packed``); every other family takes the fused window path.
_PACKED_FAMILIES = frozenset({"stide", "t-stide", "markov"})


@dataclass(frozen=True)
class ScoreOutcome:
    """One successful scoring response."""

    scores: tuple[float, ...]
    family: str
    window: int
    tier: str
    attempts: int
    elapsed: float


class ScorePipeline:
    """Validated, deadline-aware, ladder-degrading scoring.

    Synchronous on purpose: the server calls it on the event-loop
    thread, where a serving-size score costs less than a hand-off to
    a worker thread would.

    Args:
        tenants: the tenant state store (fit cache lives there).
        retries: extra full-ladder passes before refusing.  Maps from
            the CLI's ``--retries`` budget; scoring is deterministic,
            so retries only help against *injected* or environmental
            failures, which is exactly what they are budgeted for.
    """

    def __init__(self, tenants: TenantStateStore, retries: int = 1) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._tenants = tenants
        self._retries = int(retries)

    def ladder(self, state: TenantState, window: int) -> tuple[str, ...]:
        """The kernel tiers to try for this cell, best first."""
        preferred = resolve_kernel_tier(
            TIER_AUTO, state.alphabet_size, window
        )
        if preferred == TIER_BISECT:
            return (TIER_BISECT,)
        return (preferred, TIER_BISECT)

    def score(
        self,
        state: TenantState,
        family: str,
        window: int,
        events: object,
        deadline: Deadline,
    ) -> ScoreOutcome:
        """Score one stream for one (family, window) cell.

        Raises:
            ScoreRefusal: 422 on invalid input or a stream shorter
                than one window; 504 when the budget dies mid-ladder;
                503 (retryable) when every rung of the ladder failed.
        """
        started = time.monotonic()
        data = self._tenants.validate_events(events, state.alphabet_size)
        if len(data) < window:
            raise ScoreRefusal(
                f"test stream holds {len(data)} events, fewer than one "
                f"window of {window}",
                status=422,
                reason="stream-too-short",
            )
        deadline.check("fit")
        detector = self._tenants.detector_for(state, family, window)
        ladder = self.ladder(state, window)
        attempts = 0
        last_error: Exception | None = None
        for attempt in range(self._retries + 1):
            for tier in ladder:
                deadline.check(f"score:{tier}")
                attempts += 1
                try:
                    with telemetry.span(
                        "serve",
                        "score",
                        tenant=state.tenant_id,
                        family=family,
                        dw=window,
                        tier=tier,
                    ):
                        detector.attach_kernel_tier(tier)
                        scores = np.asarray(
                            detector.score_stream(data), dtype=float
                        )
                except ScoreRefusal:
                    raise
                except Exception as error:
                    last_error = error
                    telemetry.count("serve.ladder.fallback")
                    continue
                if attempt or tier != ladder[0]:
                    telemetry.count("serve.ladder.degraded")
                telemetry.count("serve.score")
                return ScoreOutcome(
                    scores=tuple(float(x) for x in scores),
                    family=family,
                    window=window,
                    tier=tier,
                    attempts=attempts,
                    elapsed=time.monotonic() - started,
                )
        telemetry.count("serve.ladder.exhausted")
        raise ScoreRefusal(
            f"every kernel tier failed for tenant {state.tenant_id!r} "
            f"cell ({family}, DW={window}); last error: "
            f"{type(last_error).__name__}: {last_error}",
            status=503,
            reason="ladder-exhausted",
            retry_after=0.1,
        )

    # -- fused group scoring (the micro-batcher's kernel path) -------------

    def prepare_group(
        self, jobs: list, chaos
    ) -> tuple[list, list[tuple[int, TenantState, np.ndarray, object]]]:
        """Resolve state, validation and detectors for a job group.

        Per-job failures (unknown or quarantined tenant, invalid or
        chaos-poisoned events, a spent deadline, a cell the tenant
        cannot support) land in the result slot for *that job only* —
        a poisoned member never blocks its batchmates.  Tenant state is
        fetched here, at scoring time, so a tenant quarantined after
        enqueue refuses exactly like the sequential path would.

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

        Prepare every job, fuse the surviving streams into **one**
        kernel pass — a :class:`~repro.runtime.automaton
        .BatchStreamCodes` pack for the packed families, a
        :func:`~repro.runtime.kernels.fused_stream_windows` slide for
        the rest — and slice each job's responses out by its span.  A
        job whose fused kernel fails falls back to the sequential
        ladder (:meth:`score`), so batching can only change *how* a
        score is computed, never whether one is produced.

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

    def _fuse(
        self, family: str, window: int, alphabet: int, streams: list
    ) -> tuple[str, object] | None:
        """Build the fused kernel input, or ``None`` to go sequential."""
        try:
            if family in _PACKED_FAMILIES and packable(alphabet, window):
                return "packed", BatchStreamCodes(streams, alphabet, window)
            return "windows", fused_stream_windows(streams, window)
        except Exception:
            telemetry.count("serve.batch.fuse_failed")
            return None

    def _score_prepared(
        self,
        jobs: list,
        prepared: list[tuple[int, TenantState, np.ndarray, object]],
        results: list,
        started: float,
    ) -> None:
        sample = jobs[prepared[0][0]]
        family, window = sample.family, sample.window
        alphabet = prepared[0][1].alphabet_size
        streams = [data for _, _, data, _ in prepared]
        fused = self._fuse(family, window, alphabet, streams)
        for k, (i, state, data, detector) in enumerate(prepared):
            job = jobs[i]
            try:
                job.deadline.check("score:fused")
                if fused is None:
                    raise _FusePlanUnavailable()
                with telemetry.span(
                    "serve",
                    "score",
                    tenant=state.tenant_id,
                    family=family,
                    dw=window,
                    tier=TIER_FUSED,
                    batch=len(prepared),
                ):
                    if fused[0] == "packed":
                        scores = detector.score_packed(
                            fused[1].keys(k, window)
                        )
                    else:
                        windows, spans = fused[1]
                        start, stop = spans[k]
                        scores = detector.score_windows(windows[start:stop])
                telemetry.count("serve.score")
                results[i] = ScoreOutcome(
                    scores=tuple(scores.tolist()),
                    family=family,
                    window=window,
                    tier=TIER_FUSED,
                    attempts=1,
                    elapsed=time.monotonic() - started,
                )
            except ScoreRefusal as refusal:
                results[i] = refusal
            except Exception:
                # Fused kernel misbehaved for this member: the
                # sequential ladder (with its own retries and
                # degradation) is the authoritative fallback.
                telemetry.count("serve.batch.fallback")
                try:
                    results[i] = self.score(
                        state, family, window, data, job.deadline
                    )
                except Exception as error:
                    results[i] = error


class _FusePlanUnavailable(Exception):
    """Internal: no fused plan for this group; take the ladder."""
