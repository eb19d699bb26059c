"""Deterministic fault injection for the resilient sweep harness.

Recovery code that is only exercised by real outages is recovery code
that does not work.  This module injects failures into sweep task
execution on a **seeded, reproducible schedule** so the test suite can
prove every recovery path of :mod:`repro.runtime.resilience`:

* ``raise``   — the task raises a :class:`~repro.exceptions.TransientTaskError`
  (a crash the retry budget should absorb);
* ``hang``    — the task sleeps past its wall-clock timeout before
  completing (exercises timeout detection and cancellation);
* ``latency`` — the task stalls for a *bounded, seeded* duration drawn
  below ``latency_seconds`` and then completes normally.  Unlike
  ``hang`` (which is sized to trip an armed timeout), latency models a
  slow-but-healthy path: both the sweep resilience tests and the
  serving chaos suite use it to inject slowness without tripping
  wall-clock timeouts unintentionally;
* ``corrupt`` — the task returns a truncated block (exercises result
  validation, which converts corruption into a retryable failure);
* ``crash``   — the task hard-kills its worker process via
  ``os._exit`` (exercises ``BrokenProcessPool`` degradation).  Outside
  a child process this downgrades to a ``raise`` fault so an
  in-process backend can never take the interpreter down;
* ``fatal``   — the task raises an :class:`~repro.exceptions.EvaluationError`
  (the non-retryable taxonomy branch: the sweep must abort, keeping
  its checkpoint).

Whether a given (task, attempt) faults — and with which kind — is a
pure function of ``(seed, key, attempt)``: the schedule draws from
``random.Random`` seeded with that triple, which CPython seeds from the
string's bytes (not ``hash()``), so decisions are identical across
runs, threads, and worker processes.  A schedule is a frozen dataclass
of primitives and therefore picklable into process workers.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar

from repro.exceptions import (
    DetectorConfigurationError,
    EvaluationError,
    TransientTaskError,
)

#: Every fault kind a sweep schedule may inject.
FAULT_KINDS: tuple[str, ...] = (
    "raise",
    "hang",
    "latency",
    "corrupt",
    "crash",
    "fatal",
)


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, deterministic plan of which task attempts fail, and how.

    Args:
        rate: probability that an eligible attempt faults, in [0, 1].
        seed: schedule seed; same seed, same decisions, everywhere.
        kinds: fault kinds to draw from (uniformly) when an attempt
            faults; a subset of :data:`FAULT_KINDS`.
        max_attempt: only attempts ``<= max_attempt`` are eligible, so
            a retry budget of at least ``max_attempt`` always recovers
            (except for ``fatal`` faults, which are designed not to).
        hang_seconds: how long a ``hang`` fault stalls before letting
            the task proceed.  Keep it small in tests: a timed-out
            thread attempt is abandoned, not killed, and runs to the
            end of the stall in the background.
        latency_seconds: upper bound on a ``latency`` fault's stall.
            The actual stall is drawn uniformly below the bound by a
            generator seeded with ``(seed, key, attempt)``, so the
            injected slowness is reproducible and never exceeds a
            budget the caller sized against its timeouts.
    """

    #: Kinds instances of this schedule class accept; subclasses (the
    #: serving chaos harness) override to extend the vocabulary.
    ALLOWED_KINDS: ClassVar[tuple[str, ...]] = FAULT_KINDS

    rate: float = 0.0
    seed: int = 0
    kinds: tuple[str, ...] = ("raise",)
    max_attempt: int = 1
    hang_seconds: float = 0.25
    latency_seconds: float = 0.05

    def __post_init__(self) -> None:
        allowed = type(self).ALLOWED_KINDS
        if not 0.0 <= self.rate <= 1.0:
            raise DetectorConfigurationError(
                f"fault rate must lie in [0, 1], got {self.rate}"
            )
        unknown = [kind for kind in self.kinds if kind not in allowed]
        if unknown or not self.kinds:
            raise DetectorConfigurationError(
                f"unknown fault kinds {unknown}; available: {', '.join(allowed)}"
            )
        if self.max_attempt < 1:
            raise DetectorConfigurationError(
                f"max_attempt must be >= 1, got {self.max_attempt}"
            )
        if self.hang_seconds <= 0:
            raise DetectorConfigurationError(
                f"hang_seconds must be > 0, got {self.hang_seconds}"
            )
        if self.latency_seconds <= 0:
            raise DetectorConfigurationError(
                f"latency_seconds must be > 0, got {self.latency_seconds}"
            )

    def decide(self, key: str, attempt: int) -> str | None:
        """The fault kind for one (task, attempt), or ``None``.

        Deterministic: the same ``(seed, key, attempt)`` triple always
        returns the same decision.
        """
        if self.rate <= 0.0 or attempt > self.max_attempt:
            return None
        rng = random.Random(f"faults|{self.seed}|{key}|{attempt}")
        if rng.random() >= self.rate:
            return None
        return self.kinds[rng.randrange(len(self.kinds))]

    def latency_delay(self, key: str, attempt: int) -> float:
        """The seeded, bounded stall of a ``latency`` fault, in seconds.

        Always strictly below ``latency_seconds``; a pure function of
        ``(seed, key, attempt)`` like :meth:`decide`, so two runs (or
        the server and its chaos verifier) observe the same slowness.
        """
        u = random.Random(f"latency|{self.seed}|{key}|{attempt}").random()
        return u * self.latency_seconds


def _in_child_process() -> bool:
    """Whether this code runs inside a multiprocessing worker."""
    return multiprocessing.parent_process() is not None


def apply_fault(
    schedule: FaultSchedule | None, key: str, attempt: int
) -> bool:
    """Execute the scheduled fault for one task attempt, if any.

    Called at the top of a sweep task's body.  ``raise``/``fatal``
    faults raise their taxonomy exception; ``hang`` stalls for
    ``hang_seconds`` and then lets the task proceed (so an armed
    timeout fires, and an unarmed one merely observes a slow task);
    ``crash`` kills the current *worker process* — or downgrades to a
    ``raise`` fault when not in a child process.

    Returns:
        ``True`` when the attempt drew a ``corrupt`` fault — the
        caller must then corrupt its result (see :func:`corrupt_block`).
    """
    if schedule is None:
        return False
    kind = schedule.decide(key, attempt)
    if kind is None:
        return False
    if kind == "raise":
        raise TransientTaskError(
            f"injected transient fault on {key} (attempt {attempt})"
        )
    if kind == "fatal":
        raise EvaluationError(
            f"injected fatal fault on {key} (attempt {attempt})"
        )
    if kind == "hang":
        time.sleep(schedule.hang_seconds)
        return False
    if kind == "latency":
        time.sleep(schedule.latency_delay(key, attempt))
        return False
    if kind == "crash":
        if _in_child_process():  # pragma: no cover - dies before coverage
            os._exit(13)
        raise TransientTaskError(
            f"injected crash fault on {key} (attempt {attempt}; "
            "downgraded to transient outside a worker process)"
        )
    return True  # "corrupt"


def corrupt_block(results: list) -> list:
    """Deterministically corrupt a block result (drop the last cell).

    The resilient engine validates every block against the suite grid,
    so a truncated block surfaces as a retryable
    :class:`~repro.exceptions.TransientTaskError` rather than a silent
    hole in the map.
    """
    return results[:-1]


def wrap_factory(
    factory: Callable[[int], object], schedule: FaultSchedule
) -> Callable[[int], object]:
    """Wrap a detector factory to fault at construction time.

    The returned factory consults ``schedule`` under the key
    ``factory:<window_length>`` (attempt 1) before delegating — a
    convenient way to break a factory spec wherever it is invoked,
    including the plain reference loop of
    :func:`~repro.evaluation.performance_map.build_performance_map`,
    which never goes through the sweep engine's task wrapper.
    """

    def faulty(window_length: int) -> object:
        apply_fault(schedule, f"factory:{window_length}", 1)
        return factory(window_length)

    return faulty
