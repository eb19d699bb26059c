"""Fault-tolerant sweep execution: retries, timeouts, degradation.

:class:`ResilientRunner` is the one scheduler every
:class:`~repro.runtime.engine.SweepEngine` sweep runs through; it makes
the sweep survive the failures that production-scale sweeps (atlas
runs, robustness replications) actually hit.  One crashed worker, one
wedged task, or one broken process pool no longer discards every
finished cell:

* **retry with backoff** — a task that raises a
  :class:`~repro.exceptions.TransientTaskError` is re-attempted under a
  configurable budget, with exponential backoff and *deterministic*
  jitter (seeded per task key, so two runs of the same sweep sleep the
  same amount);
* **wall-clock timeouts** — an attempt that outlives
  ``ResiliencePolicy.task_timeout`` is charged a
  :class:`~repro.exceptions.TaskTimeoutError` and retried.  On the
  process backend the hung worker is terminated (real cancellation);
  on the serial backend the attempt runs on a watchdog thread that is
  abandoned on overrun;
* **graceful degradation** — a broken process pool falls back to
  ``serial``, resubmitting every unfinished task, so a sweep completes
  (slower) instead of dying with the pool;
* **failure taxonomy** — only :class:`TransientTaskError` (and its
  timeout subclass) is retried; anything else is fatal and raises
  :class:`~repro.exceptions.SweepAbortedError` *after* the completed
  cells have been streamed to the checkpoint, so a resumed run picks
  up exactly where this one stopped.

The scheduler is deliberately small and deterministic: tasks are
submitted in input order, results are collected as they complete, and
every recovery decision (retry?  delay?  degrade?) is a pure function
of the policy and the failure observed — which is what lets
``tests/runtime/test_faults.py`` prove each path with the seeded
fault-injection harness of :mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import glob
import os
import random
import tempfile
import threading
import time
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import (
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.exceptions import (
    DetectorConfigurationError,
    SweepAbortedError,
    TaskTimeoutError,
    TransientTaskError,
)
from repro.runtime import telemetry

#: Backend degradation chain: who takes over when a pool breaks.
DEGRADATION_CHAIN: dict[str, str] = {"process": "serial"}


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff curve for transient task failures.

    Attempt ``n`` failing transiently schedules attempt ``n + 1`` after

    ``min(backoff * backoff_factor**(n - 1), max_backoff) * (1 + jitter * u)``

    where ``u`` is drawn uniformly from ``[0, 1)`` by a generator
    seeded with ``(seed, task key, n)`` — jittered, yet bit-for-bit
    reproducible across runs and worker processes.

    Args:
        retries: re-attempts allowed after the first try (0 disables
            retrying; a task then gets exactly one attempt).
        backoff: base delay in seconds before the first retry.
        backoff_factor: multiplier applied per further retry.
        max_backoff: ceiling on the un-jittered delay.
        jitter: jitter fraction added on top of the base delay.
        seed: jitter seed.
    """

    retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise DetectorConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff < 0 or self.max_backoff < 0:
            raise DetectorConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise DetectorConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise DetectorConfigurationError(
                f"jitter must be >= 0, got {self.jitter}"
            )

    def delay(self, key: str, failed_attempt: int) -> float:
        """Seconds to wait before retrying after ``failed_attempt``."""
        base = min(
            self.backoff * self.backoff_factor ** (failed_attempt - 1),
            self.max_backoff,
        )
        u = random.Random(f"retry|{self.seed}|{key}|{failed_attempt}").random()
        return base * (1.0 + self.jitter * u)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything the resilient scheduler needs to know.

    Args:
        retry: retry budget and backoff curve.
        task_timeout: per-attempt wall-clock budget in seconds
            (``None`` disables timeouts).
        degrade: whether a broken backend may fall down
            :data:`DEGRADATION_CHAIN` instead of aborting the sweep.
        fault_schedule: a :class:`~repro.runtime.faults.FaultSchedule`
            injected into every task body — the test harness hook;
            leave ``None`` in production.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    task_timeout: float | None = None
    degrade: bool = True
    fault_schedule: "object | None" = None

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise DetectorConfigurationError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )

    @classmethod
    def from_args(cls, args: object) -> "ResiliencePolicy | None":
        """The policy described by the shared ``--retries``/``--task-timeout`` flags.

        The one translation of the retry/backoff/timeout CLI surface,
        used by every sweep subcommand that exposes it (``maps``/
        ``atlas``/``select`` and the plan commands), so the flags mean
        the same thing everywhere instead of each command re-parsing
        them.  Only ``--task-timeout`` leaves the default retry budget.

        Args:
            args: any namespace-like object; ``retries`` and
                ``task_timeout`` attributes are read when present.

        Returns:
            ``None`` when neither flag was provided — the engine then
            applies the default policy.
        """
        retries = getattr(args, "retries", None)
        task_timeout = getattr(args, "task_timeout", None)
        if retries is None and task_timeout is None:
            return None
        retry = RetryPolicy() if retries is None else RetryPolicy(retries=retries)
        return cls(retry=retry, task_timeout=task_timeout)


@dataclass(frozen=True)
class SweepTask:
    """One resilient work unit: a (family, window length) block.

    Args:
        key: stable identity, ``"<family>:<window_length>"`` — the
            basis of deterministic jitter and fault schedules.
        name: detector family.
        window_length: the block's detector window.
        run: in-process attempt body (the serial backend, and the
            degradation target for process tasks); maps an attempt
            number to the block result.
        process_payload: ``(fn, args)`` with ``fn`` picklable and
            invoked as ``fn(*args, attempt)`` in a worker process;
            ``None`` for tasks that cannot run on the process backend.
        validate: raises :class:`TransientTaskError` when a result is
            corrupt (checked for every backend, on the parent side).
    """

    key: str
    name: str
    window_length: int
    run: Callable[[int], object]
    process_payload: tuple[Callable[..., object], tuple[object, ...]] | None = None
    validate: Callable[[object], None] | None = None


@dataclass(frozen=True)
class TaskReport:
    """Post-mortem of one task: attempts, failures, elapsed seconds."""

    key: str
    name: str
    window_length: int
    status: str  # "completed" | "resumed" | "failed" | "pending"
    attempts: int
    elapsed: float
    errors: tuple[str, ...] = ()

    @property
    def retried(self) -> bool:
        """Whether the task needed more than one attempt."""
        return self.attempts > 1


@dataclass(frozen=True)
class RunReport:
    """What a resilient sweep did, task by task.

    Attributes:
        requested_backend: the backend the sweep started on.
        final_backend: the executor that finished the sweep (differs
            from ``requested_backend`` only after degradation).
        degradations: human-readable ``"process->serial: ..."`` events.
        tasks: one :class:`TaskReport` per (family, window) block,
            including blocks skipped via ``resume_from``.
        cells_completed: grid cells computed by this run.
        cells_resumed: grid cells loaded from the resume checkpoint.
        elapsed: sweep wall-clock seconds.
        checkpoint_path: where completed cells were streamed (or None).
        fits_computed: (family, window) blocks fitted and scored by
            this run (resumed blocks excluded).
        telemetry: metrics snapshot (``Telemetry.snapshot()["metrics"]``)
            for the run when the engine carried a telemetry collector,
            ``None`` otherwise.
    """

    requested_backend: str
    final_backend: str
    degradations: tuple[str, ...]
    tasks: tuple[TaskReport, ...]
    cells_completed: int
    cells_resumed: int
    elapsed: float
    checkpoint_path: str | None = None
    fits_computed: int = 0
    telemetry: dict | None = None

    @property
    def completed(self) -> int:
        """Tasks that ran to completion in this run."""
        return sum(1 for task in self.tasks if task.status == "completed")

    @property
    def resumed(self) -> int:
        """Tasks skipped because the resume checkpoint covered them."""
        return sum(1 for task in self.tasks if task.status == "resumed")

    @property
    def failed(self) -> int:
        """Tasks that exhausted every recovery option."""
        return sum(1 for task in self.tasks if task.status == "failed")

    @property
    def total_retries(self) -> int:
        """Extra attempts spent across all tasks."""
        return sum(max(0, task.attempts - 1) for task in self.tasks)

    @property
    def resumed_fraction(self) -> float:
        """Fraction of grid cells served from the resume checkpoint."""
        total = self.cells_completed + self.cells_resumed
        return self.cells_resumed / total if total else 0.0

    def summary(self) -> str:
        """A one-line operator summary."""
        parts = [
            f"{self.completed} blocks completed",
            f"{self.resumed} resumed",
            f"{self.total_retries} retries",
        ]
        if self.degradations:
            parts.append(f"degraded {' then '.join(self.degradations)}")
        backend = (
            self.final_backend
            if self.final_backend == self.requested_backend
            else f"{self.requested_backend}->{self.final_backend}"
        )
        return (
            f"resilient sweep [{backend}]: "
            + ", ".join(parts)
            + f" in {self.elapsed:.2f}s"
        )


def handoff_prefix(pid: int) -> str:
    """Name prefix of the suite handoff files sweeping process ``pid`` writes.

    The files sit in the temp directory as ``repro-suite-<pid>-*`` (see
    :meth:`repro.runtime.engine.SweepEngine._write_handoff`); the pid
    is what lets a pool worker find its sweep's files.
    """
    return f"repro-suite-{pid}-"


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: exit once the sweeping process is gone.

    A SIGKILLed sweep runs no cleanup.  Its pool workers would live on
    as orphans, and the suite handoff file it wrote would stay in the
    temp directory, so the watch thread unlinks that file before the
    worker exits.

    Under the ``fork`` and ``spawn`` start methods the worker's parent
    is the sweeping process; under ``forkserver`` it is the fork
    server, which exits with the sweeping process.  Either way the
    worker's parent pid changes once the sweep is gone.  The signal-0
    probe covers a sweep that died before this initializer ran.
    """
    watched = os.getppid()

    def sweep_alive() -> bool:
        if os.getppid() != watched:
            return False
        try:
            os.kill(parent_pid, 0)
        except OSError:
            return False
        return True

    def watch() -> None:
        while sweep_alive():
            time.sleep(0.5)
        pattern = os.path.join(tempfile.gettempdir(), handoff_prefix(parent_pid))
        for path in glob.glob(pattern + "*"):
            try:
                os.unlink(path)
            except OSError:  # another worker got there first
                pass
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class _BackendBroken(Exception):
    """Internal: the current executor backend can no longer run tasks."""


class _TaskState:
    """Mutable per-task bookkeeping across attempts and backends."""

    __slots__ = ("task", "attempts", "errors", "started", "status", "elapsed")

    def __init__(self, task: SweepTask) -> None:
        self.task = task
        self.attempts = 0
        self.errors: list[str] = []
        self.started: float | None = None
        self.status: str | None = None
        self.elapsed = 0.0


class ResilientRunner:
    """Executes sweep tasks under a :class:`ResiliencePolicy`.

    One instance drives one sweep.  The runner owns scheduling,
    retries, timeouts and backend degradation; the engine owns task
    construction, result collection and checkpointing (via the
    ``on_result`` callback, invoked exactly once per completed task,
    in completion order).

    Args:
        policy: the resilience configuration.
        backend: initial executor backend (``"process"`` or
            ``"serial"``).
        max_workers: process pool width.
        clock: monotonic time source (injectable for tests).
        sleep: sleep function (injectable for tests).
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        backend: str,
        max_workers: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._policy = policy
        self._backend = backend
        self._max_workers = max_workers
        self._clock = clock
        self._sleep = sleep
        self._states: dict[str, _TaskState] = {}
        self._order: list[str] = []
        self._degradations: list[str] = []
        self._final_backend = backend

    @property
    def final_backend(self) -> str:
        """The backend that finished (or was running at abort)."""
        return self._final_backend

    @property
    def degradations(self) -> tuple[str, ...]:
        """Backend degradation events, oldest first."""
        return tuple(self._degradations)

    def task_reports(self) -> tuple[TaskReport, ...]:
        """Per-task reports in submission order (so far, on abort)."""
        reports = []
        for key in self._order:
            state = self._states[key]
            reports.append(
                TaskReport(
                    key=key,
                    name=state.task.name,
                    window_length=state.task.window_length,
                    status=state.status or "pending",
                    attempts=state.attempts,
                    elapsed=state.elapsed,
                    errors=tuple(state.errors),
                )
            )
        return tuple(reports)

    # -- top level --------------------------------------------------------

    def run(
        self,
        tasks: Iterable[SweepTask],
        on_result: Callable[[SweepTask, object], None],
    ) -> None:
        """Run every task to completion, degrading backends as needed.

        Raises:
            SweepAbortedError: when a task fails fatally, exhausts its
                retry budget, or the backend chain runs out.  Tasks
                completed before the abort have already been delivered
                through ``on_result``.
        """
        for task in tasks:
            self._states[task.key] = _TaskState(task)
            self._order.append(task.key)
        backend = self._backend
        while True:
            pending = [
                self._states[key]
                for key in self._order
                if self._states[key].status is None
            ]
            self._final_backend = backend
            if not pending:
                return
            try:
                if backend == "serial":
                    self._run_serial(pending, on_result)
                else:
                    self._run_processes(pending, on_result)
                return
            except _BackendBroken as broken:
                fallback = DEGRADATION_CHAIN.get(backend)
                if fallback is None or not self._policy.degrade:
                    raise SweepAbortedError(
                        f"sweep aborted: {broken} and no degradation "
                        f"fallback remains (degrade={self._policy.degrade})"
                    ) from broken
                self._degradations.append(f"{backend}->{fallback}: {broken}")
                backend = fallback

    # -- shared attempt bookkeeping ---------------------------------------

    def _finalize_success(
        self,
        state: _TaskState,
        attempt: int,
        result: object,
        on_result: Callable[[SweepTask, object], None],
    ) -> None:
        state.attempts = max(state.attempts, attempt)
        state.status = "completed"
        if state.started is not None:
            state.elapsed = self._clock() - state.started
        on_result(state.task, result)

    def _abort(
        self, state: _TaskState, attempt: int, error: BaseException, why: str
    ) -> None:
        state.attempts = max(state.attempts, attempt)
        state.status = "failed"
        if state.started is not None:
            state.elapsed = self._clock() - state.started
        raise SweepAbortedError(
            f"sweep aborted: block {state.task.key} {why} after "
            f"{state.attempts} attempt(s): {error}"
        ) from error

    def _retry_or_abort(
        self,
        state: _TaskState,
        attempt: int,
        error: BaseException,
        schedule: Callable[[_TaskState, int, float], None],
    ) -> None:
        """Charge a transient failure; schedule the next attempt or abort."""
        state.errors.append(f"attempt {attempt}: {error}")
        state.attempts = max(state.attempts, attempt)
        if isinstance(error, TaskTimeoutError):
            telemetry.count("task.timeouts")
        if attempt <= self._policy.retry.retries:
            delay = self._policy.retry.delay(state.task.key, attempt)
            telemetry.count("task.retries")
            telemetry.event(
                "retry",
                state.task.key,
                attempt=attempt,
                error=type(error).__name__,
                delay=delay,
            )
            schedule(state, attempt + 1, self._clock() + delay)
        else:
            self._abort(state, attempt, error, "exhausted its retry budget")

    # -- serial backend ----------------------------------------------------

    def _attempt_inline(self, task: SweepTask, attempt: int) -> object:
        """One in-process attempt, honoring the wall-clock timeout.

        With a timeout configured the attempt runs on a watchdog
        daemon thread; an overrun abandons the thread (it finishes in
        the background) and raises :class:`TaskTimeoutError`.
        """
        timeout = self._policy.task_timeout
        if timeout is None:
            return task.run(attempt)
        box: dict[str, object] = {}

        def target() -> None:
            try:
                box["result"] = task.run(attempt)
            except BaseException as error:  # re-raised in the caller
                box["error"] = error

        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout)
        if worker.is_alive():
            raise TaskTimeoutError(
                f"block {task.key} attempt {attempt} exceeded its "
                f"{timeout:.3g}s wall-clock budget"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["result"]

    def _run_serial(
        self,
        pending: list[_TaskState],
        on_result: Callable[[SweepTask, object], None],
    ) -> None:
        for state in pending:
            attempt = state.attempts + 1
            while True:
                if state.started is None:
                    state.started = self._clock()
                try:
                    result = self._attempt_inline(state.task, attempt)
                    if state.task.validate is not None:
                        state.task.validate(result)
                except TransientTaskError as error:
                    retry_at: list[float] = []
                    self._retry_or_abort(
                        state,
                        attempt,
                        error,
                        lambda _s, _a, at: retry_at.append(at),
                    )
                    self._sleep(max(0.0, retry_at[0] - self._clock()))
                    attempt += 1
                    continue
                except Exception as error:
                    self._abort(state, attempt, error, "failed fatally")
                self._finalize_success(state, attempt, result, on_result)
                break

    # -- process backend ---------------------------------------------------

    def _new_pool(self, pools: list[ProcessPoolExecutor]) -> ProcessPoolExecutor:
        pool = ProcessPoolExecutor(
            max_workers=self._max_workers,
            initializer=_exit_with_parent,
            initargs=(os.getpid(),),
        )
        pools.append(pool)
        return pool

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Kill a process pool's workers (real task cancellation)."""
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            process.terminate()

    def _submit(
        self, pool: ProcessPoolExecutor, state: _TaskState, attempt: int
    ) -> Future:
        if state.started is None:
            state.started = self._clock()
        fn, args = state.task.process_payload  # type: ignore[misc]
        try:
            return pool.submit(fn, *args, attempt)
        except (BrokenProcessPool, RuntimeError) as error:
            raise _BackendBroken(f"process pool rejected work: {error}") from error

    def _run_processes(
        self,
        pending: list[_TaskState],
        on_result: Callable[[SweepTask, object], None],
    ) -> None:
        timeout = self._policy.task_timeout
        ready: list[tuple[_TaskState, int, float]] = [
            (state, state.attempts + 1, 0.0) for state in pending
        ]
        inflight: dict[Future, tuple[_TaskState, int, float | None]] = {}
        pools: list[ProcessPoolExecutor] = []
        pool = self._new_pool(pools)
        finished = False

        def requeue(state: _TaskState, attempt: int, not_before: float) -> None:
            # Closes over the *variable* ready, so rebinds below are seen.
            ready.append((state, attempt, not_before))

        try:
            while ready or inflight:
                now = self._clock()
                due = [entry for entry in ready if entry[2] <= now]
                ready = [entry for entry in ready if entry[2] > now]
                for state, attempt, _not_before in due:
                    future = self._submit(pool, state, attempt)
                    deadline = now + timeout if timeout is not None else None
                    inflight[future] = (state, attempt, deadline)
                if not inflight:
                    wake = min(not_before for _s, _a, not_before in ready)
                    self._sleep(max(0.0, wake - self._clock()))
                    continue

                bounds = [
                    deadline - now
                    for _state, _attempt, deadline in inflight.values()
                    if deadline is not None
                ]
                bounds.extend(not_before - now for _s, _a, not_before in ready)
                wait_for = max(0.0, min(bounds)) if bounds else None
                done, _running = futures_wait(
                    set(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
                )
                for future in done:
                    state, attempt, _deadline = inflight.pop(future)
                    self._handle_future(future, state, attempt, requeue, on_result)

                if timeout is None:
                    continue
                now = self._clock()
                expired = [
                    future
                    for future, (_s, _a, deadline) in inflight.items()
                    if deadline is not None and deadline <= now
                ]
                for future in expired:
                    if future not in inflight:
                        continue  # resubmitted as a pool-restart victim
                    state, attempt, _deadline = inflight.pop(future)
                    future.cancel()
                    # Cancellation is real here: the hung worker is
                    # terminated.  Co-inflight tasks die with the pool,
                    # so resubmit them at the same attempt (they are
                    # victims, not failures).
                    victims = list(inflight.values())
                    inflight.clear()
                    self._terminate_pool(pool)
                    pool = self._new_pool(pools)
                    ready.extend(
                        (vstate, vattempt, 0.0)
                        for vstate, vattempt, _vdeadline in victims
                    )
                    error = TaskTimeoutError(
                        f"block {state.task.key} attempt {attempt} exceeded "
                        f"its {timeout:.3g}s wall-clock budget"
                    )
                    self._retry_or_abort(state, attempt, error, requeue)
            finished = True
        finally:
            for stale in pools:
                if stale is pool and finished:
                    # Every task is done: join the workers, so no pool
                    # thread is left for interpreter exit to tear down.
                    stale.shutdown(wait=True)
                else:
                    stale.shutdown(wait=False, cancel_futures=True)

    def _handle_future(
        self,
        future: Future,
        state: _TaskState,
        attempt: int,
        requeue: Callable[[_TaskState, int, float], None],
        on_result: Callable[[SweepTask, object], None],
    ) -> None:
        try:
            result = future.result()
            if state.task.validate is not None:
                state.task.validate(result)
        except BrokenProcessPool as error:
            # The whole pool is gone; every inflight task is a victim.
            # run() degrades the backend and resubmits the unfinished.
            raise _BackendBroken(f"process pool broke: {error}") from error
        except TransientTaskError as error:
            self._retry_or_abort(state, attempt, error, requeue)
        except Exception as error:
            self._abort(state, attempt, error, "failed fatally")
        else:
            self._finalize_success(state, attempt, result, on_result)
