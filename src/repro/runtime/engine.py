"""Concurrent sweep evaluation of detector families over the suite grid.

The performance maps of Figures 3-6 require fitting and scoring every
detector family at every (anomaly size x window length) cell.  The
serial path re-derives the same sliding windows for every family and
re-scores the same repetitive test windows at every cell;
:class:`SweepEngine` removes both redundancies and runs the remaining
work through one supervised scheduler:

* **work unit** — one (family, window length) block: a single fit on
  the training stream followed by one scoring pass per anomaly size
  (the fit is the expensive, shareable half of a grid column);
* **shared window cache** — every block reads each (stream, DW)
  window table through one :class:`~repro.runtime.cache.WindowCache`,
  so every family's fits and scores reuse a single derivation;
* **one score path** — with the cache attached, every detector's
  :meth:`~repro.detectors.base.AnomalyDetector.score_stream`
  deduplicates the test stream through the cache, scores each distinct
  window once with its family's batch kernel (see
  :mod:`repro.runtime.kernels`) and scatters the responses back.  The
  injected streams are highly repetitive, so this cuts the scoring
  work by an order of magnitude without changing a single response
  value;
* **one scheduler** — every sweep runs its blocks through
  :class:`~repro.runtime.resilience.ResilientRunner` (retries,
  timeouts, checkpoints), on one of two backends: ``serial`` inline
  execution, or a ``process`` pool when more than one worker is
  allowed and every family is a registered name.  A broken pool
  degrades to serial;
* **one-file handoff** — under the process backend the parent pickles
  the suite once into a temp file (``repro-suite-<pid>-*``) and every
  task payload carries only that file's path; each worker loads the
  suite on its first task and keeps it, with one worker-wide window
  cache, for the rest of the sweep.  The file is unlinked when the
  sweep ends, and by the workers' parent-watch thread if the sweeping
  process dies.

Every cell is computed by the same deterministic, side-effect-free
rule as the serial loop in
:func:`repro.evaluation.performance_map.build_performance_map`, and
cells are assembled into the map by grid position rather than
completion order — the resulting maps are bit-identical to the
sequential path regardless of worker count or backend
(``benchmarks/bench_sweep.py`` verifies this cell for cell).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.datagen.suite import EvaluationSuite
from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import create_detector
from repro.evaluation.performance_map import Cell, CellResult, PerformanceMap
from repro.evaluation.scoring import score_injected
from repro.exceptions import (
    EvaluationError,
    SweepAbortedError,
    TransientTaskError,
)
from repro.runtime.cache import CacheStats, WindowCache
from repro.runtime.faults import FaultSchedule, apply_fault, corrupt_block
from repro.runtime.resilience import (
    ResiliencePolicy,
    ResilientRunner,
    RunReport,
    SweepTask,
    TaskReport,
    handoff_prefix,
)
from repro.runtime import telemetry
from repro.runtime.telemetry import (
    Telemetry,
    TelemetryConfig,
    ensure_worker_profiler,
)

DetectorFactory = Callable[[int], AnomalyDetector]

#: Executor backends accepted by :class:`SweepEngine`.
EXECUTORS: tuple[str, ...] = ("process", "serial")


@dataclass(frozen=True)
class FitStats:
    """Fit accounting of one sweep.

    Attributes:
        computed: (family, window) blocks the sweep fitted and scored;
            blocks adopted from a ``resume_from`` checkpoint are not
            counted.
    """

    computed: int = 0


def evaluate_window_block(
    detector: AnomalyDetector,
    suite: EvaluationSuite,
    cache: WindowCache | None = None,
) -> list[CellResult]:
    """Fit one detector and score it on every anomaly size of the suite.

    One grid column of a performance map: the detector is fitted once
    on the training stream, then deployed on each injected stream.

    Args:
        detector: an unfitted detector instance.
        suite: the evaluation corpus.
        cache: shared window artifacts; attached to the detector for
            the duration of the block when given.

    Returns:
        One :class:`CellResult` per anomaly size, ascending.
    """
    if cache is not None:
        detector.attach_cache(cache)
    with telemetry.span(
        "fit", detector.name, window_length=detector.window_length
    ):
        fitted = detector.fit(suite.training.stream)
    window_length = fitted.window_length
    results = []
    for anomaly_size in suite.anomaly_sizes:
        injected = suite.stream(anomaly_size)
        with telemetry.span(
            "score",
            detector.name,
            anomaly_size=anomaly_size,
            window_length=window_length,
        ) as cell_span:
            outcome = score_injected(fitted, injected)
        telemetry.observe("cell.wall", cell_span.wall)
        telemetry.observe("cell.cpu", cell_span.cpu)
        results.append(
            CellResult(
                anomaly_size=anomaly_size,
                window_length=window_length,
                outcome=outcome,
            )
        )
    return results


#: The suite this worker loaded from a handoff file, with the one
#: window cache every task of the worker shares: ``(path, suite,
#: cache)``.  Tasks of one sweep name one path, so the suite is read
#: once per worker and its streams keep the identity the cache keys on.
#: Pool workers are single-threaded, so no lock is needed.
_WORKER_SUITE: tuple[str, EvaluationSuite, WindowCache] | None = None


def _load_handoff(path: str) -> tuple[EvaluationSuite, WindowCache]:
    """The suite behind a handoff ``path`` and the worker-wide cache."""
    global _WORKER_SUITE
    if _WORKER_SUITE is None or _WORKER_SUITE[0] != path:
        with telemetry.span("sweep", "handoff.load"):
            with open(path, "rb") as handle:
                suite = pickle.load(handle)
        _WORKER_SUITE = (path, suite, WindowCache())
    return _WORKER_SUITE[1], _WORKER_SUITE[2]


def _process_resilient_block(
    name: str,
    window_length: int,
    handoff: str,
    detector_kwargs: dict[str, object],
    schedule: FaultSchedule | None,
    telemetry_spec: TelemetryConfig | None,
    attempt: int,
) -> tuple[list[CellResult], CacheStats, dict | None]:
    """Process-pool entry point: one (family, window) block.

    The attempt number and the (test-only) fault schedule are threaded
    through, so injected faults fire deterministically inside the
    worker.  The suite comes from the sweep's ``handoff`` file (see
    :func:`_load_handoff`).  This task's counter *delta* against the
    worker-wide cache and the task's telemetry snapshot ride back with
    the results so the parent can fold them into the engine cache's
    statistics and the sweep's telemetry (see
    :meth:`WindowCache.merge_counts` and
    :meth:`~repro.runtime.telemetry.Telemetry.merge_snapshot`).
    """
    corrupt = apply_fault(schedule, f"{name}:{window_length}", attempt)
    task_telemetry = Telemetry.from_spec(telemetry_spec)
    if task_telemetry is not None and task_telemetry.profile_dir is not None:
        ensure_worker_profiler(task_telemetry.profile_dir)
    with telemetry.activated(task_telemetry):
        with telemetry.span("block", f"{name}:{window_length}"):
            suite, cache = _load_handoff(handoff)
            before = cache.stats
            detector = create_detector(
                name, window_length, suite.training.alphabet.size, **detector_kwargs
            )
            cells = evaluate_window_block(detector, suite, cache=cache)
        after = cache.stats
        stats = CacheStats(
            hits=after.hits - before.hits, misses=after.misses - before.misses
        )
    snapshot = (
        task_telemetry.snapshot() if task_telemetry is not None else None
    )
    if corrupt:
        cells = corrupt_block(cells)
    return cells, stats, snapshot


class SweepEngine:
    """Evaluates detector families over the suite grid concurrently.

    Args:
        max_workers: concurrent (family, window) blocks; defaults to
            the CPU count.
        executor: an explicit backend override, ``"process"`` or
            ``"serial"``.  ``None`` (the default) picks per sweep:
            ``serial`` at one worker, ``process`` above that when every
            family is a registered name, and ``serial`` for factory
            specs (they cannot be pickled into a worker).  An explicit
            ``"process"`` rejects factory specs.
        window_cache: a pre-populated cache to share; a fresh one is
            created when omitted.
        resilience: the :class:`~repro.runtime.resilience.ResiliencePolicy`
            (retries with backoff, per-task timeouts, backend
            degradation) every sweep runs under; ``None`` applies the
            default policy.
        telemetry: a :class:`~repro.runtime.telemetry.Telemetry`
            collector activated for the duration of every sweep: spans
            and metrics from every instrumented component (this engine,
            the window cache, the counting chain, the resilient
            scheduler, the batch kernels) accumulate on it,
            including snapshots merged back from process workers.
            ``None`` (the default) keeps every instrumentation site on
            its single-branch disabled path.

    Raises:
        EvaluationError: for unknown executors or worker counts < 1.
        Both are raised here, at construction — before any stream is
        packed into the window cache — so a misconfigured sweep fails
        without wasting a single derivation.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        executor: str | None = None,
        window_cache: WindowCache | None = None,
        resilience: ResiliencePolicy | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if executor is not None and executor not in EXECUTORS:
            raise EvaluationError(
                f"unknown executor {executor!r}; available: {', '.join(EXECUTORS)}"
            )
        if max_workers is not None and max_workers < 1:
            raise EvaluationError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers or os.cpu_count() or 1
        self._executor = executor
        self._cache = window_cache if window_cache is not None else WindowCache()
        self._resilience = resilience
        self._fits_computed = 0
        self._last_fit_stats = FitStats()
        # The suite the cache holds streams of; released when a sweep
        # moves on to another suite.
        self._held_suite: EvaluationSuite | None = None
        self._telemetry = telemetry

    @property
    def max_workers(self) -> int:
        """Concurrent block budget."""
        return self._max_workers

    @property
    def executor(self) -> str:
        """The backend a sweep of registered names runs on."""
        if self._executor is not None:
            return self._executor
        return "serial" if self._max_workers == 1 else "process"

    @property
    def window_cache(self) -> WindowCache:
        """The cache shared by the blocks that run in this process."""
        return self._cache

    @property
    def resilience(self) -> ResiliencePolicy | None:
        """The configured resilience policy (``None`` = the default)."""
        return self._resilience

    @property
    def last_fit_stats(self) -> FitStats:
        """Fit accounting of the most recent sweep on this engine."""
        return self._last_fit_stats

    @property
    def telemetry(self) -> Telemetry | None:
        """The attached telemetry collector (``None`` = disabled)."""
        return self._telemetry

    def attach_telemetry(self, collector: Telemetry | None) -> None:
        """Attach (or detach, with ``None``) a telemetry collector."""
        self._telemetry = collector

    @contextmanager
    def _instrumented(self, backend: str) -> Iterator[None]:
        """Activate the engine's telemetry around one sweep.

        Opens the root ``sweep`` span, and on the way out — success or
        abort — emits the end-of-sweep summary counters derived from
        the engine's authoritative sources (its computed-block count
        and the engine cache's stats delta), which
        :func:`~repro.runtime.telemetry.check_trace_counters`
        cross-checks against the event counters the components emitted
        along the way.  Pass-through when no telemetry is attached.
        """
        collector = self._telemetry
        if collector is None:
            yield
            return
        cache_before = self._cache.stats
        try:
            with telemetry.activated(collector), collector.tracer.span(
                "sweep",
                "sweep",
                executor=backend,
                max_workers=self._max_workers,
            ):
                try:
                    yield
                finally:
                    self._sweep_summary(collector, cache_before)
        finally:
            collector.dump_profiles()

    def _sweep_summary(
        self, collector: Telemetry, cache_before: CacheStats
    ) -> None:
        """Emit one sweep's summary counters onto ``collector``.

        Summaries are *counted* (not overwritten) so several sweeps on
        one engine accumulate consistently with the per-event counters
        they mirror.
        """
        cache_after = self._cache.stats
        metrics = collector.metrics
        metrics.count("fits.computed", self._fits_computed)
        metrics.count("cache.hits", cache_after.hits - cache_before.hits)
        metrics.count("cache.misses", cache_after.misses - cache_before.misses)
        metrics.count("sweep.count", 1)

    def _resolve(
        self,
        detectors: Iterable[str | DetectorFactory],
        suite: EvaluationSuite,
        detector_kwargs: dict[str, object],
    ) -> list[tuple[str, str | None, DetectorFactory]]:
        """Normalize detector specs to (name, registry name, factory).

        Every spec-level validation error — including an explicit
        process backend's registered-names-only restriction — is
        raised here, before any factory is invoked or any stream is
        packed into the window cache: a misconfigured sweep must fail
        fast, not after wasted derivations.
        """
        specs = list(detectors)
        if self._executor == "process":
            unregistered = sum(1 for spec in specs if not isinstance(spec, str))
            if unregistered:
                raise EvaluationError(
                    "the process executor requires registered detector names; "
                    f"got {unregistered} factory spec(s)"
                )
        alphabet_size = suite.training.alphabet.size
        resolved: list[tuple[str, str | None, DetectorFactory]] = []
        for spec in specs:
            if isinstance(spec, str):

                def factory(
                    window_length: int, _name: str = spec
                ) -> AnomalyDetector:
                    return create_detector(
                        _name, window_length, alphabet_size, **detector_kwargs
                    )

                resolved.append((spec, spec, factory))
            else:
                name = spec(min(suite.window_lengths)).name
                resolved.append((name, None, spec))
        if not resolved:
            raise EvaluationError("at least one detector is required")
        names = [name for name, _registry, _factory in resolved]
        if len(set(names)) != len(names):
            raise EvaluationError(
                f"duplicate detector families in sweep: {', '.join(names)}"
            )
        return resolved

    def _backend(
        self, resolved: list[tuple[str, str | None, DetectorFactory]]
    ) -> str:
        """The backend one sweep runs on (see the ``executor`` argument)."""
        if self._executor is not None:
            return self._executor
        if self._max_workers > 1 and all(
            registry is not None for _name, registry, _factory in resolved
        ):
            return "process"
        return "serial"

    def sweep(
        self,
        detectors: Iterable[str | DetectorFactory],
        suite: EvaluationSuite,
        checkpoint: str | Path | None = None,
        resume_from: str | Path | None = None,
        **detector_kwargs: object,
    ) -> dict[str, PerformanceMap]:
        """Evaluate several families over the full grid concurrently.

        Args:
            detectors: registered names and/or window-length factories.
            suite: the evaluation corpus.
            checkpoint: JSONL file to stream completed cells to (see
                :func:`repro.io.checkpoint_append`).
            resume_from: a checkpoint file whose completed cells are
                loaded instead of recomputed.  The resumed maps are
                bit-identical to an uninterrupted run.
            **detector_kwargs: forwarded to the registry for name
                specs (ignored for factories).

        Returns:
            One full-grid map per family, keyed by name, in input
            order; bit-identical to the serial
            :func:`~repro.evaluation.performance_map.build_performance_map`
            output.

        Raises:
            SweepAbortedError: see :meth:`sweep_with_report`.
        """
        maps, _report = self.sweep_with_report(
            detectors,
            suite,
            checkpoint=checkpoint,
            resume_from=resume_from,
            **detector_kwargs,
        )
        return maps

    def sweep_with_report(
        self,
        detectors: Iterable[str | DetectorFactory],
        suite: EvaluationSuite,
        checkpoint: str | Path | None = None,
        resume_from: str | Path | None = None,
        **detector_kwargs: object,
    ) -> tuple[dict[str, PerformanceMap], RunReport]:
        """:meth:`sweep` plus its per-task :class:`RunReport`.

        Runs through the fault-tolerant scheduler under the engine's
        :class:`ResiliencePolicy` (the default one when none was
        configured), streaming completed cells to ``checkpoint`` and
        skipping cells already present in ``resume_from``.

        Raises:
            SweepAbortedError: when a task fails fatally or exhausts
                its retry budget; the partial report rides on the
                exception and the checkpoint keeps every finished cell.
        """
        from repro.io import checkpoint_append

        detector_kwargs = dict(detector_kwargs)
        resolved = self._resolve(detectors, suite, detector_kwargs)
        policy = self._resilience if self._resilience is not None else ResiliencePolicy()
        schedule = policy.fault_schedule
        if schedule is not None and not isinstance(schedule, FaultSchedule):
            raise EvaluationError(
                f"fault_schedule must be a FaultSchedule, got {type(schedule).__name__}"
            )
        names = [name for name, _registry, _factory in resolved]
        self._fits_computed = 0
        cells: dict[str, dict[Cell, CellResult]] = {name: {} for name in names}
        skip: set[tuple[str, int]] = set()
        resumed_reports: list[TaskReport] = []
        cells_resumed = 0
        if resume_from is not None:
            skip, resumed_reports, cells_resumed = self._load_resume(
                resume_from, names, suite, cells
            )
        backend = self._backend(resolved)
        if self._held_suite is not None and self._held_suite is not suite:
            self._release_suite(self._held_suite)
        self._held_suite = suite
        aborted: SweepAbortedError | None = None
        with self._instrumented(backend):
            handoff = self._write_handoff(suite) if backend == "process" else None
            tasks = self._block_tasks(
                resolved, suite, detector_kwargs, skip, schedule, handoff
            )

            def on_result(task: SweepTask, result: object) -> None:
                results, stats, snapshot = result  # type: ignore[misc]
                self._fits_computed += 1
                if stats is not None:
                    self._cache.merge_counts(stats.hits, stats.misses)
                if snapshot is not None and self._telemetry is not None:
                    self._telemetry.merge_snapshot(snapshot)
                self._collect(cells, task.name, results)
                if checkpoint is not None:
                    checkpoint_append(checkpoint, task.name, results)

            runner = ResilientRunner(
                policy, backend=backend, max_workers=self._max_workers
            )
            started = time.perf_counter()
            try:
                runner.run(tasks, on_result)
            except SweepAbortedError as error:
                aborted = error
            finally:
                elapsed = time.perf_counter() - started
                # Unlink the handoff whether the sweep finished, aborted,
                # or was killed by a worker timeout: the file must never
                # outlive the sweep that wrote it.
                if handoff is not None:
                    Path(handoff).unlink(missing_ok=True)
        # The report (and its telemetry snapshot) is built after the
        # instrumentation context closes so the end-of-sweep summary
        # counters are part of it.
        report = self._run_report(
            runner,
            backend,
            resumed_reports,
            cells,
            cells_resumed,
            elapsed,
            checkpoint,
        )
        if aborted is not None:
            raise SweepAbortedError(str(aborted), report) from aborted.__cause__
        maps = {
            name: PerformanceMap(detector_name=name, cells=cells[name])
            for name in names
        }
        return maps, report

    # -- process handoff ----------------------------------------------------

    @staticmethod
    def _write_handoff(suite: EvaluationSuite) -> str:
        """Pickle ``suite`` once into a temp file; returns its path.

        Process tasks carry this path instead of the suite, and each
        worker loads the file once (:func:`_load_handoff`).  The name
        carries the sweeping process's pid, which is how a worker's
        parent-watch thread finds the file to unlink when that process
        dies without cleaning up.
        """
        with telemetry.span("sweep", "handoff.write"):
            descriptor, path = tempfile.mkstemp(
                prefix=handoff_prefix(os.getpid()), suffix=".pkl"
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    pickle.dump(suite, handle, protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException:
                Path(path).unlink(missing_ok=True)
                raise
        return path

    def _release_suite(self, suite: EvaluationSuite) -> None:
        """Release ``suite``'s streams from the engine cache.

        The cache keys streams by identity and pins a reference to each
        (:meth:`WindowCache.release_stream`), so a long-lived engine
        sweeping many suites would otherwise retain every suite it has
        ever seen.  The engine keeps the last suite warm (successive
        per-family sweeps of one suite share its windows) and releases
        it when a sweep of another suite starts.
        """
        if suite is self._held_suite:
            self._held_suite = None
        self._cache.release_stream(suite.training.stream)
        for anomaly_size in suite.anomaly_sizes:
            self._cache.release_stream(suite.stream(anomaly_size).stream)

    # -- blocks -----------------------------------------------------------------

    def _run_block(
        self,
        factory: DetectorFactory,
        window_length: int,
        suite: EvaluationSuite,
        name: str,
    ) -> list[CellResult]:
        with telemetry.span(
            "block", f"{name}:{window_length}"
        ), telemetry.profiled():
            return evaluate_window_block(
                factory(window_length), suite, cache=self._cache
            )

    @staticmethod
    def _collect(
        cells: dict[str, dict[Cell, CellResult]],
        name: str,
        results: list[CellResult],
    ) -> None:
        for result in results:
            cells[name][(result.anomaly_size, result.window_length)] = result
    # -- resilient execution ----------------------------------------------

    def _block_tasks(
        self,
        resolved: list[tuple[str, str | None, DetectorFactory]],
        suite: EvaluationSuite,
        detector_kwargs: dict[str, object],
        skip: set[tuple[str, int]],
        schedule: FaultSchedule | None,
        handoff: str | None,
    ) -> list[SweepTask]:
        """One :class:`SweepTask` per (family, window) block not in ``skip``.

        Under the process backend each task's process payload names the
        ``handoff`` file holding the pickled suite; without one (serial
        sweeps) tasks carry no process payload.  The in-process ``run``
        closure always uses the real ``suite``, so a backend degradation
        to serial never reads the file.
        """
        expected = len(suite.anomaly_sizes)
        tasks = []
        for name, registry_name, factory in resolved:
            for window_length in suite.window_lengths:
                if (name, window_length) in skip:
                    continue
                key = f"{name}:{window_length}"

                def run(
                    attempt: int,
                    _factory: DetectorFactory = factory,
                    _window_length: int = window_length,
                    _name: str = name,
                    _key: str = key,
                ) -> tuple[list[CellResult], None, None]:
                    corrupt = apply_fault(schedule, _key, attempt)
                    results = self._run_block(
                        _factory, _window_length, suite, _name
                    )
                    if corrupt:
                        results = corrupt_block(results)
                    return results, None, None

                def validate(
                    result: object,
                    _window_length: int = window_length,
                    _key: str = key,
                ) -> None:
                    results = result[0]  # type: ignore[index]
                    if len(results) != expected or any(
                        cell.window_length != _window_length for cell in results
                    ):
                        raise TransientTaskError(
                            f"block {_key} returned a corrupt result "
                            f"({len(results)}/{expected} cells)"
                        )

                payload = None
                if registry_name is not None and handoff is not None:
                    payload = (
                        _process_resilient_block,
                        (
                            registry_name,
                            window_length,
                            handoff,
                            detector_kwargs,
                            schedule,
                            self._telemetry.spec()
                            if self._telemetry is not None
                            else None,
                        ),
                    )
                tasks.append(
                    SweepTask(
                        key=key,
                        name=name,
                        window_length=window_length,
                        run=run,
                        process_payload=payload,
                        validate=validate,
                    )
                )
        return tasks

    def _load_resume(
        self,
        resume_from: str | Path,
        names: list[str],
        suite: EvaluationSuite,
        cells: dict[str, dict[Cell, CellResult]],
    ) -> tuple[set[tuple[str, int]], list[TaskReport], int]:
        """Adopt checkpointed cells; report which blocks can be skipped.

        Only cells inside the suite grid are adopted, and a block is
        skipped only when *every* anomaly size of its (family, window)
        column is present — a partially checkpointed block is re-run
        in full (its recomputed cells are bit-identical, so duplicate
        checkpoint lines are harmless last-write-wins records).

        Loads are lenient: a kill can truncate the checkpoint's final
        line mid-write, and that line's block is simply recomputed.
        """
        from repro.io import checkpoint_load

        loaded = checkpoint_load(resume_from, strict=False)
        sizes = set(suite.anomaly_sizes)
        windows = set(suite.window_lengths)
        skip: set[tuple[str, int]] = set()
        resumed_reports = []
        cells_resumed = 0
        for name in names:
            for (anomaly_size, window_length), result in loaded.get(
                name, {}
            ).items():
                if anomaly_size in sizes and window_length in windows:
                    cells[name][(anomaly_size, window_length)] = result
            for window_length in suite.window_lengths:
                if all(
                    (anomaly_size, window_length) in cells[name]
                    for anomaly_size in suite.anomaly_sizes
                ):
                    skip.add((name, window_length))
                    cells_resumed += len(suite.anomaly_sizes)
                    resumed_reports.append(
                        TaskReport(
                            key=f"{name}:{window_length}",
                            name=name,
                            window_length=window_length,
                            status="resumed",
                            attempts=0,
                            elapsed=0.0,
                        )
                    )
        # Drop adopted cells of partially covered blocks: those blocks
        # re-run in full, and the map assembly must not mix sources.
        for name in names:
            cells[name] = {
                cell: result
                for cell, result in cells[name].items()
                if (name, cell[1]) in skip
            }
        return skip, resumed_reports, cells_resumed

    def _run_report(
        self,
        runner: ResilientRunner,
        backend: str,
        resumed_reports: list[TaskReport],
        cells: dict[str, dict[Cell, CellResult]],
        cells_resumed: int,
        elapsed: float,
        checkpoint: str | Path | None,
    ) -> RunReport:
        computed = sum(len(family) for family in cells.values()) - cells_resumed
        self._last_fit_stats = FitStats(computed=self._fits_computed)
        return RunReport(
            requested_backend=backend,
            final_backend=runner.final_backend,
            degradations=runner.degradations,
            tasks=tuple(resumed_reports) + runner.task_reports(),
            cells_completed=max(0, computed),
            cells_resumed=cells_resumed,
            elapsed=elapsed,
            checkpoint_path=str(checkpoint) if checkpoint is not None else None,
            fits_computed=self._fits_computed,
            telemetry=(
                self._telemetry.snapshot()["metrics"]
                if self._telemetry is not None
                else None
            ),
        )
