"""Sweep engine, batch kernels and fit phase: assert-only experiment benches.

Not a paper figure — the engineering benches behind the
:mod:`repro.runtime` subsystem.  Every floor compares two paths inside
one run, so none needs a recorded baseline:

* the engine sweep beats the reference serial loop of
  :func:`build_performance_map` by at least 2x, cell for cell identical;
* the vectorized batch kernels beat the per-row scalar loop by at least
  3x, window for window identical;
* fits through the shared counting chain beat cold per-cell fits;
* arming retries and timeouts, and the disabled telemetry hooks, each
  cost at most 5% of a sweep.

Each test writes a text summary to ``benchmarks/output/``.  The repo's
performance gate is perfbench (``perfbench/run.py``), not these benches.
"""

from __future__ import annotations

import time

import numpy as np
from _artifacts import write_artifact

from repro.detectors.registry import create_detector
from repro.evaluation.performance_map import build_performance_map
from repro.runtime import (
    ResiliencePolicy,
    RetryPolicy,
    SweepEngine,
    WindowCache,
)
from repro.sequences.windows import windows_array

FAMILIES = ("stide", "t-stide", "markov", "lane-brodley")
MAX_WORKERS = 4
MIN_SPEEDUP = 2.0
MIN_KERNEL_SPEEDUP = 3.0  # batch kernels vs the per-row scalar loop
KERNEL_WINDOW = 6
MAX_RESILIENCE_OVERHEAD = 0.05  # fraction of the default-policy wall clock
MAX_TELEMETRY_OVERHEAD = 0.05  # disabled-path cost of the instrumentation
OVERHEAD_REPS = 3
REP_SECONDS = 1.0  # sweeping time per side in one timed unit
# Fit-phase floor: the shared counting chain amortizes one refinement
# per order over every (family, DW) fit.
# --quick corpora are sort-cheap, so the floor relaxes there.
MIN_INDEX_FIT_SPEEDUP = 5.0
MIN_INDEX_FIT_SPEEDUP_QUICK = 2.5
FIT_WINDOWS = tuple(range(2, 16))
PROBE_WINDOWS = 512


def _identical(serial_maps, engine_maps, suite) -> int:
    """Number of differing grid cells across all families (want 0)."""
    return sum(
        serial_maps[name].cell(anomaly_size, window_length)
        != engine_maps[name].cell(anomaly_size, window_length)
        for name in FAMILIES
        for anomaly_size in suite.anomaly_sizes
        for window_length in suite.window_lengths
    )


def _best_sweep_seconds(suite, *factories) -> list[float]:
    """Best-of-``OVERHEAD_REPS`` wall clock of each ``factory().sweep``.

    One untimed sweep runs first, so no timed sweep pays the first
    process pool's start-up, and a second sizes the timed unit: each
    rep times enough sweeps per factory (a fresh engine each) to last
    about ``REP_SECONDS``, so a short burst of host load moves a rep
    less.
    The factories take turns sweep by sweep, so load on the host slows
    every side alike.  Returns seconds per sweep.
    """
    factories[0]().sweep(FAMILIES, suite)
    start = time.perf_counter()
    factories[0]().sweep(FAMILIES, suite)
    sweeps = max(1, round(REP_SECONDS / (time.perf_counter() - start)))
    best = [float("inf")] * len(factories)
    for _ in range(OVERHEAD_REPS):
        elapsed = [0.0] * len(factories)
        for _ in range(sweeps):
            for index, factory in enumerate(factories):
                engine = factory()
                start = time.perf_counter()
                engine.sweep(FAMILIES, suite)
                elapsed[index] += time.perf_counter() - start
        best = [min(b, e / sweeps) for b, e in zip(best, elapsed)]
    return best


def test_sweep_engine_speedup(suite):
    start = time.perf_counter()
    serial_maps = {
        name: build_performance_map(name, suite) for name in FAMILIES
    }
    sequential_seconds = time.perf_counter() - start

    engine = SweepEngine(max_workers=MAX_WORKERS)
    start = time.perf_counter()
    engine_maps = engine.sweep(FAMILIES, suite)
    parallel_seconds = time.perf_counter() - start

    mismatched_cells = _identical(serial_maps, engine_maps, suite)
    speedup = sequential_seconds / parallel_seconds
    stats = engine.window_cache.stats
    cells = suite.case_count() * len(FAMILIES)

    write_artifact(
        "sweep_engine",
        "\n".join(
            [
                f"Sweep engine ({cells} cells, {len(FAMILIES)} families, "
                f"max_workers={MAX_WORKERS}):",
                f"  sequential  {sequential_seconds:>8.2f} s",
                f"  engine      {parallel_seconds:>8.2f} s",
                f"  speedup     {speedup:>8.2f} x",
                f"  cache       {stats.hits} hits / {stats.misses} misses "
                f"({stats.hit_rate:.0%})",
                f"  mismatches  {mismatched_cells}",
            ]
        ),
    )

    assert mismatched_cells == 0, "engine maps must match the serial path"
    assert speedup >= MIN_SPEEDUP, (
        f"sweep engine speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor"
    )


def test_batch_kernel_speedup(suite):
    """Batch kernels vs the per-row scalar loop, family by family.

    The scoring-dominated regime of the sweep: every distinct test
    window of the suite at one mid-grid ``DW``, scored once.  The
    vectorized :meth:`~repro.detectors.base.AnomalyDetector.score_windows`
    kernels must (a) return exactly the responses of the per-row
    scalar loop (one :meth:`score_window` per row, each a one-window
    stream) and (b) beat it by at least ``MIN_KERNEL_SPEEDUP`` on
    every family.
    """
    alphabet_size = suite.training.alphabet.size
    rows = np.unique(
        np.concatenate(
            [
                windows_array(suite.stream(size).stream, KERNEL_WINDOW)
                for size in suite.anomaly_sizes
            ]
        ),
        axis=0,
    )

    speedups, mismatched_windows = {}, 0
    for name in FAMILIES:
        detector = create_detector(name, KERNEL_WINDOW, alphabet_size)
        detector.fit(suite.training.stream)

        batch_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            batched = detector.score_windows(rows)
            batch_seconds = min(batch_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        scalar = np.array([detector.score_window(row) for row in rows])
        scalar_seconds = time.perf_counter() - start

        mismatched_windows += int((batched != scalar).sum())
        speedups[name] = scalar_seconds / batch_seconds

    lines = [
        f"Batch kernels (DW={KERNEL_WINDOW}, {len(rows):,} distinct windows):"
    ]
    lines.extend(
        f"  {name:<14} {value:>8.1f}x vs per-row scalar loop"
        for name, value in sorted(speedups.items())
    )
    lines.append(f"  mismatches  {mismatched_windows} windows")
    write_artifact("batch_kernels", "\n".join(lines))

    assert mismatched_windows == 0, (
        "batch kernels must reproduce the scalar responses exactly"
    )
    worst = min(speedups, key=speedups.get)
    assert speedups[worst] >= MIN_KERNEL_SPEEDUP, (
        f"{worst} batch kernel speedup {speedups[worst]:.2f}x below the "
        f"{MIN_KERNEL_SPEEDUP}x floor"
    )


def test_resilience_overhead(suite):
    """Arming per-task timeouts must cost <= 5% on a fault-free sweep.

    Both engines run the identical clean workload (default backend,
    same worker count, fresh caches) through the
    :class:`~repro.runtime.resilience.ResilientRunner`; the only
    difference is whether they run under the default policy or one
    with retries and a wall-clock timeout armed (never fired).
    Best-of-``OVERHEAD_REPS`` timings of about one second of sweeps
    per side, taken in turns after one untimed sweep, keep scheduler
    noise and pool start-up out of the ratio.
    """
    # "plain" runs the default policy: no timeout armed.
    plain_seconds, resilient_seconds = _best_sweep_seconds(
        suite,
        lambda: SweepEngine(max_workers=MAX_WORKERS),
        lambda: SweepEngine(
            max_workers=MAX_WORKERS,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(retries=2), task_timeout=300.0
            ),
        ),
    )
    overhead = resilient_seconds / plain_seconds - 1.0

    write_artifact(
        "sweep_resilience_overhead",
        "\n".join(
            [
                "Resilience overhead (fault-free sweep, "
                f"best of {OVERHEAD_REPS}):",
                f"  plain       {plain_seconds:>8.2f} s",
                f"  resilient   {resilient_seconds:>8.2f} s",
                f"  overhead    {overhead:>8.2%}",
            ]
        ),
    )

    assert overhead <= MAX_RESILIENCE_OVERHEAD, (
        f"resilience overhead {overhead:.2%} exceeds the "
        f"{MAX_RESILIENCE_OVERHEAD:.0%} budget"
    )


def test_telemetry_overhead(suite):
    """The disabled instrumentation must cost <= 5% of a sweep.

    Every instrumentation site stays in the hot path even when no
    telemetry is attached; the disabled path of each hook is a single
    module-global read plus a ``None`` check.  The guarantee asserted
    here: (number of hook invocations a sweep makes) x (measured cost
    of one disabled hook) must stay within the 5% budget of the
    sweep's own wall clock.  The invocation count comes from an
    instrumented sweep of the identical workload (every span and every
    counter/histogram update is one disabled-path call when telemetry
    is off); comparing in-process like this keeps machine speed out of
    the ratio.  Absolute regressions across commits are perfbench's job.
    """
    from repro.runtime import Telemetry
    from repro.runtime import telemetry as hooks

    (sweep_seconds,) = _best_sweep_seconds(
        suite, lambda: SweepEngine(max_workers=MAX_WORKERS)
    )

    collector = Telemetry()
    SweepEngine(max_workers=MAX_WORKERS, telemetry=collector).sweep(
        FAMILIES, suite
    )
    span_calls = len(collector.tracer)
    # One count()/observe() invocation is one disabled-path call, no
    # matter the value it credits — the kernel counters bulk-credit
    # whole window batches, so summing counter values would overstate
    # the call count by orders of magnitude.
    metric_calls = collector.metrics.updates

    assert hooks.active() is None  # measuring the true disabled path
    reps = 100_000
    start = time.perf_counter()
    for _ in range(reps):
        with hooks.span("cache", "bench"):
            pass
    span_cost = (time.perf_counter() - start) / reps
    start = time.perf_counter()
    for _ in range(reps):
        hooks.count("bench.noop")
    count_cost = (time.perf_counter() - start) / reps

    disabled_seconds = span_calls * span_cost + metric_calls * count_cost
    overhead = disabled_seconds / sweep_seconds

    write_artifact(
        "sweep_telemetry_overhead",
        "\n".join(
            [
                "Disabled-telemetry overhead "
                f"(best of {OVERHEAD_REPS} sweeps):",
                f"  sweep            {sweep_seconds:>10.3f} s",
                f"  hook sites hit   {span_calls + int(metric_calls):>10,}",
                f"  span hook        {span_cost * 1e9:>10.1f} ns",
                f"  counter hook     {count_cost * 1e9:>10.1f} ns",
                f"  disabled cost    {disabled_seconds:>10.4f} s",
                f"  overhead         {overhead:>10.3%}",
            ]
        ),
    )

    assert overhead <= MAX_TELEMETRY_OVERHEAD, (
        f"disabled-telemetry overhead {overhead:.2%} exceeds the "
        f"{MAX_TELEMETRY_OVERHEAD:.0%} budget"
    )


def test_fit_phase(suite, quick):
    """The fit phase: cold per-cell fits vs the counting chain.

    Two passes over every (family, DW) fit of the sweep grid:

    * **cold** — the direct per-cell reference: no cache;
      every fit re-slides, re-packs and re-sorts the training stream
      from scratch, exactly as a standalone ``fit`` call would;
    * **index** — one shared :class:`WindowCache`: its one
      :class:`~repro.sequences.ngram_store.NgramStore` per stream
      counts every DW's windows by refining the DW-1 order, and all
      families fold the same packed tables (one counting chain for
      the whole grid instead of one sort per cell).

    Equivalence is asserted the way it matters: the index pass's fitted
    detectors must score an identical probe batch bit-identically to
    the cold reference (0 mismatches).  Floor: index >= 5x cold at
    benchmark scale (2.5x under ``--quick``, where the corpus is too
    small for sorts to dominate).
    """
    alphabet_size = suite.training.alphabet.size
    stream = suite.training.stream
    probes = {
        window_length: np.ascontiguousarray(
            windows_array(stream, window_length)[:PROBE_WINDOWS]
        )
        for window_length in FIT_WINDOWS
    }

    def fit_all(cache=None):
        """Fit every (family, DW) cell; returns probe scores + seconds."""
        scores = {}
        start = time.perf_counter()
        for name in FAMILIES:
            for window_length in FIT_WINDOWS:
                detector = create_detector(name, window_length, alphabet_size)
                if cache is not None:
                    detector.attach_cache(cache)
                detector.fit(stream)
                scores[(name, window_length)] = detector.score_windows(
                    probes[window_length]
                )
        return scores, time.perf_counter() - start

    cold_scores, cold_seconds = fit_all()
    index_scores, index_seconds = fit_all(cache=WindowCache())
    fits = len(FAMILIES) * len(FIT_WINDOWS)

    mismatched = sum(
        not np.array_equal(cold_scores[key], index_scores[key])
        for key in cold_scores
    )
    index_speedup = cold_seconds / index_seconds
    index_floor = MIN_INDEX_FIT_SPEEDUP_QUICK if quick else MIN_INDEX_FIT_SPEEDUP

    write_artifact(
        "fit_phase",
        "\n".join(
            [
                f"Fit phase ({fits} fits: {len(FAMILIES)} families x "
                f"DW {FIT_WINDOWS[0]}..{FIT_WINDOWS[-1]}):",
                f"  cold        {cold_seconds:>8.2f} s (per-cell reference)",
                f"  index       {index_seconds:>8.2f} s "
                f"({index_speedup:.1f}x)",
                f"  mismatches  {mismatched}",
            ]
        ),
    )

    assert mismatched == 0, "index-backed fits must score bit-identically to cold"
    assert index_speedup >= index_floor, (
        f"shared-index fit speedup {index_speedup:.2f}x below the "
        f"{index_floor}x floor"
    )
