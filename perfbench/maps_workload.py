"""``maps``: the paper's four performance maps, swept serially, in a loop.

Set-up generates the 60,000-event training corpus and the evaluation
suite from the workload seed, then runs one warm-up op whose maps are
the reference.  Each op builds a fresh ``SweepEngine(executor="serial")``
(what ``repro maps`` runs at its default ``--jobs 1``) and sweeps the
four ``DEFAULT_DETECTORS`` over the 112-cell grid.  A traced op calls
``sweep([family])`` once per family on one engine, so the window cache
is shared as in the four-family call, with a span around each call.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

from child import closed_loop, layer_percentiles
from common import Measured, summarize
from repro.datagen.suite import build_suite
from repro.datagen.training import generate_training_data
from repro.evaluation.experiment import DEFAULT_DETECTORS
from repro.evaluation.performance_map import PerformanceMap
from repro.evaluation.scoring import ResponseClass
from repro.params import scaled_params
from repro.runtime.engine import SweepEngine

TRAINING_LENGTH = 60_000


def maps_digest(maps) -> str:
    """A digest of every field of every cell, families in figure order."""
    hasher = hashlib.sha256()
    for family in DEFAULT_DETECTORS:
        performance_map = maps[family]
        for result in sorted(
            performance_map, key=lambda r: (r.anomaly_size, r.window_length)
        ):
            outcome = result.outcome
            hasher.update(
                repr(
                    (
                        family,
                        result.anomaly_size,
                        result.window_length,
                        outcome.response_class.name,
                        outcome.max_in_span,
                        outcome.max_outside_span,
                        outcome.span_start,
                        outcome.span_stop,
                        outcome.spurious_alarms,
                    )
                ).encode()
            )
    return hasher.hexdigest()


def paper_invariants(maps) -> list[str]:
    """The paper's map relations; returns the ones that do not hold."""
    stide = maps["stide"].capable_cells()
    markov = maps["markov"].capable_cells()
    grid = {(r.anomaly_size, r.window_length) for r in maps["stide"]}
    problems = []
    if len(grid) != 112:
        problems.append(f"grid has {len(grid)} cells, not 112")
    if stide != {(size, window) for size, window in grid if window >= size}:
        problems.append("stide is not capable exactly where DW >= AS")
    if len(stide) != 84:
        problems.append(f"stide capable on {len(stide)}/112, not 84")
    if len(markov) != len(grid):
        problems.append(f"markov capable on {len(markov)}/112, not all")
    if maps["lane-brodley"].capable_cells():
        problems.append("lane-brodley is capable somewhere")
    if not stide < markov:
        problems.append("stide's capable cells are not inside markov's")
    return problems


def flip_one_cell(performance_map: PerformanceMap) -> PerformanceMap:
    """``performance_map`` with its first cell's response class changed."""
    cells = {(r.anomaly_size, r.window_length): r for r in performance_map}
    key = min(cells)
    outcome = cells[key].outcome
    flipped = (
        ResponseClass.BLIND
        if outcome.response_class is not ResponseClass.BLIND
        else ResponseClass.CAPABLE
    )
    cells[key] = replace(
        cells[key], outcome=replace(outcome, response_class=flipped)
    )
    return PerformanceMap(performance_map.detector_name, cells)


class Workload:
    def __init__(self, seed, workdir, spans, trace, doctor):
        self.seed = seed
        self.spans = spans
        self.trace = trace
        self.doctor = doctor
        self.setup_ok = True
        self.info: dict = {}
        self.results: list = []
        self.fits: list[int] = []
        self.cache: list[tuple[int, int]] = []

    def setup(self) -> None:
        started = time.perf_counter()
        training = generate_training_data(
            scaled_params(TRAINING_LENGTH, self.seed)
        )
        built = time.perf_counter()
        self.suite = build_suite(training=training)
        self.datagen = (built - started, time.perf_counter() - built)
        warm = SweepEngine(executor="serial").sweep(
            list(DEFAULT_DETECTORS), self.suite
        )
        self.reference = maps_digest(warm)
        problems = paper_invariants(warm)
        self.setup_ok = not problems
        self.info["invariant_failures"] = problems

    def prepare(self, index: int) -> None:
        return None

    def op(self, index: int, inputs: None, root: int | None) -> None:
        engine = SweepEngine(executor="serial")
        if root is None:
            maps = engine.sweep(list(DEFAULT_DETECTORS), self.suite)
            fits = engine.last_fit_stats.computed
        else:
            maps, fits = {}, 0
            for family in DEFAULT_DETECTORS:
                with self.spans.span(f"engine.{family}", root):
                    maps.update(engine.sweep([family], self.suite))
                fits += engine.last_fit_stats.computed
        stats = engine.window_cache.stats
        self.results.append(maps)
        self.fits.append(fits)
        self.cache.append((stats.hits, stats.requests))

    def run(self, seconds: float):
        return closed_loop(self, seconds, self.trace, self.spans)

    def verify(self, window) -> list[bool]:
        if self.doctor == "map" and self.results:
            self.results[-1]["stide"] = flip_one_cell(self.results[-1]["stide"])
        digests = [maps_digest(maps) for maps in self.results]
        return [self.setup_ok and d == self.reference for d in digests]

    def layer_metrics(self, window) -> dict:
        traced = [i for i, was in enumerate(window.traced) if was]
        layers = {
            "datagen.training_s": Measured(self.datagen[0], 1),
            "datagen.suite_s": Measured(self.datagen[1], 1),
        }
        layers.update(
            layer_percentiles(
                self.spans,
                {
                    f"engine.family_ms.{family}": (f"engine.{family}", 0.5)
                    for family in DEFAULT_DETECTORS
                }
                | {"engine.op_self_ms": ("op", 0.5)},
            )
        )
        if traced:
            hits = sum(self.cache[i][0] for i in traced)
            requests = sum(self.cache[i][1] for i in traced)
            layers["cache.hit_ratio"] = Measured(hits / requests, requests)
            layers["cache.requests"] = Measured(requests / len(traced), len(traced))
            layers["engine.fits_computed"] = summarize(
                [self.fits[i] for i in traced], 0.5
            )
        return layers

    def close(self) -> None:
        pass
