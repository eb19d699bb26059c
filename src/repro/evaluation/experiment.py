"""One-call orchestration of the paper's full evaluation.

:func:`run_paper_experiment` builds (or reuses) the evaluation corpus,
sweeps the four detectors over the 112-case grid, and returns the four
performance maps of Figures 3-6 plus the coverage relations of the
diversity discussion (Sections 7-8).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.datagen.suite import EvaluationSuite, build_suite
from repro.datagen.training import TrainingData
from repro.evaluation.performance_map import PerformanceMap, build_performance_map
from repro.evaluation.render import render_map_summary, render_performance_map
from repro.exceptions import EvaluationError
from repro.params import PaperParams


@dataclass(frozen=True)
class ExperimentResult:
    """The paper's experiment outputs.

    Attributes:
        suite: the corpus the maps were computed on.
        maps: one performance map per detector family, keyed by name.
        run_report: the sweep's :class:`~repro.runtime.resilience.RunReport`
            when a resilience policy or a checkpoint was requested
            (``None`` otherwise).
    """

    suite: EvaluationSuite
    maps: dict[str, PerformanceMap] = field(repr=False)
    run_report: "object | None" = field(default=None, repr=False)

    def map_for(self, detector_name: str) -> PerformanceMap:
        """The performance map of one detector family.

        Raises:
            EvaluationError: for detectors not in this experiment.
        """
        try:
            return self.maps[detector_name]
        except KeyError:
            raise EvaluationError(
                f"no map for detector {detector_name!r}; available: "
                f"{', '.join(sorted(self.maps))}"
            ) from None

    def render_all(self) -> str:
        """All maps as star charts, separated by blank lines."""
        blocks = [
            render_performance_map(self.maps[name]) for name in sorted(self.maps)
        ]
        return "\n\n".join(blocks)

    def summary(self) -> str:
        """One summary line per detector map."""
        return "\n".join(
            render_map_summary(self.maps[name]) for name in sorted(self.maps)
        )


#: The detectors of Figures 3-6, in figure order.
DEFAULT_DETECTORS: tuple[str, ...] = (
    "lane-brodley",
    "markov",
    "stide",
    "neural-network",
)


def run_paper_experiment(
    params: PaperParams | None = None,
    suite: EvaluationSuite | None = None,
    training: TrainingData | None = None,
    detectors: Iterable[str] = DEFAULT_DETECTORS,
    engine: "object | None" = None,
    max_workers: int | None = None,
    checkpoint: "str | None" = None,
    resume_from: "str | None" = None,
    store: "object | None" = None,
    warm_start: bool | None = None,
    telemetry: "object | None" = None,
) -> ExperimentResult:
    """Run the paper's evaluation end to end.

    Args:
        params: corpus parameters (used only when no suite is given).
        suite: a pre-built evaluation corpus.
        training: pre-built training data (used only when no suite is
            given).
        detectors: registered detector names to sweep.
        engine: a :class:`repro.runtime.SweepEngine`; all families are
            swept through it (results are bit-identical to the
            engine-less reference loop).
        max_workers: shorthand for ``engine=SweepEngine(max_workers=...)``
            when > 1 and no engine is given.
        checkpoint: JSONL checkpoint file completed cells stream to.
        resume_from: checkpoint file whose cells are adopted instead of
            recomputed (bit-identically).
        store: a persistent :class:`~repro.runtime.store.ArtifactStore`
            (or its directory path) backing every fit; a warm re-run
            of the same corpus performs zero fits.  Ignored when an
            ``engine`` is given (the engine's own store governs).
        warm_start: forwarded to the engine the ``max_workers``/
            ``store`` shorthand creates; ``None`` auto-enables warm
            starting exactly when a store is attached.
        telemetry: a :class:`~repro.runtime.telemetry.Telemetry`
            collector.  With no ``engine`` given the experiment runs
            through a serial :class:`~repro.runtime.SweepEngine`
            carrying it; a given engine without its own collector
            adopts this one.

    Returns:
        Maps for every requested detector over the full case grid,
        with ``run_report`` populated when a resilience policy or a
        checkpoint was requested.
    """
    if suite is None:
        suite = build_suite(params=params, training=training)
    names = list(detectors)
    if not names:
        raise EvaluationError("at least one detector is required")
    if engine is None and max_workers is not None and max_workers > 1:
        from repro.runtime import SweepEngine

        engine = SweepEngine(
            max_workers=max_workers,
            store=store,
            warm_start=warm_start,
            telemetry=telemetry,
        )
    elif engine is None and telemetry is not None:
        from repro.runtime import SweepEngine

        engine = SweepEngine(
            executor="serial",
            store=store,
            warm_start=warm_start,
            telemetry=telemetry,
        )
    run_report = None
    if engine is not None:
        if telemetry is not None and getattr(engine, "telemetry", None) is None:
            engine.attach_telemetry(telemetry)
        if (
            getattr(engine, "resilience", None) is not None
            or checkpoint is not None
            or resume_from is not None
        ):
            maps, run_report = engine.sweep_with_report(
                names, suite, checkpoint=checkpoint, resume_from=resume_from
            )
        else:
            maps = engine.sweep(names, suite)
    else:
        maps = {
            name: build_performance_map(
                name,
                suite,
                checkpoint=checkpoint,
                resume_from=resume_from,
                store=store,
            )
            for name in names
        }
    return ExperimentResult(suite=suite, maps=maps, run_report=run_report)
