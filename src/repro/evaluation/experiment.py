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
from repro.evaluation.performance_map import PerformanceMap
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
            (``None`` for maps not swept in this process, such as a
            plan stage decoded from its cached payload).
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
    checkpoint: "str | None" = None,
    resume_from: "str | None" = None,
) -> ExperimentResult:
    """Run the paper's evaluation end to end.

    Every family is swept in one
    :meth:`~repro.runtime.SweepEngine.sweep_with_report` call, so a
    multi-worker engine starts one pool and shares the suite once.

    Args:
        params: corpus parameters (used only when no suite is given).
        suite: a pre-built evaluation corpus.
        training: pre-built training data (used only when no suite is
            given).
        detectors: registered detector names to sweep.
        engine: the :class:`repro.runtime.SweepEngine` to sweep on; it
            carries the worker count, resilience policy and telemetry.
            A serial ``SweepEngine(max_workers=1)`` is used when
            omitted, so no pool is started unasked.  Results are
            bit-identical to
            :func:`~repro.evaluation.performance_map.build_performance_map`
            either way.
        checkpoint: JSONL checkpoint file completed cells stream to.
        resume_from: checkpoint file whose cells are adopted instead of
            recomputed (bit-identically).

    Returns:
        Maps for every requested detector over the full case grid,
        plus the sweep's ``run_report``.
    """
    if suite is None:
        suite = build_suite(params=params, training=training)
    names = list(detectors)
    if not names:
        raise EvaluationError("at least one detector is required")
    if engine is None:
        from repro.runtime import SweepEngine

        engine = SweepEngine(max_workers=1)
    maps, run_report = engine.sweep_with_report(
        names, suite, checkpoint=checkpoint, resume_from=resume_from
    )
    return ExperimentResult(suite=suite, maps=maps, run_report=run_report)
