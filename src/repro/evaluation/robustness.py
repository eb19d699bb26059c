"""Robustness harness: are the paper's shapes seed- and scale-stable?

The corpus is randomized (the nondeterministic jump placement), so the
reproduction's claims should not hinge on one lucky seed.  This module
re-runs the map experiment across seeds (and optionally scales) and
checks every replication produces the *same qualitative shape* — the
reproducibility discipline the paper's fixed description implies but
cannot demonstrate with a single corpus.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.datagen.suite import build_suite
from repro.datagen.training import generate_training_data
from repro.evaluation.performance_map import PerformanceMap
from repro.exceptions import EvaluationError
from repro.params import PaperParams

ShapePredicate = Callable[[PerformanceMap], bool]


def stide_shape(performance_map: PerformanceMap) -> bool:
    """Figure 5's shape: capable exactly when DW >= AS."""
    expected = {
        (anomaly_size, window_length)
        for anomaly_size in performance_map.anomaly_sizes
        for window_length in performance_map.window_lengths
        if window_length >= anomaly_size
    }
    return performance_map.capable_cells() == expected


def full_coverage_shape(performance_map: PerformanceMap) -> bool:
    """Figures 4/6's shape: every cell capable."""
    return performance_map.detection_fraction() == 1.0


def blind_shape(performance_map: PerformanceMap) -> bool:
    """Figure 3's shape: no cell capable."""
    return len(performance_map.capable_cells()) == 0


#: The qualitative shape each paper figure asserts, by detector name.
PAPER_SHAPES: dict[str, ShapePredicate] = {
    "stide": stide_shape,
    "markov": full_coverage_shape,
    "neural-network": full_coverage_shape,
    "lane-brodley": blind_shape,
}


@dataclass(frozen=True)
class ReplicationOutcome:
    """One seed's verdict per detector."""

    seed: int
    training_length: int
    shape_held: dict[str, bool] = field(repr=False)

    @property
    def all_held(self) -> bool:
        """Whether every detector's shape replicated under this seed."""
        return all(self.shape_held.values())


@dataclass(frozen=True)
class RobustnessReport:
    """Aggregate over all replications."""

    outcomes: tuple[ReplicationOutcome, ...]

    @property
    def replications(self) -> int:
        """Number of corpora evaluated."""
        return len(self.outcomes)

    @property
    def all_held(self) -> bool:
        """Whether every shape held under every seed."""
        return all(outcome.all_held for outcome in self.outcomes)

    def failures(self) -> list[tuple[int, str]]:
        """(seed, detector) pairs whose shape broke."""
        return [
            (outcome.seed, name)
            for outcome in self.outcomes
            for name, held in outcome.shape_held.items()
            if not held
        ]

    def summary(self) -> str:
        """One-line report."""
        if self.all_held:
            return (
                f"all paper shapes held across {self.replications} "
                "independent corpora"
            )
        return f"shape failures: {self.failures()}"


def replicate_shapes(
    base_params: PaperParams,
    seeds: Iterable[int],
    detectors: dict[str, ShapePredicate] | None = None,
    stream_length: int = 1000,
    engine: "object | None" = None,
    checkpoint_dir: "str | Path | None" = None,
) -> RobustnessReport:
    """Re-run the map experiment under each seed and check the shapes.

    Each seed draws a new training stream, and only that.  The suite
    built on it holds the same eight test streams at every seed:
    :func:`~repro.datagen.suite.build_suite` picks the first qualifying
    anomaly candidates and the first clean injection site, and both
    come out the same for every corpus tried.  So a replication varies
    the training corpus, not the anomalies or their injection.

    Args:
        base_params: corpus parameters; the seed field is overridden
            per replication.
        seeds: corpus seeds to replicate under.
        detectors: detector name -> shape predicate; defaults to the
            four paper figures.
        stream_length: test-stream length per injected case.
        engine: the :class:`repro.runtime.SweepEngine` each seed's
            families are swept on, in one sweep per seed; a serial
            ``SweepEngine(max_workers=1)`` when omitted.
        checkpoint_dir: directory for per-seed checkpoint files
            (``replication-seed<seed>.jsonl``).  Completed cells are
            streamed there, and a re-run of an interrupted replication
            campaign resumes each seed from its own checkpoint —
            bit-identically — instead of recomputing finished maps.

    Raises:
        EvaluationError: on an empty seed list.
    """
    seed_list = list(seeds)
    if not seed_list:
        raise EvaluationError("at least one seed is required")
    predicates = detectors or PAPER_SHAPES
    if engine is None:
        from repro.runtime import SweepEngine

        engine = SweepEngine(max_workers=1)
    outcomes = []
    for seed in seed_list:
        params = base_params.with_seed(seed)
        training = generate_training_data(params)
        suite = build_suite(training=training, stream_length=stream_length)
        checkpoint = resume_from = None
        if checkpoint_dir is not None:
            checkpoint = Path(checkpoint_dir) / f"replication-seed{seed}.jsonl"
            resume_from = checkpoint if checkpoint.exists() else None
        maps = engine.sweep(
            list(predicates), suite, checkpoint=checkpoint, resume_from=resume_from
        )
        outcomes.append(
            ReplicationOutcome(
                seed=seed,
                training_length=params.training_length,
                shape_held={
                    name: predicate(maps[name])
                    for name, predicate in predicates.items()
                },
            )
        )
        # Each seed's corpus is dead after its verdict; without this,
        # the engine cache pins every corpus the campaign has swept
        # (it keys streams by identity).
        cache = engine.window_cache
        cache.release_stream(suite.training.stream)
        for anomaly_size in suite.anomaly_sizes:
            cache.release_stream(suite.stream(anomaly_size).stream)
    return RobustnessReport(outcomes=tuple(outcomes))
