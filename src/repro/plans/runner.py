"""Plan execution: exactly-once stages, ArtifactStore outputs, resume.

The :class:`PlanRunner` walks a validated plan in topological order and
gives every stage **exactly-once** semantics built from two existing
primitives:

* the stage's output payload — canonical, sorted-key JSON carrying the
  full result bit-exactly (floats round-trip through ``repr``, the
  same property the sweep checkpoints rely on) — lands in the
  :class:`~repro.runtime.store.ArtifactStore` under
  :func:`~repro.plans.spec.stage_key` of the stage's content
  fingerprint;
* progress streams into JSONL: the per-stage **cell checkpoints** of
  the sweep engine (so a SIGKILL mid-sweep resumes bit-identically at
  cell granularity) and an append-only run **journal** recording every
  stage completion.

A re-run therefore computes nothing whose fingerprint is unchanged: a
store hit under the fingerprint-derived key *is* the proof that this
exact stage already ran, and the payload is decoded instead of
recomputed.  A killed run resumes mid-stage from the cell checkpoint
and downstream of the kill from the store — and the final artifacts in
``<run_dir>/outputs/`` are byte-identical to an uninterrupted run's.

Run-directory layout::

    run_dir/
      plan.json        # compiled plan (``repro plan status`` reads it)
      journal.jsonl    # append-only events: one line per completion
      cells/           # per-stage JSONL cell checkpoints
      outputs/<stage>.json   # canonical payloads (byte-comparable)
      done/<stage>.json      # atomic per-stage completion markers
      store/           # default ArtifactStore when none is given
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.evaluation.experiment import run_paper_experiment
from repro.evaluation.performance_map import PerformanceMap
from repro.evaluation.render import render_map_summary, render_performance_map
from repro.evaluation.robustness import (
    PAPER_SHAPES,
    ReplicationOutcome,
    RobustnessReport,
    replicate_shapes,
)
from repro.exceptions import PlanError
from repro.io import cell_to_record, read_jsonl_tolerant, record_to_cell
from repro.params import scaled_params
from repro.plans.spec import (
    ExperimentPlan,
    Stage,
    load_plan,
    plan_from_dict,
    stage_key,
)
from repro.runtime import telemetry

#: File names of the run-directory protocol.
PLAN_FILE = "plan.json"
JOURNAL_FILE = "journal.jsonl"
OUTPUTS_DIR = "outputs"
DONE_DIR = "done"
CELLS_DIR = "cells"
STORE_DIR = "store"


# -- canonical payloads -----------------------------------------------------


def payload_bytes(payload: dict) -> bytes:
    """The canonical byte encoding of one stage payload.

    Sorted keys, fixed separators, one trailing newline: a pure
    function of the payload's content, so byte-comparing two runs'
    ``outputs/`` directories is a correctness check.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def payload_digest(payload: dict) -> str:
    """sha256 over :func:`payload_bytes` — the stage's output digest."""
    return hashlib.sha256(payload_bytes(payload)).hexdigest()


def sweep_payload(maps: dict[str, PerformanceMap]) -> dict:
    """Encode performance maps as the sweep stage's canonical payload."""
    return {
        "kind": "sweep",
        "cells": {
            name: [
                cell_to_record(name, result) for result in maps[name]
            ]
            for name in sorted(maps)
        },
    }


def maps_from_payload(payload: dict) -> dict[str, PerformanceMap]:
    """Invert :func:`sweep_payload` bit-identically."""
    maps: dict[str, PerformanceMap] = {}
    for name, records in payload["cells"].items():
        cells = {}
        for record in records:
            _detector, result = record_to_cell(record)
            cells[(result.anomaly_size, result.window_length)] = result
        maps[name] = PerformanceMap(name, cells)
    return maps


def robustness_payload(report: RobustnessReport) -> dict:
    """Encode a robustness report as its canonical payload."""
    return {
        "kind": "robustness",
        "outcomes": [
            {
                "seed": outcome.seed,
                "training_length": outcome.training_length,
                "shape_held": dict(sorted(outcome.shape_held.items())),
            }
            for outcome in report.outcomes
        ],
    }


def robustness_from_payload(payload: dict) -> RobustnessReport:
    """Invert :func:`robustness_payload`."""
    return RobustnessReport(
        outcomes=tuple(
            ReplicationOutcome(
                seed=int(record["seed"]),
                training_length=int(record["training_length"]),
                shape_held={
                    str(name): bool(held)
                    for name, held in record["shape_held"].items()
                },
            )
            for record in payload["outcomes"]
        )
    )


# -- run-directory protocol -------------------------------------------------


def write_json_atomic(path: Path, payload: dict) -> None:
    """Write canonical JSON via temp file + :func:`os.replace`.

    The same atomicity discipline as the ArtifactStore: a reader never
    observes a torn file, and re-writing identical content is
    idempotent byte-for-byte.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(payload_bytes(payload))
    os.replace(tmp, path)


def append_journal(run_dir: Path, record: dict) -> None:
    """Append one event line to the run journal (O_APPEND, flushed)."""
    path = run_dir / JOURNAL_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True) + "\n"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()


def load_journal(run_dir: Path) -> list[dict]:
    """Parsed journal events, tolerating a torn tail (SIGKILL mid-append)."""
    path = Path(run_dir) / JOURNAL_FILE
    if not path.exists():
        return []
    return [
        record
        for _line, record in read_jsonl_tolerant(
            path, strict=False, torn_tail_counter="plan.journal.torn_tail"
        )
    ]


def read_done_marker(run_dir: Path, stage_name: str) -> dict | None:
    """The stage's completion marker, or ``None`` (corrupt = absent)."""
    path = Path(run_dir) / DONE_DIR / f"{stage_name}.json"
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def load_run(run_dir: str | Path) -> ExperimentPlan:
    """Load the compiled plan from a run directory."""
    path = Path(run_dir) / PLAN_FILE
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise PlanError(f"not a plan run directory: {run_dir} ({error})") from error
    except ValueError as error:
        raise PlanError(f"corrupt plan file {path}: {error}") from error
    return plan_from_dict(data)


def run_status(run_dir: str | Path) -> str:
    """Human- and CI-readable status of a plan run directory.

    Ends with a ``duplicates: N`` line — the count of stages journaled
    as completed more than once, which must be 0 for an exactly-once
    run (the plan-smoke CI job asserts exactly that).
    """
    run_dir = Path(run_dir)
    plan = load_run(run_dir)
    order = plan.validate()
    fingerprints = plan.fingerprints()
    events = load_journal(run_dir)
    completions: dict[str, int] = {}
    for event in events:
        if event.get("event") == "completed":
            stage = str(event.get("stage"))
            completions[stage] = completions.get(stage, 0) + 1
    lines = [f"plan '{plan.name}': {len(order)} stage(s)"]
    done = 0
    for name in order:
        marker = read_done_marker(run_dir, name)
        if marker is not None and marker.get("fingerprint") == fingerprints[name]:
            done += 1
            status = "done"
        else:
            status = "pending"
        lines.append(f"stage {name}: {status}")
    lines.append(f"done: {done}/{len(order)}")
    duplicates = sum(count - 1 for count in completions.values() if count > 1)
    lines.append(f"duplicates: {duplicates}")
    return "\n".join(lines)


# -- stage execution --------------------------------------------------------


@dataclass(frozen=True)
class SweepOutput:
    """A sweep stage's live result handed to downstream stages.

    ``suite``/``run_report`` are populated only when the sweep actually
    ran in this process (a cached stage decodes maps alone — rebuilding
    the corpus would be recomputation).
    """

    maps: dict[str, PerformanceMap] = field(repr=False)
    suite: "object | None" = field(default=None, repr=False)
    run_report: "object | None" = field(default=None, repr=False)


def _sweep_params(stage: Stage):
    kwargs = {}
    if stage.anomaly_sizes:
        kwargs["anomaly_sizes"] = tuple(stage.anomaly_sizes)
    if stage.window_sizes:
        kwargs["window_sizes"] = tuple(stage.window_sizes)
    params = scaled_params(stage.stream_len, seed=stage.seed)
    return replace(params, **kwargs) if kwargs else params


def execute_stage(
    stage: Stage,
    results: dict[str, object],
    engine: "object",
    cells_dir: "Path | None" = None,
    checkpoint: "str | None" = None,
    resume_from: "str | None" = None,
) -> tuple[dict, object]:
    """Run one stage and return ``(payload, live_result)``.

    Args:
        stage: the typed stage to execute.
        results: live results of already-executed stages, by name
            (``ensemble``/``render`` read their sweep dependency here).
        engine: the shared :class:`~repro.runtime.SweepEngine`.
        cells_dir: directory for the stage's JSONL cell checkpoints;
            ``None`` disables cell-level resume.
        checkpoint: explicit cell-checkpoint path overriding
            ``cells_dir`` (the thin-wrapper mode of ``repro maps``).
        resume_from: explicit resume path overriding ``cells_dir``.
    """
    if stage.kind == "sweep":
        if cells_dir is not None and checkpoint is None:
            path = cells_dir / f"{stage.name}.cells.jsonl"
            checkpoint = str(path)
            if resume_from is None and path.exists():
                resume_from = checkpoint
        result = run_paper_experiment(
            params=_sweep_params(stage),
            detectors=list(stage.detectors),
            engine=engine,
            checkpoint=checkpoint,
            resume_from=resume_from,
        )
        return sweep_payload(result.maps), SweepOutput(
            maps=result.maps, suite=result.suite, run_report=result.run_report
        )
    if stage.kind == "robustness":
        predicates = None
        if stage.detectors is not None:
            predicates = {name: PAPER_SHAPES[name] for name in stage.detectors}
        checkpoint_dir = None
        if cells_dir is not None:
            checkpoint_dir = cells_dir / stage.name
        report = replicate_shapes(
            base_params=scaled_params(stage.stream_len),
            seeds=stage.seeds,
            detectors=predicates,
            stream_length=stage.test_stream_len,
            engine=engine,
            checkpoint_dir=checkpoint_dir,
        )
        return robustness_payload(report), report
    upstream = results.get(stage.needs[0])
    if not isinstance(upstream, SweepOutput):
        raise PlanError(
            f"stage {stage.name!r}: dependency {stage.needs[0]!r} produced "
            "no sweep output"
        )
    maps = upstream.maps
    if stage.kind == "ensemble":
        from repro.analysis.report import map_agreement_report
        from repro.ensemble import AnomalyProfile, Coverage, select_detectors

        coverages = {
            name: Coverage.from_performance_map(maps[name])
            for name in sorted(maps)
        }
        advice = select_detectors(
            coverages,
            AnomalyProfile(
                size=stage.size, max_deployable_window=stage.max_window
            ),
        )
        payload = {
            "kind": "ensemble",
            "recommendation": advice.describe(),
            "redundant": sorted(advice.redundant),
            "rationale": advice.rationale,
            "agreement": (
                map_agreement_report(maps) if len(maps) >= 2 else ""
            ),
        }
        return payload, payload
    if stage.kind == "render":
        payload = {
            "kind": "render",
            "charts": {
                name: render_performance_map(maps[name])
                for name in sorted(maps)
            },
            "summary": "\n".join(
                render_map_summary(maps[name]) for name in sorted(maps)
            ),
        }
        return payload, payload
    raise PlanError(f"stage {stage.name!r}: unknown kind {stage.kind!r}")


def decode_payload(stage: Stage, payload: dict) -> object:
    """Rebuild a cached stage's live result from its stored payload."""
    if stage.kind == "sweep":
        return SweepOutput(maps=maps_from_payload(payload))
    if stage.kind == "robustness":
        return robustness_from_payload(payload)
    return payload


# -- the runner -------------------------------------------------------------


@dataclass(frozen=True)
class StageOutcome:
    """One stage's fate in one run."""

    name: str
    kind: str
    status: str  # "ran" | "cached"
    fingerprint: str
    key: str
    digest: str
    wall: float = 0.0


@dataclass(frozen=True)
class PlanReport:
    """One :meth:`PlanRunner.run`'s outcome across all stages."""

    plan: str
    outcomes: tuple[StageOutcome, ...]
    results: dict[str, object] = field(repr=False)

    @property
    def executed(self) -> int:
        """Stages actually computed in this run."""
        return sum(1 for outcome in self.outcomes if outcome.status == "ran")

    @property
    def cached(self) -> int:
        """Stages adopted from the store without recomputation."""
        return sum(
            1 for outcome in self.outcomes if outcome.status == "cached"
        )

    def summary(self) -> str:
        """The headline line CI asserts on, plus one line per stage."""
        lines = [
            f"plan '{self.plan}': {self.executed} executed / "
            f"{self.cached} cached / {len(self.outcomes)} total"
        ]
        lines.extend(
            f"stage {outcome.name}: {outcome.status} {outcome.kind} "
            f"(digest {outcome.digest[:12]}, {outcome.wall:.1f}s)"
            for outcome in self.outcomes
        )
        return "\n".join(lines)


class PlanRunner:
    """Executes a plan with exactly-once stage semantics.

    Args:
        plan: the validated plan to run.
        run_dir: run directory for checkpoints, journal and canonical
            outputs; ``None`` runs fully in memory (the thin-wrapper
            mode behind ``repro maps``).
        store: an :class:`~repro.runtime.store.ArtifactStore` or its
            directory path for stage payloads; defaults to
            ``<run_dir>/store`` when a run directory is given, else no
            caching.
        engine: a pre-built :class:`~repro.runtime.SweepEngine`; when
            omitted one is assembled from ``jobs``/``resilience``.
        jobs: engine worker count for the assembled engine (1 runs
            serially, more runs a process pool).
        resilience: a :class:`~repro.runtime.resilience.ResiliencePolicy`
            for the assembled engine.
        telemetry: a :class:`~repro.runtime.telemetry.Telemetry`
            collector; ``plan.*`` spans and counters land here.
        checkpoint: single-sweep cell-checkpoint override (wrapper mode).
        resume_from: single-sweep resume override (wrapper mode).
    """

    def __init__(
        self,
        plan: ExperimentPlan,
        run_dir: str | Path | None = None,
        store: "object | None" = None,
        engine: "object | None" = None,
        jobs: int = 1,
        resilience: "object | None" = None,
        telemetry: "object | None" = None,
        checkpoint: str | None = None,
        resume_from: str | None = None,
    ) -> None:
        self.plan = plan
        self.run_dir = Path(run_dir) if run_dir is not None else None
        if store is None and self.run_dir is not None:
            store = self.run_dir / STORE_DIR
        if store is not None and not hasattr(store, "get"):
            from repro.runtime.store import ArtifactStore

            store = ArtifactStore(store)
        self.store = store
        self.telemetry = telemetry
        self._checkpoint = checkpoint
        self._resume_from = resume_from
        if engine is None:
            from repro.runtime import SweepEngine

            engine = SweepEngine(
                max_workers=jobs,
                resilience=resilience,
                telemetry=telemetry,
            )
        elif telemetry is not None and engine.telemetry is None:
            engine.attach_telemetry(telemetry)
        self.engine = engine

    def _cells_dir(self) -> Path | None:
        return None if self.run_dir is None else self.run_dir / CELLS_DIR

    def _cached_payload(self, key: str) -> dict | None:
        """The stage payload stored under ``key``, if present and sound."""
        if self.store is None:
            return None
        arrays = self.store.get(key, kind="plan")
        if arrays is None or "payload" not in arrays:
            return None
        try:
            payload = json.loads(str(arrays["payload"][()]))
        except (KeyError, IndexError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _persist(
        self, stage: Stage, fingerprint: str, key: str, payload: dict, wall: float
    ) -> str:
        digest = payload_digest(payload)
        if self.store is not None:
            text = payload_bytes(payload).decode("utf-8")
            self.store.put(key, {"payload": np.asarray(text)})
        if self.run_dir is not None:
            write_json_atomic(
                self.run_dir / OUTPUTS_DIR / f"{stage.name}.json", payload
            )
            write_json_atomic(
                self.run_dir / DONE_DIR / f"{stage.name}.json",
                {
                    "stage": stage.name,
                    "kind": stage.kind,
                    "fingerprint": fingerprint,
                    "key": key,
                    "digest": digest,
                },
            )
            append_journal(
                self.run_dir,
                {
                    "event": "completed",
                    "stage": stage.name,
                    "kind": stage.kind,
                    "fingerprint": fingerprint,
                    "digest": digest,
                    "wall": round(wall, 6),
                    "pid": os.getpid(),
                },
            )
        return digest

    def _adopt(
        self, stage: Stage, fingerprint: str, key: str, payload: dict
    ) -> StageOutcome:
        """Adopt a cached stage: decode, repair missing run-dir files."""
        digest = payload_digest(payload)
        if self.run_dir is not None:
            output_path = self.run_dir / OUTPUTS_DIR / f"{stage.name}.json"
            if not output_path.exists():
                write_json_atomic(output_path, payload)
            marker = read_done_marker(self.run_dir, stage.name)
            if marker is None or marker.get("fingerprint") != fingerprint:
                write_json_atomic(
                    self.run_dir / DONE_DIR / f"{stage.name}.json",
                    {
                        "stage": stage.name,
                        "kind": stage.kind,
                        "fingerprint": fingerprint,
                        "key": key,
                        "digest": digest,
                    },
                )
        telemetry.count("plan.stage.cached")
        return StageOutcome(
            name=stage.name,
            kind=stage.kind,
            status="cached",
            fingerprint=fingerprint,
            key=key,
            digest=digest,
        )

    def _run_stage(
        self,
        stage: Stage,
        fingerprint: str,
        results: dict[str, object],
    ) -> tuple[StageOutcome, object]:
        """Execute (or adopt) one stage; returns its outcome + result.

        The exactly-once pivot: a store hit under the fingerprint's
        :func:`~repro.plans.spec.stage_key` proves this exact stage
        configuration already completed, so its payload is decoded and
        nothing is computed.
        """
        key = stage_key(fingerprint)
        telemetry.count("plan.stage.visited")
        cached = self._cached_payload(key)
        if cached is not None:
            telemetry.event("plan", stage.name, kind=stage.kind, cached=True)
            outcome = self._adopt(stage, fingerprint, key, cached)
            return outcome, decode_payload(stage, cached)
        started = time.perf_counter()
        try:
            with telemetry.span("plan", stage.name, kind=stage.kind):
                payload, live = execute_stage(
                    stage,
                    results,
                    engine=self.engine,
                    cells_dir=self._cells_dir(),
                    checkpoint=self._checkpoint if stage.kind == "sweep" else None,
                    resume_from=self._resume_from if stage.kind == "sweep" else None,
                )
        except Exception:
            telemetry.count("plan.stage.failed")
            raise
        wall = time.perf_counter() - started
        digest = self._persist(stage, fingerprint, key, payload, wall)
        telemetry.count("plan.stage.run")
        outcome = StageOutcome(
            name=stage.name,
            kind=stage.kind,
            status="ran",
            fingerprint=fingerprint,
            key=key,
            digest=digest,
            wall=wall,
        )
        return outcome, live

    def run(self) -> PlanReport:
        """Run every stage in topological order; resumable, idempotent."""
        order = self.plan.validate()
        fingerprints = self.plan.fingerprints()
        if self.run_dir is not None:
            write_json_atomic(
                self.run_dir / PLAN_FILE, self.plan.to_dict()
            )
        outcomes: list[StageOutcome] = []
        results: dict[str, object] = {}
        with telemetry.activated(self.telemetry):
            for name in order:
                stage = self.plan.stage(name)
                outcome, live = self._run_stage(
                    stage, fingerprints[name], results
                )
                outcomes.append(outcome)
                results[name] = live
        return PlanReport(
            plan=self.plan.name, outcomes=tuple(outcomes), results=results
        )


def paper_plan(
    stream_len: int | None = None,
    seed: int | None = None,
    detectors: tuple[str, ...] | None = None,
) -> ExperimentPlan:
    """The committed ``plans/paper.toml`` experiment, parameterized.

    The imperative entry points (``repro maps``, the examples) compile
    this plan and hand it to a :class:`PlanRunner`, so a CLI run and a
    plan-file run of the same parameters share one execution path —
    and therefore identical fingerprints and identical outputs to
    :func:`~repro.evaluation.experiment.run_paper_experiment`.
    """
    from repro.evaluation.experiment import DEFAULT_DETECTORS
    from repro.plans.spec import RenderStage, SweepStage

    sweep = SweepStage(
        name="maps",
        stream_len=stream_len,
        seed=seed,
        detectors=tuple(detectors) if detectors else DEFAULT_DETECTORS,
    )
    return ExperimentPlan(
        name="paper",
        description="Tan & Maxion (DSN 2005): the Figure 3-6 performance maps",
        stages=(sweep, RenderStage(name="charts", needs=("maps",))),
    )


def run_plan_file(path: str | Path, **runner_kwargs: object) -> PlanReport:
    """Load, validate and run a plan file in one call."""
    return PlanRunner(load_plan(path), **runner_kwargs).run()
