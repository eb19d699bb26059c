"""Declarative experiment plans: spec and DAG runner.

``repro.plans`` turns the runtime substrate (SweepEngine, ArtifactStore,
JSONL checkpoints, telemetry) into a schedulable experiment system:

* :mod:`repro.plans.spec` — typed plan dataclasses, TOML/JSON loading,
  validation (cycles and unknown references fail with a named-stage
  error), and content-addressed stage fingerprints.
* :mod:`repro.plans.runner` — the :class:`PlanRunner`: topological
  execution with exactly-once stage semantics, resumable bit-identically
  after a kill, computing nothing whose fingerprint is unchanged, and
  :func:`run_status`, the per-stage report of a run directory.
"""

from repro.plans.runner import (
    PlanReport,
    PlanRunner,
    StageOutcome,
    SweepOutput,
    paper_plan,
    payload_digest,
    run_plan_file,
    run_status,
)
from repro.plans.spec import (
    PLAN_SCHEMA_VERSION,
    STAGE_KINDS,
    EnsembleStage,
    ExperimentPlan,
    RenderStage,
    RobustnessStage,
    SweepStage,
    load_plan,
    plan_from_dict,
    stage_from_dict,
    stage_key,
)

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "STAGE_KINDS",
    "EnsembleStage",
    "ExperimentPlan",
    "PlanReport",
    "PlanRunner",
    "RenderStage",
    "RobustnessStage",
    "StageOutcome",
    "SweepOutput",
    "SweepStage",
    "load_plan",
    "paper_plan",
    "payload_digest",
    "plan_from_dict",
    "run_plan_file",
    "run_status",
    "stage_from_dict",
    "stage_key",
]
