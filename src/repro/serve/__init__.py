"""Fault-hardened online scoring service for the detector registry.

The serving layer of the repository: a zero-dependency asyncio HTTP
server that exposes the paper's detector families as a multi-tenant
scoring API, engineered around one invariant — **no wrong score,
ever**.  Every failure mode (overload, slow tenants, crashed workers,
poisoned payloads, torn state after a kill) resolves to an explicit
refusal or a bit-identical recovery, never a silently degraded score.

Modules:

* :mod:`repro.serve.wal` — per-tenant write-ahead log + snapshots
* :mod:`repro.serve.tenants` — tenant state store and recovery
* :mod:`repro.serve.breaker` — three-state circuit breaker
* :mod:`repro.serve.admission` — deadlines, bounded queues, bulkheads
* :mod:`repro.serve.pipeline` — validate, fused score, or refuse
* :mod:`repro.serve.batching` — cross-tenant micro-batch scheduler
* :mod:`repro.serve.chaos` — seeded serving fault injection
* :mod:`repro.serve.server` — the asyncio HTTP front end
* :mod:`repro.serve.loadgen` — load generator / exactness verifier
"""

from repro.serve.admission import AdmissionPolicy, Deadline, TenantLane
from repro.serve.batching import BatchPolicy, BatchScheduler, ScoreJob
from repro.serve.breaker import CircuitBreaker
from repro.serve.chaos import SERVE_FAULT_KINDS, ChaosDirector, ServeFaultSchedule
from repro.serve.loadgen import LoadGenerator, LoadPlan, LoadReport, run_load
from repro.serve.pipeline import ScoreOutcome, ScorePipeline
from repro.serve.server import ScoringServer
from repro.serve.tenants import (
    RecoveryReport,
    TenantState,
    TenantStateStore,
)
from repro.serve.wal import RecoveredState, TenantJournal, snapshot_key

__all__ = [
    "SERVE_FAULT_KINDS",
    "AdmissionPolicy",
    "BatchPolicy",
    "BatchScheduler",
    "ChaosDirector",
    "CircuitBreaker",
    "Deadline",
    "LoadGenerator",
    "LoadPlan",
    "LoadReport",
    "RecoveredState",
    "RecoveryReport",
    "ScoreJob",
    "ScoreOutcome",
    "ScorePipeline",
    "ScoringServer",
    "ServeFaultSchedule",
    "TenantJournal",
    "TenantLane",
    "TenantState",
    "TenantStateStore",
    "run_load",
    "snapshot_key",
]
