"""Runtime subsystem: concurrent sweeps over shared window artifacts.

The hot path of the reproduction — and of any deployment of diverse
detector ensembles — is evaluating many detector families over the
full (anomaly size x window length) grid.  This package provides the
production runtime for that sweep:

* :class:`WindowCache` — derives each (stream, window length) window
  table exactly once and shares it across every detector family's
  fits and scores;
* :mod:`~repro.runtime.kernels` — the vectorized batch-scoring kernels
  every detector family's ``score_windows`` reduces to: one numpy pass
  per (stream, DW) batch instead of a per-window Python loop;
* :class:`SweepEngine` — evaluates one or many families over the grid
  through one supervised scheduler (serial, or a process pool when
  more than one worker is allowed), scoring each distinct test window
  once, while producing maps bit-identical to the sequential path;
* :mod:`~repro.runtime.resilience` — the scheduler every sweep runs
  through: retries with deterministic backoff, per-task wall-clock
  timeouts, graceful backend degradation (process -> serial), JSONL
  checkpoint/resume, and a per-task :class:`RunReport`;
* :mod:`~repro.runtime.faults` — the seeded fault-injection harness
  the test suite uses to prove every recovery path;
* :mod:`~repro.runtime.telemetry` — zero-dependency tracing spans,
  metrics and profiling hooks every component above reports into,
  merged across process workers and written as schema-versioned JSONL
  (the ``--trace``/``--metrics``/``--profile`` flags and the
  ``repro trace`` subcommand).

See the "Runtime & parallelism", "Batch kernels & suite
handoff" and "Failure handling & resume" sections of DESIGN.md and
the ``--jobs``/``--retries``/``--task-timeout``/``--checkpoint``/
``--resume`` flags of the CLI.

Exports resolve lazily (PEP 562): detector modules import
:mod:`repro.runtime.kernels` at module load, and an eager import of
the engine here would close the cycle
``kernels -> runtime -> engine -> registry -> detectors -> kernels``.
"""

from __future__ import annotations

from importlib import import_module

#: Public name -> defining submodule, resolved on first attribute access.
_EXPORTS: dict[str, str] = {
    "CacheStats": "repro.runtime.cache",
    "WindowCache": "repro.runtime.cache",
    "ArtifactStore": "repro.runtime.store",
    "STORE_SCHEMA_VERSION": "repro.runtime.store",
    "stream_digest": "repro.runtime.store",
    "fit_states_equal": "repro.runtime.deltafit",
    "verify_delta": "repro.runtime.deltafit",
    "HotTier": "repro.runtime.shardstore",
    "HotTierStats": "repro.runtime.shardstore",
    "ShardedStore": "repro.runtime.shardstore",
    "ShardStoreStats": "repro.runtime.shardstore",
    "SHARD_SCHEMA_VERSION": "repro.runtime.shardstore",
    "EXECUTORS": "repro.runtime.engine",
    "FitStats": "repro.runtime.engine",
    "SweepEngine": "repro.runtime.engine",
    "evaluate_window_block": "repro.runtime.engine",
    "sorted_membership": "repro.runtime.kernels",
    "FAULT_KINDS": "repro.runtime.faults",
    "FaultSchedule": "repro.runtime.faults",
    "Metrics": "repro.runtime.telemetry",
    "SPAN_PHASES": "repro.runtime.telemetry",
    "TRACE_SCHEMA_VERSION": "repro.runtime.telemetry",
    "Telemetry": "repro.runtime.telemetry",
    "TelemetryConfig": "repro.runtime.telemetry",
    "Tracer": "repro.runtime.telemetry",
    "check_trace_counters": "repro.runtime.telemetry",
    "read_trace": "repro.runtime.telemetry",
    "summarize_trace": "repro.runtime.telemetry",
    "validate_trace_line": "repro.runtime.telemetry",
    "DEGRADATION_CHAIN": "repro.runtime.resilience",
    "ResiliencePolicy": "repro.runtime.resilience",
    "RetryPolicy": "repro.runtime.resilience",
    "RunReport": "repro.runtime.resilience",
    "TaskReport": "repro.runtime.resilience",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: subsequent lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
