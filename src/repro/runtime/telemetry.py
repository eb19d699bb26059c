"""Zero-dependency runtime telemetry: spans, metrics, profiling hooks.

When a 448-cell atlas sweep is slow or retries, its printed maps
cannot say *why*.  This module is the observability layer the rest of
:mod:`repro.runtime` reports into:

* :class:`Tracer` — nested spans over the sweep's phases (``sweep``,
  ``block``, ``fit``, ``score``, ``cache``, ``store``, ``retry``,
  ``fitindex``, ``kernel``), each carrying wall-clock and
  per-thread CPU time plus free-form attributes;
* :class:`Metrics` — counters (cache hits, store lookups, retries,
  timeouts) and histograms (kernel batch sizes, per-cell wall/CPU
  time);
* an opt-in :mod:`cProfile` hook — per worker thread in the parent and
  per worker process under the process backend, dumped as ``.pstats``
  files into a caller-chosen directory.

**Activation model.**  Instrumentation sites never hold a telemetry
reference; they call the module-level helpers (:func:`span`,
:func:`event`, :func:`count`, :func:`observe`), which consult one
module-global active :class:`Telemetry`.  With none active — the
default — every helper is a single global read plus a ``None`` check,
which is what keeps the disabled-path overhead inside the sweep
benchmark's 5% budget (``benchmarks/bench_sweep.py``).  The sweep
engine activates its telemetry for exactly the duration of a sweep via
:func:`activated`.

**Cross-process merge.**  A :class:`Telemetry` cannot cross a process
boundary (locks, profilers), but its :meth:`~Telemetry.spec` can: the
worker rebuilds a private instance, activates it for one task, and
ships :meth:`~Telemetry.snapshot` — plain dicts — back with the task's
results, exactly how :class:`~repro.runtime.cache.CacheStats` deltas
already travel.  The parent folds snapshots in with
:meth:`~Telemetry.merge_snapshot`; span ids are namespaced by pid so
merged traces never collide.

**Trace format.**  :meth:`Telemetry.write_trace` emits schema-versioned
JSONL: one ``trace`` header line, one line per span, one line per
counter/histogram.  :func:`validate_trace_line`,
:func:`check_trace_counters` and :func:`summarize_trace` are the
zero-dependency readers behind the ``repro trace`` subcommand and the
CI ``telemetry-smoke`` job.
"""

from __future__ import annotations

import atexit
import cProfile
import itertools
import json
import os
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import TelemetryError

#: Bump when the trace line layout or the span phase vocabulary changes:
#: readers reject newer (or older) schemas instead of misinterpreting
#: them.
TRACE_SCHEMA_VERSION = 2

#: The span phase vocabulary; the schema validator rejects others.
SPAN_PHASES: frozenset[str] = frozenset(
    {
        "sweep",
        "block",
        "fit",
        "score",
        "cache",
        "store",
        "retry",
        "fitindex",
        "kernel",
        "serve",
        "plan",
    }
)

#: Record types a trace file may contain.
_RECORD_TYPES: frozenset[str] = frozenset(
    {"trace", "span", "counter", "histogram"}
)


def _scalar(value: object) -> object:
    """A JSON-serializable view of one span attribute value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


class _SpanHandle:
    """One live span: a context manager that records itself on exit.

    After ``__exit__`` the handle exposes ``wall`` and ``cpu`` (seconds)
    so call sites can feed the same measurement into a histogram
    without timing twice.
    """

    __slots__ = (
        "_tracer",
        "span_id",
        "parent_id",
        "phase",
        "name",
        "attrs",
        "_start",
        "_wall0",
        "_cpu0",
        "wall",
        "cpu",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: str,
        parent_id: str | None,
        phase: str,
        name: str,
        attrs: dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.phase = phase
        self.name = name
        self.attrs = attrs
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall = time.perf_counter() - self._wall0
        self.cpu = time.thread_time() - self._cpu0
        self._tracer._finish(self)


class _NoopSpan:
    """The disabled path's span: enter/exit do nothing, times read 0."""

    __slots__ = ()
    wall = 0.0
    cpu = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects nested spans; thread-safe, per-thread nesting stacks.

    Span ids are ``"<pid hex>-<seq>"`` so spans merged from worker
    processes can never collide with the parent's; parenthood follows
    each thread's own enter/exit stack.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[dict[str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, phase: str, name: str = "", **attrs: object) -> _SpanHandle:
        """Open a span; use as a context manager.

        Args:
            phase: one of :data:`SPAN_PHASES`.
            name: free-form label (detector family, block key, ...).
            **attrs: JSON-scalar attributes recorded on the span.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        handle = _SpanHandle(
            tracer=self,
            span_id=f"{self._pid:x}-{next(self._ids)}",
            parent_id=parent,
            phase=phase,
            name=name,
            attrs={key: _scalar(value) for key, value in attrs.items()},
        )
        stack.append(handle.span_id)
        return handle

    def event(self, phase: str, name: str = "", **attrs: object) -> None:
        """Record an instantaneous (zero-duration) span."""
        with self.span(phase, name, **attrs):
            pass

    def _finish(self, handle: _SpanHandle) -> None:
        stack = self._stack()
        if stack and stack[-1] == handle.span_id:
            stack.pop()
        record: dict[str, object] = {
            "type": "span",
            "schema": TRACE_SCHEMA_VERSION,
            "pid": self._pid,
            "id": handle.span_id,
            "parent": handle.parent_id,
            "phase": handle.phase,
            "name": handle.name,
            "start": handle._start,
            "wall": handle.wall,
            "cpu": handle.cpu,
        }
        if handle.attrs:
            record["attrs"] = handle.attrs
        with self._lock:
            self._records.append(record)

    def records(self) -> list[dict[str, object]]:
        """A copy of every finished span record, completion order."""
        with self._lock:
            return list(self._records)

    def extend(self, records: Iterable[dict[str, object]]) -> None:
        """Adopt spans recorded elsewhere (a worker's snapshot)."""
        with self._lock:
            self._records.extend(records)


class Metrics:
    """Thread-safe counters and histograms.

    Histograms are four-number summaries ``(count, total, min, max)``
    — enough for rates and means without per-observation storage, and
    trivially mergeable across processes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}
        self._updates = 0

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        with self._lock:
            self._updates += 1
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Fold one observation into histogram ``name``."""
        value = float(value)
        with self._lock:
            self._updates += 1
            entry = self._histograms.get(name)
            if entry is None:
                self._histograms[name] = [1, value, value, value]
            else:
                entry[0] += 1
                entry[1] += value
                entry[2] = min(entry[2], value)
                entry[3] = max(entry[3], value)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never counted)."""
        with self._lock:
            return self._counters.get(name, 0)

    @property
    def updates(self) -> int:
        """In-process ``count()``/``observe()`` calls folded so far.

        One hook invocation is one update regardless of the value it
        credits, so this is the exact number of disabled-path calls an
        identical uninstrumented run would make.  :meth:`merge` does
        not contribute — merged snapshots arrive from other processes
        whose hook calls never ran here.
        """
        with self._lock:
            return self._updates

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A picklable copy: ``{"counters": ..., "histograms": ...}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: list(entry)
                    for name, entry in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict[str, dict[str, object]]) -> None:
        """Fold another :meth:`snapshot` into this instance."""
        counters = snapshot.get("counters", {})
        histograms = snapshot.get("histograms", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, other in histograms.items():
                entry = self._histograms.get(name)
                if entry is None:
                    self._histograms[name] = list(other)
                else:
                    entry[0] += other[0]
                    entry[1] += other[1]
                    entry[2] = min(entry[2], other[2])
                    entry[3] = max(entry[3], other[3])


@dataclass(frozen=True)
class TelemetryConfig:
    """The picklable description a worker process rebuilds from.

    Args:
        profile_dir: directory ``.pstats`` profiles are dumped into;
            ``None`` disables profiling (spans/metrics still collect).
    """

    profile_dir: str | None = None


class Telemetry:
    """One run's tracer + metrics + optional profiler registry.

    Args:
        profile_dir: enable the :mod:`cProfile` hook, dumping
            ``.pstats`` files into this directory (created on demand).
    """

    def __init__(self, profile_dir: str | Path | None = None) -> None:
        self.tracer = Tracer()
        self.metrics = Metrics()
        self.profile_dir = (
            str(profile_dir) if profile_dir is not None else None
        )
        self._profilers: list[cProfile.Profile] = []
        self._profiler_lock = threading.Lock()
        self._tlocal = threading.local()

    # -- cross-process transport ------------------------------------------------

    def spec(self) -> TelemetryConfig:
        """The picklable config shipped inside process-worker payloads."""
        return TelemetryConfig(profile_dir=self.profile_dir)

    @classmethod
    def from_spec(
        cls, spec: TelemetryConfig | None
    ) -> "Telemetry | None":
        """Rebuild a worker-side instance (identity on ``None``)."""
        if spec is None:
            return None
        return cls(profile_dir=spec.profile_dir)

    def snapshot(self) -> dict[str, object]:
        """Everything collected so far, as plain picklable data."""
        return {
            "spans": self.tracer.records(),
            "metrics": self.metrics.snapshot(),
        }

    def merge_snapshot(self, snapshot: dict[str, object] | None) -> None:
        """Fold a worker's :meth:`snapshot` into this instance."""
        if snapshot is None:
            return
        self.tracer.extend(snapshot.get("spans", ()))
        self.metrics.merge(snapshot.get("metrics", {}))

    # -- profiling --------------------------------------------------------------

    @contextmanager
    def profiled(self) -> Iterator[None]:
        """Profile the calling thread for the duration of the block.

        Each thread accumulates into its own :class:`cProfile.Profile`
        across every block it runs (profilers are per-thread because
        Python's profile hook is); re-entrant calls nest without
        re-enabling.  No-op unless ``profile_dir`` is configured.
        """
        if self.profile_dir is None:
            yield
            return
        profiler = getattr(self._tlocal, "profiler", None)
        if profiler is None:
            profiler = cProfile.Profile()
            self._tlocal.profiler = profiler
            self._tlocal.depth = 0
            with self._profiler_lock:
                self._profilers.append(profiler)
        self._tlocal.depth += 1
        if self._tlocal.depth == 1:
            profiler.enable()
        try:
            yield
        finally:
            self._tlocal.depth -= 1
            if self._tlocal.depth == 0:
                profiler.disable()

    def dump_profiles(self) -> list[Path]:
        """Write each thread's accumulated profile as a ``.pstats`` file.

        Files are ``profile-<pid>-t<n>.pstats`` under ``profile_dir``;
        repeated calls overwrite with the cumulative statistics.
        Failures are swallowed — profiling must never fail a sweep.
        """
        if self.profile_dir is None:
            return []
        directory = Path(self.profile_dir)
        written = []
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            return []
        with self._profiler_lock:
            profilers = list(self._profilers)
        for index, profiler in enumerate(profilers):
            path = directory / f"profile-{os.getpid()}-t{index}.pstats"
            try:
                profiler.dump_stats(str(path))
            except (OSError, TypeError, ValueError):
                continue
            written.append(path)
        return written

    # -- trace output -----------------------------------------------------------

    def trace_records(self) -> list[dict[str, object]]:
        """Header + spans + metric lines, ready for JSONL emission."""
        spans = self.tracer.records()
        metrics = self.metrics.snapshot()
        counters = metrics["counters"]
        histograms = metrics["histograms"]
        records: list[dict[str, object]] = [
            {
                "type": "trace",
                "schema": TRACE_SCHEMA_VERSION,
                "created": time.time(),
                "pid": os.getpid(),
                "spans": len(spans),
                "counters": len(counters),
                "histograms": len(histograms),
            }
        ]
        records.extend(spans)
        records.extend(
            {
                "type": "counter",
                "schema": TRACE_SCHEMA_VERSION,
                "name": name,
                "value": counters[name],
            }
            for name in sorted(counters)
        )
        for name in sorted(histograms):
            count, total, low, high = histograms[name]
            records.append(
                {
                    "type": "histogram",
                    "schema": TRACE_SCHEMA_VERSION,
                    "name": name,
                    "count": count,
                    "total": total,
                    "min": low,
                    "max": high,
                }
            )
        return records

    def write_trace(self, path: str | Path) -> Path:
        """Emit the schema-versioned JSONL trace file."""
        destination = Path(path)
        if destination.parent != Path(""):
            destination.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps(record, sort_keys=True)
            for record in self.trace_records()
        ]
        destination.write_text("\n".join(lines) + "\n")
        return destination


# -- activation ------------------------------------------------------------------

#: The telemetry instance instrumentation sites report into, if any.
_ACTIVE: Telemetry | None = None


def active() -> Telemetry | None:
    """The currently active :class:`Telemetry` (``None`` = disabled)."""
    return _ACTIVE


@contextmanager
def activated(telemetry: Telemetry | None) -> Iterator[Telemetry | None]:
    """Make ``telemetry`` the active instance for the ``with`` block.

    ``None`` leaves whatever is active untouched, so nested sweeps and
    engines without telemetry compose without special cases.
    """
    global _ACTIVE
    if telemetry is None:
        yield _ACTIVE
        return
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


def span(phase: str, name: str = "", **attrs: object):
    """A span on the active tracer, or the shared no-op handle."""
    telemetry = _ACTIVE
    if telemetry is None:
        return _NOOP_SPAN
    return telemetry.tracer.span(phase, name, **attrs)


def event(phase: str, name: str = "", **attrs: object) -> None:
    """An instantaneous span on the active tracer, if any."""
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.tracer.event(phase, name, **attrs)


def count(name: str, value: float = 1) -> None:
    """Increment a counter on the active metrics, if any."""
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.metrics.count(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active metrics, if any."""
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.metrics.observe(name, value)


def profiled():
    """The active telemetry's per-thread profiler context (or no-op)."""
    telemetry = _ACTIVE
    if telemetry is None or telemetry.profile_dir is None:
        return _NOOP_SPAN
    return telemetry.profiled()


# -- per-process worker profiler --------------------------------------------------

_WORKER_PROFILER: cProfile.Profile | None = None


def _dump_worker_profile(directory: str) -> None:
    profiler = _WORKER_PROFILER
    if profiler is None:
        return
    try:
        profiler.disable()
        path = Path(directory) / f"profile-worker-{os.getpid()}.pstats"
        path.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(path))
    except (OSError, TypeError, ValueError):
        pass


def ensure_worker_profiler(directory: str) -> None:
    """Arm the per-process profiler inside a pool worker (idempotent).

    The profiler stays enabled for the worker's lifetime and its
    statistics are dumped at interpreter exit — workers terminated
    mid-task (a timeout kill) lose their profile, which is the honest
    outcome for a task that never finished.
    """
    global _WORKER_PROFILER
    if _WORKER_PROFILER is not None:
        return
    _WORKER_PROFILER = cProfile.Profile()
    atexit.register(_dump_worker_profile, directory)
    _WORKER_PROFILER.enable()


# -- trace reading & validation ---------------------------------------------------


def _require(condition: bool, line_number: int, message: str) -> None:
    if not condition:
        raise TelemetryError(f"trace line {line_number}: {message}")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_trace_line(
    record: object, line_number: int = 0
) -> dict[str, object]:
    """Validate one parsed trace record against the JSONL schema.

    Hand-rolled (the telemetry layer is dependency-free by design);
    checks types, the schema version, the span phase vocabulary and
    numeric sanity.  Returns the record on success.

    Raises:
        TelemetryError: describing the first violation found.
    """
    _require(isinstance(record, dict), line_number, "record is not an object")
    kind = record.get("type")
    _require(
        kind in _RECORD_TYPES,
        line_number,
        f"unknown record type {kind!r}",
    )
    _require(
        record.get("schema") == TRACE_SCHEMA_VERSION,
        line_number,
        f"schema {record.get('schema')!r} != {TRACE_SCHEMA_VERSION}",
    )
    if kind == "trace":
        for key in ("created", "pid", "spans", "counters", "histograms"):
            _require(
                _is_number(record.get(key)), line_number, f"bad header {key!r}"
            )
    elif kind == "span":
        _require(
            record.get("phase") in SPAN_PHASES,
            line_number,
            f"unknown span phase {record.get('phase')!r}",
        )
        _require(
            isinstance(record.get("name"), str), line_number, "bad span name"
        )
        _require(
            isinstance(record.get("id"), str) and record["id"] != "",
            line_number,
            "bad span id",
        )
        parent = record.get("parent")
        _require(
            parent is None or isinstance(parent, str),
            line_number,
            "bad span parent",
        )
        _require(
            isinstance(record.get("pid"), int), line_number, "bad span pid"
        )
        for key in ("start", "wall", "cpu"):
            _require(
                _is_number(record.get(key)) and record[key] >= 0,
                line_number,
                f"bad span {key!r}",
            )
        attrs = record.get("attrs", {})
        _require(isinstance(attrs, dict), line_number, "bad span attrs")
        for key, value in attrs.items():
            _require(
                isinstance(key, str)
                and (
                    value is None
                    or isinstance(value, (bool, int, float, str))
                ),
                line_number,
                f"non-scalar span attribute {key!r}",
            )
    else:  # counter | histogram
        _require(
            isinstance(record.get("name"), str) and record["name"] != "",
            line_number,
            "bad metric name",
        )
        if kind == "counter":
            _require(
                _is_number(record.get("value")), line_number, "bad counter value"
            )
        else:
            for key in ("count", "total", "min", "max"):
                _require(
                    _is_number(record.get(key)),
                    line_number,
                    f"bad histogram {key!r}",
                )
            _require(
                record["count"] >= 0 and record["min"] <= record["max"],
                line_number,
                "inconsistent histogram bounds",
            )
    return record


def iter_trace(path: str | Path) -> Iterator[dict[str, object]]:
    """Yield validated records from a JSONL trace file.

    Raises:
        TelemetryError: on unparsable lines or schema violations.
    """
    trace_path = Path(path)
    try:
        text = trace_path.read_text()
    except OSError as error:
        raise TelemetryError(f"cannot read trace {trace_path}: {error}") from error
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise TelemetryError(
                f"trace line {line_number}: not valid JSON ({error})"
            ) from error
        yield validate_trace_line(record, line_number)


def read_trace(
    path: str | Path,
) -> tuple[list[dict], list[dict], dict[str, float], dict[str, dict]]:
    """Load a trace file into ``(headers, spans, counters, histograms)``.

    Counter records collapse to a name -> value mapping and histogram
    records to name -> ``{count, total, min, max}``; every line is
    schema-validated on the way in.
    """
    headers: list[dict] = []
    spans: list[dict] = []
    counters: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for record in iter_trace(path):
        kind = record["type"]
        if kind == "trace":
            headers.append(record)
        elif kind == "span":
            spans.append(record)
        elif kind == "counter":
            counters[record["name"]] = (
                counters.get(record["name"], 0) + record["value"]
            )
        else:
            histograms[record["name"]] = {
                "count": record["count"],
                "total": record["total"],
                "min": record["min"],
                "max": record["max"],
            }
    return headers, spans, counters, histograms


def check_trace_counters(
    counters: dict[str, float], spans: list[dict] | None = None
) -> list[str]:
    """Cross-check a trace's event counters against the sweep summaries.

    The sweep engine emits, per sweep, summary counters derived from
    its authoritative sources — its computed-block count
    (``fits.computed``) and the engine cache's stats delta
    (``cache.hits``/``cache.misses``).  The cache summaries must agree
    exactly with the event counters the cache emitted along the way:

    * ``cache.hit``/``cache.miss`` events == the cache stats delta;
    * the serving fleet store's accounting balances: hot-tier inserts
      minus evictions minus removals equals the resident-entry
      counter, the resident byte gauges never go negative, and
      ``serve.delta.diverged`` is zero (a delta-fit that diverged from
      its cold refit is a correctness bug, not an operational event);
    * the micro-batch scheduler's ledger balances: every job admitted
      (``serve.batch.jobs_in``) settled as exactly one of
      ``serve.batch.jobs_out`` or ``serve.batch.refused``, and the
      per-reason flush counters (``serve.batch.flush.solo`` /
      ``.full`` / ``.timeout`` / ``.drain``) sum to
      ``serve.batch.flush``;
    * the plan runner's stage ledger balances: every stage visited
      (``plan.stage.visited``) settled as exactly one of
      ``plan.stage.run``, ``plan.stage.cached`` or
      ``plan.stage.failed``.

    Returns a list of human-readable problems (empty = consistent).
    When ``spans`` is given, parent references are checked to resolve.
    """
    problems = []

    def counter(name: str) -> float:
        return counters.get(name, 0)

    if counter("sweep.count"):
        problems.extend(
            f"{event_name} events ({counter(event_name):g}) != "
            f"engine {summary_name} ({counter(summary_name):g})"
            for event_name, summary_name in (
                ("cache.hit", "cache.hits"),
                ("cache.miss", "cache.misses"),
            )
            if counter(event_name) != counter(summary_name)
        )
    if "serve.hot.insert" in counters or "serve.hot.resident_entries" in counters:
        flow = (
            counter("serve.hot.insert")
            - counter("serve.hot.evict")
            - counter("serve.hot.remove")
        )
        if flow != counter("serve.hot.resident_entries"):
            problems.append(
                f"hot-tier flow (inserts - evictions - removals = {flow:g}) "
                f"!= serve.hot.resident_entries "
                f"({counter('serve.hot.resident_entries'):g})"
            )
    for gauge in ("serve.hot.resident_bytes", "serve.tenants.resident_bytes"):
        if counter(gauge) < 0:
            problems.append(f"{gauge} is negative ({counter(gauge):g})")
    if counter("serve.delta.diverged"):
        problems.append(
            f"serve.delta.diverged is {counter('serve.delta.diverged'):g} "
            "(delta-fits must be bit-identical to cold refits)"
        )
    if counter("serve.batch.jobs_in"):
        settled = counter("serve.batch.jobs_out") + counter(
            "serve.batch.refused"
        )
        if settled != counter("serve.batch.jobs_in"):
            problems.append(
                f"micro-batch jobs settled (out + refused = {settled:g}) "
                f"!= jobs admitted ({counter('serve.batch.jobs_in'):g}) — "
                "a job entered the scheduler and never resolved"
            )
        reasons = sum(
            counter(f"serve.batch.flush.{reason}")
            for reason in ("solo", "full", "timeout", "drain")
        )
        if reasons != counter("serve.batch.flush"):
            problems.append(
                f"micro-batch flush reasons sum to {reasons:g} "
                f"!= serve.batch.flush ({counter('serve.batch.flush'):g}) — "
                "every flush must record exactly one reason"
            )
    if counter("plan.stage.visited"):
        settled = (
            counter("plan.stage.run")
            + counter("plan.stage.cached")
            + counter("plan.stage.failed")
        )
        if settled != counter("plan.stage.visited"):
            problems.append(
                f"plan stages settled (run + cached + failed = {settled:g}) "
                f"!= stages visited ({counter('plan.stage.visited'):g}) — "
                "a stage was visited and never resolved"
            )
    if spans:
        known = {record["id"] for record in spans}
        for record in spans:
            parent = record.get("parent")
            if parent is not None and parent not in known:
                problems.append(
                    f"span {record['id']} references unknown parent {parent}"
                )
                break  # one dangling parent is enough to report
    return problems


def summarize_trace(path: str | Path) -> str:
    """Render a per-phase time table plus the headline rates.

    The human entry point behind ``repro trace summarize``: total wall
    and CPU seconds per span phase, then the cache hit rate, fit and
    retry counts from the metric lines.
    """
    from repro.analysis.report import format_table

    _headers, spans, counters, histograms = read_trace(path)
    by_phase: dict[str, list[float]] = {}
    for record in spans:
        entry = by_phase.setdefault(record["phase"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record["wall"]
        entry[2] += record["cpu"]
    rows = [
        (
            phase,
            by_phase[phase][0],
            f"{by_phase[phase][1]:.3f}",
            f"{by_phase[phase][2]:.3f}",
        )
        for phase in sorted(
            by_phase, key=lambda name: by_phase[name][1], reverse=True
        )
    ]
    blocks = [
        format_table(
            ("phase", "spans", "wall s", "cpu s"),
            rows or [("(none)", 0, "-", "-")],
            title=f"Trace summary — {Path(path).name}",
        )
    ]

    def rate(hit: str, miss: str) -> str:
        total = counters.get(hit, 0) + counters.get(miss, 0)
        if not total:
            return "n/a"
        return f"{counters.get(hit, 0) / total:.1%} of {total:g}"

    lines = [
        f"cache hit rate: {rate('cache.hit', 'cache.miss')}",
        f"fits: {counters.get('fits.computed', 0):g} computed",
        f"retries: {counters.get('task.retries', 0):g} "
        f"({counters.get('task.timeouts', 0):g} timeouts)",
    ]
    batch = histograms.get("kernel.batch_size")
    if batch and batch["count"]:
        lines.append(
            f"kernel batches: {batch['count']:g} "
            f"(mean size {batch['total'] / batch['count']:.0f}, "
            f"max {batch['max']:g})"
        )
    cell = histograms.get("cell.wall")
    if cell and cell["count"]:
        lines.append(
            f"cells scored: {cell['count']:g} "
            f"(mean {cell['total'] / cell['count'] * 1e3:.2f} ms, "
            f"max {cell['max'] * 1e3:.2f} ms)"
        )
    blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
