"""One workload in one fresh process: set up, time a window, verify.

``run.py`` starts this script once per measurement::

    python perfbench/child.py --workload maps --seed 3 --seconds 10 \\
        --trace 0 --t0 <parent monotonic clock at spawn> --workdir DIR

and reads the JSON object it prints on its last line: the set-up time,
the window's raw totals and untraced op latencies (``run.py`` pools
them across processes) and, in a traced run, the per-layer table.
``--doctor`` corrupts one recorded result before verification, so the
benchmark's own tests can show that a wrong result fails the run.

Each ``<name>_workload.py`` module defines ``Workload(seed, workdir,
spans, trace, doctor)`` with ``setup()``, ``run(seconds) -> Window``,
``verify(window) -> [ok per op]``, ``layer_metrics(window)`` and
``close()``, plus the attributes ``setup_ok`` and ``info``.  In-process
workloads run their window with :func:`closed_loop`, which calls their
``prepare`` and ``op``.

Set-up time runs from ``--t0`` (taken by the parent just before the
spawn, on the system-wide monotonic clock) to the first timed op, so
interpreter start and imports count.  In a traced run every other op
is traced; the untraced ops give the tail percentiles and the traced
ones the per-layer table, and the gap between their medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    DOCTOR_KINDS,
    WORKLOADS,
    Measured,
    cpu_probe_ms,
    filesystem_type,
    median,
    peak_rss_mb,
    process_cpu_s,
    summarize,
)
from spans import SpanRecorder

@dataclass
class Window:
    """What the timed window observed, in op order."""

    latencies: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    roots: list[int | None] = field(default_factory=list)
    wall_s: float = 0.0
    #: CPU seconds and peak RSS of the system under test.
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)


def closed_loop(workload, seconds: float, trace: bool, spans: SpanRecorder):
    """Run ``workload.prepare(k)`` / ``workload.op(k, ...)`` until time is up.

    ``prepare`` makes op ``k``'s inputs outside the op's timer; ``op``
    is timed.  With ``trace``, every even op runs inside an ``op`` span
    that the workload's own spans hang from.
    """
    window = Window()
    cpu_before = process_cpu_s()
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    end = started
    while time.perf_counter() < deadline:
        inputs = workload.prepare(index)
        traced = trace and index % 2 == 0
        root = spans.begin("op") if traced else None
        begin = spans.starts[root] if traced else time.perf_counter()
        workload.op(index, inputs, root)
        end = time.perf_counter()
        if root is not None:
            spans.ends[root] = end
        window.latencies.append(end - begin)
        window.traced.append(traced)
        window.roots.append(root)
        index += 1
    window.wall_s = end - started
    window.cpu_s = process_cpu_s() - cpu_before
    window.peak_rss_mb = peak_rss_mb()
    return window


def plain_latencies_ms(window: Window) -> list[float]:
    return [
        latency * 1e3
        for latency, traced in zip(window.latencies, window.traced)
        if not traced
    ]


def trace_metrics(window: Window, spans: SpanRecorder) -> dict:
    """Tail percentiles of untraced ops and the tracing figures."""
    plain = plain_latencies_ms(window)
    traced = [
        latency * 1e3
        for latency, was_traced in zip(window.latencies, window.traced)
        if was_traced
    ]
    layers = {
        "op_p90_ms": summarize(plain, 0.9),
        "op_p99_ms": summarize(plain, 0.99),
        "op_max_ms": Measured(max(plain) if plain else None, len(plain)),
    }
    if traced and plain:
        layers["trace.overhead_share"] = Measured(
            median(traced) / median(plain) - 1.0, len(traced)
        )
    if traced:
        roots = [root for root in window.roots if root is not None]
        own = spans.self_times()
        total = sum(spans.duration(root) for root in roots)
        layers["trace.accounted_share"] = Measured(
            1.0 - sum(own[root] for root in roots) / total, len(roots)
        )
    return layers


def layer_percentiles(spans: SpanRecorder, wanted: dict[str, tuple[str, float]]):
    """``{metric: (span name, quantile)}`` -> self-time percentiles in ms."""
    grouped = spans.self_times_by_name()
    return {
        metric: summarize([s * 1e3 for s in grouped.get(name, [])], q)
        for metric, (name, q) in wanted.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--doctor", choices=DOCTOR_KINDS, default=None)
    args = parser.parse_args(argv)
    # Let a terminated run still stop the server it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    module = importlib.import_module(f"{args.workload}_workload")
    spans = SpanRecorder()
    workload = module.Workload(
        seed=args.seed,
        workdir=args.workdir,
        spans=spans,
        trace=bool(args.trace),
        doctor=args.doctor,
    )
    try:
        workload.setup()
        setup_s = time.monotonic() - args.t0
        probe_before = cpu_probe_ms()
        window = workload.run(args.seconds)
        probe_after = cpu_probe_ms()
        ok = workload.verify(window)
        layers = {}
        if args.trace:
            layers = trace_metrics(window, spans)
            layers.update(workload.layer_metrics(window))
            layers["host.probe_ms"] = Measured(
                (probe_before + probe_after) / 2.0, 2
            )
        result = {
            "setup_s": setup_s,
            "setup_ok": workload.setup_ok,
            "attempted": window.ops,
            "verified": sum(ok),
            "wall_s": window.wall_s,
            "cpu_s": window.cpu_s,
            "peak_rss_mb": window.peak_rss_mb,
            "latencies_ms": plain_latencies_ms(window),
            "layers": {k: [m.value, m.samples] for k, m in layers.items()},
            "info": {
                "filesystem": filesystem_type(args.workdir),
                "probe_ms": [probe_before, probe_after],
                **workload.info,
            },
        }
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
