"""Metric registry, percentile rule and host probes shared by the workloads.

Every metric the benchmark can print is declared once, with its unit,
in ``BENCHMARK.json`` at the root of the repository; this module loads
that list for the workloads and the tests.  It imports only the
standard library: the parent process (``run.py``) and the steadiness
report use it without loading the program under test.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import time
from dataclasses import dataclass
from pathlib import Path

#: Names: a letter or digit, then up to 63 letters, digits, ``_ . -``.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: Units: 1 to 16 letters, digits, ``_ / % . -``.
UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The benchmark's declaration: workloads, metrics, bounds, run length.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
RUN_SECONDS = BENCHMARK["run_seconds"]
#: Results ``--doctor`` can corrupt, to show that verification fails.
DOCTOR_KINDS = ("score", "map", "fit")


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None


#: End-to-end metrics, printed by every untraced run of every workload.
END_TO_END = tuple(MetricSpec(**spec) for spec in BENCHMARK["end_to_end"])
#: Per-layer metrics, printed by every traced run.  A metric of a layer
#: the workload does not run reads 0 with 0 samples.
PER_LAYER = tuple(MetricSpec(**spec) for spec in BENCHMARK["per_layer"])


def check_name(name: str) -> str:
    """Return ``name`` if it is a legal metric or workload name."""
    if not NAME_PATTERN.match(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it is a legal unit."""
    if not UNIT_PATTERN.match(unit):
        raise ValueError(f"illegal unit {unit!r}")
    return unit


# -- percentiles -------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1), as numpy's default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 0.5)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples rank above the ``q``-quantile."""
    return count - 1 - math.floor(q * (count - 1) + 1e-9)


def tail_percentile(values, q: float) -> float | None:
    """The ``q``-quantile, or ``None`` without enough samples beyond it.

    A tail percentile needs at least :data:`MIN_TAIL_SAMPLES` samples
    above it; with fewer, its value is mostly one or two outliers.
    """
    values = list(values)
    if not values or samples_beyond(len(values), q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)


@dataclass(frozen=True)
class Measured:
    """One reported value with the number of samples behind it."""

    value: float | None
    samples: int


def summarize(values, q: float) -> Measured:
    """Median (``q`` = 0.5) or tail percentile of ``values`` with its count."""
    values = list(values)
    if not values:
        return Measured(None, 0)
    if q <= 0.5:
        return Measured(percentile(values, q), len(values))
    return Measured(tail_percentile(values, q), len(values))


# -- host probes -------------------------------------------------------------


def cpu_probe_ms(iterations: int = 200_000) -> float:
    """Wall time of a fixed pure-Python loop: a gauge of host speed."""
    started = time.perf_counter()
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return (time.perf_counter() - started) * 1e3


def process_cpu_s() -> float:
    """User plus system CPU seconds of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of another process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of another process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path`` (``unknown`` if unseen)."""
    target = str(Path(path).resolve())
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype
