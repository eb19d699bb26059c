"""The percentile rule, the name rules and the declared metrics."""

import numpy as np
import pytest

from common import (
    END_TO_END,
    MIN_TAIL_SAMPLES,
    PER_LAYER,
    WORKLOADS,
    check_name,
    check_unit,
    percentile,
    samples_beyond,
    summarize,
    tail_percentile,
)
from run import render


def test_percentile_matches_numpy_linear():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q * 100))


def test_samples_beyond_counts_ranks_above_the_quantile():
    assert samples_beyond(100, 0.9) == 10  # position 89.1: ranks 90..99
    assert samples_beyond(91, 0.9) == 9  # position 81 exactly: ranks 82..90
    assert samples_beyond(11, 0.5) == 5
    assert samples_beyond(1000, 0.99) == 10


def test_tail_needs_ten_samples_beyond_it():
    assert MIN_TAIL_SAMPLES == 10
    assert tail_percentile(range(91), 0.9) is None
    assert tail_percentile(range(92), 0.9) == pytest.approx(81.9)
    assert tail_percentile(range(901), 0.99) is None
    assert tail_percentile(range(902), 0.99) is not None
    assert tail_percentile([], 0.9) is None


def test_summarize_always_carries_the_sample_count():
    assert summarize([], 0.5).samples == 0
    few = summarize(range(50), 0.9)
    assert few.value is None and few.samples == 50
    median = summarize([3.0], 0.5)
    assert median.value == 3.0 and median.samples == 1


def test_rendered_lines_show_unit_and_sample_count():
    measured = {"setup_s": [1.5, 3], "op_p50_ms": [None, 7]}
    lines, metrics = render(END_TO_END, measured)
    assert len(lines) == len(END_TO_END)
    for spec, line in zip(END_TO_END, lines):
        assert spec.name in line and spec.unit in line and " n=" in line
    assert "n=3" in lines[0]
    assert metrics["setup_s"] == {"value": 1.5, "unit": "s"}
    # Unreported values read 0 in the JSON and "-" in the table.
    p50 = next(line for line in lines if "op_p50_ms" in line)
    assert " - " in p50 and p50.endswith("n=7")
    assert metrics["op_p50_ms"]["value"] == 0.0


@pytest.mark.parametrize(
    "name", ["setup_s", "engine.family_ms.neural-network", "0ok", "a" * 64]
)
def test_legal_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "maps/setup_s", "_x", ".x", "a b", "a" * 65, "ops:s"]
)
def test_illegal_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "share", "MB"):
        assert check_unit(unit) == unit
    for unit in ("", "m s", "a" * 17, "µs"):
        with pytest.raises(ValueError):
            check_unit(unit)


def test_declared_names_and_units_are_legal_and_unique():
    names = [spec.name for spec in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for spec in END_TO_END + PER_LAYER:
        check_name(spec.name)
        check_unit(spec.unit)
        assert spec.better in ("lower", "higher")
    for spec in END_TO_END:
        assert 0 < spec.bound <= 0.25
    setup = next(spec for spec in END_TO_END if spec.name == "setup_s")
    assert setup.bound == max(spec.bound for spec in END_TO_END)
    assert len(WORKLOADS) == len(set(WORKLOADS))
    for workload in WORKLOADS:
        check_name(workload)
