"""Tests for repro.runtime.telemetry — spans, metrics, traces, merges."""

from __future__ import annotations

import json
import threading

import pytest

from repro.datagen.suite import build_suite
from repro.datagen.training import generate_training_data
from repro.exceptions import TelemetryError
from repro.params import scaled_params
from repro.runtime import SweepEngine
from repro.runtime.resilience import ResiliencePolicy
from repro.runtime.telemetry import (
    SPAN_PHASES,
    TRACE_SCHEMA_VERSION,
    Metrics,
    Telemetry,
    activated,
    check_trace_counters,
    count,
    iter_trace,
    observe,
    read_trace,
    span,
    summarize_trace,
    validate_trace_line,
)

#: Families the sweep tests exercise; two is enough to cover a packed
#: membership family (stide) and a count family (markov) cheaply.
FAMILIES = ("stide", "markov")


@pytest.fixture(scope="module")
def small_suite():
    """A reduced corpus so instrumented sweeps stay fast."""
    params = scaled_params(8_000, seed=11)
    return build_suite(training=generate_training_data(params))


def _assert_maps_identical(expected, actual, suite) -> None:
    for anomaly_size in suite.anomaly_sizes:
        for window_length in suite.window_lengths:
            assert expected.cell(anomaly_size, window_length) == actual.cell(
                anomaly_size, window_length
            )


class TestTracerSpans:
    def test_nesting_follows_the_enter_exit_stack(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("sweep", "root") as root:
            with telemetry.tracer.span("block", "outer") as outer:
                with telemetry.tracer.span("fit", "inner") as inner:
                    pass
            with telemetry.tracer.span("block", "sibling") as sibling:
                pass
        by_id = {record["id"]: record for record in telemetry.tracer.records()}
        assert by_id[inner.span_id]["parent"] == outer.span_id
        assert by_id[outer.span_id]["parent"] == root.span_id
        assert by_id[sibling.span_id]["parent"] == root.span_id
        assert by_id[root.span_id]["parent"] is None

    def test_records_complete_in_exit_order(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("sweep", "outer"):
            with telemetry.tracer.span("block", "inner"):
                pass
        names = [record["name"] for record in telemetry.tracer.records()]
        assert names == ["inner", "outer"]

    def test_span_carries_times_and_scalar_attrs(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("fit", "stide", window_length=4, note=None):
            pass
        (record,) = telemetry.tracer.records()
        assert record["phase"] == "fit"
        assert record["attrs"] == {"window_length": 4, "note": None}
        assert record["wall"] >= 0 and record["cpu"] >= 0
        validate_trace_line(record)

    def test_threads_nest_independently(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("sweep", "main") as root:
            def worker():
                with telemetry.tracer.span("block", "threaded"):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        threaded = next(
            record
            for record in telemetry.tracer.records()
            if record["name"] == "threaded"
        )
        # The worker thread has its own stack: no cross-thread parent.
        assert threaded["parent"] is None
        assert root.span_id is not None


class TestModuleHelpers:
    def test_helpers_are_noops_when_inactive(self):
        telemetry = Telemetry()
        handle = span("fit", "ignored")
        with handle:
            pass
        count("nothing")
        observe("nothing", 1.0)
        assert handle.wall == 0.0
        assert len(telemetry.tracer) == 0

    def test_activated_routes_and_restores(self):
        telemetry = Telemetry()
        with activated(telemetry):
            with span("fit", "active"):
                pass
            count("events", 2)
            observe("sizes", 5.0)
        # Deactivated again: nothing further lands on the instance.
        count("events")
        assert telemetry.metrics.counter("events") == 2
        assert [r["name"] for r in telemetry.tracer.records()] == ["active"]

    def test_activated_none_is_passthrough(self):
        telemetry = Telemetry()
        with activated(telemetry):
            with activated(None):
                count("through.none")
        assert telemetry.metrics.counter("through.none") == 1


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = Metrics()
        metrics.count("hits")
        metrics.count("hits", 4)
        assert metrics.counter("hits") == 5
        assert metrics.counter("never") == 0

    def test_histogram_four_number_summary(self):
        metrics = Metrics()
        for value in (3.0, 1.0, 2.0):
            metrics.observe("sizes", value)
        summary = metrics.snapshot()["histograms"]["sizes"]
        assert summary == [3, 6.0, 1.0, 3.0]

    def test_merge_folds_counters_and_histograms(self):
        left, right = Metrics(), Metrics()
        left.count("hits", 2)
        left.observe("sizes", 10.0)
        right.count("hits", 3)
        right.count("misses", 1)
        right.observe("sizes", 2.0)
        right.observe("fresh", 7.0)
        left.merge(right.snapshot())
        snapshot = left.snapshot()
        assert snapshot["counters"] == {"hits": 5, "misses": 1}
        assert snapshot["histograms"]["sizes"] == [2, 12.0, 2.0, 10.0]
        assert snapshot["histograms"]["fresh"] == [1, 7.0, 7.0, 7.0]


class TestTraceRoundTrip:
    def _collected(self) -> Telemetry:
        telemetry = Telemetry()
        with telemetry.tracer.span("sweep", "run", executor="serial"):
            with telemetry.tracer.span("fit", "stide", window_length=4):
                pass
        telemetry.metrics.count("cache.hit", 3)
        telemetry.metrics.observe("kernel.batch_size", 17)
        return telemetry

    def test_jsonl_round_trip(self, tmp_path):
        telemetry = self._collected()
        path = telemetry.write_trace(tmp_path / "trace.jsonl")
        headers, spans, counters, histograms = read_trace(path)
        assert len(headers) == 1
        assert headers[0]["schema"] == TRACE_SCHEMA_VERSION
        assert headers[0]["spans"] == len(spans) == 2
        assert counters == {"cache.hit": 3}
        assert histograms["kernel.batch_size"]["count"] == 1
        assert {record["phase"] for record in spans} <= SPAN_PHASES

    def test_every_line_validates(self, tmp_path):
        path = self._collected().write_trace(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert lines
        for number, line in enumerate(lines, start=1):
            validate_trace_line(json.loads(line), number)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"type": "mystery"}, "unknown record type"),
            ({"schema": TRACE_SCHEMA_VERSION + 1}, "schema"),
            ({"phase": "lunch"}, "unknown span phase"),
            ({"wall": -1.0}, "bad span 'wall'"),
            ({"attrs": {"bad": [1, 2]}}, "non-scalar span attribute"),
        ],
    )
    def test_validator_rejects_bad_spans(self, mutation, message):
        record = {
            "type": "span",
            "schema": TRACE_SCHEMA_VERSION,
            "pid": 1,
            "id": "1-1",
            "parent": None,
            "phase": "fit",
            "name": "stide",
            "start": 0.0,
            "wall": 0.0,
            "cpu": 0.0,
        }
        record.update(mutation)
        with pytest.raises(TelemetryError, match=message):
            validate_trace_line(record, 7)

    def test_validator_rejects_inconsistent_histogram(self):
        record = {
            "type": "histogram",
            "schema": TRACE_SCHEMA_VERSION,
            "name": "sizes",
            "count": 2,
            "total": 3.0,
            "min": 5.0,
            "max": 1.0,
        }
        with pytest.raises(TelemetryError, match="inconsistent histogram"):
            validate_trace_line(record)

    def test_iter_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            list(iter_trace(path))

    def test_check_trace_counters_flags_mismatch(self):
        problems = check_trace_counters(
            {"sweep.count": 1, "cache.hit": 3, "cache.hits": 2}
        )
        assert any("cache.hit" in problem for problem in problems)

    @pytest.mark.parametrize(
        "counters, needle",
        [
            ({"sweep.count": 1, "cache.hit": 3, "cache.hits": 2}, "cache.hit"),
            ({"sweep.count": 1, "cache.miss": 1}, "cache.miss"),
            ({"sweep.count": 1, "store.hit": 2, "fits.from_store": 1},
             "store.hit"),
            (
                {
                    "sweep.count": 1,
                    "sweep.with_store": 1,
                    "store.miss": 1,
                    "fits.computed": 3,
                },
                "store.miss",
            ),
            (
                {
                    "serve.hot.insert": 3,
                    "serve.hot.evict": 1,
                    "serve.hot.resident_entries": 1,
                },
                "hot-tier flow",
            ),
            ({"serve.hot.resident_bytes": -8}, "negative"),
            ({"serve.delta.diverged": 1}, "diverged"),
            ({"serve.batch.jobs_in": 5, "serve.batch.jobs_out": 3},
             "never resolved"),
            (
                {
                    "serve.batch.jobs_in": 2,
                    "serve.batch.jobs_out": 2,
                    "serve.batch.flush": 3,
                    "serve.batch.flush.solo": 2,
                },
                "flush reasons",
            ),
            (
                {
                    "plan.stage.visited": 3,
                    "plan.stage.run": 1,
                    "plan.stage.cached": 1,
                },
                "plan stages",
            ),
        ],
        ids=[
            "cache-hit",
            "cache-miss",
            "store-hit",
            "store-miss",
            "hot-tier-flow",
            "negative-gauge",
            "delta-diverged",
            "batch-settle",
            "flush-reasons",
            "plan-stages",
        ],
    )
    def test_check_trace_counters_flags_each_rule(
        self, counters, needle, tmp_path, capsys
    ):
        from repro.cli import main

        problems = check_trace_counters(counters)
        assert len(problems) == 1 and needle in problems[0], problems
        doctored = Telemetry()
        for name, value in counters.items():
            doctored.metrics.count(name, value)
        path = doctored.write_trace(tmp_path / "doctored.jsonl")
        assert main(["trace", "validate", str(path)]) == 1
        assert needle in capsys.readouterr().err
        clean = Telemetry().write_trace(tmp_path / "clean.jsonl")
        assert main(["trace", "validate", str(clean)]) == 0

    def test_check_trace_counters_flags_dangling_parent(self):
        spans = [
            {"id": "1-2", "parent": "1-404", "phase": "fit", "name": ""},
        ]
        problems = check_trace_counters({}, spans)
        assert any("unknown parent" in problem for problem in problems)


class TestSweepTelemetry:
    """The engine-level contract: consistent counters, identical maps."""

    def _swept(self, small_suite, **engine_kwargs):
        telemetry = Telemetry()
        engine = SweepEngine(telemetry=telemetry, **engine_kwargs)
        maps = engine.sweep(FAMILIES, small_suite)
        return telemetry, maps

    def _check(self, telemetry, tmp_path, label):
        path = telemetry.write_trace(tmp_path / f"{label}.jsonl")
        headers, spans, counters, histograms = read_trace(path)
        assert check_trace_counters(counters, spans) == []
        return spans, counters, histograms

    def test_serial_sweep_counters_consistent(self, small_suite, tmp_path):
        telemetry, _maps = self._swept(small_suite, executor="serial")
        spans, counters, histograms = self._check(
            telemetry, tmp_path, "serial"
        )
        assert counters["sweep.count"] == 1
        assert counters["cache.hit"] == counters["cache.hits"]
        assert {record["phase"] for record in spans} >= {
            "sweep",
            "block",
            "fit",
            "score",
        }
        grid = len(small_suite.anomaly_sizes) * len(small_suite.window_lengths)
        assert histograms["cell.wall"]["count"] == grid * len(FAMILIES)

    def test_process_sweep_merges_worker_snapshots(
        self, small_suite, tmp_path
    ):
        telemetry, _maps = self._swept(
            small_suite, executor="process", max_workers=2
        )
        spans, counters, _ = self._check(telemetry, tmp_path, "process")
        # Worker spans rode back in snapshots: more than one pid merged.
        assert len({record["pid"] for record in spans}) > 1
        assert counters["cache.hit"] == counters["cache.hits"]

    def test_resilient_report_carries_the_metrics(
        self, small_suite, tmp_path
    ):
        telemetry = Telemetry()
        engine = SweepEngine(
            max_workers=2,
            resilience=ResiliencePolicy(),
            telemetry=telemetry,
        )
        _maps, report = engine.sweep_with_report(FAMILIES, small_suite)
        spans, counters, _ = self._check(telemetry, tmp_path, "resilient")
        assert report.telemetry is not None
        assert report.telemetry["counters"] == counters

    def test_store_counters_mirror_fit_provenance(
        self, small_suite, tmp_path
    ):
        store_dir = tmp_path / "store"
        cold = Telemetry()
        engine = SweepEngine(
            executor="serial",
            store=store_dir,
            telemetry=cold,
        )
        engine.sweep(FAMILIES, small_suite)
        _headers, spans, cold_counters, _ = read_trace(
            cold.write_trace(tmp_path / "cold.jsonl")
        )
        assert check_trace_counters(cold_counters, spans) == []
        assert cold_counters["store.miss"] == cold_counters["fits.computed"]
        assert cold_counters["store.put"] == cold_counters["fits.computed"]
        assert cold_counters.get("store.hit", 0) == 0

        warm = Telemetry()
        rerun = SweepEngine(
            executor="serial",
            store=store_dir,
            telemetry=warm,
        )
        rerun.sweep(FAMILIES, small_suite)
        _, spans, warm_counters, _ = read_trace(
            warm.write_trace(tmp_path / "warm.jsonl")
        )
        assert check_trace_counters(warm_counters, spans) == []
        assert warm_counters["fits.computed"] == 0
        assert warm_counters["store.hit"] == warm_counters["fits.from_store"]

    def test_disabled_telemetry_is_a_no_op_on_the_maps(self, small_suite):
        plain = SweepEngine(executor="serial").sweep(FAMILIES, small_suite)
        telemetry = Telemetry()
        traced = SweepEngine(executor="serial", telemetry=telemetry).sweep(
            FAMILIES, small_suite
        )
        for name in FAMILIES:
            _assert_maps_identical(plain[name], traced[name], small_suite)
        assert len(telemetry.tracer) > 0  # it really was collecting

    def test_summarize_renders_the_phase_table(self, small_suite, tmp_path):
        telemetry, _maps = self._swept(small_suite, executor="serial")
        path = telemetry.write_trace(tmp_path / "summary.jsonl")
        rendered = summarize_trace(path)
        assert "phase" in rendered and "sweep" in rendered
        assert "cache hit rate" in rendered
        assert "fits:" in rendered


class TestProfiling:
    def test_profiled_dumps_pstats(self, tmp_path):
        telemetry = Telemetry(profile_dir=tmp_path / "profiles")
        with telemetry.profiled():
            sum(range(1000))
        written = telemetry.dump_profiles()
        assert written and all(path.suffix == ".pstats" for path in written)

    def test_profiled_is_reentrant(self, tmp_path):
        telemetry = Telemetry(profile_dir=tmp_path / "profiles")
        with telemetry.profiled():
            with telemetry.profiled():
                pass
        assert telemetry.dump_profiles()

    def test_no_profile_dir_is_a_no_op(self):
        telemetry = Telemetry()
        with telemetry.profiled():
            pass
        assert telemetry.dump_profiles() == []

    def test_engine_profile_hook(self, small_suite, tmp_path):
        profile_dir = tmp_path / "profiles"
        telemetry = Telemetry(profile_dir=profile_dir)
        engine = SweepEngine(executor="serial", telemetry=telemetry)
        engine.sweep(("stide",), small_suite)
        assert list(profile_dir.glob("profile-*.pstats"))
