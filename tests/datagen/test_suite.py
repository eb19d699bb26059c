"""Tests for repro.datagen.suite — the 112-case evaluation corpus."""

from __future__ import annotations

import pytest

from repro.datagen.suite import EvaluationSuite, SuiteCase, build_suite
from repro.exceptions import AnomalySynthesisError, InjectionError


class TestSuiteStructure:
    def test_case_count_matches_paper(self, suite):
        # 8 anomaly sizes x 14 detector windows = 112 test cases.
        assert suite.case_count() == 112

    def test_anomaly_sizes(self, suite):
        assert suite.anomaly_sizes == tuple(range(2, 10))

    def test_window_lengths(self, suite):
        assert suite.window_lengths == tuple(range(2, 16))

    def test_cases_iterate_in_grid_order(self, suite):
        cases = list(suite.cases())
        assert len(cases) == 112
        assert all(isinstance(case, SuiteCase) for case in cases)
        assert cases[0].anomaly_size == 2 and cases[0].window_length == 2
        assert cases[-1].anomaly_size == 9 and cases[-1].window_length == 15

    def test_cases_share_stream_per_anomaly_size(self, suite):
        cases = [case for case in suite.cases() if case.anomaly_size == 4]
        assert len(cases) == 14
        assert all(case.injected is cases[0].injected for case in cases)

    def test_stream_lookup(self, suite):
        injected = suite.stream(5)
        assert injected.anomaly_size == 5

    def test_unknown_stream_raises(self, suite):
        with pytest.raises(InjectionError, match="no test stream"):
            suite.stream(77)

    def test_anomaly_lookup(self, suite):
        assert suite.anomaly(3).size == 3

    def test_unknown_anomaly_raises(self, suite):
        with pytest.raises(AnomalySynthesisError, match="no anomaly"):
            suite.anomaly(77)

    def test_params_passthrough(self, suite, params):
        assert suite.params == params


class TestSuiteContents:
    def test_each_stream_contains_its_anomaly_once(self, suite, training):
        for size in suite.anomaly_sizes:
            injected = suite.stream(size)
            anomaly = suite.anomaly(size).sequence
            stream_list = injected.stream.tolist()
            anomaly_list = list(anomaly)
            occurrences = sum(
                1
                for i in range(len(stream_list) - size + 1)
                if stream_list[i : i + size] == anomaly_list
            )
            assert occurrences == 1

    def test_anomalies_foreign_to_training(self, suite, training):
        analyzer = training.analyzer
        for size in suite.anomaly_sizes:
            assert analyzer.is_foreign(suite.anomaly(size).sequence)

    def test_rare_parts_for_sizes_three_up(self, suite):
        for size in suite.anomaly_sizes:
            expected = size >= 3
            assert suite.anomaly(size).parts_rare == expected


class TestSuiteConstruction:
    def test_mismatched_streams_rejected(self, suite, training):
        anomalies = {2: suite.anomaly(2)}
        streams = {3: suite.stream(3)}
        with pytest.raises(InjectionError, match="disagree"):
            EvaluationSuite(training=training, anomalies=anomalies, streams=streams)

    def test_build_with_explicit_training(self, training):
        small = build_suite(training=training, stream_length=400)
        assert small.case_count() == 112

    def test_candidate_redraw_on_injection_failure(self, training, monkeypatch):
        # Force the first candidate of one size to fail injection; the
        # builder must fall through to the next candidate.
        import repro.datagen.suite as suite_module

        real_inject = suite_module.inject_anomaly
        failed_once = {"done": False}

        def flaky_inject(anomaly, *args, **kwargs):
            if not failed_once["done"]:
                failed_once["done"] = True
                raise InjectionError("synthetic failure")
            return real_inject(anomaly, *args, **kwargs)

        monkeypatch.setattr(suite_module, "inject_anomaly", flaky_inject)
        rebuilt = suite_module.build_suite(training=training, stream_length=400)
        assert rebuilt.case_count() == 112
        assert failed_once["done"]
