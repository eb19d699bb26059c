"""Tests for repro.cli — the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

SMALL = ["--stream-len", "60000"]


class TestModuleEntryPoint:
    def test_python_dash_m_repro_help(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "maps" in result.stdout and "census" in result.stdout


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_maps_defaults(self):
        args = build_parser().parse_args(["maps"])
        assert args.command == "maps"
        assert args.detectors is None

    def test_census_program_option(self):
        args = build_parser().parse_args(["census", "--program", "lpr"])
        assert args.program == "lpr"

    @pytest.mark.parametrize("command", ("maps", "atlas", "select"))
    def test_jobs_flag(self, command):
        args = build_parser().parse_args([command, "--jobs", "4"])
        assert args.jobs == 4

    def test_jobs_defaults_to_serial(self):
        args = build_parser().parse_args(["maps"])
        assert args.jobs == 1

    @pytest.mark.parametrize("command", ("maps", "atlas", "select"))
    def test_every_sweep_runs_on_an_engine(self, command):
        from repro.cli import _engine
        from repro.runtime import SweepEngine

        serial = _engine(build_parser().parse_args([command]))
        assert isinstance(serial, SweepEngine)
        assert serial.executor == "serial"
        assert serial.resilience is None
        pooled = _engine(build_parser().parse_args([command, "--jobs", "2"]))
        assert pooled.executor == "process"
        assert pooled.max_workers == 2

    @pytest.mark.parametrize(
        "knob",
        (
            ["--executor", "serial"],
            ["--no-shm"],
            ["--store", "x"],
            ["--store-cap", "1"],
        ),
    )
    def test_backend_knobs_are_gone(self, knob, capsys):
        for command in ("maps", "atlas", "select"):
            with pytest.raises(SystemExit) as exited:
                build_parser().parse_args([command, *knob])
            assert exited.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestMapsCommand:
    def test_single_detector_map(self, capsys):
        exit_code = main(["maps", *SMALL, "--detectors", "stide"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Performance map of stide" in out
        assert "84/112" in out

    def test_parallel_jobs_produce_same_map(self, capsys):
        exit_code = main(
            ["maps", *SMALL, "--detectors", "stide", "--jobs", "4"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Performance map of stide" in out
        assert "84/112" in out

    def test_two_detectors_include_agreement(self, capsys):
        exit_code = main(
            ["maps", *SMALL, "--detectors", "stide", "lane-brodley"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "lane-brodley subset of stide" in out

    def test_unknown_detector_fails_cleanly(self, capsys):
        exit_code = main(["maps", *SMALL, "--detectors", "nonsense"])
        assert exit_code == 2
        assert "unknown detectors" in capsys.readouterr().err


class TestAnomalyCommand:
    def test_synthesizes_and_prints(self, capsys):
        exit_code = main(["anomaly", *SMALL, "--size", "5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "MFS of size 5" in out
        assert "composed of rare parts: True" in out

    def test_impossible_size_fails_cleanly(self, capsys):
        exit_code = main(["anomaly", *SMALL, "--size", "1"])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestCensusCommand:
    def test_paper_corpus_census(self, capsys):
        exit_code = main(["census", *SMALL, "--max-length", "4"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Minimal-foreign-sequence census" in out
        assert "deploy Stide with DW >=" in out

    def test_unknown_program_fails_cleanly(self, capsys):
        exit_code = main(["census", "--program", "nosuch"])
        assert exit_code == 2
        assert "unknown program" in capsys.readouterr().err


class TestAtlasCommand:
    def test_atlas_table(self, capsys):
        exit_code = main(
            ["atlas", *SMALL, "--detectors", "stide", "hamming"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Detector atlas" in out
        assert "hamming subset of stide" in out

    def test_unknown_detector_fails_cleanly(self, capsys):
        exit_code = main(["atlas", *SMALL, "--detectors", "bogus"])
        assert exit_code == 2
        assert "unknown detectors" in capsys.readouterr().err


class TestProfileCommand:
    def test_sparklines_rendered(self, capsys):
        exit_code = main(
            ["profile", *SMALL, "--size", "5", "--window", "3",
             "--detectors", "stide", "markov"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "marks the span" in out
        assert "stide" in out and "markov" in out

    def test_unknown_size_fails_cleanly(self, capsys):
        exit_code = main(["profile", *SMALL, "--size", "77"])
        assert exit_code == 2
        assert "outside the suite" in capsys.readouterr().err

    def test_unknown_detector_fails_cleanly(self, capsys):
        exit_code = main(["profile", *SMALL, "--detectors", "bogus"])
        assert exit_code == 2
        assert "unknown detectors" in capsys.readouterr().err


class TestSelectCommand:
    def test_unknown_size_yields_gated_recipe(self, capsys):
        exit_code = main(["select", *SMALL, "--max-window", "8"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "deploy markov gated by stide" in out

    def test_known_size_prefers_stide(self, capsys):
        exit_code = main(["select", *SMALL, "--size", "4", "--max-window", "10"])
        assert exit_code == 0
        assert "deploy stide" in capsys.readouterr().out

    def test_undetectable_profile_fails_cleanly(self, capsys):
        exit_code = main(
            ["select", *SMALL, "--size", "9", "--max-window", "6",
             "--detectors", "stide", "lane-brodley"]
        )
        assert exit_code == 2
        assert "not detectable" in capsys.readouterr().err


class TestSuppressionCommand:
    def test_deployment_table(self, capsys):
        exit_code = main(
            ["suppression", "--program", "lpr", "--sessions", "120"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "markov gated by stide" in out
        assert "hit rate" in out

    def test_unknown_program_fails_cleanly(self, capsys):
        exit_code = main(["suppression", "--program", "nosuch"])
        assert exit_code == 2
        assert "unknown program" in capsys.readouterr().err


class TestServeCommand:
    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_non_positive_task_timeout_fails_cleanly(
        self, tmp_path, capsys, timeout
    ):
        exit_code = main(
            ["serve", "--state-dir", str(tmp_path), "--task-timeout", timeout]
        )
        assert exit_code == 2
        assert "task_timeout must be > 0" in capsys.readouterr().err


class TestPlanCommand:
    def _quick_plan_file(self, tmp_path):
        import json

        from repro.plans import ExperimentPlan, RenderStage, SweepStage

        plan = ExperimentPlan(
            name="cli-quick",
            stages=(
                SweepStage(
                    name="maps",
                    stream_len=12000,
                    detectors=("stide",),
                    anomaly_sizes=(2, 3),
                    window_sizes=(2, 3, 4),
                ),
                RenderStage(name="charts", needs=("maps",)),
            ),
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        return path

    def test_parser_requires_plan_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    def test_validate_prints_fingerprints(self, tmp_path, capsys):
        path = self._quick_plan_file(tmp_path)
        assert main(["plan", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "plan 'cli-quick': 2 stage(s), order valid" in out
        assert "stage charts: render needs=maps" in out

    def test_validate_rejects_cycle_with_named_stage(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(
            '{"name": "loop", "stages": ['
            '{"name": "a", "kind": "sweep", "detectors": ["stide"], "needs": ["b"]},'
            '{"name": "b", "kind": "sweep", "detectors": ["stide"], "needs": ["a"]}]}'
        )
        assert main(["plan", "validate", str(path)]) == 2
        assert "dependency cycle" in capsys.readouterr().err

    def test_run_then_resume_computes_nothing(self, tmp_path, capsys):
        path = self._quick_plan_file(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["plan", "run", str(path), "--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "2 executed / 0 cached / 2 total" in first
        assert main(
            ["plan", "resume", str(path), "--run-dir", str(run_dir)]
        ) == 0
        second = capsys.readouterr().out
        assert "0 executed / 2 cached / 2 total" in second

    def test_status_reports_done_and_duplicates(self, tmp_path, capsys):
        path = self._quick_plan_file(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["plan", "run", str(path), "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["plan", "status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "done: 2/2" in out
        assert "duplicates: 0" in out

    def test_run_with_trace_validates(self, tmp_path, capsys):
        path = self._quick_plan_file(tmp_path)
        trace = tmp_path / "trace.jsonl"
        assert main(
            [
                "plan",
                "run",
                str(path),
                "--run-dir",
                str(tmp_path / "run"),
                "--trace",
                str(trace),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "validate", str(trace)]) == 0
        assert "counters consistent" in capsys.readouterr().out
