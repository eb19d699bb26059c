"""PlanRunner: exactly-once semantics, payload identity, kill/resume."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.evaluation.experiment import run_paper_experiment
from repro.exceptions import PlanError
from repro.io import cell_to_record
from repro.params import scaled_params
from repro.plans import (
    EnsembleStage,
    ExperimentPlan,
    PlanRunner,
    RenderStage,
    SweepStage,
    run_status,
)
from repro.plans.runner import (
    append_journal,
    load_journal,
    maps_from_payload,
    payload_digest,
    read_done_marker,
    sweep_payload,
)

QUICK = dict(
    stream_len=12000,
    detectors=("stide",),
    anomaly_sizes=(2, 3),
    window_sizes=(2, 3, 4),
)


def quick_plan() -> ExperimentPlan:
    return ExperimentPlan(
        name="quick",
        stages=(
            SweepStage(name="maps", **QUICK),
            RenderStage(name="charts", needs=("maps",)),
        ),
    )


class TestExactlyOnce:
    def test_rerun_computes_nothing(self, tmp_path: Path) -> None:
        run_dir = tmp_path / "run"
        first = PlanRunner(quick_plan(), run_dir=run_dir).run()
        assert first.executed == 2 and first.cached == 0
        second = PlanRunner(quick_plan(), run_dir=run_dir).run()
        assert second.executed == 0 and second.cached == 2
        assert [o.digest for o in first.outcomes] == [
            o.digest for o in second.outcomes
        ]
        # One journal completion per stage, ever.
        events = [
            e for e in load_journal(run_dir) if e["event"] == "completed"
        ]
        assert sorted(e["stage"] for e in events) == ["charts", "maps"]

    def test_cached_run_repairs_deleted_outputs(self, tmp_path: Path) -> None:
        run_dir = tmp_path / "run"
        PlanRunner(quick_plan(), run_dir=run_dir).run()
        payload_path = run_dir / "outputs" / "maps.json"
        original = payload_path.read_bytes()
        payload_path.unlink()
        (run_dir / "done" / "maps.json").unlink()
        report = PlanRunner(quick_plan(), run_dir=run_dir).run()
        assert report.executed == 0
        assert payload_path.read_bytes() == original
        assert read_done_marker(run_dir, "maps") is not None

    def test_config_change_invalidates_cache(self, tmp_path: Path) -> None:
        run_dir = tmp_path / "run"
        PlanRunner(quick_plan(), run_dir=run_dir).run()
        changed = ExperimentPlan(
            name="quick",
            stages=(
                SweepStage(name="maps", **{**QUICK, "seed": 5}),
                RenderStage(name="charts", needs=("maps",)),
            ),
        )
        report = PlanRunner(changed, run_dir=run_dir).run()
        assert report.executed == 2  # sweep changed; render invalidated too


class TestPayloadIdentity:
    def test_plan_outputs_match_run_paper_experiment(
        self, tmp_path: Path
    ) -> None:
        """The identity behind plans/paper.toml at test scale: the plan
        pipeline produces bit-identical maps to the imperative API."""
        from dataclasses import replace

        report = PlanRunner(quick_plan(), run_dir=tmp_path / "run").run()
        params = replace(
            scaled_params(12000), anomaly_sizes=(2, 3), window_sizes=(2, 3, 4)
        )
        reference = run_paper_experiment(params=params, detectors=["stide"])
        assert payload_digest(sweep_payload(reference.maps)) == next(
            o.digest for o in report.outcomes if o.name == "maps"
        )

    def test_sweep_payload_round_trip_is_bit_identical(self) -> None:
        from dataclasses import replace

        params = replace(
            scaled_params(12000), anomaly_sizes=(2, 3), window_sizes=(2, 3, 4)
        )
        maps = run_paper_experiment(params=params, detectors=["stide"]).maps
        rebuilt = maps_from_payload(sweep_payload(maps))
        for name, original in maps.items():
            assert [
                cell_to_record(name, cell) for cell in original
            ] == [cell_to_record(name, cell) for cell in rebuilt[name]]

    def test_ensemble_stage_payload_fields(self, tmp_path: Path) -> None:
        plan = ExperimentPlan(
            name="picky",
            stages=(
                SweepStage(name="maps", **{**QUICK, "detectors": ("stide", "markov")}),
                EnsembleStage(name="pick", needs=("maps",), size=2, max_window=4),
            ),
        )
        report = PlanRunner(plan, run_dir=tmp_path / "run").run()
        payload = json.loads(
            (tmp_path / "run" / "outputs" / "pick.json").read_text()
        )
        assert payload["kind"] == "ensemble"
        assert "recommendation" in payload and "agreement" in payload
        assert report.executed == 2


class TestRunStatus:
    """``run_status`` is CI's exactly-once gate: it must be able to fail."""

    def test_duplicate_completion_is_counted(self, tmp_path: Path) -> None:
        run_dir = tmp_path / "run"
        PlanRunner(quick_plan(), run_dir=run_dir).run()
        assert run_status(run_dir).endswith("done: 2/2\nduplicates: 0")
        completed = next(
            e for e in load_journal(run_dir) if e["stage"] == "maps"
        )
        append_journal(run_dir, completed)
        assert run_status(run_dir).endswith("done: 2/2\nduplicates: 1")

    def test_missing_run_directory_raises(self, tmp_path: Path, capsys) -> None:
        missing = tmp_path / "nowhere"
        with pytest.raises(PlanError, match="not a plan run directory"):
            run_status(missing)
        assert main(["plan", "status", str(missing)]) == 2
        assert "not a plan run directory" in capsys.readouterr().err

    def test_corrupt_plan_file_raises(self, tmp_path: Path, capsys) -> None:
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "plan.json").write_text('{"name": "quick", "stag')
        with pytest.raises(PlanError, match="corrupt plan file"):
            run_status(run_dir)
        assert main(["plan", "status", str(run_dir)]) == 2
        assert "corrupt plan file" in capsys.readouterr().err


@pytest.mark.faults
class TestKillResume:
    def test_resume_after_kill_is_bit_identical(self, tmp_path: Path) -> None:
        """SIGKILL mid-sweep, resume, compare against an uninterrupted
        run: outputs byte-identical, completed stages not recomputed."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(quick_plan().to_dict()))
        clean_dir = tmp_path / "clean"
        killed_dir = tmp_path / "killed"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)

        def run_cli(run_dir: Path) -> subprocess.Popen:
            return subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "plan",
                    "run",
                    str(plan_path),
                    "--run-dir",
                    str(run_dir),
                ],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )

        clean = run_cli(clean_dir)
        assert clean.wait(timeout=300) == 0

        victim = run_cli(killed_dir)
        cells = killed_dir / "cells" / "maps.cells.jsonl"
        deadline = time.monotonic() + 120
        while not cells.exists() and time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            time.sleep(0.01)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)

        resumed = run_cli(killed_dir)
        stdout, _ = resumed.communicate(timeout=300)
        assert resumed.returncode == 0

        for name in ("maps", "charts"):
            clean_bytes = (clean_dir / "outputs" / f"{name}.json").read_bytes()
            killed_bytes = (
                killed_dir / "outputs" / f"{name}.json"
            ).read_bytes()
            assert clean_bytes == killed_bytes

        # And a further re-run adopts everything from the store.
        final = run_cli(killed_dir)
        stdout, _ = final.communicate(timeout=300)
        assert final.returncode == 0
        assert "0 executed / 2 cached / 2 total" in stdout
