"""The benchmark's checks can fail: a wrong result fails the command.

Each test corrupts one recorded result (``--doctor``) and expects the
run to report it as failed and to exit non-zero.  These run the real
workloads for one second each, so they take about a minute in all.
"""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import PERFBENCH

ROOT = PERFBENCH.parent


def run(*args, cwd=ROOT):
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    lines = process.stdout.strip().splitlines()
    return process.returncode, json.loads(lines[-1]) if lines else None


def test_doctored_score_lowers_ok_share_and_fails_serve():
    code, result = run("--workload", "serve", "--trace", "0", "--doctor", "score")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


@pytest.mark.parametrize(
    "workload, doctor", [("maps", "map"), ("fleet", "score"), ("fleet", "fit")]
)
def test_doctored_result_fails_the_run(workload, doctor):
    code, result = run("--workload", workload, "--trace", "1", "--doctor", doctor)
    assert code != 0
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_clean_serve_run_passes():
    code, result = run("--workload", "serve", "--trace", "0")
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result = run("--workload", "maps", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None
