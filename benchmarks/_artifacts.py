"""Artifact persistence shared by the benchmark modules."""

from __future__ import annotations

from pathlib import Path

OUTPUT_DIR = Path(__file__).parent / "output"


def write_artifact(name: str, content: str) -> Path:
    """Persist a benchmark's paper-style output for EXPERIMENTS.md."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(content + "\n")
    return path
