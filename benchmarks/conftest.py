"""Shared benchmark fixtures.

Every experiment benchmark renders its table/figure to stdout *and* writes
it to ``results/<name>.txt`` so the regenerated rows survive the pytest
capture.  Benchmarks run the full experiment once (``pedantic`` with one
round) — the interesting number is the experiment's output, not its wall
time, but pytest-benchmark still records how long each reproduction takes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.pretrained import default_tree
from repro.experiments.run_all import EXPERIMENTS

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def pretrained_tree():
    """The bundled detector tree (no training cost)."""
    return default_tree()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def publish(results_dir):
    """Print a rendered experiment and persist it under results/."""

    def _publish(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _publish


@pytest.fixture
def run_experiment(benchmark, publish):
    """Run one ``run_all.EXPERIMENTS`` entry once and publish its result.

    The parameters live in that table alone, so this suite and
    ``python -m repro.experiments.run_all`` write the same files.
    """
    runners = dict(EXPERIMENTS)

    def _run(name: str):
        result = benchmark.pedantic(runners[name], rounds=1, iterations=1)
        publish(name, result.render())
        return result

    return _run
