"""Shared fixtures for the benchmark harness.

Every benchmark regenerates the series plotted by one figure of the paper
and records it under ``benchmarks/results/`` so the numbers can be compared
against the paper (``docs/REPRODUCTION.md`` records where they depart).  The pytest-benchmark timings
measure either the experiment runtime (run exactly once via
``benchmark.pedantic``) or, for the query-processing benchmarks, the
per-query latency itself.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_table(results_dir):
    """Return a callable that persists a formatted result table."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        # Also echo to stdout so `pytest -s` shows the series inline.
        print(f"\n[{name}]\n{text}")

    return _record
