"""What ``python -m repro.bench report`` gates: the store's newest commit.

A job appends the runs it measured at its own commit, then reports.  Only
the trajectories whose latest run is at the commit of the store's newest
record are gated; an old trajectory the job did not rerun is history, so a
stale regression in it cannot fail the gate, and a regression at the new
commit still does.
"""

from __future__ import annotations

from repro.bench import RegressionDetector, ResultsStore, RunRecord
from repro.bench.cli import main as bench_main

ENVIRONMENT = {
    "platform": "linux",
    "machine": "x86_64",
    "cpu_count": 2,
    "python": "3.11.7",
    "numpy": "2.4.6",
}


def _record(benchmark: str, qps: float, sha: str) -> RunRecord:
    return RunRecord(
        config_id=f"id-{benchmark}",
        benchmark=benchmark,
        label="smoke",
        parameters={"n": 1},
        metrics={"qps": qps},
        metric_directions={"qps": "higher"},
        gate_failures=(),
        environment=ENVIRONMENT,
        git_sha=sha,
        timestamp="2026-01-01T00:00:00+00:00",
    )


def _store(tmp_path, records) -> ResultsStore:
    store = ResultsStore(tmp_path / "store.jsonl")
    for record in records:
        store.append(record)
    return store


# An old trajectory whose second run of one commit regressed by noise
# (the shape of the committed fig12 smoke group), then a fresh job's runs.
STALE = [_record("old", 100.0, "aaa111"), _record("old", 60.0, "aaa111")]


def test_stale_regression_is_history_and_does_not_fail(tmp_path, capsys):
    store = _store(
        tmp_path,
        STALE + [_record("fresh", 100.0, "bbb222"), _record("fresh", 101.0, "bbb222")],
    )
    verdicts = {v.benchmark: v for v in RegressionDetector().evaluate(store.load())}
    assert verdicts["old"].regressions and not verdicts["old"].gated
    assert verdicts["fresh"].gated and verdicts["fresh"].ok

    code = bench_main(["report", "--store", str(store.path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "history (REGRESSED" in out
    assert "- REGRESSION" not in out


def test_regression_at_the_newest_commit_still_fails(tmp_path, capsys):
    store = _store(
        tmp_path,
        STALE + [_record("fresh", 100.0, "bbb222"), _record("fresh", 70.0, "ccc333")],
    )
    code = bench_main(["report", "--store", str(store.path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REGRESSION: `fresh`" in out
    assert "REGRESSION: `old`" not in out

