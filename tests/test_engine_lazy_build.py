"""Concurrent first use of a fresh exact engine.

An engine builds its fine grid with the grid's cell directory, the
cell-clustered column copy of its inputs and the Q1 and Q2 prefix tables
of its inner-cell runs on the first query of each kind.  Threads that
arrive while such a one-time build is running must wait for it and then
get the same answers as a warm engine — never a half-published layout, and
never a directory, column copy or table built twice.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

import repro.dbms.executor as executor
import repro.dbms.spatial_index as spatial_index
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.queries.query import Query

TRIALS = 40
THREADS = 4


def _dataset(rows: int = 20_000) -> SyntheticDataset:
    rng = np.random.default_rng(41)
    inputs = rng.uniform(0.0, 1.0, size=(rows, 2))
    outputs = 1.0 + inputs @ np.array([2.0, -1.0]) + 0.05 * rng.normal(size=rows)
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name="race", domain=(0.0, 1.0)
    )


def _queries(count: int = 32) -> list[Query]:
    rng = np.random.default_rng(43)
    return [
        Query(center=rng.uniform(0.0, 1.0, 2), radius=float(rng.uniform(0.02, 0.2)))
        for _ in range(count)
    ]


#: The one-time build functions of an engine, and the module defining each.
ONE_TIME_BUILDS = {
    "_cell_directories": spatial_index,
    "_clustered_columns": executor,
    "_compensated_prefix_table": executor,
}


def _first_batches_race(
    dataset: SyntheticDataset, monkeypatch
) -> tuple[int, list, list[dict[str, int]]]:
    """Run one first batch per thread on fresh engines.

    Returns the failures, the answers that differ from a serially warmed
    engine's, and per fresh engine how many times each of ``ONE_TIME_BUILDS``
    ran.
    """
    builds: list[str] = []

    def counting(name, build):
        def counted(*args):
            builds.append(name)
            return build(*args)

        return counted

    for name, module in ONE_TIME_BUILDS.items():
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    queries = _queries()
    failures = 0
    mismatches = []
    warm = ExactQueryEngine(dataset)
    expected = {
        "q1": warm.execute_q1_batch(queries, on_empty="null"),
        "q2": warm.execute_q2_batch(queries, on_empty="null"),
    }
    trials = []
    builds_per_engine = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(TRIALS):
            before = len(builds)
            trials.append(_one_trial(ExactQueryEngine(dataset), queries))
            builds_per_engine.append(
                {name: builds[before:].count(name) for name in ONE_TIME_BUILDS}
            )
    finally:
        sys.setswitchinterval(interval)
    for results in trials:
        assert len(results) == THREADS
        for outcome in results.values():
            if isinstance(outcome, Exception):
                failures += 1
                continue
            kind, answers = outcome
            for got, want in zip(answers, expected[kind]):
                if _key(got) != _key(want):
                    mismatches.append((kind, got, want))
    return failures, mismatches, builds_per_engine


def _key(answer) -> tuple:
    coefficients = () if answer.coefficients is None else tuple(answer.coefficients)
    return answer.mean, answer.cardinality, coefficients, answer.r_squared


def _one_trial(engine, queries: list[Query]) -> dict[int, object]:
    """Start THREADS first batches together on ``engine``; collect outcomes."""
    barrier = threading.Barrier(THREADS)
    results: dict[int, object] = {}

    def run(slot: int) -> None:
        kind = "q1" if slot % 2 == 0 else "q2"
        execute = engine.execute_q1_batch if kind == "q1" else engine.execute_q2_batch
        barrier.wait(timeout=30)
        try:
            results[slot] = (kind, execute(queries, on_empty="null"))
        except Exception as error:
            results[slot] = error

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    return results


def test_fresh_engine_first_batches_from_many_threads(monkeypatch):
    dataset = _dataset()
    failures, mismatches, builds = _first_batches_race(dataset, monkeypatch)
    assert failures == 0
    assert mismatches == []
    # One directory, one column copy, and one Q1 and one Q2 table per
    # engine, however many threads raced them.
    expected = {
        "_cell_directories": 1,
        "_clustered_columns": 1,
        "_compensated_prefix_table": 2,
    }
    assert builds == [expected] * TRIALS
