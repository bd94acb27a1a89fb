"""Concurrent first use of a fresh exact engine.

An engine builds its fine grid, cell-clustered rows and cell aggregates on
the first indexed query.  Threads that arrive while that one-time build is
running must wait for it and then get the same answers as a warm engine —
never a half-published layout.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.dbms.sharding import ShardedQueryEngine
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


def _first_batches_race(make_engine) -> tuple[int, list]:
    """Run one first batch per thread on a fresh engine; return failures."""
    queries = _queries()
    failures = 0
    mismatches = []
    warm = make_engine()
    expected = {
        "q1": warm.execute_q1_batch(queries, on_empty="null"),
        "q2": warm.execute_q2_batch(queries, on_empty="null"),
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trials = [_one_trial(make_engine(), queries) for _ in range(TRIALS)]
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
    return failures, mismatches


def _key(answer) -> tuple:
    coefficients = () if answer.coefficients is None else tuple(answer.coefficients)
    return answer.mean, answer.cardinality, coefficients


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


def test_fresh_engine_first_batches_from_many_threads():
    dataset = _dataset()
    failures, mismatches = _first_batches_race(lambda: ExactQueryEngine(dataset))
    assert failures == 0
    assert mismatches == []


def test_fresh_sharded_engine_first_batches_from_many_threads():
    dataset = _dataset()
    failures, mismatches = _first_batches_race(
        lambda: ShardedQueryEngine(
            dataset, num_shards=2, backend="serial", route="indexed"
        )
    )
    assert failures == 0
    assert mismatches == []
