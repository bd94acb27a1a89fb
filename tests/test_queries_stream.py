"""Tests for the query/answer stream abstractions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EmptySubspaceError, WorkloadError
from repro.queries.query import Query, QueryResultPair
from repro.queries.stream import LabelledWorkload, QueryAnswerStream
from repro.queries.workload import QueryWorkloadGenerator, WorkloadSpec


def _queries(count: int) -> list[Query]:
    return QueryWorkloadGenerator(WorkloadSpec(dimension=2), seed=2).generate(count)


class TestQueryAnswerStream:
    def test_pairs_queries_with_oracle(self):
        queries = _queries(5)
        stream = QueryAnswerStream(queries, oracle=lambda q: float(q.radius))
        pairs = list(stream)
        assert len(pairs) == 5
        assert all(pair.answer == pytest.approx(pair.query.radius) for pair in pairs)

    def test_skip_errors_drops_failing_queries(self):
        queries = _queries(6)

        def flaky(query: Query) -> float:
            if query.center[0] > 0.5:
                raise EmptySubspaceError("empty")
            return 1.0

        stream = QueryAnswerStream(queries, oracle=flaky, skip_errors=True)
        pairs = list(stream)
        assert len(pairs) + stream.skipped == 6
        assert stream.skipped >= 1

    def test_errors_propagate_by_default(self):
        queries = _queries(3)

        def failing(query: Query) -> float:
            raise EmptySubspaceError("empty")

        with pytest.raises(EmptySubspaceError):
            list(QueryAnswerStream(queries, oracle=failing))


class TestLabelledWorkload:
    def _workload(self, count: int = 20) -> LabelledWorkload:
        pairs = tuple(
            QueryResultPair(query=q, answer=float(i))
            for i, q in enumerate(_queries(count))
        )
        return LabelledWorkload(pairs=pairs)

    def test_len_and_indexing(self):
        workload = self._workload(10)
        assert len(workload) == 10
        assert workload[3].answer == 3.0

    def test_queries_and_answers_views(self):
        workload = self._workload(5)
        assert len(workload.queries) == 5
        assert np.allclose(workload.answers, [0, 1, 2, 3, 4])

    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            LabelledWorkload(pairs=())

    def test_from_queries_uses_oracle(self):
        queries = _queries(8)
        workload = LabelledWorkload.from_queries(queries, oracle=lambda q: 2.0)
        assert len(workload) == 8
        assert np.allclose(workload.answers, 2.0)

    def test_from_queries_raises_when_everything_skipped(self):
        queries = _queries(4)

        def failing(query: Query) -> float:
            raise EmptySubspaceError("empty")

        with pytest.raises(WorkloadError):
            LabelledWorkload.from_queries(queries, oracle=failing, skip_errors=True)

    def test_from_engine_labels_one_batch_and_drops_empty(self):
        from repro.data.synthetic import SyntheticDataset
        from repro.dbms.executor import ExactQueryEngine
        from repro.testing.oracle import ExactOracle

        rng = np.random.default_rng(4)
        inputs = rng.uniform(0, 1, size=(500, 2))
        dataset = SyntheticDataset(
            inputs=inputs, outputs=inputs.sum(axis=1), name="t", domain=(0.0, 1.0)
        )
        engine = ExactQueryEngine(dataset)
        far = Query(center=np.array([9.0, 9.0]), radius=0.01)
        queries = _queries(6)[:3] + [far] + _queries(6)[3:]
        workload = LabelledWorkload.from_engine(queries, engine)
        assert workload.queries == [q for q in queries if q is not far]
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        np.testing.assert_allclose(
            workload.answers,
            [oracle.mean(q) for q in workload.queries],
            rtol=0.0,
            atol=1e-12,
        )
        assert engine.statistics.queries_executed == len(queries)
        with pytest.raises(WorkloadError):
            LabelledWorkload.from_engine([far], engine)

    @pytest.mark.parametrize("route", ("scan", "indexed", "auto"))
    def test_from_engine_on_a_sharded_engine(self, route):
        from repro.data.synthetic import SyntheticDataset
        from repro.dbms.executor import ExactQueryEngine
        from repro.testing.oracle import ExactOracle

        rng = np.random.default_rng(5)
        inputs = rng.uniform(0, 1, size=(600, 2))
        dataset = SyntheticDataset(
            inputs=inputs,
            outputs=np.sin(3.0 * inputs[:, 0]) + inputs[:, 1],
            name="t",
            domain=(0.0, 1.0),
        )
        far = Query(center=np.array([9.0, 9.0]), radius=0.01)
        queries = _queries(8)[:4] + [far] + _queries(8)[4:]
        with ExactQueryEngine(
            dataset, num_shards=3, backend="serial", route=route
        ) as engine:
            workload = LabelledWorkload.from_engine(queries, engine)
            assert engine.statistics.queries_executed == len(queries)
        oracle = ExactOracle(dataset.inputs, dataset.outputs)
        labelled = [q for q in queries if oracle.mean(q) is not None]
        assert len(labelled) < len(queries)  # ``far`` was dropped
        assert [id(q) for q in workload.queries] == [id(q) for q in labelled]
        np.testing.assert_allclose(
            workload.answers,
            [oracle.mean(q) for q in workload.queries],
            rtol=0.0,
            atol=1e-12,
        )

    def test_split_partitions_pairs(self):
        workload = self._workload(30)
        train, test = workload.split(0.8, seed=0)
        assert len(train) + len(test) == 30
        assert len(train) == 24

    def test_split_rejects_bad_fraction(self):
        with pytest.raises(WorkloadError):
            self._workload(10).split(0.0)
