"""Tests for the concurrent serving front (`repro.dbms.concurrent`)."""

from __future__ import annotations

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.data.synthetic import SyntheticDataset
from repro.dbms.concurrent import (
    AnswerCache,
    ConcurrencyPolicy,
    ConcurrentAnalyticsService,
)
from repro.dbms.executor import ExactQueryEngine
from repro.dbms.serving import AnalyticsService
from repro.dbms.sqlfront import AnalyticsSession, parse_statement
from repro.exceptions import (
    ConfigurationError,
    EmptySubspaceError,
    InjectedFaultError,
    ServiceClosedError,
    ServiceOverloadedError,
    SQLSyntaxError,
)
from repro.testing.faults import FaultInjector
from repro.testing.oracle import ExactOracle

# Every scenario ends with each service's statistics partitioning its
# statements by answer source (the fixture lives in conftest.py).
pytestmark = pytest.mark.usefixtures("statistics_partition")

TABLE = "sensors"
OTHER = "turbines"


def _dataset(name: str, size: int = 3_000, seed: int = 0) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, size=(size, 2))
    outputs = 1.0 + inputs[:, 0] + 2.0 * inputs[:, 1]
    return SyntheticDataset(
        inputs=inputs, outputs=outputs, name=name, domain=(0.0, 1.0)
    )


def _train_model(engine: ExactQueryEngine, count: int = 250) -> LLMModel:
    from repro.queries.stream import LabelledWorkload
    from repro.queries.workload import (
        QueryWorkloadGenerator,
        RadiusDistribution,
        WorkloadSpec,
    )

    spec = WorkloadSpec(
        dimension=2,
        center_low=0.0,
        center_high=1.0,
        radius=RadiusDistribution(mean=0.1, std=0.02),
        norm_order=2.0,
    )
    queries = QueryWorkloadGenerator(spec, seed=1).generate(count)
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.15, norm_order=2.0),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(workload)
    return model


@pytest.fixture(scope="module")
def engine() -> ExactQueryEngine:
    return ExactQueryEngine(_dataset(TABLE))


@pytest.fixture(scope="module")
def other_engine() -> ExactQueryEngine:
    return ExactQueryEngine(_dataset(OTHER, seed=7))


@pytest.fixture(scope="module")
def model(engine) -> LLMModel:
    return _train_model(engine)


def _inner(engine, model) -> AnalyticsService:
    return AnalyticsService({TABLE: engine}, {TABLE: model})


def _script(count: int = 6) -> list[str]:
    return [
        f"SELECT AVG(u) FROM {TABLE} WITHIN 0.12 OF "
        f"({0.1 + 0.07 * i:.3f}, {0.15 + 0.06 * i:.3f})"
        for i in range(count)
    ] + [f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.2 OF (0.5, 0.5)"]


#: How long a held flush waits for its release before it fails the test.
HOLD_SECONDS = 30.0


class _FlushThreads(FaultInjector):
    """Records ``(table, kind, thread ident)`` of every flush as it starts."""

    def __init__(self) -> None:
        super().__init__()
        self.flushes: list[tuple[object, object, int]] = []

    def fire(self, point: str, **context: object) -> None:
        if point == "concurrent.flush":
            self.flushes.append(
                (context["table"], context["kind"], threading.get_ident())
            )
        super().fire(point, **context)


class _FlushHold(_FlushThreads):
    """Holds every flush of ``OTHER`` at its fault point until released.

    A hold that is not released within :data:`HOLD_SECONDS` fails the
    test instead of letting its flush go on, so a test that deadlocks on
    its own hold fails loudly rather than passing late.
    """

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.released = threading.Event()

    def fire(self, point: str, **context: object) -> None:
        if point == f"concurrent.flush.{OTHER}":
            self.entered.set()
            if not self.released.wait(HOLD_SECONDS):
                pytest.fail(
                    f"a held flush was not released within {HOLD_SECONDS} s"
                )
        super().fire(point, **context)


class _Session(threading.Thread):
    """Submits one script from its own thread, as another client would.

    On an idle front the script's flushes run on this thread, inside
    ``submit_script``.
    """

    def __init__(
        self, front: ConcurrentAnalyticsService, script, **kwargs
    ) -> None:
        super().__init__(daemon=True)
        self._front = front
        self._script = script
        self._kwargs = kwargs
        self.future = None
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self.future = self._front.submit_script(self._script, **self._kwargs)
        except BaseException as exc:  # a failed hold included
            self.error = exc

    def submitted(self, timeout: float = 10.0):
        """Join the thread; the :class:`ScriptFuture` it got back."""
        self.join(timeout)
        assert not self.is_alive(), "the session's submit_script never returned"
        if self.error is not None:
            raise self.error
        return self.future


def _pending_future(front: ConcurrentAnalyticsService):
    """The one statement future the front has admitted and not answered."""
    with front._outstanding_cond:
        [future] = front._outstanding
    return future


def _wait_for(condition, timeout: float = 10.0) -> None:
    """Poll ``condition`` until it holds; fail the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "the condition never held"
        time.sleep(0.001)


def _settled(front: ConcurrentAnalyticsService) -> None:
    """Wait for nothing in flight, then check that nothing waits either."""
    _wait_for(lambda: front._in_flight == 0)
    assert front._groups == {}


class _Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt on the submitting thread."""


@contextlib.contextmanager
def _busy_front(front: ConcurrentAnalyticsService, hold: _FlushHold):
    """Keep a flush of ``OTHER`` in flight, so the front is busy.

    Another session submits the held statement; the front is idle, so
    its flush runs, and is held, on that session's thread.  Scripts
    submitted inside wait in their groups, as every script does while a
    flush is in flight, until the hold is released on exit: the held
    flush's end hands them to the pool as one round.  So a test blocks on
    their answers only after the block.  The held statement's caller
    gives it up, so it does not count as pending.
    """
    session = _Session(
        front,
        [f"SELECT COUNT(*) FROM {OTHER} WITHIN 0.2 OF (0.5, 0.5)"],
        mode="exact",
    )
    session.start()
    try:
        assert hold.entered.wait(10.0), "the held flush never started"
        _pending_future(front).cancel()
        yield session
    finally:
        hold.released.set()
        session.join(HOLD_SECONDS)
    session.submitted(0.0)


class TestConcurrencyPolicy:
    def test_defaults_are_valid(self):
        policy = ConcurrencyPolicy()
        assert policy.max_workers >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": 0},
            {"max_pending_statements": 0},
            {"max_batch_statements": 0},
            {"cache_capacity": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ConcurrencyPolicy(**kwargs)


class TestAnswerCache:
    def test_lru_eviction_order(self):
        cache = AnswerCache(capacity=2)
        cache.put(("t", 1), "a")
        cache.put(("t", 2), "b")
        assert cache.lookup([("t", 1)]) == ["a"]  # touch: 1 becomes MRU
        cache.put(("t", 3), "c")  # evicts 2, the LRU
        assert cache.lookup([("t", 2)]) == [None]
        assert cache.lookup([("t", 1)]) == ["a"]
        assert cache.lookup([("t", 3)]) == ["c"]
        assert cache.evictions == 1

    def test_one_lookup_touches_in_key_order(self):
        cache = AnswerCache(capacity=2)
        cache.put(("t", 1), "a")
        cache.put(("t", 2), "b")
        # Both hits move to the MRU end in the order asked: 2, then 1.
        assert cache.lookup([("t", 2), ("t", 9), ("t", 1)]) == ["b", None, "a"]
        cache.put(("t", 3), "c")  # evicts 2, now the LRU
        assert cache.lookup([("t", 1), ("t", 2), ("t", 3)]) == ["a", None, "c"]
        assert (cache.hits, cache.misses, cache.evictions) == (4, 2, 1)

    def test_invalidate_single_table_and_all(self):
        cache = AnswerCache(capacity=8)
        cache.put(("a", 1), "x")
        cache.put(("a", 2), "y")
        cache.put(("b", 1), "z")
        assert cache.invalidate("a") == 2
        assert cache.lookup([("b", 1)]) == ["z"]
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.invalidations == 3

    def test_hit_miss_counters(self):
        cache = AnswerCache(capacity=2)
        assert cache.lookup([("t", 1)]) == [None]
        cache.put(("t", 1), "a")
        cache.lookup([("t", 1)])
        assert (cache.hits, cache.misses) == (1, 1)

    def test_uncacheable_key_is_neither_hit_nor_miss(self):
        cache = AnswerCache(capacity=2)
        cache.put(("t", 1), "a")
        assert cache.lookup([None, ("t", 1), None, ("t", 2)]) == [
            None,
            "a",
            None,
            None,
        ]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            AnswerCache(capacity=0)

    @pytest.mark.parametrize("capacity", [2.5, 2.0, float("nan"), "4"])
    def test_non_integer_capacity_rejected(self, capacity):
        # 2.5 used to hold 2 entries, and NaN raised an untyped ValueError.
        with pytest.raises(ConfigurationError, match="capacity"):
            AnswerCache(capacity=capacity)

    def test_numpy_integer_capacity_accepted(self):
        cache = AnswerCache(capacity=np.int64(1))
        cache.put(("t", 1), "a")
        cache.put(("t", 2), "b")
        assert (len(cache), cache.evictions) == (1, 1)


class TestEquivalence:
    """Coalesced / concurrent answers are bit-equal to sequential serving."""

    @pytest.mark.parametrize("mode", ["exact", "model", "hybrid"])
    def test_bit_equal_to_sequential_service(self, engine, model, mode):
        sequential = _inner(engine, model)
        front = ConcurrentAnalyticsService(_inner(engine, model))
        try:
            # COUNT(*) requires exact execution, so drop it in model mode.
            script = _script()[:-1] if mode == "model" else _script()
            reference = sequential.execute_script(script, mode=mode)
            served = front.execute_script(script, mode=mode)
            for got, want in zip(served, reference):
                assert got.value == want.value  # bit-equal, not approx
                assert got.source == want.source
                assert got.empty == want.empty
        finally:
            front.close()

    def test_concurrent_submissions_coalesce_and_stay_correct(
        self, engine, other_engine, model
    ):
        sequential = _inner(engine, model)
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            injector=hold,
        )
        try:
            script = _script()
            reference = sequential.execute_script(script)
            barrier = threading.Barrier(4)
            outputs: list = [None] * 4

            def run(i: int) -> None:
                barrier.wait()
                outputs[i] = front.execute_script(script)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(4)
            ]
            # The sessions meet another session's flush in flight, so none
            # of them finds the front idle and flushes alone.
            with _busy_front(front, hold):
                for t in threads:
                    t.start()
                _wait_for(lambda: front.pending_statements == 4 * len(script))
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
            for served in outputs:
                for got, want in zip(served, reference):
                    assert got.value == want.value
            stats = front.statistics_for(TABLE)
            # One round: each of the script's two groups is one batch of
            # all four sessions.
            assert stats.batches_executed == 2
            assert stats.max_coalesce_width == 4
            assert stats.coalesced_batches == 2
            assert stats.p99_seconds > 0.0
        finally:
            front.close()

    def test_single_statement_execute_contract(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            value = front.execute(
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.4, 0.4)",
                mode="exact",
            )
            assert isinstance(value, float)
            with pytest.raises(EmptySubspaceError):
                front.execute(
                    f"SELECT AVG(u) FROM {TABLE} WITHIN 0.001 OF (9.0, 9.0)",
                    mode="exact",
                )
            # COUNT over an empty subspace is defined (0), never raises.
            assert (
                front.execute(
                    f"SELECT COUNT(*) FROM {TABLE} WITHIN 0.001 OF (9.0, 9.0)"
                )
                == 0
            )

    def test_parse_and_mode_errors_raise_synchronously(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            with pytest.raises(SQLSyntaxError):
                front.submit_script(["SELECT nonsense"])
            with pytest.raises(SQLSyntaxError):
                front.submit_script(_script(1), mode="turbo")
            with pytest.raises(ConfigurationError):
                front.submit_script(_script(1), on_error="explode")

    def test_closed_front_rejects_submissions(self, engine, model):
        front = ConcurrentAnalyticsService(_inner(engine, model))
        front.close()
        with pytest.raises(ConfigurationError):
            front.submit_script(_script(1))


class TestAnswerCacheIntegration:
    def test_repeat_traffic_hits_cache_and_skips_execution(
        self, engine, model
    ):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            script = _script()
            first = front.execute_script(script)
            assert not any(r.cached for r in first)
            executed_before = front.service.statistics_for(
                TABLE
            ).statements_executed
            second = front.execute_script(script)
            assert all(r.cached for r in second)
            for got, want in zip(second, first):
                assert got.value == want.value
                assert got.source == want.source  # original source preserved
            # Cache hits never reach the inner service (or its statistics,
            # which is what drift detection reads).
            assert (
                front.service.statistics_for(TABLE).statements_executed
                == executed_before
            )
            stats = front.statistics_for(TABLE)
            assert stats.cache_hits == len(script)
            assert stats.cache_hit_rate > 0.0

    def test_swap_invalidates_cached_answers(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            script = _script()
            front.execute_script(script)
            assert all(r.cached for r in front.execute_script(script))
            front.swap_model(TABLE, model, version="v2")
            assert len(front.cache) == 0  # eager invalidation on the event
            after = front.execute_script(script)
            assert not any(r.cached for r in after)

    def test_cache_disabled_by_policy(self, engine, model):
        with ConcurrentAnalyticsService(
            _inner(engine, model),
            policy=ConcurrencyPolicy(cache_capacity=0),
        ) as front:
            assert front.cache is None
            script = _script(2)
            front.execute_script(script)
            assert not any(r.cached for r in front.execute_script(script))

    def test_distinct_modes_cached_separately(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            script = _script(2)[:-1]  # COUNT(*) is exact-only
            front.execute_script(script, mode="exact")
            served = front.execute_script(script, mode="model")
            # A model-mode lookup must not hit the exact-mode entry.
            assert not any(r.cached for r in served)


def _engine(dimension: int, seed: int = 3) -> ExactQueryEngine:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, size=(400, dimension))
    return ExactQueryEngine(
        SyntheticDataset(
            inputs=inputs,
            outputs=inputs.sum(axis=1),
            name=f"d{dimension}",
            domain=(0.0, 1.0),
        )
    )


class TestCacheHitPath:
    """A hit is answered from the statement's own floats and one lookup."""

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_keys_are_the_canonical_query_bytes(self, dimension):
        inner = AnalyticsService({"plain": _engine(dimension)})
        inner.register_engine("pinned", _engine(dimension))
        # An untrained model still pins its table's default norm order.
        inner.swap_model(
            "pinned",
            LLMModel(dimension=dimension, config=ModelConfig(norm_order=1.0)),
            version="v1",
        )
        rest = ", 0.5" * (dimension - 1)
        statements = [
            parse_statement(
                f"SELECT {kind} FROM {table} WITHIN 0.3 OF ({first}{rest}){clause}"
            )
            for table in ("plain", "pinned")
            for kind in ("AVG(u)", "COUNT(*)")
            for first in ("-0.0", "0.0", "0.25")
            for clause in ("", " NORM 1", " NORM INF")
        ]
        with ConcurrentAnalyticsService(inner) as front:
            front.execute_script(statements, mode="exact")
            expected = set()
            for statement in statements:
                query = inner.query_for(statement)
                expected.add(
                    (
                        statement.table,
                        statement.kind,
                        "exact",
                        inner.model_version_for(statement.table),
                        inner.registry_epoch_for(statement.table),
                        query.norm_order,
                        query.to_vector().tobytes(),
                    )
                )
            # Each statement has its own key, -0.0 against 0.0 included,
            # except that on "pinned" a bare statement resolves to the
            # model's NORM 1 (2 kinds x 3 centers).
            assert len(expected) == len(statements) - 6
            assert set(front.cache._entries) == expected
            served = front.execute_script(statements, mode="exact")
            assert all(result.cached for result in served)
            # The same texts again: memoized statements, whose key bytes
            # were packed once, find the same entries and add none.
            texts = [
                f"SELECT {kind} FROM {table} WITHIN 0.3 OF ({first}{rest}){clause}"
                for table in ("plain", "pinned")
                for kind in ("AVG(u)", "COUNT(*)")
                for first in ("-0.0", "0.0", "0.25")
                for clause in ("", " NORM 1", " NORM INF")
            ]
            served = front.execute_script(texts, mode="exact")
            assert all(result.cached for result in served)
            assert set(front.cache._entries) == expected

    def test_hit_carries_the_callers_statement(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            front.execute_script(_script())
            statements = [parse_statement(sql) for sql in _script()]
            served = front.execute_script(statements)
            assert all(result.cached for result in served)
            assert all(
                result.statement is statement
                for result, statement in zip(served, statements)
            )

    def test_hit_only_script_admits_nothing(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            first = front.execute_script(_script())
            future = front.submit_script(_script())
            assert front.pending_statements == 0
            assert future.done()
            served = future.result(timeout=0.0)
            assert [r.value for r in served] == [r.value for r in first]

    def test_mixed_hits_and_misses_keep_statement_order(
        self, engine, other_engine, model
    ):
        script = [
            f"SELECT {kind} FROM {table} WITHIN 0.12 OF "
            f"({0.2 + 0.1 * i:.2f}, {0.3 + 0.05 * i:.2f})"
            for i in range(4)
            for table in (TABLE, OTHER)
            for kind in ("AVG(u)", "COUNT(*)")
        ]
        engines = {TABLE: engine, OTHER: other_engine}
        reference = AnalyticsService(engines).execute_script(script, mode="exact")
        with ConcurrentAnalyticsService(
            AnalyticsService(engines, {TABLE: model})
        ) as front:
            front.execute_script(script[::3], mode="exact")
            served = front.execute_script(script, mode="exact")
        assert [r.cached for r in served] == [
            i % 3 == 0 for i in range(len(script))
        ]
        for got, want in zip(served, reference):
            assert got.statement == want.statement
            assert (got.value, got.source, got.empty) == (
                want.value,
                want.source,
                want.empty,
            )

    def test_script_repeating_a_statement_answers_both(self, engine, model):
        sql = f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.4, 0.4)"
        oracle = ExactOracle(engine.dataset.inputs, engine.dataset.outputs)
        expected = oracle.mean(parse_statement(sql).to_query())
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            for cached in (False, True):
                served = front.execute_script(f"{sql}; {sql}", mode="exact")
                assert [r.cached for r in served] == [cached, cached]
                for result in served:
                    assert result.value == pytest.approx(expected, rel=1e-12)

    def test_registration_between_submissions_misses(self, engine, model):
        # A swap also drops the table's entries eagerly
        # (TestAnswerCacheIntegration); an engine registration does not,
        # so only the epoch each submission reads can turn these into misses.
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            script = _script()
            front.execute_script(script)
            assert all(r.cached for r in front.execute_script(script))
            front.register_engine(TABLE, engine)
            assert len(front.cache) == len(script)
            assert not any(r.cached for r in front.execute_script(script))


class TestReadyHits:
    """A hit returns the result its entry stores, built once by the flush."""

    def test_hit_of_the_cached_statement_is_the_stored_object(
        self, engine, model
    ):
        script = _script()
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            first = front.execute_script(script)
            second = front.execute_script(script)
            third = front.execute_script(script)
            stored = {id(result) for result in front.cache._entries.values()}
        assert all(result.cached for result in second)
        assert all(a is b for a, b in zip(second, third))
        assert all(id(result) in stored for result in second)
        # The flush answered the miss with its own cached=False result.
        assert not any(result.cached for result in first)
        assert all(a is not b for a, b in zip(first, second))
        for miss, hit, sql in zip(first, second, script):
            assert hit.statement is miss.statement is parse_statement(sql)
            assert (hit.value, hit.source, hit.empty) == (
                miss.value,
                miss.source,
                miss.empty,
            )
            assert not hit.degraded and hit.error is None

    @pytest.mark.parametrize(
        ("cached_sql", "other_sql"),
        [
            (
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.10 OF (0.4, 0.4)",
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.4, 0.4)",
            ),
            # The table's model is Euclidean, so an explicit NORM 2 names
            # the same query as no NORM clause.
            (
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.4, 0.4)",
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.4, 0.4) NORM 2",
            ),
        ],
    )
    def test_other_text_with_the_same_key_gets_its_own_statement(
        self, engine, model, cached_sql, other_sql
    ):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            [miss] = front.execute_script([cached_sql])
            [other] = front.execute_script([other_sql])
            [again] = front.execute_script([cached_sql])
            assert len(front.cache) == 1  # one key for both texts
            [stored] = front.cache._entries.values()
        assert other.cached and other.statement is parse_statement(other_sql)
        assert other.statement is not miss.statement
        assert other is not stored
        assert again is stored and again.statement is miss.statement
        assert (other.value, other.source) == (miss.value, miss.source)


def _store_registration(store, table: str):
    def register(service: AnalyticsService) -> None:
        service.register_table_from_store(store, "stored", table=table)

    return register


class TestRegistrySnapshots:
    """A table's registry snapshot is kept until its registry changes."""

    @pytest.mark.parametrize(
        "change",
        ["register_engine", "swap_model", "register_table_from_store",
         "restore_registry_epoch"],
    )
    def test_each_registry_change_moves_the_next_key(
        self, engine, model, change
    ):
        from repro.dbms.storage import SQLiteDataStore

        script = _script()
        with SQLiteDataStore() as store:
            store.load_dataset(engine.dataset, "stored")
            changes = {
                "register_engine": lambda s: s.register_engine(TABLE, engine),
                "swap_model": lambda s: s.swap_model(TABLE, model, version="v2"),
                "register_table_from_store": _store_registration(store, TABLE),
                "restore_registry_epoch": lambda s: s.restore_registry_epoch(
                    TABLE, s.registry_epoch_for(TABLE) + 5
                ),
            }
            with ConcurrentAnalyticsService(_inner(engine, model)) as front:
                first = front.execute_script(script)
                assert all(r.cached for r in front.execute_script(script))
                epoch = front.service.registry_epoch_for(TABLE)
                changes[change](front.service)
                assert front.service.registry_epoch_for(TABLE) > epoch
                misses = front.cache.misses
                after = front.execute_script(script)
                assert not any(r.cached for r in after)
                assert front.cache.misses == misses + len(script)
                # The new entries carry the moved epoch.
                new_epoch = front.service.registry_epoch_for(TABLE)
                assert {key[4] for key in front.cache._entries} >= {new_epoch}
                assert all(r.cached for r in front.execute_script(script))
        for got, want in zip(after, first):
            assert got.value == want.value

    def test_restoring_an_older_epoch_keeps_the_snapshot(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            script = _script()
            front.execute_script(script)
            front.service.restore_registry_epoch(
                TABLE, front.service.registry_epoch_for(TABLE)
            )
            assert all(r.cached for r in front.execute_script(script))

    def test_reregistered_dimension_is_refused_at_admission(self):
        flat = "SELECT AVG(u) FROM t WITHIN 0.3 OF (0.5, 0.5)"
        deep = "SELECT AVG(u) FROM t WITHIN 0.3 OF (0.5, 0.5, 0.5)"
        with ConcurrentAnalyticsService(AnalyticsService({"t": _engine(2)})) as front:
            front.execute_script([flat], mode="exact")
            assert front.execute_script([flat], mode="exact")[0].cached
            front.register_engine("t", _engine(3))
            with pytest.raises(SQLSyntaxError, match="2-dimensional.*3-dimensional"):
                front.submit_script([flat], mode="exact")
            [result] = front.execute_script([deep], mode="exact")
            assert result.ok and not result.cached
            assert front.pending_statements == 0

    def test_counters_are_exact(self, engine, other_engine, model):
        mine = _script(3)
        theirs = [sql.replace(TABLE, OTHER) for sql in mine]
        with ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model})
        ) as front:
            cache = front.cache
            front.execute_script(mine + theirs)
            assert (cache.hits, cache.misses) == (0, 8)
            front.execute_script(mine + theirs + mine[:1])
            assert (cache.hits, cache.misses) == (9, 8)
            # An unhashable version marker makes TABLE's statements
            # uncacheable: they count as neither hits nor misses.
            front.swap_model(TABLE, model, version=["v", 2])
            for _ in range(2):
                served = front.execute_script(mine + theirs)
                assert [r.cached for r in served] == [False] * 4 + [True] * 4
            assert (cache.hits, cache.misses) == (17, 8)
            assert {key[0] for key in cache._entries} == {OTHER}
            assert cache.evictions == 0


class TestScriptGroups:
    """A script's statements of one group are appended to it at once."""

    def test_a_script_group_is_one_flush_without_window(self, engine, model):
        import sys

        script = [
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF "
            f"({0.05 + 0.055 * i:.3f}, 0.5)"
            for i in range(16)
        ]
        inner = _inner(engine, model)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let a flush thread cut in anywhere
        try:
            with ConcurrentAnalyticsService(
                inner, policy=ConcurrencyPolicy(cache_capacity=0)
            ) as front:
                for _ in range(200):
                    served = front.execute_script(script, mode="exact")
                    assert all(result.ok for result in served)
        finally:
            sys.setswitchinterval(interval)
        assert inner.statistics_for(TABLE).batches_executed == 200
        assert front.statistics_for(TABLE).batches_executed == 200

    def test_no_flush_exceeds_max_batch_statements(
        self, engine, other_engine, model
    ):
        sizes: list[int] = []

        class _Sizes(AnalyticsService):
            def execute_script(self, script, **kwargs):
                if script[0].table == TABLE:
                    sizes.append(len(script))
                return super().execute_script(script, **kwargs)

        script = [
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF "
            f"({0.05 + 0.1 * i:.2f}, 0.5)"
            for i in range(9)
        ]
        reference = _inner(engine, model).execute_script(script, mode="exact")
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            _Sizes({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(max_batch_statements=4, cache_capacity=0),
            injector=hold,
        )
        try:
            with _busy_front(front, hold):
                waiting = front.submit_script(script[:3], mode="exact")
                joining = front.submit_script(script[3:], mode="exact")
                # 3 + 6 statements of one group: two full runs of 4 wait
                # for the held flush like the last one.
                time.sleep(0.05)
                assert front.pending_statements == 9
                assert sizes == []
            served = waiting.result(timeout=10.0) + joining.result(timeout=10.0)
        finally:
            front.close(drain_seconds=10.0)
        # The round splits the group into runs of at most 4.
        assert sorted(sizes) == [1, 4, 4]
        assert [r.value for r in served] == [r.value for r in reference]
        stats = front.statistics_for(TABLE)
        assert (stats.batches_executed, stats.max_coalesce_width) == (3, 2)

    def test_many_sessions_leave_nothing_waiting(
        self, engine, other_engine, model
    ):
        # More sessions than cores, and a thread switch possible almost
        # anywhere: every statement executes once and is answered, and the
        # last flush leaves nothing in flight and nothing waiting.
        scripts = [
            [
                f"SELECT AVG(u) FROM {table} WITHIN 0.1 OF ({0.05 + 0.03 * i:.2f}, 0.5)",
                f"SELECT COUNT(*) FROM {table} WITHIN 0.1 OF (0.5, {0.05 + 0.03 * i:.2f})",
            ]
            for i in range(30)
            for table in (TABLE, OTHER)
        ]
        engines = {TABLE: engine, OTHER: other_engine}
        reference = [
            AnalyticsService(engines).execute_script(script, mode="exact")
            for script in scripts
        ]
        front = ConcurrentAnalyticsService(
            AnalyticsService(engines, {TABLE: model}),
            policy=ConcurrencyPolicy(max_workers=2, cache_capacity=0),
        )
        sessions = 8
        served: list = [None] * sessions
        errors: list[BaseException] = []
        barrier = threading.Barrier(sessions)

        def session(index: int) -> None:
            try:
                barrier.wait()
                served[index] = [
                    front.execute_script(script, mode="exact", timeout=30.0)
                    for script in scripts
                ]
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=session, args=(index,), daemon=True)
            for index in range(sessions)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            front.close(drain_seconds=10.0)
        assert errors == []
        _settled(front)
        for results in served:
            for got, want in zip(results, reference):
                assert [r.value for r in got] == [r.value for r in want]
        executed = sum(
            front.service.statistics_for(table).statements_executed
            for table in engines
        )
        assert executed == sessions * 2 * len(scripts)


class TestIdleFront:
    """A script waits only on a busy front: one with a flush in flight.  A
    test that needs a script on the pool submits it inside
    ``_busy_front``."""

    @pytest.mark.parametrize("groups", [1, 2], ids=["one-group", "two-groups"])
    def test_lone_script_does_not_wait_the_window(self, engine, model, groups):
        script = _script(1)[:groups]  # an AVG, then a COUNT
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            served = front.submit_script(script).result(timeout=5.0)
            assert [r.ok for r in served] == [True] * groups
            assert front.statistics_for(TABLE).batches_executed == groups

    def test_back_to_back_scripts_find_the_front_idle(self, engine, model):
        # A flush stops counting as busy before it answers, so the client
        # it wakes never sees its own finished flush and waits in a group.
        script = _script(1)[:1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the woken client cut in anywhere
        try:
            with ConcurrentAnalyticsService(
                _inner(engine, model), policy=ConcurrencyPolicy(cache_capacity=0)
            ) as front:
                for _ in range(200):
                    [result] = front.submit_script(script, mode="exact").result(
                        timeout=5.0
                    )
                    assert result.ok
                    assert front._in_flight == 0
        finally:
            sys.setswitchinterval(interval)
        assert front.statistics_for(TABLE).batches_executed == 200

    def test_callers_wake_to_a_front_with_nothing_in_flight(
        self, engine, other_engine, model
    ):
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            injector=hold,
        )
        try:
            session = _Session(
                front, [f"SELECT COUNT(*) FROM {OTHER} WITHIN 0.2 OF (0.5, 0.5)"]
            )
            session.start()
            assert hold.entered.wait(10.0), "the flush never started"
            # Done callbacks run on the flush's thread as it resolves the
            # future, after waking the caller.
            seen: list[int] = []
            called = threading.Event()

            def record(_) -> None:
                seen.append(front._in_flight)
                called.set()

            _pending_future(front).add_done_callback(record)
            hold.released.set()
            future = session.submitted()
            assert future.result(timeout=5.0)[0].ok
            assert called.wait(5.0)
            assert seen == [0]
        finally:
            hold.released.set()
            front.close()

    def test_busy_front_merges_scripts(self, engine, other_engine, model):
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(cache_capacity=0),
            injector=hold,
        )
        try:
            with _busy_front(front, hold):
                first = front.submit_script(_script(1)[:1], mode="exact")
                second = front.submit_script(_script(2)[1:2], mode="exact")
            served = first.result(timeout=10.0) + second.result(timeout=10.0)
            assert all(r.ok for r in served)
            stats = front.statistics_for(TABLE)
            assert stats.batches_executed == 1
            assert stats.max_coalesce_width == 2
        finally:
            front.close()

    def test_a_held_flush_clocks_the_next_round(
        self, engine, other_engine, model
    ):
        # The front's clock never advances, so no timer could ever expire:
        # the waiting statements flush when, and because, the held flush
        # ends, each group as one batch of every script.
        scripts = [[_script(3)[i], _script(3)[-1]] for i in range(3)]
        reference = [
            _inner(engine, model).execute_script(script, mode="exact")
            for script in scripts
        ]
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(cache_capacity=0),
            injector=hold,
            clock=lambda: 0.0,
        )
        try:
            with _busy_front(front, hold):
                futures = [
                    front.submit_script(script, mode="exact") for script in scripts
                ]
                time.sleep(0.05)
                assert not any(future.done() for future in futures)
                assert front.statistics_for(TABLE).batches_executed == 0
            served = [future.result(timeout=10.0) for future in futures]
        finally:
            front.close()
        for got, want in zip(served, reference):
            assert [r.value for r in got] == [r.value for r in want]
        stats = front.statistics_for(TABLE)
        assert stats.batches_executed == 2  # an AVG group and a COUNT group
        assert stats.max_coalesce_width == stats.mean_coalesce_width == 3

    def test_count_is_exact_across_flush_faults_and_caller_errors(
        self, engine, model
    ):
        injector = FaultInjector()
        front = ConcurrentAnalyticsService(
            _inner(engine, model), injector=injector
        )
        script = _script(1)[:1]
        try:
            injector.arm("concurrent.flush", error=InjectedFaultError, times=1)
            [failed] = front.execute_script(script, timeout=5.0)
            assert isinstance(failed.error, InjectedFaultError)
            assert front._in_flight == 0
            injector.arm("concurrent.flush", error=ConfigurationError, times=1)
            with pytest.raises(ConfigurationError):
                front.execute_script(script, timeout=5.0)
            assert front._in_flight == 0
            # The front is idle again: the next script does not wait.
            assert front.execute_script(script, timeout=5.0)[0].ok
        finally:
            front.close()

    @pytest.mark.parametrize(
        "error",
        [InjectedFaultError, ConfigurationError, _Interrupt],
        ids=["flush-fault", "caller-error", "interrupt"],
    )
    def test_a_failed_flush_still_hands_the_round_on(
        self, engine, other_engine, model, error
    ):
        # The held flush fails once released: contained, a caller error,
        # or an interrupt of the session's thread.  The statements that
        # waited for it still flush, and nothing is left waiting.
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(cache_capacity=0),
            injector=hold,
        )
        hold.arm(f"concurrent.flush.{OTHER}", error=error, times=1)
        interrupted = (
            pytest.raises(_Interrupt)
            if error is _Interrupt
            else contextlib.nullcontext()
        )
        try:
            with interrupted, _busy_front(front, hold):
                waiting = front.submit_script(_script(2), mode="exact")
                assert not waiting.done()
            assert all(r.ok for r in waiting.result(timeout=10.0))
            _settled(front)
            assert front.pending_statements == 0
        finally:
            front.close()

    def test_count_is_exact_when_the_pool_is_gone(
        self, engine, other_engine, model
    ):
        # close() shuts the pool down after marking the front closed; a
        # round handed over after that finds the pool gone.
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            injector=hold,
        )
        with _busy_front(front, hold):
            front._pool.shutdown(wait=False)
            busy = front.submit_script(_script(2))
            assert front._in_flight == 1  # only the held flush
        # The held flush's end hands the waiting round to the gone pool,
        # which answers it with the typed error.
        with pytest.raises(ServiceClosedError):
            busy.result(timeout=5.0)
        _settled(front)
        # An idle front runs the script on this thread, so it needs no
        # pool: it answers.
        idle = front.submit_script(_script(2))
        assert idle.done()
        assert all(r.ok for r in idle.result(timeout=0.0))
        assert front._in_flight == 0
        front.close()

    def test_count_returns_to_zero_after_close_with_stragglers(
        self, engine, other_engine, model
    ):
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(max_workers=1),
            injector=hold,
        )
        hold.arm("concurrent.flush", error=None, delay_seconds=0.2, times=None)
        with _busy_front(front, hold):
            running = front.submit_script(_script(1)[:1])  # an AVG
            queued = front.submit_script(_script(1)[1:])  # a COUNT
        # The held flush's end hands both groups to the pool's only
        # worker: one flush runs, the other queues behind it until close()
        # cancels it.
        _wait_for(lambda: hold.fired_count("concurrent.flush") >= 2)
        front.close(drain_seconds=0.05)
        for future in (running, queued):
            with pytest.raises(ServiceClosedError):
                future.result(timeout=2.0)
        _settled(front)

    def test_close_drains_a_waiting_group_and_the_count(
        self, engine, other_engine, model
    ):
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            injector=hold,
        )
        with _busy_front(front, hold):
            future = front.submit_script(_script(2))
            # The held flush is still in flight: close() hands the waiting
            # groups to the pool itself, and drains them.
            front.close(drain_seconds=10.0)
            assert all(r.ok for r in future.result(timeout=1.0))
        _settled(front)


def _bits(value):
    """A served value's exact bits, comparable with ``==``."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return np.asarray(value).tobytes()


class TestInlineFlush:
    """An idle front's script flushes on the thread that submits it, one
    group after another, before ``submit_script`` returns."""

    @pytest.mark.parametrize("groups", [1, 2], ids=["one-group", "two-groups"])
    def test_idle_script_is_done_when_submit_returns(self, engine, model, groups):
        threads = _FlushThreads()
        with ConcurrentAnalyticsService(
            _inner(engine, model), injector=threads
        ) as front:
            future = front.submit_script(_script(1)[:groups])  # AVG, COUNT
            assert future.done()
            assert front._in_flight == 0
            assert front.pending_statements == 0
            assert [r.ok for r in future.result(timeout=0.0)] == [True] * groups
        assert [kind for _, kind, _ in threads.flushes] == ["q1", "count"][:groups]
        assert {ident for _, _, ident in threads.flushes} == {threading.get_ident()}

    @pytest.mark.parametrize("mode", ["exact", "model", "hybrid"])
    def test_two_group_idle_script_equals_the_service_bit_for_bit(
        self, engine, model, mode
    ):
        script = [
            f"SELECT {kind} FROM {TABLE} WITHIN 0.12 OF "
            f"({0.1 + 0.07 * i:.3f}, {0.15 + 0.06 * i:.3f})"
            for i in range(6)
            for kind in ("AVG(u)", "REGRESSION(u)")
        ]
        reference = _inner(engine, model).execute_script(script, mode=mode)
        threads = _FlushThreads()
        with ConcurrentAnalyticsService(
            _inner(engine, model), injector=threads
        ) as front:
            future = front.submit_script(script, mode=mode)
            assert future.done()
            served = future.result(timeout=0.0)
        assert [kind for _, kind, _ in threads.flushes] == ["q1", "q2"]
        assert {ident for _, _, ident in threads.flushes} == {threading.get_ident()}
        for got, want in zip(served, reference):
            assert got.statement is want.statement
            assert _bits(got.value) == _bits(want.value)
            assert (got.source, got.empty, got.degraded, got.error, got.cached) == (
                want.source,
                want.empty,
                want.degraded,
                None,
                False,
            )

    def test_session_arriving_during_an_inline_flush_waits_on_the_pool(
        self, engine, other_engine, model
    ):
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(cache_capacity=0),
            injector=hold,
        )
        try:
            # Another session's inline flush is held on its own thread.
            with _busy_front(front, hold) as session:
                assert front._in_flight == 1
                first = front.submit_script(_script(1)[:1], mode="exact")
                second = front.submit_script(_script(2)[1:2], mode="exact")
                # Both returned at once, to wait for the held flush.
                assert not first.done() and not second.done()
            # Its end handed them to the pool rather than running them on
            # the session's thread.
            served = first.result(timeout=10.0) + second.result(timeout=10.0)
            assert all(r.ok for r in served)
            stats = front.statistics_for(TABLE)
            assert (stats.batches_executed, stats.max_coalesce_width) == (1, 2)
            [(table, _, held), (_, _, pooled)] = hold.flushes
            assert (table, held) == (OTHER, session.ident)
            assert pooled not in (held, threading.get_ident())
        finally:
            front.close()

    def test_inline_fault_stays_in_its_group_and_in_the_future(
        self, engine, other_engine, model
    ):
        injector = FaultInjector()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(cache_capacity=0),
            injector=injector,
        )
        script = [
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.3, 0.3)",
            f"SELECT AVG(u) FROM {OTHER} WITHIN 0.15 OF (0.3, 0.3)",
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.6, 0.6)",
        ]
        try:
            injector.arm(
                f"concurrent.flush.{TABLE}", error=InjectedFaultError, times=1
            )
            future = front.submit_script(script, mode="exact")
            assert future.done()
            mine, theirs, also_mine = future.result(timeout=0.0)
            for result in (mine, also_mine):
                assert result.source == "error"
                assert isinstance(result.error, InjectedFaultError)
            assert theirs.ok
            # A caller error reaches the caller through the future too,
            # and only for its own group.
            injector.arm(
                f"concurrent.flush.{TABLE}", error=ConfigurationError, times=1
            )
            future = front.submit_script(script, mode="exact")
            assert future.done()
            with pytest.raises(ConfigurationError):
                future.result(timeout=0.0)
            assert future._slots[1].result(timeout=0.0).ok
            assert front._in_flight == 0
            assert front.pending_statements == 0
            assert front.statistics_for(TABLE).error_count == 2
        finally:
            front.close()

    def test_interrupted_inline_flush_answers_every_statement(
        self, engine, other_engine, model
    ):
        injector = FaultInjector()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(cache_capacity=0),
            injector=injector,
        )
        script = [
            f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.3, 0.3)",
            f"SELECT AVG(u) FROM {OTHER} WITHIN 0.15 OF (0.3, 0.3)",
        ]
        injector.arm(f"concurrent.flush.{TABLE}", error=_Interrupt, times=1)
        with pytest.raises(_Interrupt):
            front.submit_script(script, mode="exact")
        # Neither the interrupted group nor the one it never reached is
        # left pending or counted in flight, so close() does not wait.
        assert front.pending_statements == 0
        assert front._in_flight == 0
        assert front.submit_script(script, mode="exact").result(timeout=0.0)[0].ok
        closer = threading.Thread(target=front.close, daemon=True)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive(), "close() waited on an interrupted flush"

    def test_a_hold_on_the_submitting_thread_fails_fast(
        self, engine, other_engine, model, monkeypatch
    ):
        # The deadlock a busy-front test falls into when it submits the
        # held statement itself: the idle front holds the flush on the
        # test's own thread, so nothing will release it.
        monkeypatch.setattr(sys.modules[__name__], "HOLD_SECONDS", 0.05)
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            injector=hold,
        )
        with pytest.raises(pytest.fail.Exception, match="not released"):
            front.submit_script(
                [f"SELECT COUNT(*) FROM {OTHER} WITHIN 0.2 OF (0.5, 0.5)"]
            )
        assert (front.pending_statements, front._in_flight) == (0, 0)
        front.close()


class TestRefusedAtAdmission:
    """A caller's mistake is refused at submission and never reaches a batch,
    so the statements coalesced with it are answered."""

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            (f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (nan, 0.5)", "center"),
            (f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (inf, 0.5)", "center"),
            (f"SELECT AVG(u) FROM {TABLE} WITHIN 1e999 OF (0.4, 0.4)", "radius"),
            (
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.4, 0.4, 0.4)",
                "3-dimensional.*2-dimensional",
            ),
            (
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.1 OF (0.4, 0.4) NORM 1000",
                "NORM",
            ),
            # No NORM clause: 1e-160 ** 2 under the model's Euclidean
            # default underflows float64.
            (
                f"SELECT AVG(u) FROM {TABLE} WITHIN 1e-160 OF (0.4, 0.4)",
                "default norm order 2.0",
            ),
        ],
    )
    def test_refused_statement_never_reaches_a_batch(
        self, engine, other_engine, model, bad, message
    ):
        events: list = []

        class _Events:
            def notify(self, event) -> None:
                events.append(event.kind)

        inner = AnalyticsService(
            {TABLE: engine, OTHER: other_engine}, {TABLE: model}
        )
        inner.observers.subscribe(_Events())
        # On a busy front the valid statement waits in its group until the
        # held flush ends, so every statement admitted after it in the same
        # mode would have shared its batch.
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            inner, policy=ConcurrencyPolicy(cache_capacity=0), injector=hold
        )
        valid = f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.4, 0.4)"
        try:
            with _busy_front(front, hold):
                future = front.submit_script([valid], mode="exact")
                # Three failing batches would open the table's breakers.
                for _ in range(3):
                    with pytest.raises(SQLSyntaxError, match=message):
                        front.submit_script([valid, bad], mode="exact")
                assert front.pending_statements == 1
        finally:
            front.close(drain_seconds=10.0)
        [result] = future.result(timeout=1.0)
        oracle = ExactOracle(engine.dataset.inputs, engine.dataset.outputs)
        assert result.source == "exact"
        assert result.value == pytest.approx(
            oracle.mean(parse_statement(valid).to_query()), rel=1e-12
        )
        assert not [
            kind for kind in events if kind.startswith(("breaker.", "group."))
        ]


class TestAdmissionControl:
    def test_overload_rejects_whole_script(self, engine, model):
        injector = FaultInjector()
        from repro.testing.faults import FaultyEngine

        slow = FaultyEngine(engine, injector, name=TABLE)
        injector.arm(
            f"{TABLE}.q1_batch", error=None, delay_seconds=0.2, times=None
        )
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: slow}, {TABLE: model}),
            policy=ConcurrencyPolicy(max_pending_statements=4, cache_capacity=0),
        )
        try:
            # Another session's script is admitted and executes slowly on
            # its own thread.
            first = _Session(front, _script(3), mode="exact")
            first.start()
            deadline = time.monotonic() + 5.0
            while front.pending_statements == 0:
                assert time.monotonic() < deadline, "the first script never came"
                time.sleep(0.001)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                front.submit_script(_script(3), mode="exact")
            assert excinfo.value.limit == 4
            assert excinfo.value.pending >= 1
            # The admitted script still completes normally.
            results = first.submitted().result(timeout=10.0)
            assert all(r.ok for r in results)
            assert front.pending_statements == 0
        finally:
            front.close()

    def test_pending_count_returns_to_zero(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            front.execute_script(_script())
            assert front.pending_statements == 0


class TestFaultContainment:
    def test_mid_batch_failure_contained_to_its_group(
        self, engine, other_engine, model
    ):
        injector = FaultInjector()
        inner = AnalyticsService(
            {TABLE: engine, OTHER: other_engine}, {TABLE: model}
        )
        front = ConcurrentAnalyticsService(
            inner, policy=ConcurrencyPolicy(cache_capacity=0), injector=injector
        )
        try:
            injector.arm(
                f"concurrent.flush.{TABLE}", error=InjectedFaultError, times=1
            )
            sensors = [
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.3, 0.3)",
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.6, 0.6)",
            ]
            turbines = [
                f"SELECT AVG(u) FROM {OTHER} WITHIN 0.15 OF (0.3, 0.3)",
                f"SELECT COUNT(*) FROM {OTHER} WITHIN 0.2 OF (0.5, 0.5)",
            ]
            barrier = threading.Barrier(2)
            outputs: dict[str, list] = {}

            def run(name: str, script: list[str]) -> None:
                barrier.wait()
                outputs[name] = front.execute_script(script, mode="exact")

            threads = [
                threading.Thread(target=run, args=("sensors", sensors)),
                threading.Thread(target=run, args=("turbines", turbines)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # The armed fault killed the sensors flush: every statement of
            # that group answers with an attached error...
            assert all(
                r.source == "error"
                and isinstance(r.error, InjectedFaultError)
                for r in outputs["sensors"]
            )
            # ...while the co-batched other-table statements are untouched.
            assert all(r.ok for r in outputs["turbines"])
            assert front.pending_statements == 0
            # Containment is accounted, not swallowed.
            assert front.statistics_for(TABLE).error_count == len(sensors)
            assert front.statistics_for(OTHER).error_count == 0
        finally:
            front.close()

    def test_flush_errors_never_cached(self, engine, model):
        injector = FaultInjector()
        front = ConcurrentAnalyticsService(
            _inner(engine, model), injector=injector
        )
        try:
            injector.arm("concurrent.flush", error=InjectedFaultError, times=1)
            script = _script(2)[:-1]  # one q1 group: the fault hits all of it
            failed = front.execute_script(script)
            assert all(r.source == "error" for r in failed)
            assert len(front.cache) == 0
            retried = front.execute_script(script)
            assert all(r.ok and not r.cached for r in retried)
        finally:
            front.close()


class TestSessionFacade:
    def test_session_attaches_to_concurrent_front(self, engine, model):
        with ConcurrentAnalyticsService(_inner(engine, model)) as front:
            session = AnalyticsSession(service=front)
            assert TABLE in session.tables
            value = session.execute(
                f"SELECT AVG(u) FROM {TABLE} WITHIN 0.15 OF (0.4, 0.4)"
            )
            assert isinstance(value, float)
            results = session.execute_script(_script(3), mode="hybrid")
            assert all(r.ok for r in results)
            # Two sessions over one front share its answer cache.
            other = AnalyticsSession(service=front)
            again = other.execute_script(_script(3), mode="hybrid")
            assert all(r.cached for r in again)

    def test_front_registry_delegation(self, engine, model):
        with ConcurrentAnalyticsService() as front:
            front.register_engine(TABLE, engine)
            front.register_model(TABLE, model)
            assert front.tables == [TABLE]
            assert front.service.engine_for(TABLE) is engine


class TestScriptFutureClock:
    def test_result_deadline_is_measured_on_injected_clock(self):
        from concurrent.futures import Future
        from concurrent.futures import TimeoutError as FutureTimeoutError

        from repro.dbms.concurrent import ScriptFuture
        from repro.dbms.serving import StatementResult

        answered: Future = Future()
        answered.set_result(
            StatementResult(statement="s", value=1.0, source="exact")
        )
        stuck: Future = Future()  # never resolves

        # First call computes the deadline at t=0; every later reading is
        # far past it, so the stuck future gets a zero remaining wait and
        # times out immediately -- no real sleeping involved.
        ticks = iter([0.0])
        fake_clock = lambda: next(ticks, 1_000.0)  # noqa: E731
        script = ScriptFuture([answered, stuck], "attach", clock=fake_clock)
        import time as _time

        started = _time.monotonic()
        with pytest.raises(FutureTimeoutError):
            script.result(timeout=60.0)
        assert _time.monotonic() - started < 5.0
        assert not script.done()

    def test_submit_script_threads_the_service_clock(self, engine, model):
        import time as _time

        reads = []

        def counting_clock() -> float:
            reads.append(1)
            return _time.monotonic()

        with ConcurrentAnalyticsService(
            _inner(engine, model), clock=counting_clock
        ) as front:
            future = front.submit_script(_script(2))
            assert future._clock is counting_clock
            before = len(reads)
            results = future.result(timeout=30.0)
            # The bounded wait consulted the injected clock, not time.monotonic.
            assert len(reads) > before
        assert all(r.ok for r in results)


class TestShutdownDrain:
    """close() must resolve every ScriptFuture — by result or by a typed
    ServiceClosedError — never leave one hanging."""

    def test_submit_after_close_raises_typed_error(self, engine, model):
        from repro.exceptions import ServiceClosedError

        front = ConcurrentAnalyticsService(_inner(engine, model))
        front.close()
        assert front.closed
        with pytest.raises(ServiceClosedError):
            front.submit_script(_script(1))
        # still catchable as the historical ConfigurationError
        assert issubclass(ServiceClosedError, ConfigurationError)

    def test_close_flushes_buffered_groups(self, engine, other_engine, model):
        # On a busy front whose held flush outlasts the close: without the
        # drain flush, these futures would only resolve once it ends.
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(max_batch_statements=64),
            injector=hold,
        )
        with _busy_front(front, hold):
            future = front.submit_script(_script(4))
            assert front.pending_statements > 0
            front.close(drain_seconds=10.0)
            results = future.result(timeout=1.0)
        assert all(r.ok for r in results)
        assert front.pending_statements == 0

    def test_close_waits_for_in_flight_flush(self, engine, other_engine, model):
        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            injector=hold,
        )
        with _busy_front(front, hold):
            # close() hands the busy front's waiting groups to the pool.
            hold.arm("concurrent.flush", error=None, delay_seconds=0.2, times=1)
            future = front.submit_script(_script(2))
            assert not future.done()
            front.close(drain_seconds=10.0)
        # the slow flush was allowed to finish inside the drain budget
        assert all(r.ok for r in future.result(timeout=1.0))

    def test_straggler_gets_typed_error_never_hangs(
        self, engine, other_engine, model
    ):
        from repro.exceptions import ServiceClosedError

        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            injector=hold,
        )
        with _busy_front(front, hold):
            # close() hands the busy front's waiting groups to the pool.
            hold.arm("concurrent.flush", error=None, delay_seconds=5.0, times=1)
            future = front.submit_script(_script(2))
            # drain budget far below the flush latency: the future must
            # still resolve promptly, with the typed shutdown error
            front.close(drain_seconds=0.05)
            with pytest.raises(ServiceClosedError):
                future.result(timeout=2.0)

    def test_inline_straggler_gets_typed_error_after_its_flush(
        self, engine, model
    ):
        injector = FaultInjector()
        front = ConcurrentAnalyticsService(_inner(engine, model), injector=injector)
        injector.arm("concurrent.flush", error=None, delay_seconds=1.0, times=1)
        session = _Session(front, _script(1)[:1])
        session.start()
        deadline = time.monotonic() + 5.0
        while injector.fired_count("concurrent.flush") == 0:
            assert time.monotonic() < deadline, "the flush never started"
            time.sleep(0.001)
        # The idle front's flush runs on the session's thread: close()
        # answers it with the typed error within its drain budget, but the
        # session's submit_script returns only when its flush ends.
        front.close(drain_seconds=0.05)
        assert session.is_alive()
        with pytest.raises(ServiceClosedError):
            session.submitted().result(timeout=0.0)
        assert front._in_flight == 0

    def test_close_releases_cancelled_flushes_and_closes_again(
        self, engine, other_engine, model
    ):
        from repro.exceptions import ServiceClosedError

        hold = _FlushHold()
        front = ConcurrentAnalyticsService(
            AnalyticsService({TABLE: engine, OTHER: other_engine}, {TABLE: model}),
            policy=ConcurrencyPolicy(max_workers=1),
            injector=hold,
        )
        hold.arm("concurrent.flush", error=None, delay_seconds=0.2, times=None)
        with _busy_front(front, hold):
            first = front.submit_script(_script(1)[:1])  # an AVG
            second = front.submit_script(_script(1)[1:])  # a COUNT
        # The held flush's end hands both groups to the pool.  Its only
        # worker is busy with the slow first flush, so the second is still
        # queued when the drain window ends and close() cancels it.
        _wait_for(lambda: hold.fired_count("concurrent.flush") >= 2)
        front.close(drain_seconds=0.05)
        for future in (first, second):
            with pytest.raises(ServiceClosedError):
                future.result(timeout=2.0)
        time.sleep(0.4)  # the running flush ends; the cancelled one never runs
        assert front.pending_statements == 0
        again = threading.Thread(target=front.close, daemon=True)
        again.start()
        again.join(timeout=5.0)
        assert not again.is_alive(), "a second close() hung"

    def test_close_is_idempotent_and_concurrent_safe(self, engine, model):
        front = ConcurrentAnalyticsService(_inner(engine, model))
        front.execute_script(_script(2))
        threads = [
            threading.Thread(target=front.close, kwargs={"drain_seconds": 1.0})
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        front.close()  # and again, after the race
        assert front.closed
