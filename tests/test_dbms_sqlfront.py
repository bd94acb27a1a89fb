"""Tests for the SQL-style analytics front end."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.data.synthetic import SyntheticDataset
from repro.dbms.executor import ExactQueryEngine
from repro.dbms.sqlfront import (
    AnalyticsSession,
    ParsedStatement,
    parse_script,
    parse_statement,
)
from repro.exceptions import EmptySubspaceError, SQLSyntaxError
from repro.queries.query import (
    Query,
    log_radius_power_is_normal,
    radius_power_is_normal,
)
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import QueryWorkloadGenerator, RadiusDistribution, WorkloadSpec


class TestParseStatement:
    def test_parse_q1(self):
        statement = parse_statement("SELECT AVG(u) FROM sensors WITHIN 0.1 OF (0.3, 0.5)")
        assert statement.kind == "q1"
        assert statement.table == "sensors"
        assert statement.center == (0.3, 0.5)
        assert statement.radius == pytest.approx(0.1)

    def test_parse_q2(self):
        statement = parse_statement("SELECT REGRESSION(u) FROM t WITHIN 0.2 OF (1.0)")
        assert statement.kind == "q2"
        assert statement.center == (1.0,)

    def test_parse_count(self):
        statement = parse_statement("SELECT COUNT(*) FROM t WITHIN 0.2 OF (0.1, 0.2, 0.3)")
        assert statement.kind == "count"
        assert len(statement.center) == 3

    def test_case_insensitive_and_trailing_semicolon(self):
        statement = parse_statement("select avg(u) from T within 0.5 of (0.0, 0.0);")
        assert statement.kind == "q1"
        assert statement.table == "T"

    def test_scientific_notation_radius(self):
        statement = parse_statement("SELECT AVG(u) FROM t WITHIN 1e-2 OF (0.5)")
        assert statement.radius == pytest.approx(0.01)

    def test_to_query(self):
        statement = parse_statement("SELECT AVG(u) FROM t WITHIN 0.1 OF (0.3, 0.5)")
        query = statement.to_query()
        assert isinstance(query, Query)
        assert np.allclose(query.center, [0.3, 0.5])

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t",
            "SELECT AVG(u) FROM t",
            "SELECT AVG(u) FROM t WITHIN abc OF (0.1)",
            "SELECT AVG(u) FROM t WITHIN 0.1 OF ()",
            "SELECT AVG(u) FROM t WITHIN 0.1 OF (0.1, oops)",
            "DROP TABLE t",
            # Parsed as floats, but not a valid query: refused at parse.
            "SELECT AVG(u) FROM t WITHIN 0.1 OF (nan, 0.5)",
            "SELECT AVG(u) FROM t WITHIN 0.1 OF (inf, 0.5)",
            "SELECT AVG(u) FROM t WITHIN 0.1 OF (0.5, -infinity)",
            "SELECT AVG(u) FROM t WITHIN 1e999 OF (0.3, 0.5)",
            # Coordinates outside the dialect's numeric literals, which
            # float() would read as 10.0 and 3.0.
            "SELECT AVG(u) FROM t WITHIN 0.1 OF (1_0, 0.5)",
            "SELECT AVG(u) FROM t WITHIN 0.1 OF (\u0663, 0.5)",
            # radius ** NORM underflows or overflows float64.
            "SELECT AVG(u) FROM t WITHIN 0.1 OF (0.5, 0.5) NORM 1000",
            "SELECT AVG(u) FROM t WITHIN 0.3 OF (0.5, 0.5) NORM 640",
            "SELECT AVG(u) FROM t WITHIN 0.05 OF (0.5, 0.5) NORM 260",
            "SELECT AVG(u) FROM t WITHIN 2 OF (5, 5) NORM 1100",
            "SELECT AVG(u) FROM t WITHIN 3 OF (5, 5) NORM 700",
        ],
    )
    def test_rejects_invalid_statements(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse_statement(sql)

    @pytest.mark.parametrize(
        "fields",
        [
            {"center": ()},
            {"center": (0.3, float("nan"))},
            {"center": (float("-inf"),)},
            {"radius": 0.0},
            {"radius": -0.1},
            {"radius": float("nan")},
            {"radius": float("inf")},
            {"norm_order": 0.5},
            {"norm_order": float("nan")},
            {"radius": 0.1, "norm_order": 1000.0},
            {"radius": 0.3, "norm_order": 640.0},
            {"radius": 0.05, "norm_order": 260.0},
            {"radius": 2.0, "norm_order": 1100.0},
            {"radius": 3.0, "norm_order": 700.0},
        ],
    )
    def test_statement_validates_itself(self, fields):
        valid = {"kind": "q1", "table": "t", "center": (0.3, 0.5), "radius": 0.1}
        ParsedStatement(**valid, norm_order=float("inf"))
        with pytest.raises(SQLSyntaxError):
            ParsedStatement(**{**valid, **fields})

    @pytest.mark.parametrize("radius", ["1e-160", "1e-154", "0.1", "2", "1e154"])
    @pytest.mark.parametrize("order", [1.0, 2.0, 1000.0, float("inf")])
    def test_kept_log_radius_decides_as_the_radius(self, radius, order):
        statement = parse_statement(
            f"SELECT AVG(u) FROM t WITHIN {radius} OF (0.5, 0.5)"
        )
        assert statement.log_radius == math.log(statement.radius)
        assert log_radius_power_is_normal(
            statement.log_radius, order
        ) == radius_power_is_normal(statement.radius, order)

    def test_signed_coordinates(self):
        statement = parse_statement("SELECT AVG(u) FROM t WITHIN 0.1 OF (+0.5 , -.5e0)")
        assert statement.center == (0.5, -0.5)

    def test_rejects_zero_radius(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT AVG(u) FROM t WITHIN 0.0 OF (0.1)")

    def test_norm_clause_defaults_to_none(self):
        statement = parse_statement("SELECT AVG(u) FROM t WITHIN 0.1 OF (0.3, 0.5)")
        assert statement.norm_order is None

    @pytest.mark.parametrize(
        ("clause", "expected"),
        [
            ("NORM 1", 1.0),
            ("NORM 1.5", 1.5),
            ("norm 2", 2.0),
            ("NORM INF", float("inf")),
            ("NORM infinity", float("inf")),
            # 0.1 ** 300 is still a normal float64.
            ("NORM 300", 300.0),
        ],
    )
    def test_norm_clause_parses(self, clause, expected):
        statement = parse_statement(
            f"SELECT AVG(u) FROM t WITHIN 0.1 OF (0.3, 0.5) {clause};"
        )
        assert statement.norm_order == expected
        assert statement.to_query().norm_order == expected

    def test_norm_clause_below_one_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT AVG(u) FROM t WITHIN 0.1 OF (0.3) NORM 0.5")

    def test_to_query_resolution_precedence(self):
        # No clause: the caller's per-table default applies, then Euclidean.
        bare = parse_statement("SELECT AVG(u) FROM t WITHIN 0.1 OF (0.3, 0.5)")
        assert bare.to_query().norm_order == 2.0
        assert bare.to_query(norm_order=1.0).norm_order == 1.0
        # Explicit clause: wins over any caller default.
        clause = parse_statement("SELECT AVG(u) FROM t WITHIN 0.1 OF (0.3, 0.5) NORM INF")
        assert clause.to_query(norm_order=1.0).norm_order == float("inf")


class TestParseMemo:
    """parse_statement parses each distinct text once (a bounded LRU)."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        parse_statement.cache_clear()
        yield
        parse_statement.cache_clear()

    def test_repeated_text_returns_one_statement(self):
        sql = "SELECT REGRESSION(u) FROM t WITHIN 0.2 OF (0.3, -0.5) NORM 1"
        first = parse_statement(sql)
        assert parse_statement(sql) is first
        assert first == ParsedStatement(
            kind="q2", table="t", center=(0.3, -0.5), radius=0.2, norm_order=1.0
        )
        assert parse_statement.cache_info().hits == 1

    def test_refused_text_is_not_memoized(self):
        parse_statement("SELECT AVG(u) FROM t WITHIN 0.1 OF (0.5, 0.5)")
        size = parse_statement.cache_info().currsize
        for _ in range(3):
            with pytest.raises(SQLSyntaxError):
                parse_statement("SELECT AVG(u) FROM t WITHIN 0.1 OF (nan, 0.5)")
        assert parse_statement.cache_info().currsize == size

    def test_memo_is_bounded(self):
        bound = parse_statement.cache_info().maxsize
        for i in range(bound + 10):
            parse_statement(f"SELECT AVG(u) FROM t WITHIN 0.1 OF ({i}, 0.5)")
        assert parse_statement.cache_info().currsize == bound

    def test_threads_parsing_the_same_texts_agree(self):
        texts = [
            f"SELECT COUNT(*) FROM t WITHIN 0.{i % 9 + 1} OF ({i}.25, -{i}e-3)"
            for i in range(200)
        ]
        expected = [
            ParsedStatement(
                kind="count",
                table="t",
                center=(float(f"{i}.25"), -float(f"{i}e-3")),
                radius=float(f"0.{i % 9 + 1}"),
            )
            for i in range(200)
        ]
        barrier = threading.Barrier(4)
        parsed: list[list[tuple[ParsedStatement, bytes]]] = [[] for _ in range(4)]

        def worker(slot: int) -> None:
            barrier.wait(timeout=10.0)
            statements = [parse_statement(text) for text in texts]
            parsed[slot] = [(s, s.vector_bytes) for s in statements]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        want = [(s, s.to_query().to_vector().tobytes()) for s in expected]
        assert all(got == want for got in parsed)

    def test_script_repeating_a_statement_keeps_both(self):
        sql = "SELECT AVG(u) FROM t WITHIN 0.1 OF (0.5, 0.5)"
        first, second = parse_script(f"{sql}; {sql}")
        assert first is second


class TestParseScript:
    def test_splits_statements_and_strips_comments(self):
        script = """
        -- exploration
        SELECT AVG(u) FROM sensors WITHIN 0.1 OF (0.3, 0.5);
        SELECT COUNT(*) FROM sensors WITHIN 0.1 OF (0.3, 0.5); -- cardinality
        SELECT REGRESSION(u) FROM sensors WITHIN 0.2 OF (0.4, 0.4) NORM 1;
        """
        statements = parse_script(script)
        assert [statement.kind for statement in statements] == ["q1", "count", "q2"]
        assert statements[2].norm_order == 1.0

    def test_empty_script(self):
        assert parse_script("  \n -- nothing here \n") == []

    def test_invalid_statement_in_script(self):
        with pytest.raises(SQLSyntaxError):
            parse_script("SELECT AVG(u) FROM t WITHIN 0.1 OF (0.3); DROP TABLE t;")


@pytest.fixture(scope="module")
def session() -> AnalyticsSession:
    rng = np.random.default_rng(0)
    inputs = rng.uniform(0, 1, size=(3_000, 2))
    outputs = 1.0 + inputs[:, 0] + 2.0 * inputs[:, 1]
    dataset = SyntheticDataset(inputs=inputs, outputs=outputs, name="sensors", domain=(0.0, 1.0))
    engine = ExactQueryEngine(dataset)

    spec = WorkloadSpec(dimension=2, radius=RadiusDistribution(mean=0.15, std=0.03))
    queries = QueryWorkloadGenerator(spec, seed=1).generate(400)
    workload = LabelledWorkload.from_engine(queries, engine)
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.1),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(workload)

    analytics = AnalyticsSession()
    analytics.register_engine("sensors", engine)
    analytics.register_model("sensors", model)
    return analytics


class TestAnalyticsSession:
    def test_tables(self, session):
        assert session.tables == ["sensors"]

    def test_exact_q1(self, session):
        value = session.execute("SELECT AVG(u) FROM sensors WITHIN 0.2 OF (0.5, 0.5)")
        # E[u] over the ball around (0.5, 0.5) for u = 1 + x1 + 2 x2 is ~2.5.
        assert value == pytest.approx(2.5, abs=0.05)

    def test_exact_count(self, session):
        count = session.execute("SELECT COUNT(*) FROM sensors WITHIN 0.2 OF (0.5, 0.5)")
        assert isinstance(count, int) and count > 0

    def test_exact_q2_returns_single_model(self, session):
        models = session.execute(
            "SELECT REGRESSION(u) FROM sensors WITHIN 0.3 OF (0.5, 0.5)"
        )
        assert len(models) == 1
        intercept, slope = models[0]
        assert intercept == pytest.approx(1.0, abs=0.05)
        assert np.allclose(slope, [1.0, 2.0], atol=0.05)

    def test_approximate_q1_close_to_exact(self, session):
        exact = session.execute("SELECT AVG(u) FROM sensors WITHIN 0.15 OF (0.4, 0.6)")
        predicted = session.execute(
            "SELECT AVG(u) FROM sensors WITHIN 0.15 OF (0.4, 0.6)", mode="approximate"
        )
        assert predicted == pytest.approx(exact, abs=0.2)

    def test_approximate_q2_returns_local_models(self, session):
        models = session.execute(
            "SELECT REGRESSION(u) FROM sensors WITHIN 0.15 OF (0.4, 0.6)",
            mode="approximate",
        )
        assert len(models) >= 1
        for intercept, slope in models:
            assert np.isfinite(intercept)
            assert np.all(np.isfinite(slope))

    def test_approximate_count_rejected(self, session):
        with pytest.raises(SQLSyntaxError):
            session.execute(
                "SELECT COUNT(*) FROM sensors WITHIN 0.2 OF (0.5, 0.5)",
                mode="approximate",
            )

    def test_unknown_table(self, session):
        with pytest.raises(SQLSyntaxError):
            session.execute("SELECT AVG(u) FROM missing WITHIN 0.2 OF (0.5, 0.5)")

    def test_unknown_mode(self, session):
        with pytest.raises(SQLSyntaxError):
            session.execute(
                "SELECT AVG(u) FROM sensors WITHIN 0.2 OF (0.5, 0.5)", mode="bogus"
            )

    def test_hybrid_mode(self, session):
        value = session.execute(
            "SELECT AVG(u) FROM sensors WITHIN 0.15 OF (0.4, 0.6)", mode="hybrid"
        )
        assert np.isfinite(value)

    def test_empty_exact_subspace_raises_cleanly(self, session):
        # The seed front end guarded exact Q2 with an assert (gone under
        # ``python -O``); empty subspaces must raise the library's own
        # error for both Q1 and Q2.
        for projection in ("AVG(u)", "REGRESSION(u)"):
            with pytest.raises(EmptySubspaceError):
                session.execute(
                    f"SELECT {projection} FROM sensors WITHIN 0.001 OF (7.0, 7.0)"
                )
        assert (
            session.execute("SELECT COUNT(*) FROM sensors WITHIN 0.001 OF (7.0, 7.0)")
            == 0
        )

    def test_approximate_mode_uses_model_geometry(self):
        # Seed bug: ParsedStatement.to_query hard-coded the Euclidean norm,
        # so a model trained under L1 geometry was queried with L2 balls.
        rng = np.random.default_rng(5)
        inputs = rng.uniform(0, 1, size=(2_000, 2))
        outputs = inputs[:, 0] + inputs[:, 1]
        dataset = SyntheticDataset(
            inputs=inputs, outputs=outputs, name="sensors", domain=(0.0, 1.0)
        )
        engine = ExactQueryEngine(dataset)
        spec = WorkloadSpec(
            dimension=2,
            radius=RadiusDistribution(mean=0.15, std=0.03),
            norm_order=1.0,
        )
        queries = QueryWorkloadGenerator(spec, seed=2).generate(200)
        workload = LabelledWorkload.from_engine(queries, engine)
        model = LLMModel(
            dimension=2,
            config=ModelConfig(quantization_coefficient=0.1, norm_order=1.0),
        )
        model.fit(workload)
        session = AnalyticsSession(engines={"sensors": engine}, models={"sensors": model})
        predicted = session.execute(
            "SELECT AVG(u) FROM sensors WITHIN 0.15 OF (0.4, 0.6)",
            mode="approximate",
        )
        l1_query = Query(center=np.array([0.4, 0.6]), radius=0.15, norm_order=1.0)
        assert predicted == pytest.approx(model.predict_mean(l1_query), abs=1e-12)
