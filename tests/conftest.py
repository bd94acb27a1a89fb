"""Shared fixtures for the test suite.

Fixtures are session-scoped where the underlying objects are immutable
(datasets, engines, trained models) so the suite stays fast; tests that need
to mutate state build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ExactQueryEngine,
    LLMModel,
    LabelledWorkload,
    ModelConfig,
    Query,
    QueryWorkloadGenerator,
    RadiusDistribution,
    TrainingConfig,
    WorkloadSpec,
    generate_gas_sensor_dataset,
    make_function_dataset,
    make_rosenbrock_dataset,
)


def pytest_sessionstart(session: pytest.Session) -> None:
    """Activate the runtime race detector when ``REPRO_RACE_CHECK=1``.

    Every lock the instrumented dbms modules create during the run then
    participates in the lockset and lock-order analyses; the report lands
    in :func:`pytest_sessionfinish`.
    """
    from repro.analysis import instrument

    if instrument.race_check_requested():
        instrument.enable()


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Fail the run if the race detector collected any findings."""
    from repro.analysis import instrument

    registry = instrument.active_registry()
    if registry is None:
        return
    findings = registry.findings()
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    lines = [
        f"race check: {registry.lock_count} locks, "
        f"{registry.acquire_count} acquisitions, "
        f"{len(findings)} finding(s)"
    ]
    if findings:
        lines.append(registry.format_report())
        session.exitstatus = 1
    for line in lines:
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_sensor_dataset():
    """A small 2-D gas-sensor surrogate dataset used across tests."""
    return generate_gas_sensor_dataset(4_000, dimension=2, seed=11)


@pytest.fixture(scope="session")
def small_rosenbrock_dataset():
    """A small raw (unnormalised) Rosenbrock dataset."""
    return make_rosenbrock_dataset(3_000, dimension=2, seed=5)


@pytest.fixture(scope="session")
def saddle_dataset():
    """Example-2 style dataset: u = x1 (x2 + 1) over [-1.5, 1.5]^2."""
    return make_function_dataset("product_saddle", 3_000, dimension=2, seed=9)


@pytest.fixture(scope="session")
def sensor_engine(small_sensor_dataset):
    return ExactQueryEngine(small_sensor_dataset)


@pytest.fixture(scope="session")
def sensor_workload(sensor_engine):
    """A labelled workload of 600 queries over the sensor dataset."""
    spec = WorkloadSpec(
        dimension=2,
        center_low=0.0,
        center_high=1.0,
        radius=RadiusDistribution(mean=0.12, std=0.03),
    )
    queries = QueryWorkloadGenerator(spec, seed=3).generate(600)
    return LabelledWorkload.from_engine(queries, sensor_engine)


@pytest.fixture(scope="session")
def trained_model(sensor_workload):
    """A model trained on the sensor workload with a fine quantization."""
    model = LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=0.08),
        training=TrainingConfig(convergence_threshold=1e-4),
    )
    model.fit(sensor_workload)
    return model


@pytest.fixture()
def unit_query() -> Query:
    return Query(center=np.array([0.5, 0.5]), radius=0.15)


@pytest.fixture()
def statistics_partition(monkeypatch):
    """After the test, every service's counters partition its statements.

    Tracks each serving layer built during the test (the inner service and
    the concurrent front keep their statistics through the same code) and
    checks, per table, that model + exact + fallback + error + cache-hit
    statements add up to the statements recorded: the one recording path
    drops no answer source.  The inner service never answers from a cache.
    """
    from repro.dbms.serving import AnalyticsService
    from repro.dbms.stats import PerTableStatistics

    services: list = []
    init_statistics = PerTableStatistics._init_statistics

    def tracking(self, lock_name: str) -> None:
        init_statistics(self, lock_name)
        services.append(self)

    monkeypatch.setattr(PerTableStatistics, "_init_statistics", tracking)
    yield
    for service in services:
        for table, live in service.per_table_statistics.items():
            stats = live.snapshot()
            sources = (
                stats.model_answered
                + stats.exact_answered
                + stats.fallback_count
                + stats.error_count
                + stats.cache_hits
            )
            where = f"{type(service).__name__}[{table!r}]"
            assert sources == stats.statements_executed, where
            if isinstance(service, AnalyticsService):
                assert stats.cache_hits == 0, where
