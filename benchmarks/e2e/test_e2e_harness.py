"""Self-tests of the end-to-end benchmark harness (fast; part of tier 1).

They pin what the benchmark's numbers mean: due-time latency under a fake
front and clock, failure accounting, the host-speed scaling, that the output
check catches a one-ulp model deviation, that a tiny run emits every metric
with its unit, and that BENCHMARK.json describes the metrics the runner
prints.
"""

from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import e2e_checks
import e2e_hostspeed
import e2e_loadgen
import e2e_workloads
from repro.core.training import StreamingTrainer
from repro.dbms.executor import ExactQueryEngine
from repro.exceptions import ServiceOverloadedError

HERE = Path(__file__).resolve().parent


def _load_runner():
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, seconds)


@dataclass
class FakeResult:
    source: str = "model"


class FakeFuture:
    """Answers ``ready_at`` on the fake clock (never, when ``None``)."""

    def __init__(self, clock: FakeClock, ready_at, results) -> None:
        self.clock = clock
        self.ready_at = ready_at
        self.results = results

    def result(self, timeout=None):
        if self.ready_at is not None and self.clock.now >= self.ready_at:
            return self.results
        if self.ready_at is not None and self.clock.now + timeout >= self.ready_at:
            self.clock.now = self.ready_at
            return self.results
        self.clock.now += timeout
        raise TimeoutError


def fake_front(clock: FakeClock, *, delay: float, submit_cost: float = 0.0, behaviour=None):
    """A front whose answers take ``delay`` after submission returns."""

    def submit(statements, index):
        clock.now += submit_cost
        kind = behaviour(index) if behaviour else "ok"
        if kind == "overloaded":
            raise ServiceOverloadedError("full", pending=1, limit=1)
        results = [FakeResult() for _ in statements]
        if kind == "error":
            results[0] = FakeResult("error")
        ready_at = None if kind == "hang" else clock.now + delay
        return FakeFuture(clock, ready_at, results)

    return submit


def test_closed_loop_latency_runs_from_due_time_and_excludes_the_hook():
    clock = FakeClock()
    requests = e2e_loadgen.run_closed_loop(
        fake_front(clock, delay=0.003, submit_cost=0.001), lambda i: ["s"],
        duration=0.1, clock=clock, between=lambda: clock.sleep(0.0005),
    )
    # each cycle: submit (1 ms) + answer delay (3 ms) + the hook (0.5 ms)
    assert len(requests) == 23
    assert all(r.latency == pytest.approx(0.004, abs=1e-12) for r in requests)
    assert [b.due - a.answered for a, b in zip(requests, requests[1:])] == pytest.approx(
        [0.0005] * 22, abs=1e-12
    )


def test_failures_are_counted_against_attempted_statements():
    clock = FakeClock()
    behaviour = {3: "overloaded", 5: "error", 7: "hang"}.get
    requests = e2e_loadgen.run_closed_loop(
        fake_front(clock, delay=0.002, behaviour=lambda i: behaviour(i, "ok")),
        lambda i: ["a", "b"], duration=0.1, clock=clock, deadline=0.05,
    )
    summary = e2e_loadgen.summarize(requests)
    assert summary["attempted"] == 2 * len(requests)
    # overloaded: both statements; error: one statement; timeout: both
    assert summary["failed"] == 5
    assert summary["rejected"] == 1
    assert [r.failure for r in requests if r.failure] == ["overloaded", "timeout"]
    assert len(summary["answered"]) == len(requests) - 2


def test_host_speed_scales_to_the_reference_unit_time_nearby():
    clock = FakeClock()
    nominal = e2e_hostspeed.REFERENCE_UNIT_SECONDS

    def unit():
        # the host runs at half speed for the first second
        clock.sleep(nominal * (2.0 if clock.now < 1.0 else 1.0))

    host = e2e_hostspeed.HostSpeed(clock=clock, cpu_clock=clock, unit=unit)
    while clock.now < 2.0:
        host.tick()
        clock.sleep(0.001)  # a request
    assert host.factors_at([0.5, 1.5]) == pytest.approx([0.5, 1.0])
    assert host.burst(0.01) == pytest.approx(nominal)
    assert np.isnan(e2e_hostspeed.HostSpeed().factors_at([1.0])).all()


@pytest.fixture(scope="module")
def trained():
    datasets = e2e_workloads.make_tables(5_000)
    engine = ExactQueryEngine(datasets["R1"])
    model = e2e_workloads.new_model()
    StreamingTrainer(model, engine).train(e2e_workloads.training_queries(1, 0, 300))
    queries = e2e_workloads.training_queries(2, 0, 40)
    return datasets["R1"], engine, model, queries


def test_one_ulp_off_model_answers_fail_the_check(trained):
    dataset, _, model, queries = trained
    oracles = {"R1": e2e_checks.Oracle(dataset.inputs, dataset.outputs)}
    batched = model.predict_mean_batch(queries)
    single = np.array([model.predict_mean_batch([q])[0] for q in queries])
    # a query whose batched and one-at-a-time predictions agree
    i = int(np.nonzero(batched == single)[0][0])

    def check(value, kind="q1"):
        item = e2e_checks.Sampled("R1", kind, queries[i], "model", value, model)
        return e2e_checks.check_sample([item], oracles)

    assert check(float(batched[i])) == []
    assert len(check(float(np.nextafter(batched[i], np.inf)))) == 1
    planes = model.predict_q2_batch(queries[i:i + 2])[0]
    served = [(p.intercept, p.slope) for p in planes]
    assert check(served, "q2") == []
    intercept, slope = served[0]
    bumped = [(intercept, np.nextafter(slope, np.inf))] + served[1:]
    assert len(check(bumped, "q2")) == 1


def test_exact_answers_are_checked_against_the_reference(trained):
    dataset, engine, _, queries = trained
    query = queries[0]
    answer = engine.execute_q1_batch([query])[0]
    fit = engine.execute_q2_batch([query])[0]
    oracle = e2e_checks.Oracle(dataset.inputs, dataset.outputs)

    def problems(kind, value):
        item = e2e_checks.Sampled("R1", kind, query, "exact", value)
        return e2e_checks.check_sample([item], {"R1": oracle})

    assert problems("q1", answer.mean) == []
    assert problems("count", answer.cardinality) == []
    q2 = [(fit.coefficients[0], fit.coefficients[1:])]
    assert problems("q2", q2) == []
    assert len(problems("q1", answer.mean + 1e-9)) == 1
    assert len(problems("count", answer.cardinality + 1)) == 1
    assert len(problems("q1", None)) == 1


SMOKE = e2e_workloads.Sizes(
    rows=20_000, training_queries=600, warmup_seconds=0.2, setup_repeats=1,
    check_sample=300, accuracy_sample=300, fvu_sample=40, dashboard_pool=200,
    dashboard_scripts=256, analyst_check_sample=64, analyst_accuracy_sample=100,
    analyst_fvu_sample=16,
)


@pytest.mark.parametrize("workload", e2e_workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, tmp_path):
    runner = _load_runner()
    result = e2e_workloads.run_workload(
        workload, seed=3, seconds=0.5, trace=True, sizes=SMOKE,
        trace_path=tmp_path / "spans.json",
    )
    assert result["correct"], result["problems"]
    if workload == "dashboard":
        # the warm-up puts the whole pool in the answer cache
        assert result["details"]["cache_hit_rate"] == 1.0
    for trace, table in ((False, runner.E2E_METRICS), (True, runner.LAYER_METRICS)):
        line = json.loads(json.dumps(runner.contract_line(result, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(table)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == table[name][0]
            assert math.isfinite(metric["value"]), name
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["spans"]


def test_benchmark_json_describes_the_emitted_metrics():
    runner = _load_runner()
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == e2e_workloads.WHY
    for key, table in (("end_to_end", runner.E2E_METRICS), ("per_layer", runner.LAYER_METRICS)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
