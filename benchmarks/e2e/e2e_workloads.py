"""The three workloads of the end-to-end benchmark, and the run that measures one.

Every workload sends statement text in and takes answers out through
:class:`~repro.dbms.concurrent.ConcurrentAnalyticsService` over
:class:`~repro.dbms.serving.AnalyticsService`, with the default
:class:`~repro.dbms.concurrent.ConcurrencyPolicy` and
:class:`~repro.dbms.serving.DegradationPolicy`.  Two tables, R1 (the gas
sensor surrogate) and R2 (Rosenbrock, unit-scaled), hold ``Sizes.rows``
rows each with d = 2.  Each table's model is trained through
:class:`~repro.core.training.StreamingTrainer` on exploration queries
restricted to x1 <= 0.6, "where analysts have looked so far".

``--seed`` drives the training stream and the traffic; the program only
ever sees the generated statements.  The two base tables come from a fixed
data seed, so that runs with different seeds measure the same tables (see
README.md).
"""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.training import StreamingTrainer
from repro.data.gas_sensor import generate_gas_sensor_dataset
from repro.data.scaling import MinMaxScaler
from repro.data.synthetic import SyntheticDataset, make_rosenbrock_dataset
from repro.dbms.concurrent import ConcurrentAnalyticsService
from repro.dbms.executor import ExactQueryEngine
from repro.dbms.serving import AnalyticsService
from repro.dbms.sqlfront import parse_statement
from repro.eval.experiments import (
    ANALYST_RADIUS_CAP,
    ANALYST_RADIUS_SCALE,
    DEFAULT_COEFFICIENT,
    DEFAULT_GAMMA,
    default_radius_distribution,
)
from repro.metrics.evaluation import evaluate_q2_goodness_of_fit

import e2e_checks
import e2e_hostspeed
import e2e_loadgen
import e2e_trace

WORKLOADS = ("dashboard", "adhoc", "analyst")

WHY = {
    "dashboard": "closed-loop 4-statement scripts drawn Zipf from a pool held in the answer "
    "cache: every statement is a hit (parse, cache key, lookup); control for execution changes",
    "adhoc": "closed-loop single statements, all unique, over the whole domain: every lookup "
    "misses, ~1/3 fall back to exact; coalescer, small-batch model and exact paths",
    "analyst": "closed-loop 32-statement analyst-scale scripts in exact mode on R2: "
    "the exact executor does the work, the model none",
}

TABLES = ("R1", "R2")

#: Base tables are generated from this seed whatever ``--seed`` is.
DATA_SEED = 20170401

#: Seed of the accuracy probe (a fixed test set).
PROBE_SEED = 20170402

MODE = {"dashboard": "hybrid", "adhoc": "hybrid", "analyst": "exact"}

SCRIPT_STATEMENTS = {"dashboard": 4, "adhoc": 1, "analyst": 32}

#: Share of statements that go to R1 (the rest go to R2).
R1_SHARE = {"dashboard": 0.65, "adhoc": 0.65, "analyst": 0.0}

KINDS = ("AVG(u)", "REGRESSION(u)", "COUNT(*)")
KIND_MIX = (0.85, 0.10, 0.05)

#: Upper bound of x1 for the exploration queries the models train on.
EXPLORED_X1 = 0.6

ZIPF_EXPONENT = 1.1

#: Scripts generated per second of run (a ceiling on throughput; past it
#: the scripts repeat, but only after more statements than the answer cache
#: holds, so a repeat still misses).
SCRIPTS_PER_SECOND = {"adhoc": 400, "analyst": 60}

#: Latency percentiles every run reports: p50 and p90 are end-to-end
#: metrics, p95 and p99 are printed with no bound (README.md, "Deviations").
PERCENTILES = (50, 90, 95, 99)


@dataclass(frozen=True)
class Sizes:
    """Everything that scales a run (the harness self-test shrinks it)."""

    rows: int = 200_000
    training_queries: int = 3_000
    warmup_seconds: float = 2.0
    setup_repeats: int = 3
    check_sample: int = 2_000
    accuracy_sample: int = 2_000
    fvu_sample: int = 200
    dashboard_pool: int = 1_000
    #: Dashboard scripts drawn before they repeat.
    dashboard_scripts: int = 8_192
    #: Analyst statements select up to half the table, so its reference
    #: checks, exact AVG answers and Q2 fits cost ~100x more per statement.
    analyst_check_sample: int = 256
    analyst_accuracy_sample: int = 500
    analyst_fvu_sample: int = 32


# --------------------------------------------------------------------------- #
# tables and models
# --------------------------------------------------------------------------- #
def make_tables(rows: int) -> dict[str, SyntheticDataset]:
    """R1 and R2 from the fixed data seed."""
    r1 = generate_gas_sensor_dataset(rows, dimension=2, seed=DATA_SEED)
    raw = make_rosenbrock_dataset(rows, dimension=2, seed=DATA_SEED + 1)
    inputs = MinMaxScaler().fit_transform(raw.inputs)
    outputs = MinMaxScaler().fit_transform(raw.outputs.reshape(-1, 1)).ravel()
    r2 = SyntheticDataset(inputs=inputs, outputs=outputs, name="R2", domain=(0.0, 1.0))
    return {"R1": r1, "R2": r2}


def new_model() -> LLMModel:
    return LLMModel(
        dimension=2,
        config=ModelConfig(quantization_coefficient=DEFAULT_COEFFICIENT),
        training=TrainingConfig(convergence_threshold=DEFAULT_GAMMA),
    )


def training_queries(seed: int, table_index: int, count: int):
    """Exploration queries of the trained region (x1 <= 0.6)."""
    from repro.queries.query import Query

    rng = np.random.default_rng([seed, 1, table_index])
    centers = rng.uniform([0.0, 0.0], [EXPLORED_X1, 1.0], size=(count, 2))
    radii = default_radius_distribution(2).sample(rng, count)
    return [Query(center=c, radius=float(r)) for c, r in zip(centers, radii)]


# --------------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------------- #
def _statement(kind: str, table: str, center, radius: float) -> str:
    # repr round-trips floats exactly, so the parsed query is the generated one.
    x, y = (repr(float(v)) for v in center)
    return f"SELECT {kind} FROM {table} WITHIN {float(radius)!r} OF ({x}, {y})"


def _zipf(count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=float) ** ZIPF_EXPONENT
    return weights / weights.sum()


class Traffic:
    """Statement texts of one workload, all drawn from the seed."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, seconds: float,
                 phases: int) -> None:
        self.workload = workload
        self.sizes = sizes
        self._radius = default_radius_distribution(2)
        per_script = SCRIPT_STATEMENTS[workload]
        run_seconds = phases * (seconds + sizes.warmup_seconds) + 1.0
        rng = np.random.default_rng([seed, 2])
        #: Statements sent once before the window so the cache holds them.
        self.pool: list[str] = []
        if workload == "dashboard":
            pools = {
                table: self._pool(np.random.default_rng([seed, 3, i]), table)
                for i, table in enumerate(TABLES)
            }
            self.pool = pools["R1"] + pools["R2"]
            count = sizes.dashboard_scripts * per_script
            tables = np.where(rng.random(count) < R1_SHARE[workload], "R1", "R2")
            ranks = rng.choice(sizes.dashboard_pool, size=count, p=_zipf(sizes.dashboard_pool))
            texts = [pools[table][rank] for table, rank in zip(tables, ranks)]
        else:
            scripts = int(SCRIPTS_PER_SECOND[workload] * run_seconds)
            texts = self._fresh(rng, scripts * per_script, kind=None)
        self.scripts = [texts[i:i + per_script] for i in range(0, len(texts), per_script)]

    def statements_for(self, index: int) -> list[str]:
        return self.scripts[index % len(self.scripts)]

    def probe(self, kind: str, count: int) -> list[str]:
        """``count`` distinct statements of one kind, shaped like the traffic.

        The probe is the same for every ``--seed`` (a fixed test set), so
        accuracy varies across seeds only through the trained models.
        """
        rng = np.random.default_rng([PROBE_SEED, KINDS.index(kind)])
        return self._fresh(rng, count, kind=kind, explored=self.workload == "dashboard")

    def _kinds(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(len(KINDS), size=count, p=KIND_MIX)

    def _pool(self, rng: np.random.Generator, table: str) -> list[str]:
        """Distinct dashboard statements of one table, in the trained region."""
        size = self.sizes.dashboard_pool
        centers = rng.uniform([0.0, 0.0], [EXPLORED_X1, 1.0], size=(size, 2))
        radii = self._radius.sample(rng, size)
        kinds = self._kinds(rng, size)
        return [_statement(KINDS[k], table, c, r) for k, c, r in zip(kinds, centers, radii)]

    def _fresh(self, rng: np.random.Generator, count: int, kind: str | None,
               explored: bool = False) -> list[str]:
        """Unique statements, centers uniform over the whole domain (or the
        explored region)."""
        centers = rng.uniform([0.0, 0.0], [EXPLORED_X1 if explored else 1.0, 1.0], size=(count, 2))
        radii = self._radius.sample(rng, count)
        if self.workload == "analyst":
            radii = np.minimum(radii * ANALYST_RADIUS_SCALE, ANALYST_RADIUS_CAP)
            tables = np.ones(count, dtype=int)
            if kind is None:
                # Half REGRESSION, half AVG within every 32-statement script.
                half = SCRIPT_STATEMENTS["analyst"] // 2
                blocks = -(-count // (2 * half))
                kinds = np.concatenate(
                    [rng.permutation([0] * half + [1] * half) for _ in range(blocks)]
                )[:count]
            else:
                kinds = np.full(count, KINDS.index(kind))
        else:
            tables = np.where(rng.random(count) < R1_SHARE[self.workload], 0, 1)
            kinds = self._kinds(rng, count) if kind is None else np.full(count, KINDS.index(kind))
        return [
            _statement(KINDS[k], TABLES[t], c, r)
            for k, t, c, r in zip(kinds, tables, centers, radii)
        ]


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
@dataclass
class Deployment:
    workload: str
    service: AnalyticsService
    front: ConcurrentAnalyticsService
    datasets: dict
    engines: dict
    models: dict
    training: dict

    def close(self) -> None:
        self.front.close(drain_seconds=10.0)
        self.service.close()


def warm_engine(engine: ExactQueryEngine, queries: list) -> None:
    """Build every lazy structure of an engine's exact paths: the batch
    pipeline's fine grid, clustered rows and Q1/Q2 cell aggregates, and the
    per-query cell lists the dense Q2 fallback of a near-singular subspace
    selects through."""
    engine.execute_q1_batch(queries, on_empty="null")
    engine.execute_q2_batch(queries, on_empty="null")
    engine.cardinality(queries[0])


def setup(workload: str, seed: int, sizes: Sizes) -> Deployment:
    """Everything before the first request: tables, index, training, front."""
    datasets = make_tables(sizes.rows)
    engines = {table: ExactQueryEngine(datasets[table]) for table in TABLES}
    models, training = {}, {}
    for index, table in enumerate(TABLES):
        queries = training_queries(seed, index, sizes.training_queries)
        models[table] = new_model()
        training[table] = StreamingTrainer(models[table], engines[table]).train(queries)
        warm_engine(engines[table], queries[:64])
    service = AnalyticsService()
    for table in TABLES:
        service.register_engine(table, engines[table])
        service.register_model(table, models[table])
    front = ConcurrentAnalyticsService(service)
    return Deployment(workload, service, front, datasets, engines, models, training)


# --------------------------------------------------------------------------- #
# the measured run
# --------------------------------------------------------------------------- #
def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def _drive(submit, traffic: Traffic, duration: float, first_index: int,
           host: e2e_hostspeed.HostSpeed):
    return e2e_loadgen.run_closed_loop(
        submit, traffic.statements_for, duration=duration, first_index=first_index,
        between=host.tick,
    )


def _fill_cache(deployment: Deployment, front, traffic: Traffic) -> None:
    """Send the workload's pool once, so the answer cache holds all of it."""
    if traffic.pool:
        front.execute_script(traffic.pool, mode=MODE[deployment.workload])


@dataclass
class Window:
    """One measured window: its requests and the counters around it."""

    requests: list
    summary: dict
    #: Host-speed factor of each answered request (``summary["answered"]``).
    factors: np.ndarray
    cpu_seconds: float
    wall_seconds: float
    cache: dict
    serving: dict
    executor: dict


def _cache_counters(front) -> dict:
    cache = front.cache
    return {"hits": cache.hits, "misses": cache.misses, "evictions": cache.evictions}


def _serving_counters(service) -> dict:
    stats = service.statistics
    return {"model": stats.model_answered, "fallback": stats.fallback_count}


def _executor_counters(engines: dict) -> dict:
    totals = {"queries": 0, "scanned": 0, "selected": 0}
    for engine in engines.values():
        stats = engine.statistics
        totals["queries"] += stats.queries_executed
        totals["scanned"] += stats.rows_scanned
        totals["selected"] += stats.rows_selected
    return totals


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _measure(deployment: Deployment, front, submit, traffic: Traffic, duration: float,
             first_index: int, host: e2e_hostspeed.HostSpeed) -> Window:
    # Python's full collections scan every tracked object.  Freezing what
    # exists now (tables, models, the generated traffic, earlier windows'
    # records) leaves collections to what the window itself allocates, so
    # the tail measures the program rather than the harness's heap.
    gc.collect()
    gc.freeze()
    engines = deployment.engines
    before = (_cache_counters(front), _serving_counters(deployment.service),
              _executor_counters(engines))
    units = len(host.samples)
    cpu, wall = time.process_time(), time.perf_counter()
    requests = _drive(submit, traffic, duration, first_index, host)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    summary = e2e_loadgen.summarize(requests)
    return Window(
        requests=requests,
        summary=summary,
        factors=host.factors_at([r.answered for r in summary["answered"]]),
        # the reference units are the benchmark's, not the program's
        cpu_seconds=cpu - sum(seconds for _, seconds in host.samples[units:]),
        wall_seconds=wall,
        cache=_delta(_cache_counters(front), before[0]),
        serving=_delta(_serving_counters(deployment.service), before[1]),
        executor=_delta(_executor_counters(engines), before[2]),
    )


def _plain_submit(front, mode: str):
    return lambda statements, index: front.submit_script(statements, mode=mode)


def _traced_submit(front, mode: str, recorder: e2e_trace.Recorder):
    def submit(statements, index):
        with recorder.span("sqlfront.parse", request_id=index, size=len(statements)):
            parsed = [parse_statement(text) for text in statements]
        if recorder.active:
            for statement in parsed:
                recorder.request_of[id(statement)] = index
        with recorder.span("gen.submit", request_id=index, size=len(parsed)):
            return front.submit_script(parsed, mode=mode)

    return submit


def _timings(window: Window, adjusted: bool = True) -> dict:
    """Latency percentiles and throughput of a window's answered requests,
    at the reference host speed (or as measured, ``adjusted=False``).

    One client waits for each answer, so throughput is the statements
    answered per second of request latency.
    """
    answered = window.summary["answered"]
    latencies = np.array([r.latency for r in answered])
    if adjusted:
        latencies = latencies * window.factors
    completed = sum(len(r.statements) - r.failed_statements for r in answered)
    metrics = {f"p{q}_ms": _percentile(latencies * 1e3, q) for q in PERCENTILES}
    metrics["stmt_per_s"] = completed / latencies.sum() if latencies.size else math.nan
    return metrics


def _accuracy(deployment: Deployment, front, traffic: Traffic, sizes: Sizes) -> dict:
    """q1_rmse and q2_fvu of hybrid answers to a probe drawn like the traffic."""
    service = deployment.service
    analyst = deployment.workload == "analyst"
    avg_sample = sizes.analyst_accuracy_sample if analyst else sizes.accuracy_sample
    probe = front.execute_script(traffic.probe("AVG(u)", avg_sample), mode="hybrid")
    errors = []
    for table in TABLES:
        served = [r for r in probe if r.table == table and r.value is not None]
        if not served:
            continue
        queries = [service.query_for(r.statement) for r in served]
        truth = deployment.engines[table].execute_q1_batch(queries, on_empty="null")
        errors += [r.value - t.mean for r, t in zip(served, truth) if t is not None]
    fvu_sample = sizes.analyst_fvu_sample if analyst else sizes.fvu_sample
    regressions = front.execute_script(traffic.probe("REGRESSION(u)", fvu_sample), mode="hybrid")
    # One fit per statement, pooled as (sum of unexplained variance) / (sum
    # of variance): the plain mean over statements is carried by the few
    # near-constant subspaces whose FVU runs into the tens (README.md).
    unexplained = total = 0.0
    fits = 0
    for result in regressions:
        if result.source != "model":
            continue
        model = deployment.models[result.table]
        engine = deployment.engines[result.table]
        query = service.query_for(result.statement)
        report = evaluate_q2_goodness_of_fit(model, engine, [query], include_baselines=False)
        if report.evaluated_queries:
            _, outputs = engine.select_subspace(query)
            variance = float(np.sum((outputs - outputs.mean()) ** 2))
            unexplained += report.llm_fvu * variance
            total += variance
            fits += 1
    return {
        "q1_rmse": float(np.sqrt(np.mean(np.square(errors)))) if errors else math.nan,
        "q2_fvu": unexplained / total if total else math.nan,
        "q1_probe": len(errors),
        "q2_probe": fits,
    }


def _check_outputs(deployment: Deployment, windows: list[Window], seed: int,
                   sizes: Sizes) -> list[str]:
    """Check a seeded sample of the measured windows' answers (untimed)."""
    service = deployment.service
    answered = [
        result
        for window in windows for request in window.requests if request.results
        for result in request.results if result.source != "error"
    ]
    size = sizes.analyst_check_sample if deployment.workload == "analyst" else sizes.check_sample
    sample = e2e_checks.stratified_sample(
        answered, [result.kind for result in answered], size, np.random.default_rng([seed, 6]),
    )
    oracles = {
        table: e2e_checks.Oracle(dataset.inputs, dataset.outputs)
        for table, dataset in deployment.datasets.items()
    }
    items = [
        e2e_checks.Sampled(
            table=result.table, kind=result.kind, query=service.query_for(result.statement),
            source=result.source, value=result.value, model=deployment.models[result.table],
        )
        for result in sample
    ]
    return e2e_checks.check_sample(items, oracles)


def _layer_metrics(deployment: Deployment, window: Window, recorder: e2e_trace.Recorder,
                   untraced: dict, traced: dict) -> dict:
    summary = window.summary
    statements = summary["attempted"]
    layers = e2e_trace.layer_metrics(recorder, window.requests, statements)
    cache = window.cache
    lookups = cache["hits"] + cache["misses"]
    serving = window.serving
    hybrid = serving["model"] + serving["fallback"]
    executor = window.executor
    training = list(deployment.training.values())
    trained = sum(b.pairs_processed + b.pairs_skipped for b in training)
    train_seconds = sum(b.total_seconds for b in training)
    layers.update({
        "concurrent.cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "concurrent.cache_evictions": float(cache["evictions"]),
        "concurrent.rejected": float(summary["rejected"]),
        "serving.fallback_ratio": serving["fallback"] / hybrid if hybrid else 0.0,
        "executor.rows_scanned_per_query": (
            executor["scanned"] / executor["queries"] if executor["queries"] else 0.0
        ),
        "executor.selected_per_scanned": (
            executor["selected"] / executor["scanned"] if executor["scanned"] else 0.0
        ),
        "training.queries_per_s": trained / train_seconds if train_seconds else 0.0,
        "training.engine_share": (
            sum(b.query_execution_seconds for b in training) / train_seconds
            if train_seconds else 0.0
        ),
        "proc.cpu_util": window.cpu_seconds / window.wall_seconds,
        "proc.cpu_us_per_stmt": 1e6 * window.cpu_seconds / max(statements, 1),
        "trace.overhead_pct": 100.0 * (traced["p50_ms"] - untraced["p50_ms"]) / untraced["p50_ms"],
    })
    return layers


def _timed_setups(workload: str, seed: int, sizes: Sizes, repeats: int,
                  host: e2e_hostspeed.HostSpeed) -> tuple[Deployment, list, list]:
    """Set up ``repeats`` times, keeping the last deployment.

    Returns it with each set-up's time as measured and at the reference
    host speed (scaled by the reference units run just before and after).
    """
    measured, adjusted = [], []
    deployment = None
    unit_before = host.burst()
    for _ in range(repeats):
        if deployment is not None:
            deployment.close()
            deployment = None
            gc.collect()
        started = time.perf_counter()
        deployment = setup(workload, seed, sizes)
        seconds = time.perf_counter() - started
        unit_after = host.burst()
        measured.append(seconds)
        adjusted.append(
            seconds * e2e_hostspeed.REFERENCE_UNIT_SECONDS / ((unit_before + unit_after) / 2)
        )
        unit_before = unit_after
    return deployment, measured, adjusted


def run_workload(workload: str, *, seed: int, seconds: float, trace: bool = False,
                 sizes: Sizes = Sizes(), trace_path: Path | None = None) -> dict:
    """Set up, warm up, measure and check one workload.

    Returns ``correct``, ``attempted``, ``failed``, the end-to-end metrics
    (``e2e``), the per-layer metrics (``layers``, traced runs only) and
    ``details``.  A traced run measures an untraced window first, then the
    same traffic with spans on; ``trace.overhead_pct`` compares the two.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    recorder = e2e_trace.Recorder()
    host = e2e_hostspeed.HostSpeed()
    traffic = Traffic(workload, seed, sizes, seconds, phases=2 if trace else 1)
    mode = MODE[workload]
    phase_s: dict[str, float] = {}
    began = time.perf_counter()
    deployment, setup_measured, setup_adjusted = _timed_setups(
        workload, seed, sizes, 1 if trace else max(1, sizes.setup_repeats), host
    )
    phase_s["setup"] = time.perf_counter() - began
    try:
        front = deployment.front
        submit = _plain_submit(front, mode)
        _fill_cache(deployment, front, traffic)
        # Peak through set-up and the cache fill: the request records of the
        # warm-up and the window grow with throughput, which would make
        # memory track host speed.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index = len(_drive(submit, traffic, sizes.warmup_seconds, 0, host))
        window = _measure(deployment, front, submit, traffic, seconds, index, host)
        index += len(window.requests)
        untraced = _timings(window)
        windows = [window]
        layers = None
        if trace:
            # A second front over a span-recording proxy of the inner service,
            # with the engines and models re-registered behind proxies.
            front.close(drain_seconds=10.0)
            for table in TABLES:
                deployment.service.register_engine(
                    table, e2e_trace.EngineProxy(deployment.engines[table], recorder))
                deployment.service.register_model(
                    table, e2e_trace.ModelProxy(deployment.models[table], recorder))
            front = deployment.front = ConcurrentAnalyticsService(
                e2e_trace.ServiceProxy(deployment.service, recorder)
            )
            submit = _traced_submit(front, mode, recorder)
            _fill_cache(deployment, front, traffic)
            index += len(_drive(submit, traffic, sizes.warmup_seconds, index, host))
            recorder.active = True
            traced_window = _measure(deployment, front, submit, traffic, seconds, index, host)
            recorder.active = False
            windows.append(traced_window)
            layers = _layer_metrics(deployment, traced_window, recorder, untraced,
                                    _timings(traced_window))
            if trace_path is not None:
                recorder.dump(trace_path)
        phase_s["measure"] = time.perf_counter() - began - phase_s["setup"]
        accuracy = _accuracy(deployment, front, traffic, sizes)
        phase_s["accuracy"] = time.perf_counter() - began - sum(phase_s.values())
        problems = _check_outputs(deployment, windows, seed, sizes)
        phase_s["checks"] = time.perf_counter() - began - sum(phase_s.values())
    finally:
        deployment.close()
        gc.unfreeze()
    attempted = sum(w.summary["attempted"] for w in windows)
    failed = sum(w.summary["failed"] for w in windows)
    e2e = {
        "setup_s": float(np.median(setup_adjusted)),
        "p50_ms": untraced["p50_ms"],
        "p90_ms": untraced["p90_ms"],
        "stmt_per_s": untraced["stmt_per_s"],
        "q1_rmse": accuracy["q1_rmse"],
        "q2_fvu": accuracy["q2_fvu"],
        "rss_mb": rss_mb,
    }
    for name, value in e2e.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not a finite number ({value})")
    failures = [
        request.failure if request.results is None else repr(result.error)
        for w in windows for request in w.requests
        for result in (request.results or [None]) if result is None or result.source == "error"
    ]
    unit_ms = [1e3 * unit for _, unit in host.samples]
    details = {
        "failures": sorted(set(failures))[:5],
        "phase_s": phase_s,
        "timings": untraced,
        "measured": {
            **_timings(window, adjusted=False),
            "setup_s": float(np.median(setup_measured)),
            "setup_s_runs": setup_measured,
        },
        "reference_unit_ms": {
            "median": float(np.median(unit_ms)),
            "p10": _percentile(unit_ms, 10),
            "p90": _percentile(unit_ms, 90),
            "units": len(unit_ms),
        },
        "requests": window.summary["requests"],
        "error_rate": window.summary["failed"] / max(window.summary["attempted"], 1),
        "cache_hit_rate": (
            window.cache["hits"] / max(window.cache["hits"] + window.cache["misses"], 1)
        ),
        "fallback_ratio": window.serving["fallback"] / max(
            window.serving["model"] + window.serving["fallback"], 1
        ),
        "accuracy_probe": {"q1": accuracy["q1_probe"], "q2": accuracy["q2_probe"]},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "details": details,
    }
