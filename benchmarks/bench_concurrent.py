"""Concurrent serving front: coalesced multi-session throughput + cache.

The PR-5 serving benchmark measures one synchronous caller; this one
measures the concurrent front (`repro.dbms.concurrent`): N session threads
submit small scripts under a Zipfian table/query mix, the self-clocked
coalescer merges concurrent arrivals into bigger (cheaper per-statement)
batches, and the version-keyed answer cache short-circuits repeat traffic.

Headline requirements asserted here:

* a **lone session through the front serves >= 0.25x** the stmt/s of the
  inner service called directly on the caller's thread with the same
  scripts (cache off on both): the front's admission, grouping and demux
  may cost a lone client some throughput, but it must not make it wait
  for co-batchable traffic that never comes.  On an idle front a lone
  session's scripts execute on its own thread, so it pays no hand-off to
  the flush pool either: on a 2-vCPU host, 10 alternating smoke runs and
  12 alternating full-mode runs each read a median 0.59x (0.38x and 0.46x
  when every flush went to the pool),
* the **cache-hit fast path is >= 5x** the uncached hybrid path on the
  same workload,
* coalesced *and* cached answers are **bit-equal** to the sequential
  `AnalyticsService` path (1e-12 budget; expected 0.0 — it is the same
  execution underneath),
* p50/p99 end-to-end latency is reported per session count from the
  front's fixed-bucket histogram.

Overlapping sessions' statements wait for the flushes in flight, not for a
timer: in 12 alternating full-mode runs on a 2-vCPU host, N=4 served a
median 9.0k stmt/s (mean coalesce width 1.27) against 5.2k (width 1.66)
when every busy script waited out a 2 ms coalesce window, and N=16 12.1k
(width 3.31) against 12.5k (width 4.65).  The largest session count's
throughput and mean width (``qps_largest``,
``mean_coalesce_width_largest``) are recorded as ``info``: that is where
a rule that batches too little loses.  The throughput at 4 sessions over
1 (``concurrent_speedup``) is reported, not gated: its denominator is the
lone session, so it rose whenever a lone client got slower.  The cache
speedup (``cache_speedup``) is tracked the same way, as ``info``: its
denominator is the uncached hybrid throughput, so a faster miss path
(quicker exact fallbacks, or sessions that no longer wait out a timer)
lowers it while the hit path is unchanged.  The ``>= 5x`` headline check
above still holds it, and the hit path's own throughput
(``cache_hot_qps``) is the regression-gated metric.

Results are emitted through the ``repro.bench`` harness: a
:class:`~repro.bench.RunRecord` appended to the JSONL results store plus
one ``BENCH_concurrent.json`` artifact.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_concurrent.py [--smoke]
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.bench import BenchmarkSpec
from repro.bench.cli import pytest_entry, script_main
from repro.dbms.concurrent import ConcurrencyPolicy, ConcurrentAnalyticsService
from repro.dbms.serving import AnalyticsService
from repro.eval.experiments import build_context

#: Required stmt/s of a lone session through the front, as a fraction of
#: the inner service's called directly with the same scripts.
REQUIRED_LONE_VS_DIRECT = 0.25

#: Required speedup of the cache-hit fast path over uncached hybrid serving.
REQUIRED_CACHE_SPEEDUP = 5.0

#: Agreement budget of front answers vs the sequential service.
DEVIATION_BUDGET = 1e-12

TABLES = ("R1", "R2")

#: Zipf exponent of the table/query popularity mix (dashboard-shaped
#: traffic: a few hot queries dominate, a long tail recurs rarely).
ZIPF_EXPONENT = 1.1


def _zipf_probabilities(count: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=float) ** exponent
    return weights / weights.sum()


def _statement_text(kind: str, table: str, query) -> str:
    # repr round-trips floats exactly, so parsed statements rebuild
    # bit-identical queries and the differential check compares real
    # equality, not parse noise.
    center = ", ".join(repr(float(value)) for value in query.center)
    return (
        f"SELECT {kind} FROM {table} WITHIN {float(query.radius)!r} OF ({center})"
    )


def _build_pools(contexts: dict, pool_size: int) -> dict[str, list[str]]:
    """Per-table pools of distinct statements (mixed AVG/REGRESSION/COUNT)."""
    pools: dict[str, list[str]] = {}
    for table, context in contexts.items():
        statements = []
        for index in range(pool_size):
            query = context.training.queries[index % len(context.training.queries)]
            if index % 10 == 9:
                kind = "REGRESSION(u)"
            elif index % 20 == 6:
                kind = "COUNT(*)"
            else:
                kind = "AVG(u)"
            statements.append(_statement_text(kind, table, query))
        pools[table] = statements
    return pools


def _build_session_scripts(
    pools: dict[str, list[str]],
    *,
    sessions: int,
    scripts_per_session: int,
    script_size: int,
    seed: int,
) -> list[list[list[str]]]:
    """Zipfian per-session script streams (one table per script)."""
    table_probs = _zipf_probabilities(len(TABLES))
    statement_probs = {
        table: _zipf_probabilities(len(pool)) for table, pool in pools.items()
    }
    streams = []
    for session in range(sessions):
        rng = np.random.default_rng(seed + session)
        scripts = []
        for _ in range(scripts_per_session):
            table = TABLES[rng.choice(len(TABLES), p=table_probs)]
            pool = pools[table]
            picks = rng.choice(len(pool), size=script_size, p=statement_probs[table])
            scripts.append([pool[i] for i in picks])
        streams.append(scripts)
    return streams


def _run_sessions(front, streams: list[list[list[str]]]) -> dict:
    """Drive one script stream per thread; sustained stmt/s + percentiles."""
    front.reset_statistics()
    barrier = threading.Barrier(len(streams) + 1)
    errors: list[BaseException] = []

    def session_loop(scripts: list[list[str]]) -> None:
        try:
            barrier.wait()
            for script in scripts:
                results = front.execute_script(script, mode="hybrid")
                for result in results:
                    assert result.ok, result.error
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=session_loop, args=(scripts,))
        for scripts in streams
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    statements = sum(len(script) for scripts in streams for script in scripts)
    exported = front.statistics.export_metrics()
    return {
        "sessions": len(streams),
        "statements": statements,
        "seconds": elapsed,
        "qps": statements / elapsed,
        "p50_ms": exported["p50_seconds"] * 1e3,
        "p99_ms": exported["p99_seconds"] * 1e3,
        "mean_coalesce_width": exported["mean_coalesce_width"],
        "max_coalesce_width": exported["max_coalesce_width"],
        "cache_hits": exported["cache_hits"],
        "cache_hit_rate": exported["cache_hit_rate"],
        "statistics": exported,
    }


def _run_direct(service: AnalyticsService, streams: list[list[list[str]]]) -> dict:
    """The streams' scripts in turn through the inner service, on this thread."""
    scripts = [script for scripts in streams for script in scripts]
    started = time.perf_counter()
    for script in scripts:
        for result in service.execute_script(script, mode="hybrid"):
            assert result.ok, result.error
    elapsed = time.perf_counter() - started
    statements = sum(len(script) for script in scripts)
    return {"statements": statements, "seconds": elapsed, "qps": statements / elapsed}


def _value_deviation(got, want) -> float:
    """Max absolute deviation between two statement values (0.0 when equal)."""
    if got is None or want is None:
        return 0.0 if got is want else float("inf")
    if isinstance(got, (int, float)):
        return abs(float(got) - float(want))
    deviation = 0.0
    if len(got) != len(want):
        return float("inf")
    for (got_b, got_w), (want_b, want_w) in zip(got, want):
        deviation = max(deviation, abs(float(got_b) - float(want_b)))
        got_slope = np.asarray(got_w, dtype=float)
        want_slope = np.asarray(want_w, dtype=float)
        if got_slope.size:
            deviation = max(deviation, float(np.max(np.abs(got_slope - want_slope))))
    return deviation


def _differential(front, sequential, pools: dict[str, list[str]]) -> dict:
    """Pin front answers (coalesced, then cached) to the sequential path."""
    statements = [sql for pool in pools.values() for sql in pool]
    reference = sequential.execute_script(statements, mode="hybrid")
    coalesced = front.execute_script(statements, mode="hybrid")
    cached = front.execute_script(statements, mode="hybrid")
    max_coalesced = 0.0
    max_cached = 0.0
    for got, want in zip(coalesced, reference):
        max_coalesced = max(max_coalesced, _value_deviation(got.value, want.value))
    cached_count = 0
    for got, want in zip(cached, reference):
        max_cached = max(max_cached, _value_deviation(got.value, want.value))
        cached_count += got.cached
    return {
        "statements": len(statements),
        "max_coalesced_deviation": max_coalesced,
        "max_cached_deviation": max_cached,
        "cached_answers": cached_count,
    }


def run_concurrent_benchmark(
    dataset_size: int = 40_000,
    training_queries: int = 800,
    *,
    pool_size: int = 48,
    scripts_per_session: int = 120,
    script_size: int = 4,
    session_counts: tuple[int, ...] = (1, 4, 16),
    seed: int = 7,
) -> dict:
    """Measure the concurrent front under N sessions, cache off and on."""
    contexts = {}
    models = {}
    for index, table in enumerate(TABLES):
        context = build_context(
            table,
            dimension=2,
            dataset_size=dataset_size,
            training_queries=training_queries,
            testing_queries=50,
            seed=seed + index,
        )
        contexts[table] = context
        models[table], _ = context.train_model()

    def make_service() -> AnalyticsService:
        service = AnalyticsService()
        for table, context in contexts.items():
            service.register_engine(table, context.engine)
            service.register_model(table, models[table])
        return service

    pools = _build_pools(contexts, pool_size)

    # --- sustained throughput per session count, cache OFF ------------------ #
    uncached_policy = ConcurrencyPolicy(cache_capacity=0)
    by_sessions = {}
    for sessions in session_counts:
        streams = _build_session_scripts(
            pools,
            sessions=sessions,
            scripts_per_session=scripts_per_session,
            script_size=script_size,
            seed=seed,
        )
        front = ConcurrentAnalyticsService(make_service(), policy=uncached_policy)
        try:
            by_sessions[sessions] = _run_sessions(front, streams)
        finally:
            front.close()
        if sessions == session_counts[0]:
            # The first session count's scripts once more, straight through
            # a fresh inner service (which has no answer cache).
            direct = _run_direct(make_service(), streams)

    # --- cache-hit fast path vs the uncached hybrid path -------------------- #
    cache_sessions = 4 if 4 in session_counts else session_counts[-1]
    streams = _build_session_scripts(
        pools,
        sessions=cache_sessions,
        scripts_per_session=scripts_per_session,
        script_size=script_size,
        seed=seed,
    )
    cached_front = ConcurrentAnalyticsService(make_service())
    try:
        _run_sessions(cached_front, streams)  # warm pass populates the cache
        cache_hot = _run_sessions(cached_front, streams)
    finally:
        cached_front.close()
    uncached = by_sessions[cache_sessions]
    cache_speedup = cache_hot["qps"] / uncached["qps"]

    # --- differential: coalesced + cached answers vs sequential ------------- #
    sequential = make_service()
    differential_front = ConcurrentAnalyticsService(make_service())
    try:
        differential = _differential(differential_front, sequential, pools)
    finally:
        differential_front.close()

    single = by_sessions[session_counts[0]]
    gate_sessions = 4 if 4 in session_counts else session_counts[-1]
    concurrent_speedup = by_sessions[gate_sessions]["qps"] / single["qps"]
    lone_vs_direct = single["qps"] / direct["qps"]

    return {
        "setup": {
            "tables": list(TABLES),
            "dataset_size": dataset_size,
            "training_queries": training_queries,
            "pool_size": pool_size,
            "scripts_per_session": scripts_per_session,
            "script_size": script_size,
            "session_counts": list(session_counts),
            "zipf_exponent": ZIPF_EXPONENT,
            "prototype_counts": {
                table: models[table].prototype_count for table in TABLES
            },
        },
        "by_sessions": {str(n): result for n, result in by_sessions.items()},
        "direct": direct,
        "lone_vs_direct": lone_vs_direct,
        "concurrent_speedup": concurrent_speedup,
        "gate_sessions": gate_sessions,
        "cache": {
            "sessions": cache_sessions,
            "hot_qps": cache_hot["qps"],
            "hot_p50_ms": cache_hot["p50_ms"],
            "hot_p99_ms": cache_hot["p99_ms"],
            "hot_hit_rate": cache_hot["cache_hit_rate"],
            "uncached_qps": uncached["qps"],
            "speedup": cache_speedup,
        },
        "differential": differential,
        "required_lone_vs_direct": REQUIRED_LONE_VS_DIRECT,
        "required_cache_speedup": REQUIRED_CACHE_SPEEDUP,
        "deviation_budget": DEVIATION_BUDGET,
    }


def _format(result: dict) -> str:
    lines = [
        "Concurrent serving front (Zipfian multi-session mix)",
        f"  tables:               {', '.join(result['setup']['tables'])}"
        f" (pool {result['setup']['pool_size']} stmts/table)",
    ]
    for sessions, run in result["by_sessions"].items():
        lines.append(
            f"  N={sessions:>2} sessions:       {run['qps']:,.0f} stmt/s"
            f"  p50 {run['p50_ms']:.2f} ms  p99 {run['p99_ms']:.2f} ms"
            f"  width {run['mean_coalesce_width']:.1f}"
            f" (max {run['max_coalesce_width']})"
        )
    cache = result["cache"]
    differential = result["differential"]
    lines += [
        f"  inner service direct: {result['direct']['qps']:,.0f} stmt/s"
        f" (N={result['setup']['session_counts'][0]}'s scripts in turn)",
        f"  lone vs direct:       {result['lone_vs_direct']:.2f}x "
        f"(required >= {result['required_lone_vs_direct']:.2f}x)",
        f"  concurrent speedup:   {result['concurrent_speedup']:.1f}x at "
        f"N={result['gate_sessions']} over N={result['setup']['session_counts'][0]}",
        f"  cache-hit fast path:  {cache['hot_qps']:,.0f} stmt/s "
        f"(hit rate {cache['hot_hit_rate']:.2f}, p99 {cache['hot_p99_ms']:.2f} ms)",
        f"  cache speedup:        {cache['speedup']:.1f}x over uncached "
        f"(required >= {result['required_cache_speedup']:.0f}x)",
        f"  differential:         coalesced "
        f"{differential['max_coalesced_deviation']:.2e} / cached "
        f"{differential['max_cached_deviation']:.2e} "
        f"({differential['cached_answers']} of "
        f"{differential['statements']} answered from cache)",
    ]
    return "\n".join(lines)


def _check(result: dict) -> list[str]:
    """Return the list of failed headline requirements (empty when green)."""
    failures: list[str] = []
    if result["lone_vs_direct"] < result["required_lone_vs_direct"]:
        failures.append(
            f"a lone session through the front serves "
            f"{result['lone_vs_direct']:.2f}x the stmt/s of the inner service "
            f"called directly, below the required "
            f"{result['required_lone_vs_direct']:.2f}x"
        )
    if result["cache"]["speedup"] < result["required_cache_speedup"]:
        failures.append(
            f"cache-hit fast path is {result['cache']['speedup']:.2f}x the "
            f"uncached path, below the required "
            f"{result['required_cache_speedup']:.0f}x"
        )
    differential = result["differential"]
    if differential["max_coalesced_deviation"] > DEVIATION_BUDGET:
        failures.append("coalesced answers deviate from the sequential service")
    if differential["max_cached_deviation"] > DEVIATION_BUDGET:
        failures.append("cached answers deviate from the sequential service")
    if differential["cached_answers"] == 0:
        failures.append("the differential repeat pass produced no cache hits")
    return failures


def _extract(result: dict) -> dict:
    sessions = result["by_sessions"]
    single = sessions[str(result["setup"]["session_counts"][0])]
    gated = sessions[str(result["gate_sessions"])]
    largest = sessions[str(max(result["setup"]["session_counts"]))]
    cache = result["cache"]
    differential = result["differential"]
    return {
        "qps_single": single["qps"],
        "qps_direct": result["direct"]["qps"],
        "lone_vs_direct": result["lone_vs_direct"],
        "qps_at_gate": gated["qps"],
        "qps_largest": largest["qps"],
        "concurrent_speedup": result["concurrent_speedup"],
        "cache_hot_qps": cache["hot_qps"],
        "cache_speedup": cache["speedup"],
        "cache_hit_rate": cache["hot_hit_rate"],
        "mean_coalesce_width": gated["mean_coalesce_width"],
        "max_coalesce_width": gated["max_coalesce_width"],
        "mean_coalesce_width_largest": largest["mean_coalesce_width"],
        "p50_ms": gated["p50_ms"],
        "p99_ms": gated["p99_ms"],
        "cache_hot_p99_ms": cache["hot_p99_ms"],
        "max_coalesced_deviation": differential["max_coalesced_deviation"],
        "max_cached_deviation": differential["max_cached_deviation"],
        "cached_answers": float(differential["cached_answers"]),
    }


SPEC = BenchmarkSpec(
    name="concurrent",
    title="Concurrent serving front (Zipfian multi-session mix)",
    artifact="concurrent",
    run=run_concurrent_benchmark,
    # The p50/p99 and coalesce-width series are timing-shaped (they depend
    # on scheduler interleaving and flush times), so they are tracked as
    # info rather than regression-gated.  So is the largest session count's
    # throughput (N=16 in full mode), recorded because a batching rule that
    # waits too little loses there, and so are the two ratios over the
    # lone session: ``lone_vs_direct`` is gated by ``_check``, and
    # ``concurrent_speedup`` would read a faster lone client as a
    # regression.  ``cache_speedup`` is info too: a faster miss path would
    # read as a regression; ``_check`` keeps its >= 5x headline and
    # ``cache_hot_qps`` gates the hit path.
    metrics={
        "qps_single": "info",
        "qps_direct": "info",
        "lone_vs_direct": "info",
        "qps_at_gate": "higher",
        "qps_largest": "info",
        "concurrent_speedup": "info",
        "cache_hot_qps": "higher",
        "cache_speedup": "info",
        "cache_hit_rate": "higher",
        "mean_coalesce_width": "info",
        "max_coalesce_width": "info",
        "mean_coalesce_width_largest": "info",
        "p50_ms": "info",
        "p99_ms": "info",
        "cache_hot_p99_ms": "info",
        "max_coalesced_deviation": "info",
        "max_cached_deviation": "info",
        "cached_answers": "info",
    },
    extract=_extract,
    check=lambda result, params: _check(result),
    format=_format,
    default_params={
        "dataset_size": 40_000,
        "training_queries": 800,
        "pool_size": 48,
        "scripts_per_session": 120,
        "script_size": 4,
        "session_counts": (1, 4, 16),
        "seed": 7,
    },
    smoke_params={
        "dataset_size": 20_000,
        "training_queries": 400,
        "pool_size": 32,
        "scripts_per_session": 40,
        "session_counts": (1, 4),
    },
)


def test_concurrent_benchmark(results_dir, record_table):
    """Benchmark-suite entry point: asserts the headline requirements."""
    pytest_entry(SPEC, results_dir, record_table)


if __name__ == "__main__":
    raise SystemExit(script_main(SPEC))
