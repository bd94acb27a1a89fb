"""Unified benchmark harness: configs, store, runner, regression gates."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import (
    BenchmarkRunner,
    BenchmarkSpec,
    Direction,
    ExperimentConfig,
    RegressionDetector,
    RegressionPolicy,
    ResultsStore,
    RunRecord,
    canonicalize,
    environment_key,
    render_report,
)
from repro.bench.cli import main as bench_main
from repro.bench.registry import discover_specs
from repro.exceptions import ConfigurationError

ENV_A = {
    "platform": "linux",
    "machine": "x86_64",
    "cpu_count": 2,
    "python": "3.11.7",
    "numpy": "1.26.0",
}
ENV_B = {**ENV_A, "cpu_count": 16, "machine": "arm64"}


def _record(
    value: float,
    *,
    config_id: str = "c0",
    metric: str = "qps",
    direction: str = "higher",
    environment: dict = ENV_A,
    gate_failures: tuple = (),
    timestamp: str = "2026-01-01T00:00:00+00:00",
    extra_metrics: dict | None = None,
    extra_directions: dict | None = None,
) -> RunRecord:
    metrics = {metric: value, **(extra_metrics or {})}
    directions = {metric: direction, **(extra_directions or {})}
    return RunRecord(
        config_id=config_id,
        benchmark="toy",
        label="full",
        parameters={"n": 1},
        metrics=metrics,
        metric_directions=directions,
        gate_failures=gate_failures,
        environment=environment,
        git_sha="abc123",
        timestamp=timestamp,
    )


def _toy_spec(**kwargs) -> BenchmarkSpec:
    defaults = dict(
        name="toy",
        title="Toy benchmark",
        artifact="toy",
        run=lambda n=4, scale=1.0: {"qps": 100.0 * n * scale, "dev": 0.0},
        metrics={"qps": "higher", "dev": "info"},
        default_params={"n": 4, "scale": 1.0},
        smoke_params={"n": 1},
    )
    defaults.update(kwargs)
    return BenchmarkSpec(**defaults)


# --------------------------------------------------------------------- #
# ExperimentConfig: stable content-hash identity
# --------------------------------------------------------------------- #
class TestExperimentConfig:
    def test_identity_is_stable_across_spellings(self):
        base = ExperimentConfig("serving", {"n": 10, "workers": (1, 2)})
        reordered = ExperimentConfig("serving", {"workers": [1, 2], "n": 10})
        assert base.config_id == reordered.config_id
        assert len(base.config_id) == 12
        int(base.config_id, 16)  # hex digest prefix

    def test_label_is_excluded_from_identity(self):
        full = ExperimentConfig("serving", {"n": 10}, label="full")
        renamed = ExperimentConfig("serving", {"n": 10}, label="smoke")
        assert full.config_id == renamed.config_id

    def test_parameters_change_identity(self):
        a = ExperimentConfig("serving", {"n": 10})
        b = ExperimentConfig("serving", {"n": 11})
        c = ExperimentConfig("training", {"n": 10})
        assert len({a.config_id, b.config_id, c.config_id}) == 3

    def test_numpy_scalars_canonicalise(self):
        plain = ExperimentConfig("toy", {"n": 10, "rate": 0.5})
        numpyed = ExperimentConfig(
            "toy", {"n": np.int64(10), "rate": np.float64(0.5)}
        )
        assert plain.config_id == numpyed.config_id

    def test_sets_and_exotic_types_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig("toy", {"bad": {1, 2}})
        with pytest.raises(ConfigurationError):
            canonicalize(object())

    def test_empty_benchmark_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig("")


# --------------------------------------------------------------------- #
# RunRecord: normalisation + JSON round trip
# --------------------------------------------------------------------- #
class TestRunRecord:
    def test_json_round_trip(self):
        record = _record(123.4, gate_failures=("too slow",))
        clone = RunRecord.from_dict(json.loads(record.to_json()))
        assert clone.to_dict() == record.to_dict()
        assert not clone.ok

    def test_unknown_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            _record(1.0, direction="sideways")

    def test_environment_key_ignores_library_patch_versions(self):
        bumped = {**ENV_A, "numpy": "1.27.9"}
        assert environment_key(ENV_A) == environment_key(bumped)
        assert environment_key(ENV_A) != environment_key(ENV_B)
        assert _record(1.0).environment_key == environment_key(ENV_A)

    def test_undeclared_metric_direction_defaults_to_info(self):
        record = _record(1.0, extra_metrics={"mystery": 5.0})
        assert record.direction_of("mystery") == Direction.INFO


# --------------------------------------------------------------------- #
# ResultsStore: JSONL append/load
# --------------------------------------------------------------------- #
class TestResultsStore:
    def test_append_load_round_trip_in_order(self, tmp_path):
        store = ResultsStore(tmp_path / "store.jsonl")
        for value in (1.0, 2.0, 3.0):
            store.append(_record(value))
        loaded = store.load()
        assert [r.metrics["qps"] for r in loaded] == [1.0, 2.0, 3.0]
        assert len(store) == 3

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultsStore(tmp_path / "absent.jsonl").load() == []

    def test_malformed_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.append(_record(1.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{truncated garbage\n")
            handle.write('{"valid_json": "but not a record"}\n')
            handle.write("\n")
        store.append(_record(2.0))
        loaded = store.load()
        assert [r.metrics["qps"] for r in loaded] == [1.0, 2.0]
        assert store.skipped_lines == 2

    def test_interleaved_writers_never_tear_a_line(self, tmp_path):
        """Concurrent appenders may interleave *lines* but never bytes.

        Each writer opens its own descriptor (as separate benchmark
        processes would) and appends records big enough to cross any
        stdio buffer; every line must load back intact.
        """
        import threading

        path = tmp_path / "store.jsonl"
        writers, per_writer = 6, 40
        errors: list[BaseException] = []

        def run(worker: int) -> None:
            try:
                own = ResultsStore(path)  # its own fd per append
                for i in range(per_writer):
                    own.append(
                        _record(
                            float(worker * per_writer + i),
                            config_id=f"w{worker}",
                            extra_metrics={"pad": float(i)},
                        )
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(w,)) for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        store = ResultsStore(path)
        loaded = store.load()
        assert store.skipped_lines == 0  # no torn lines
        assert len(loaded) == writers * per_writer
        values = {r.metrics["qps"] for r in loaded}
        assert len(values) == writers * per_writer

    def test_trajectory_filters_by_config_and_environment(self, tmp_path):
        store = ResultsStore(tmp_path / "store.jsonl")
        store.append(_record(1.0, config_id="a"))
        store.append(_record(2.0, config_id="b"))
        store.append(_record(3.0, config_id="a", environment=ENV_B))
        assert [r.metrics["qps"] for r in store.trajectory("a")] == [1.0, 3.0]
        key_a = environment_key(ENV_A)
        assert [
            r.metrics["qps"] for r in store.trajectory("a", key_a)
        ] == [1.0]
        assert store.config_ids() == ["a", "b"]


# --------------------------------------------------------------------- #
# BenchmarkRunner: config -> record
# --------------------------------------------------------------------- #
class TestBenchmarkRunner:
    def test_execute_produces_normalised_record(self):
        spec = _toy_spec(
            check=lambda result, params: (
                ["too slow"] if result["qps"] < 250 else []
            ),
        )
        ticks = iter([10.0, 10.5])
        runner = BenchmarkRunner(
            {"toy": spec},
            environment=ENV_A,
            duration_clock=lambda: next(ticks),
        )
        record, result = runner.execute(
            spec.config("full"), git_sha="deadbeef", timestamp="t0"
        )
        assert record.metrics == {"qps": 400.0, "dev": 0.0}
        assert result["qps"] == 400.0
        assert record.ok
        assert record.git_sha == "deadbeef" and record.timestamp == "t0"
        assert record.duration_seconds == pytest.approx(0.5)
        assert record.config_id == spec.config("smoke", n=4).config_id

    def test_gate_failures_are_recorded_not_raised(self):
        spec = _toy_spec(check=lambda result, params: ["always failing"])
        runner = BenchmarkRunner({"toy": spec}, environment=ENV_A)
        record, _ = runner.execute(spec.config("smoke"))
        assert record.gate_failures == ("always failing",)

    def test_smoke_config_applies_overrides_on_defaults(self):
        spec = _toy_spec()
        smoke = spec.config("smoke")
        assert smoke.parameters == {"n": 1, "scale": 1.0}
        assert smoke.label == "smoke"
        assert smoke.config_id != spec.config("full").config_id

    def test_unknown_benchmark_rejected(self):
        runner = BenchmarkRunner({"toy": _toy_spec()}, environment=ENV_A)
        with pytest.raises(ConfigurationError):
            runner.execute(ExperimentConfig("nope"))

    def test_spec_rejects_unknown_metric_direction(self):
        with pytest.raises(ConfigurationError):
            _toy_spec(metrics={"qps": "sideways"})


# --------------------------------------------------------------------- #
# RegressionDetector: rolling baseline
# --------------------------------------------------------------------- #
class TestRegressionDetector:
    def _verdict(self, records, **policy):
        detector = RegressionDetector(RegressionPolicy(**policy))
        verdicts = detector.evaluate(records)
        assert len(verdicts) == 1
        return verdicts[0]

    def test_drop_beyond_threshold_regresses(self):
        verdict = self._verdict([_record(100.0), _record(100.0), _record(80.0)])
        (metric,) = verdict.regressions
        assert metric.metric == "qps"
        assert metric.change == pytest.approx(-0.2)
        assert not verdict.ok

    def test_small_drop_within_tolerance_passes(self):
        verdict = self._verdict([_record(100.0), _record(95.0)])
        assert not verdict.regressions
        assert verdict.verdicts[0].status == "ok"

    def test_lower_direction_gates_rises(self):
        records = [
            _record(0.10, metric="rate", direction="lower"),
            _record(0.15, metric="rate", direction="lower"),
        ]
        verdict = self._verdict(records)
        assert verdict.regressions
        # And a drop of a lower-direction metric is an improvement.
        improving = self._verdict(
            [
                _record(0.10, metric="rate", direction="lower"),
                _record(0.05, metric="rate", direction="lower"),
            ]
        )
        assert improving.verdicts[0].status == "improved"

    def test_info_metrics_are_never_gated(self):
        verdict = self._verdict(
            [_record(100.0, direction="info"), _record(1.0, direction="info")]
        )
        assert not verdict.regressions
        assert verdict.verdicts[0].status == "info"

    def test_zero_baseline_is_skipped_not_divided(self):
        verdict = self._verdict([_record(0.0), _record(5.0)])
        assert verdict.verdicts[0].status == "skipped"
        assert not verdict.regressions

    def test_first_run_has_no_baseline_and_passes_as_new(self):
        verdict = self._verdict([_record(50.0)])
        assert verdict.baseline_runs == 0
        assert verdict.verdicts[0].status == "new"
        assert verdict.ok

    def test_environments_do_not_share_baselines(self):
        records = [
            _record(1000.0),  # a fast machine's history (ENV_A)
            _record(1000.0),
            _record(100.0, environment=ENV_B),  # first run on a slow box
        ]
        verdicts = RegressionDetector().evaluate(records)
        by_env = {v.environment_key: v for v in verdicts}
        slow = by_env[environment_key(ENV_B)]
        assert slow.baseline_runs == 0
        assert slow.verdicts[0].status == "new"
        assert slow.ok

    def test_rolling_window_forgets_old_runs(self):
        # Ancient 1000-qps runs would flag the 90; a window of 2 prior
        # runs (both ~100) must not.
        records = [
            _record(1000.0),
            _record(1000.0),
            _record(100.0),
            _record(100.0),
            _record(95.0),
        ]
        verdict = self._verdict(records, baseline_window=2)
        assert verdict.baseline_runs == 2
        assert verdict.verdicts[0].status == "ok"

    def test_min_baseline_runs_defers_gating(self):
        verdict = self._verdict(
            [_record(100.0), _record(10.0)], min_baseline_runs=3
        )
        assert verdict.verdicts[0].status == "new"


# --------------------------------------------------------------------- #
# report command: markdown + exit codes
# --------------------------------------------------------------------- #
class TestReportCommand:
    def test_render_marks_regressions(self):
        records = [_record(100.0), _record(80.0)]
        policy = RegressionPolicy()
        verdicts = RegressionDetector(policy).evaluate(records)
        text = render_report(records, verdicts, policy)
        assert "REGRESSION" in text and "`qps`" in text
        assert "| benchmark | label |" in text  # markdown summary table

    def test_cli_exits_nonzero_on_seeded_synthetic_regression(
        self, tmp_path, capsys
    ):
        store = ResultsStore(tmp_path / "store.jsonl")
        for value in (100.0, 102.0, 98.0):
            store.append(_record(value))
        store.append(_record(80.0))  # injected >10% throughput drop
        code = bench_main(["report", "--store", str(store.path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out and "REGRESSION" in out

    def test_cli_passes_on_healthy_trajectory(self, tmp_path, capsys):
        store = ResultsStore(tmp_path / "store.jsonl")
        for value in (100.0, 102.0, 99.0):
            store.append(_record(value))
        code = bench_main(["report", "--store", str(store.path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no regressions" in out

    def test_cli_gates_latest_headline_failures(self, tmp_path, capsys):
        store = ResultsStore(tmp_path / "store.jsonl")
        store.append(_record(100.0))
        store.append(_record(100.0, gate_failures=("deviation exceeded",)))
        code = bench_main(["report", "--store", str(store.path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "GATE FAILURE" in out

    def test_cli_threshold_is_tunable(self, tmp_path):
        store = ResultsStore(tmp_path / "store.jsonl")
        store.append(_record(100.0))
        store.append(_record(80.0))
        assert (
            bench_main(
                ["report", "--store", str(store.path), "--threshold", "0.3"]
            )
            == 0
        )

    def test_empty_store_reports_cleanly(self, tmp_path, capsys):
        code = bench_main(["report", "--store", str(tmp_path / "none.jsonl")])
        assert code == 0
        assert "empty" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Discovery + a tiny real benchmark through the full pipeline
# --------------------------------------------------------------------- #
class TestPortedBenchmarks:
    EXPECTED = {
        "batch_throughput",
        "training_throughput",
        "serving",
        "lifecycle",
        "concurrent",
    }

    def test_ported_benchmarks_are_discovered(self):
        specs = discover_specs()
        assert self.EXPECTED <= set(specs)
        for name in self.EXPECTED:
            spec = specs[name]
            assert spec.config("full").config_id != spec.config("smoke").config_id
            assert spec.metrics  # every ported spec declares its metrics

    def test_tiny_batch_throughput_flows_through_runner_and_store(
        self, tmp_path
    ):
        specs = discover_specs()
        spec = specs["batch_throughput"]
        config = spec.config(
            "tiny",
            batch_size=50,
            dataset_size=500,
            training_queries=60,
            exact_queries=30,
            repetitions=1,
        )
        runner = BenchmarkRunner({spec.name: spec})
        record, result = runner.execute(
            config, git_sha="test", timestamp="2026-01-01T00:00:00+00:00"
        )
        store = ResultsStore(tmp_path / "store.jsonl")
        store.append(record)
        (loaded,) = store.trajectory(config.config_id)
        assert loaded.benchmark == "batch_throughput"
        assert loaded.metrics["q1_batch_qps"] > 0
        assert loaded.metric_directions["q1_batch_qps"] == "higher"
        # The raw result keeps the script's full nested structure.
        assert result["setup"]["dataset_size"] == 500
        # And the stored record reloads into the regression detector.
        verdicts = RegressionDetector().evaluate(store.load())
        assert verdicts[0].verdicts and verdicts[0].baseline_runs == 0

    @staticmethod
    def _concurrent_result(lone_vs_direct: float, concurrent_speedup: float) -> dict:
        return {
            "lone_vs_direct": lone_vs_direct,
            "required_lone_vs_direct": 0.25,
            "concurrent_speedup": concurrent_speedup,
            "gate_sessions": 4,
            "cache": {"speedup": 30.0},
            "required_cache_speedup": 5.0,
            "differential": {
                "max_coalesced_deviation": 0.0,
                "max_cached_deviation": 0.0,
                "cached_answers": 64,
            },
        }

    def test_concurrent_gates_a_lone_session_not_the_session_ratio(self):
        spec = discover_specs()["concurrent"]
        assert spec.metrics["lone_vs_direct"] == Direction.INFO
        assert spec.metrics["concurrent_speedup"] == Direction.INFO
        # A lone session that keeps up with the inner service passes, even
        # though four sessions no longer beat it by 2x.
        assert spec.check_result(self._concurrent_result(0.5, 0.6), {}) == []
        # One that waits for co-batchable traffic fails, however well
        # four sessions merge.
        [failure] = spec.check_result(self._concurrent_result(0.1, 3.3), {})
        assert "lone session" in failure and "0.10x" in failure
