"""Command-line front end of the benchmark harness.

``python -m repro.bench <command>``:

``list``
    Show every discovered benchmark spec with its full/smoke config ids.
``run [name ...] [--smoke]``
    Execute the named benchmarks (all, when omitted) through the
    :class:`BenchmarkRunner`, append each :class:`RunRecord` to the
    JSONL results store, write one ``BENCH_<artifact>.json`` per run,
    and print each script's table.  Exits nonzero on headline-gate
    failures.
``report``
    Render the cross-PR trajectory as markdown and exit nonzero when a
    gated trajectory regressed beyond the threshold (or its latest run
    failed its headline gates).  Gated are the trajectories whose latest
    run is at the commit of the store's newest record; the others are
    rendered as history.

The module also provides :func:`script_main` and :func:`pytest_entry` —
the two thin entry points the ported ``benchmarks/bench_*.py`` scripts
delegate to, so every execution path (CLI, script, pytest) emits through
the same store and artifact writer.  This is the fix for the historical
dual-output bug where scripts wrote diverging copies of their JSON from
the pytest entry and ``main()``.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..exceptions import ConfigurationError
from .record import RunRecord, current_git_sha
from .registry import discover_specs, repo_root
from .regression import RegressionDetector, RegressionPolicy
from .report import render_report
from .runner import BenchmarkRunner, BenchmarkSpec
from .store import STORE_NAME, ResultsStore

__all__ = ["main", "script_main", "pytest_entry", "utc_timestamp"]


def utc_timestamp() -> str:
    """Caller-side wall-clock provenance stamp (ISO-8601, UTC, seconds)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _jsonify(value: Any) -> Any:
    """Best-effort JSON projection of a raw benchmark result payload."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "tolist") and not isinstance(value, (str, bytes)):
        return _jsonify(value.tolist())
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def write_artifact(path: Path, record: RunRecord, result: Mapping[str, Any]) -> None:
    """Write the single per-run JSON artifact (record + raw result)."""
    payload = {"record": record.to_dict(), "result": _jsonify(result)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def execute_and_store(
    spec: BenchmarkSpec,
    *,
    label: str,
    store: ResultsStore,
    artifact_dir: Path,
    overrides: Mapping[str, Any] | None = None,
    echo: bool = True,
) -> tuple[RunRecord, dict[str, Any]]:
    """The one authoritative emission path: run → store → artifact → table."""
    config = spec.config(label=label, **dict(overrides or {}))
    runner = BenchmarkRunner({spec.name: spec})
    record, result = runner.execute(
        config, git_sha=current_git_sha(str(store.path.parent)), timestamp=utc_timestamp()
    )
    store.append(record)
    write_artifact(artifact_dir / f"BENCH_{spec.artifact}.json", record, result)
    if echo:
        print(spec.format_result(result))
        print()
        print(
            f"[{spec.name}/{label}] config {record.config_id} appended to "
            f"{store.path} ({record.duration_seconds:.1f}s)"
        )
        for failure in record.gate_failures:
            print(f"[{spec.name}/{label}] GATE FAILURE: {failure}")
    return record, result


def script_main(spec: BenchmarkSpec, argv: Sequence[str] | None = None) -> int:
    """Shared ``main()`` of every ported ``benchmarks/bench_*.py`` script."""
    parser = argparse.ArgumentParser(description=spec.title)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast CI parameterisation instead of the full one",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "directory for the BENCH_*.json artifact and the JSONL store "
            "(default: the repository root); a .json path is accepted for "
            "backwards compatibility and resolves to its parent directory"
        ),
    )
    args = parser.parse_args(argv)
    out = args.output
    if out is not None and out.suffix == ".json":
        out = out.parent
    root = out if out is not None else repo_root()
    root.mkdir(parents=True, exist_ok=True)
    store = ResultsStore(root / STORE_NAME)
    label = "smoke" if args.smoke else "full"
    record, _ = execute_and_store(
        spec, label=label, store=store, artifact_dir=root
    )
    return 0 if record.ok else 1


def pytest_entry(
    spec: BenchmarkSpec,
    results_dir: Path,
    record_table=None,
    *,
    label: str = "full",
    **overrides: Any,
) -> tuple[RunRecord, dict[str, Any]]:
    """Shared pytest entry of the ported scripts.

    Emits through the same harness path as ``main()``, but into the
    (gitignored) pytest ``results_dir`` so test runs never touch the
    committed trajectory.  Raises ``AssertionError`` on gate failures so
    pytest reports them as ordinary test failures.
    """
    store = ResultsStore(Path(results_dir) / STORE_NAME)
    record, result = execute_and_store(
        spec,
        label=label,
        store=store,
        artifact_dir=Path(results_dir),
        overrides=overrides,
        echo=False,
    )
    if record_table is not None:
        record_table(f"BENCH_{spec.artifact}", spec.format_result(result))
    if record.gate_failures:
        # The documented contract: gate failures surface as AssertionError
        # so pytest reports them as ordinary test failures (and the check
        # survives ``python -O``, which strips a plain assert).
        raise AssertionError("; ".join(record.gate_failures))
    return record, result


def _cmd_list(args: argparse.Namespace) -> int:
    specs = discover_specs()
    if not specs:
        print("no benchmark specs discovered")
        return 1
    print(f"{'name':22s} {'artifact':12s} {'full id':14s} {'smoke id':14s} title")
    for name in sorted(specs):
        spec = specs[name]
        print(
            f"{name:22s} {spec.artifact:12s} "
            f"{spec.config('full').config_id:14s} "
            f"{spec.config('smoke').config_id:14s} {spec.title}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    specs = discover_specs()
    names = list(args.benchmarks) or sorted(specs)
    unknown = [name for name in names if name not in specs]
    if unknown:
        known = ", ".join(sorted(specs)) or "<none>"
        print(
            f"unknown benchmark(s): {', '.join(unknown)} (registered: {known})",
            file=sys.stderr,
        )
        return 2
    root = args.store.parent if args.store else repo_root()
    store = ResultsStore(args.store or root / STORE_NAME)
    label = "smoke" if args.smoke else "full"
    failed = []
    for name in names:
        record, _ = execute_and_store(
            specs[name], label=label, store=store, artifact_dir=root
        )
        if not record.ok:
            failed.append(name)
        print()
    if failed:
        print(f"headline gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store or repo_root() / STORE_NAME)
    records = store.load()
    policy = RegressionPolicy(
        threshold=args.threshold,
        baseline_window=args.window,
        min_baseline_runs=args.min_baseline,
    )
    verdicts = RegressionDetector(policy).evaluate(records)
    print(
        render_report(
            records, verdicts, policy, skipped_lines=store.skipped_lines
        )
    )
    return 1 if any(v.gated and not v.ok for v in verdicts) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Unified benchmark harness: run configs, store records, gate regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show discovered benchmark specs")

    run = sub.add_parser("run", help="execute benchmarks through the harness")
    run.add_argument("benchmarks", nargs="*", help="benchmark names (default: all)")
    run.add_argument("--smoke", action="store_true", help="fast CI parameterisation")
    run.add_argument(
        "--store",
        type=Path,
        default=None,
        help=f"results store path (default: <repo-root>/{STORE_NAME})",
    )

    report = sub.add_parser("report", help="render the trajectory, gate regressions")
    report.add_argument("--store", type=Path, default=None)
    report.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="fractional regression tolerance vs the rolling baseline (default 0.10)",
    )
    report.add_argument(
        "--window",
        type=int,
        default=5,
        help="rolling-baseline window of prior runs (default 5)",
    )
    report.add_argument(
        "--min-baseline",
        type=int,
        default=1,
        help="prior runs required before gating (default 1; fewer passes as 'new')",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
