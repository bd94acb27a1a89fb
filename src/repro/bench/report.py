"""Markdown rendering of the cross-PR benchmark trajectory.

``python -m repro.bench report`` loads the JSONL store, runs the
:class:`~repro.bench.regression.RegressionDetector`, and prints one
markdown document: a verdict summary table (one row per config ×
environment trajectory), per-trajectory run tables over the rolling
window, and an explicit regression list.  Trajectories that are not
gated (their latest run predates the store's newest commit) show as
``history`` and stay out of the verdict.  The rendering is pure — it
takes records and verdicts, returns a string — so tests can assert on it
without touching stdout or the filesystem.
"""

from __future__ import annotations

from typing import Sequence

from .record import RunRecord
from .regression import ConfigVerdict, RegressionPolicy

__all__ = ["render_report"]


def _fmt(value: float | None) -> str:
    if value is None:
        return "—"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.001:
        return f"{value:.3e}"
    return f"{value:.4g}"


def _fmt_change(change: float | None) -> str:
    if change is None:
        return "—"
    return f"{change:+.1%}"


def _short_sha(sha: str) -> str:
    return sha[:9] if sha and sha != "unknown" else "unknown"


def _trajectory_section(
    verdict: ConfigVerdict, trajectory: Sequence[RunRecord], window: int
) -> list[str]:
    scope = "" if verdict.gated else " — history, not gated"
    lines = [
        f"### `{verdict.benchmark}` [{verdict.label}] "
        f"(config `{verdict.config_id}`, env `{verdict.environment_key}`){scope}",
        "",
    ]
    recent = list(trajectory[-(window + 1) :])
    metric_names = list(verdict.latest.metrics)
    lines.append("| run | commit | timestamp | " + " | ".join(metric_names) + " |")
    lines.append("|---|---|---|" + "---|" * len(metric_names))
    start = len(trajectory) - len(recent) + 1
    for offset, run in enumerate(recent):
        marker = "**latest**" if run is recent[-1] else str(start + offset)
        cells = [_fmt(run.metrics.get(name)) for name in metric_names]
        lines.append(
            f"| {marker} | {_short_sha(run.git_sha)} | {run.timestamp or '—'} | "
            + " | ".join(cells)
            + " |"
        )
    lines.append("")
    lines.append("| metric | dir | latest | baseline | change | status |")
    lines.append("|---|---|---|---|---|---|")
    for mv in verdict.verdicts:
        status = f"**{mv.status}**" if mv.regressed else mv.status
        lines.append(
            f"| {mv.metric} | {mv.direction} | {_fmt(mv.latest)} | "
            f"{_fmt(mv.baseline)} | {_fmt_change(mv.change)} | {status} |"
        )
    if verdict.latest.gate_failures:
        lines.append("")
        lines.append("Headline gate failures on the latest run:")
        for failure in verdict.latest.gate_failures:
            lines.append(f"- {failure}")
    lines.append("")
    return lines


def render_report(
    records: Sequence[RunRecord],
    verdicts: Sequence[ConfigVerdict],
    policy: RegressionPolicy,
    *,
    skipped_lines: int = 0,
) -> str:
    """The full markdown report for a store's records and verdicts."""
    lines = ["# Benchmark trajectory report", ""]
    if not records:
        lines.append("The results store is empty — no benchmark runs recorded yet.")
        return "\n".join(lines) + "\n"
    lines.append(
        f"{len(records)} run(s) across {len(verdicts)} trajectory(ies); "
        f"regression threshold {policy.threshold:.0%} vs a rolling baseline "
        f"of up to {policy.baseline_window} prior run(s) in the same "
        f"environment.  Gated: the trajectories whose latest run is at "
        f"commit {_short_sha(records[-1].git_sha)} (the newest record's); "
        f"the others are history."
    )
    if skipped_lines:
        lines.append("")
        lines.append(
            f"⚠ {skipped_lines} malformed store line(s) were skipped while loading."
        )
    lines.append("")
    lines.append("| benchmark | label | config | env | runs | baseline | result |")
    lines.append("|---|---|---|---|---|---|---|")
    ordered = sorted(verdicts, key=lambda v: (v.benchmark, v.label, v.environment_key))
    trajectories: dict[tuple[str, str], list[RunRecord]] = {}
    for record in records:
        trajectories.setdefault(
            (record.config_id, record.environment_key), []
        ).append(record)
    for verdict in ordered:
        if verdict.regressions:
            result = f"REGRESSED ({len(verdict.regressions)} metric(s))"
        elif verdict.latest.gate_failures:
            result = f"GATE FAILED ({len(verdict.latest.gate_failures)})"
        elif verdict.baseline_runs == 0:
            result = "new"
        else:
            result = "ok"
        if not verdict.gated:
            result = f"history ({result})"
        total = len(trajectories[(verdict.config_id, verdict.environment_key)])
        lines.append(
            f"| {verdict.benchmark} | {verdict.label} | `{verdict.config_id}` | "
            f"`{verdict.environment_key}` | {total} | {verdict.baseline_runs} | "
            f"{result} |"
        )
    lines.append("")
    for verdict in ordered:
        trajectory = trajectories[(verdict.config_id, verdict.environment_key)]
        lines.extend(
            _trajectory_section(verdict, trajectory, policy.baseline_window)
        )
    gated = [verdict for verdict in ordered if verdict.gated]
    regressions = [(verdict, mv) for verdict in gated for mv in verdict.regressions]
    gate_failures = [v for v in gated if v.latest.gate_failures]
    lines.append("## Verdict")
    lines.append("")
    if not regressions and not gate_failures:
        lines.append(
            "All gated trajectories within tolerance — no regressions detected."
        )
    else:
        for verdict, mv in regressions:
            lines.append(
                f"- REGRESSION: `{verdict.benchmark}` [{verdict.label}] metric "
                f"`{mv.metric}` changed {_fmt_change(mv.change)} vs baseline "
                f"{_fmt(mv.baseline)} (direction: {mv.direction})."
            )
        for verdict in gate_failures:
            for failure in verdict.latest.gate_failures:
                lines.append(
                    f"- GATE FAILURE: `{verdict.benchmark}` [{verdict.label}]: "
                    f"{failure}"
                )
    lines.append("")
    return "\n".join(lines)
