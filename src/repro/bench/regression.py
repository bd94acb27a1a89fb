"""Rolling-baseline regression detection over stored trajectories.

The detector compares the latest run of each ``(config, environment)``
trajectory against the mean of a rolling window of prior runs.  A
``higher``-direction metric regresses when it falls more than the
threshold below that baseline; a ``lower``-direction metric regresses
when it rises more than the threshold above it.  ``info`` metrics are
reported but never gated.  Trajectories are keyed by environment
fingerprint as well as config identity: a laptop baseline must not gate
a CI runner (or vice versa) — a fresh environment simply starts a fresh
baseline and its first runs pass as ``new``.

Only the trajectories measured at the store's newest commit are gated:
those whose latest run carries the ``git_sha`` of the store's last
record, which is the commit the job that appended it just measured.
Every other trajectory is history.  It is still judged and rendered, but
a stale regression in a benchmark the job did not rerun cannot fail it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .record import Direction, RunRecord

__all__ = [
    "RegressionPolicy",
    "MetricVerdict",
    "ConfigVerdict",
    "RegressionDetector",
]


@dataclass(frozen=True)
class RegressionPolicy:
    """Tunable knobs of the rolling-baseline comparison.

    Attributes
    ----------
    threshold:
        Fractional tolerance; 0.10 means "worse than 10% vs baseline
        fails".
    baseline_window:
        How many prior runs (at most) form the rolling baseline mean.
    min_baseline_runs:
        Below this many prior runs the trajectory is ``new`` and passes
        unconditionally.
    """

    threshold: float = 0.10
    baseline_window: int = 5
    min_baseline_runs: int = 1


@dataclass(frozen=True)
class MetricVerdict:
    """One metric of the latest run judged against its rolling baseline.

    ``change`` is the signed relative change vs baseline (``+0.25`` = 25%
    above).  ``status`` is one of ``ok``, ``regressed``, ``improved``,
    ``info`` (untracked direction), ``new`` (no baseline yet), or
    ``skipped`` (zero baseline — relative change undefined).
    """

    metric: str
    direction: str
    latest: float
    baseline: float | None
    change: float | None
    status: str

    @property
    def regressed(self) -> bool:
        return self.status == "regressed"


@dataclass(frozen=True)
class ConfigVerdict:
    """All metric verdicts of one ``(config, environment)`` trajectory.

    ``gated`` is true when the trajectory's latest run is at the store's
    newest commit; only gated verdicts can fail a report.
    """

    config_id: str
    benchmark: str
    label: str
    environment_key: str
    latest: RunRecord
    baseline_runs: int
    verdicts: tuple[MetricVerdict, ...] = field(default_factory=tuple)
    gated: bool = True

    @property
    def regressions(self) -> tuple[MetricVerdict, ...]:
        return tuple(v for v in self.verdicts if v.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions and self.latest.ok


class RegressionDetector:
    """Judges each trajectory's latest run against its rolling baseline."""

    def __init__(self, policy: RegressionPolicy | None = None) -> None:
        self.policy = policy or RegressionPolicy()

    def evaluate(self, records: Iterable[RunRecord]) -> list[ConfigVerdict]:
        """One :class:`ConfigVerdict` per ``(config, environment)`` group.

        Records must be in append (chronological) order, as the store
        loads them; the last record of each group is the run under test.
        A group is gated when that run's ``git_sha`` is the last record's.
        """
        groups: dict[tuple[str, str], list[RunRecord]] = {}
        newest_sha = None
        for record in records:
            groups.setdefault((record.config_id, record.environment_key), []).append(
                record
            )
            newest_sha = record.git_sha
        verdicts = []
        for (config_id, env_key), trajectory in groups.items():
            latest = trajectory[-1]
            baseline = trajectory[:-1][-self.policy.baseline_window :]
            verdicts.append(
                ConfigVerdict(
                    config_id=config_id,
                    benchmark=latest.benchmark,
                    label=latest.label,
                    environment_key=env_key,
                    latest=latest,
                    baseline_runs=len(baseline),
                    verdicts=tuple(self._judge(latest, baseline)),
                    gated=latest.git_sha == newest_sha,
                )
            )
        return verdicts

    def _judge(
        self, latest: RunRecord, baseline: Sequence[RunRecord]
    ) -> list[MetricVerdict]:
        verdicts = []
        for metric, value in latest.metrics.items():
            direction = latest.direction_of(metric)
            history = [
                run.metrics[metric] for run in baseline if metric in run.metrics
            ]
            if direction == Direction.INFO:
                mean = sum(history) / len(history) if history else None
                change = None
                if mean not in (None, 0.0):
                    change = (value - mean) / abs(mean)
                verdicts.append(
                    MetricVerdict(metric, direction, value, mean, change, "info")
                )
                continue
            if len(history) < self.policy.min_baseline_runs:
                verdicts.append(
                    MetricVerdict(metric, direction, value, None, None, "new")
                )
                continue
            mean = sum(history) / len(history)
            if mean == 0.0:
                # Relative change vs a zero baseline is undefined; the
                # headline gates own exact-zero expectations.
                verdicts.append(
                    MetricVerdict(metric, direction, value, mean, None, "skipped")
                )
                continue
            change = (value - mean) / abs(mean)
            if direction == Direction.HIGHER:
                regressed = change < -self.policy.threshold
                improved = change > self.policy.threshold
            else:
                regressed = change > self.policy.threshold
                improved = change < -self.policy.threshold
            status = "regressed" if regressed else ("improved" if improved else "ok")
            verdicts.append(
                MetricVerdict(metric, direction, value, mean, change, status)
            )
        return verdicts
