"""Benchmark-side tracing: spans recorded around calls into each layer.

Nothing here touches the program.  Proxies wrap the objects the benchmark
hands to the serving stack (engines, models, the inner service), time the
public calls the stack makes on them, and forward everything else
unchanged; the load generator opens its own spans around parsing and
submission.  Each span records its name, start, end, span id, parent span
id (the enclosing span on the same thread), the request id it belongs to,
and the batch size it handled.  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Iterable

import numpy as np

#: Field order of a recorded span tuple.
SPAN_FIELDS = ("name", "start", "end", "span_id", "parent_id", "request_id", "size")

#: Spans of the serving path's calls into the model and the exact engine.
MODEL_SPANS = ("model.q1", "model.q2")
EXECUTOR_SPANS = ("executor.q1", "executor.q2")


class Recorder:
    """In-memory span sink shared by every proxy of one run.

    Spans are recorded only while :attr:`active` is set, so one set of
    proxies serves an untraced warm-up and a traced measurement.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.active = False
        self.spans: list[tuple] = []
        self.flush_requests: dict[int, list[int]] = {}
        self.request_of: dict[int, int] = {}
        self.covered = 0
        self.coverage_queries = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, *, request_id: int | None = None, size: int = 0) -> "_Span":
        return _Span(self, name, request_id, size)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: Path) -> None:
        """Write every span (and the flush -> request map) as JSON."""
        payload = {
            "fields": SPAN_FIELDS,
            "spans": self.spans,
            "flush_requests": {str(k): v for k, v in self.flush_requests.items()},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


class _Span:
    __slots__ = ("recorder", "name", "request_id", "size", "start", "span_id", "parent_id")

    def __init__(self, recorder: Recorder, name: str, request_id, size: int) -> None:
        self.recorder = recorder
        self.name = name
        self.request_id = request_id
        self.size = size
        self.span_id = 0

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        if recorder.active:
            stack = recorder._stack()
            self.parent_id = stack[-1] if stack else 0
            self.span_id = next(recorder._ids)
            stack.append(self.span_id)
            self.start = recorder.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.span_id:
            end = self.recorder.clock()
            self.recorder._stack().pop()
            self.recorder.spans.append(
                (self.name, self.start, end, self.span_id, self.parent_id,
                 self.request_id, self.size)
            )


class _Proxy:
    """Forwards every attribute the wrapper does not time."""

    def __init__(self, target: object, recorder: Recorder) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_recorder", recorder)

    def __getattr__(self, name: str):
        return getattr(self._target, name)


class EngineProxy(_Proxy):
    """Spans ``executor.q1`` / ``executor.q2`` around the exact batch paths."""

    def execute_q1_batch(self, queries, **kwargs):
        with self._recorder.span("executor.q1", size=len(queries)):
            return self._target.execute_q1_batch(queries, **kwargs)

    def execute_q2_batch(self, queries, **kwargs):
        with self._recorder.span("executor.q2", size=len(queries)):
            return self._target.execute_q2_batch(queries, **kwargs)


class ModelProxy(_Proxy):
    """Spans ``model.*`` around batch prediction; counts coverage."""

    def _covered(self, covered) -> None:
        if self._recorder.active:
            mask = np.asarray(covered, dtype=bool)
            self._recorder.covered += int(mask.sum())
            self._recorder.coverage_queries += int(mask.size)

    def predict_mean_batch_with_coverage(self, queries, *args, **kwargs):
        with self._recorder.span("model.q1", size=len(queries)):
            values, covered = self._target.predict_mean_batch_with_coverage(
                queries, *args, **kwargs
            )
        self._covered(covered)
        return values, covered

    def predict_q2_batch_with_coverage(self, queries, *args, **kwargs):
        with self._recorder.span("model.q2", size=len(queries)):
            planes, covered = self._target.predict_q2_batch_with_coverage(
                queries, *args, **kwargs
            )
        self._covered(covered)
        return planes, covered

    def predict_mean_batch(self, queries, *args, **kwargs):
        with self._recorder.span("model.q1", size=len(queries)):
            return self._target.predict_mean_batch(queries, *args, **kwargs)

    def predict_q2_batch(self, queries, *args, **kwargs):
        with self._recorder.span("model.q2", size=len(queries)):
            return self._target.predict_q2_batch(queries, *args, **kwargs)


class ServiceProxy(_Proxy):
    """The inner service as the concurrent front sees it: span ``concurrent.flush``.

    A flush hands the inner service the very statement objects the
    generator submitted, so the statements map back to request ids.
    """

    def execute_script(self, script, **kwargs):
        recorder = self._recorder
        with recorder.span("concurrent.flush", size=len(script)) as span:
            results = self._target.execute_script(script, **kwargs)
        if span.span_id:
            recorder.flush_requests[span.span_id] = [
                recorder.request_of.get(id(statement), -1) for statement in script
            ]
        return results


# --------------------------------------------------------------------------- #
# per-layer aggregation
# --------------------------------------------------------------------------- #
def _self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for name, start, end, span_id, parent_id, _, _ in spans:
        if parent_id:
            child_time[parent_id] = child_time.get(parent_id, 0.0) + (end - start)
    return {
        span[3]: (span[2] - span[1]) - child_time.get(span[3], 0.0) for span in spans
    }


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(recorder: Recorder, requests: list, statements: int) -> dict[str, float]:
    """Per-layer self times, waits and batch shapes of one traced window.

    ``requests`` are the load generator's records of the traced window;
    ``statements`` the statements they carried.
    """
    spans = recorder.spans
    self_time = _self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    statements = max(statements, 1)

    def total_self(*names: str) -> float:
        return sum(self_time[s[3]] for name in names for s in by_name.get(name, []))

    def batch_mean(*names: str) -> float:
        return _mean([s[6] for name in names for s in by_name.get(name, [])])

    flushes = by_name.get("concurrent.flush", [])
    flush_total = sum(s[2] - s[1] for s in flushes)
    submitted_at = {r.index: r.submitted for r in requests}
    waits = []
    scripts_per_flush = []
    flushes_of: dict[int, list[tuple]] = {}
    for span in flushes:
        owners = recorder.flush_requests.get(span[3], [])
        scripts_per_flush.append(len(set(owners)))
        for owner in owners:
            if owner in submitted_at:
                waits.append(span[1] - submitted_at[owner])
        for owner in set(owners):
            flushes_of.setdefault(owner, []).append(span)

    # Unaccounted time: the part of each request's due -> answer interval
    # that nothing covers: not its parse or submit span, not a coalescer
    # wait and not a flush.  What is left is the front's demux and the
    # client thread's wake-up.
    generator = sorted(
        (s[1], s[2]) for name in ("sqlfront.parse", "gen.submit") for s in by_name.get(name, [])
    )
    generator_starts = [start for start, _ in generator]
    latency_total = unaccounted = 0.0
    for request in requests:
        if request.results is None:
            continue
        first = max(0, bisect.bisect_left(generator_starts, request.due) - 1)
        last = bisect.bisect_right(generator_starts, request.answered)
        intervals = generator[first:last]
        for span in flushes_of.get(request.index, []):
            intervals.append((request.submitted, span[1]))
            intervals.append((span[1], span[2]))
        clipped = [(max(a, request.due), min(b, request.answered)) for a, b in intervals]
        latency_total += request.latency
        unaccounted += request.latency - _union_length(clipped)

    parse = by_name.get("sqlfront.parse", [])
    submit = by_name.get("gen.submit", [])
    model_total = total_self(*MODEL_SPANS)
    executor_total = total_self(*EXECUTOR_SPANS)
    return {
        "sqlfront.parse_us": 1e6 * sum(s[2] - s[1] for s in parse) / statements,
        "concurrent.submit_us": 1e6 * _mean([s[2] - s[1] for s in submit]),
        "concurrent.wait_ms_p50": 1e3 * _pct(waits, 50),
        "concurrent.wait_ms_p99": 1e3 * _pct(waits, 99),
        "concurrent.flush_ms_p50": 1e3 * _pct([s[2] - s[1] for s in flushes], 50),
        "concurrent.flush_ms_p99": 1e3 * _pct([s[2] - s[1] for s in flushes], 99),
        "concurrent.stmts_per_flush": batch_mean("concurrent.flush"),
        "concurrent.scripts_per_flush": _mean(scripts_per_flush),
        "serving.self_us_per_stmt": 1e6 * total_self("concurrent.flush") / statements,
        "model.share_pct": 100.0 * model_total / flush_total if flush_total else 0.0,
        "model.batch_mean": batch_mean(*MODEL_SPANS),
        "model.covered_ratio": (
            recorder.covered / recorder.coverage_queries if recorder.coverage_queries else 0.0
        ),
        "executor.share_pct": 100.0 * executor_total / flush_total if flush_total else 0.0,
        "executor.batch_mean": batch_mean(*EXECUTOR_SPANS),
        "trace.unaccounted_pct": 100.0 * unaccounted / latency_total if latency_total else 0.0,
    }

