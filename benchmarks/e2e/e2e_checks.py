"""Output checks of the end-to-end benchmark (run after the timed window).

The reference is a benchmark-local brute force: rows are sorted once by
their first coordinate, a query keeps the slab ``|x1 - c1| <= radius``
(every Lp ball with p >= 1 lies inside it) and then the exact Lp distance
test; AVG is the mean, COUNT the count, and REGRESSION ``numpy.linalg.lstsq``
on ``[1, x]``.  It shares no code with the engine's grid index, cell
aggregates or blocked OLS.

* Exact and fallback answers must be within :data:`TOLERANCE` of the
  reference; COUNT must be equal.  A REGRESSION answer is compared through
  its fitted values on the selected rows: raw coefficients of a nearly
  collinear subspace are only determined to (condition number x machine
  epsilon), its fitted values are not.
* Model answers must be bit-equal to a direct ``predict_mean_batch`` /
  ``predict_q2_batch`` call on the model object that served them.  A batch
  of one and a batch of two or more can differ in the last bit, so either
  form is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.queries.query import Query

#: Largest accepted distance between an exact answer and the reference.
TOLERANCE = 1e-12


class Oracle:
    """Brute-force reference over one table's rows."""

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray) -> None:
        self.inputs = np.asarray(inputs, dtype=float)
        self.outputs = np.asarray(outputs, dtype=float)
        self.order = np.argsort(self.inputs[:, 0], kind="stable")
        self.sorted_x1 = self.inputs[self.order, 0]

    def select(self, query: Query) -> np.ndarray:
        """Row ids (ascending) inside the query ball."""
        center = np.asarray(query.center, dtype=float)
        low = np.searchsorted(self.sorted_x1, center[0] - query.radius, side="left")
        high = np.searchsorted(self.sorted_x1, center[0] + query.radius, side="right")
        rows = self.order[low:high]
        # The Lp formulas match the engine's elementwise ones, so a row on
        # the sphere itself lands on the same side in both.
        diff = self.inputs[rows] - center
        p = query.norm_order
        if math.isinf(p):
            distance = np.max(np.abs(diff), axis=1)
        elif p == 2.0:
            distance = np.sqrt(np.sum(diff * diff, axis=1))
        elif p == 1.0:
            distance = np.sum(np.abs(diff), axis=1)
        else:
            distance = np.power(np.sum(np.power(np.abs(diff), p), axis=1), 1.0 / p)
        return np.sort(rows[distance <= query.radius])


def _exact_mismatch(oracle: Oracle, query: Query, kind: str, value) -> str | None:
    selected = oracle.select(query)
    if kind == "count":
        if value == selected.size:
            return None
        distance = abs(value - selected.size)
    elif selected.size == 0 or value is None:
        if selected.size == 0 and value is None:
            return None
        distance = math.inf
    else:
        outputs = oracle.outputs[selected]
        if kind == "q1":
            distance = abs(float(value) - float(outputs.mean()))
        else:
            design = np.column_stack([np.ones(selected.size), oracle.inputs[selected]])
            reference = np.linalg.lstsq(design, outputs, rcond=None)[0]
            (intercept, slope), = value
            served = np.concatenate([[intercept], np.asarray(slope, dtype=float)])
            distance = float(np.max(np.abs(design @ (served - reference))))
        if distance <= TOLERANCE:
            return None
    return (
        f"{kind} answer {value!r} to (center {query.center.tolist()}, radius "
        f"{query.radius!r}) is {distance:.3g} from the reference "
        f"({selected.size} rows selected)"
    )


def _model_values(model, kind: str, queries: list[Query]) -> tuple[list, list]:
    """(batched, one-at-a-time) predictions of every query."""
    predict = model.predict_mean_batch if kind == "q1" else model.predict_q2_batch
    padded = queries if len(queries) > 1 else queries * 2
    batched = list(predict(padded))[: len(queries)]
    single = [predict([query])[0] for query in queries]
    return batched, single


def _bit_equal(kind: str, served, predicted) -> bool:
    if kind == "q1":
        return np.float64(served).tobytes() == np.float64(predicted).tobytes()
    if len(served) != len(predicted):
        return False
    return all(
        np.float64(intercept).tobytes() == np.float64(plane.intercept).tobytes()
        and np.asarray(slope, dtype=float).tobytes() == plane.slope.tobytes()
        for (intercept, slope), plane in zip(served, predicted)
    )


@dataclass
class Sampled:
    """One served statement picked for checking."""

    table: str
    kind: str
    query: Query
    source: str
    value: object
    model: object = None  # the model that served it (model answers)


def check_sample(sample: list[Sampled], oracles: dict[str, Oracle]) -> list[str]:
    """Every mismatch of the sampled answers, as messages (empty: all correct)."""
    problems: list[str] = []
    model_checks: dict[tuple, list[Sampled]] = {}
    for item in sample:
        if item.source == "model":
            model_checks.setdefault((item.table, item.kind, id(item.model)), []).append(item)
            continue
        message = _exact_mismatch(oracles[item.table], item.query, item.kind, item.value)
        if message is not None:
            problems.append(f"{item.table} {item.source}: {message}")
    for (table, kind, _), items in model_checks.items():
        batched, single = _model_values(items[0].model, kind, [item.query for item in items])
        for item, b, s in zip(items, batched, single):
            if _bit_equal(kind, item.value, b) or _bit_equal(kind, item.value, s):
                continue
            problems.append(
                f"{table} model {kind} answer {item.value!r} matches no direct "
                f"prediction of the serving model"
            )
    return problems


def stratified_sample(items: list, kinds: list[str], size: int, rng: np.random.Generator) -> list:
    """A seeded sample of ``size`` items that holds every kind present.

    Each kind gets at least ``size // 20`` slots (or all its items); the
    rest is drawn uniformly.
    """
    if len(items) <= size:
        return list(items)
    kinds_arr = np.asarray(kinds)
    chosen: set[int] = set()
    for kind in sorted(set(kinds)):
        positions = np.nonzero(kinds_arr == kind)[0]
        take = min(positions.size, max(1, size // 20))
        chosen.update(int(i) for i in rng.choice(positions, size=take, replace=False))
    rest = np.setdiff1d(np.arange(len(items)), np.fromiter(chosen, dtype=int))
    extra = rng.choice(rest, size=size - len(chosen), replace=False)
    chosen.update(int(i) for i in extra)
    return [items[i] for i in sorted(chosen)]
