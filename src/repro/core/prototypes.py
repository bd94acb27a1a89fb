"""Local Linear Mapping (LLM) containers.

Each prototype ``w_k = [x_k, theta_k]`` of the quantized query space carries
a local linear map

``f_k(x, theta) = y_k + b_{X,k} (x - x_k)^T + b_{Theta,k} (theta - theta_k)``

whose parameters are the triple ``alpha_k = (y_k, b_k, w_k)`` (Section
III-A).  :class:`LocalLinearMap` owns one such triple and knows how to
evaluate itself as a query-space mapping (for Q1 prediction) and how to
project itself onto the data space as a regression plane (Theorem 3, for Q2
answers and data-value prediction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import (
    DimensionalityMismatchError,
    InternalInvariantError,
    InvalidQueryError,
    NotFittedError,
)

__all__ = ["LocalLinearMap", "RegressionPlane", "LocalModelParameters"]


@dataclass(frozen=True)
class RegressionPlane:
    """A local linear approximation of the *data* function ``g`` over ``D_k``.

    ``u ≈ intercept + slope · x`` — the Theorem-3 projection of an LLM onto
    the data space.  This is the element type of the list ``S`` returned by
    the Q2 query processing algorithm.
    """

    intercept: float
    slope: np.ndarray
    prototype_center: np.ndarray
    prototype_radius: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        slope = np.asarray(self.slope, dtype=float).ravel()
        center = np.asarray(self.prototype_center, dtype=float).ravel()
        if slope.shape[0] != center.shape[0]:
            raise DimensionalityMismatchError(
                f"slope has dimension {slope.shape[0]} but the prototype center "
                f"has {center.shape[0]}"
            )
        slope.setflags(write=False)
        center.setflags(write=False)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "prototype_center", center)
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "prototype_radius", float(self.prototype_radius))
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def dimension(self) -> int:
        return int(self.slope.shape[0])

    def predict(self, points: np.ndarray) -> float | np.ndarray:
        """Evaluate ``intercept + slope · x`` on one or many points.

        The return type follows the input rank:

        * a 1-D point of shape ``(d,)`` returns a plain Python ``float``
          (used by scalar probes such as the value-prediction metrics);
        * a 2-D batch of shape ``(n, d)`` returns an ``ndarray`` of shape
          ``(n,)`` (used by the subspace evaluators, which assign the result
          into a masked slice of a prediction vector).

        Call sites that rely on one of the two shapes are tested explicitly
        in ``tests/test_core_prototypes.py``.
        """
        arr = np.asarray(points, dtype=float)
        if arr.ndim == 1:
            if arr.shape[0] != self.dimension:
                raise DimensionalityMismatchError(
                    f"point has dimension {arr.shape[0]}, plane has {self.dimension}"
                )
            return float(self.intercept + arr @ self.slope)
        if arr.shape[1] != self.dimension:
            raise DimensionalityMismatchError(
                f"points have dimension {arr.shape[1]}, plane has {self.dimension}"
            )
        return self.intercept + arr @ self.slope

    def coefficients(self) -> np.ndarray:
        """Return the coefficient vector ``[intercept, slope...]``."""
        return np.concatenate([[self.intercept], self.slope])


class LocalLinearMap:
    """One prototype of the quantized query space plus its LLM coefficients.

    Parameters
    ----------
    prototype:
        The ``(d + 1)``-dimensional prototype vector ``w_k = [x_k, theta_k]``.
    mean_output:
        The local intercept ``y_k`` (local expectation of the query answer).
    slope:
        The local slope ``b_k = [b_{X,k}, b_{Theta,k}]``, a ``(d + 1)``-vector
        whose first ``d`` components differentiate with respect to the query
        center and whose last component differentiates with respect to the
        radius.
    """

    __slots__ = (
        "_prototype",
        "_slope",
        "_scalars",
    )

    #: Column layout of the per-LLM scalar triple (shared with the dense
    #: scalar store of :class:`LocalModelParameters`): the local intercept
    #: ``y_k``, the running second moment of ``||q - w||^2``, and the winner
    #: update count (kept as a float so the triple lives in one row).
    SCALAR_MEAN = 0
    SCALAR_SECOND_MOMENT = 1
    SCALAR_UPDATES = 2

    def __init__(
        self,
        prototype: np.ndarray,
        mean_output: float = 0.0,
        slope: np.ndarray | None = None,
    ) -> None:
        proto = np.asarray(prototype, dtype=float).ravel().copy()
        if proto.shape[0] < 2:
            raise InvalidQueryError(
                "a prototype needs at least two components (center and radius), "
                f"got {proto.shape[0]}"
            )
        self._prototype = proto
        if slope is None:
            self._slope = np.zeros_like(proto)
        else:
            slope_arr = np.asarray(slope, dtype=float).ravel().copy()
            if slope_arr.shape != proto.shape:
                raise DimensionalityMismatchError(
                    f"slope shape {slope_arr.shape} does not match prototype shape "
                    f"{proto.shape}"
                )
            self._slope = slope_arr
        # [intercept, running second moment of ||q - w||^2, update count];
        # rebound to a row of the dense scalar store on attachment so the
        # fused training kernel's writes and the object accessors agree.
        self._scalars = np.array([float(mean_output), 0.0, 0.0], dtype=float)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def prototype(self) -> np.ndarray:
        """The prototype vector ``w_k = [x_k, theta_k]`` (copy)."""
        return self._prototype.copy()

    @property
    def center(self) -> np.ndarray:
        """The data-space center ``x_k`` of the prototype (copy)."""
        return self._prototype[:-1].copy()

    @property
    def radius(self) -> float:
        """The radius component ``theta_k`` of the prototype."""
        return float(self._prototype[-1])

    @property
    def mean_output(self) -> float:
        """The local intercept ``y_k``."""
        return float(self._scalars[self.SCALAR_MEAN])

    @property
    def updates(self) -> int:
        """Number of winner updates this LLM has received (diagnostics)."""
        return int(self._scalars[self.SCALAR_UPDATES])

    @updates.setter
    def updates(self, value: int) -> None:
        self._scalars[self.SCALAR_UPDATES] = float(value)

    @property
    def slope(self) -> np.ndarray:
        """The local slope ``b_k`` over the query space (copy)."""
        return self._slope.copy()

    @property
    def center_slope(self) -> np.ndarray:
        """The slope with respect to the query center, ``b_{X,k}`` (copy)."""
        return self._slope[:-1].copy()

    @property
    def dimension(self) -> int:
        """Dimensionality ``d`` of the data space (prototype size minus one)."""
        return int(self._prototype.shape[0] - 1)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def distance_to(self, query_vector: np.ndarray) -> float:
        """Euclidean distance from the prototype to a query vector."""
        vec = np.asarray(query_vector, dtype=float).ravel()
        if vec.shape != self._prototype.shape:
            raise DimensionalityMismatchError(
                f"query vector shape {vec.shape} does not match prototype shape "
                f"{self._prototype.shape}"
            )
        return float(np.linalg.norm(vec - self._prototype))

    def evaluate(self, query_vector: np.ndarray) -> float:
        """Evaluate ``f_k(q) = y_k + b_k (q - w_k)^T`` on a query vector."""
        vec = np.asarray(query_vector, dtype=float).ravel()
        if vec.shape != self._prototype.shape:
            raise DimensionalityMismatchError(
                f"query vector shape {vec.shape} does not match prototype shape "
                f"{self._prototype.shape}"
            )
        return float(self._scalars[self.SCALAR_MEAN] + self._slope @ (vec - self._prototype))

    def evaluate_at_own_radius(self, point: np.ndarray) -> float:
        """Evaluate ``f_k(x, theta_k)`` — the Equation-14 form used for A2.

        Fixing ``theta = theta_k`` removes the radius term, leaving the
        data-space regression plane of Theorem 3 evaluated at ``x``.
        """
        x = np.asarray(point, dtype=float).ravel()
        if x.shape[0] != self.dimension:
            raise DimensionalityMismatchError(
                f"point has dimension {x.shape[0]}, LLM expects {self.dimension}"
            )
        return float(self._scalars[self.SCALAR_MEAN] + self.center_slope @ (x - self.center))

    def regression_plane(self, weight: float = 1.0) -> RegressionPlane:
        """Project the LLM onto the data space (Theorem 3).

        The data function is approximated over ``D_k`` by
        ``u ≈ y_k + b_{X,k} (x - x_k)^T``, i.e. a plane with slope
        ``b_{X,k}`` and intercept ``y_k - b_{X,k} x_k^T``.
        """
        intercept = float(self._scalars[self.SCALAR_MEAN]) - float(self.center_slope @ self.center)
        return RegressionPlane(
            intercept=intercept,
            slope=self.center_slope,
            prototype_center=self.center,
            prototype_radius=self.radius,
            weight=weight,
        )

    # ------------------------------------------------------------------ #
    # in-place parameter updates (the object-path SGD step of
    # repro.testing.reference_training)
    # ------------------------------------------------------------------ #
    def _attach_storage(
        self,
        prototype_row: np.ndarray,
        slope_row: np.ndarray,
        scalar_row: np.ndarray,
    ) -> None:
        """Rebind every parameter to rows of the shared dense stores.

        :class:`LocalModelParameters` keeps the prototypes, slopes and the
        scalar triples in capacity-doubling dense arrays; after attachment
        the LLM's in-place updates write straight through to those arrays,
        so neither the winner-search path nor the fused training kernel ever
        has to re-stack ``K`` rows.  The rows are expected to already hold
        the current parameter values.
        """
        self._prototype = prototype_row
        self._slope = slope_row
        self._scalars = scalar_row

    def shift_prototype(self, delta: np.ndarray) -> None:
        """Add ``delta`` to the prototype vector in place."""
        self._prototype += np.asarray(delta, dtype=float).ravel()

    def shift_slope(self, delta: np.ndarray) -> None:
        """Add ``delta`` to the slope vector in place."""
        self._slope += np.asarray(delta, dtype=float).ravel()

    def shift_mean_output(self, delta: float) -> None:
        """Add ``delta`` to the local intercept in place."""
        self._scalars[self.SCALAR_MEAN] += float(delta)

    @property
    def difference_second_moment(self) -> float:
        """Running mean of ``||q - w||^2`` over the winner updates so far."""
        return float(self._scalars[self.SCALAR_SECOND_MOMENT])

    def update_difference_second_moment(self, squared_norm: float) -> float:
        """Fold one observed ``||q - w||^2`` into the running mean and return it."""
        count = self.updates + 1
        current = float(self._scalars[self.SCALAR_SECOND_MOMENT])
        current += (float(squared_norm) - current) / count
        self._scalars[self.SCALAR_SECOND_MOMENT] = current
        return current

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Serialise the LLM parameters to plain Python types."""
        return {
            "prototype": self._prototype.tolist(),
            "mean_output": self.mean_output,
            "slope": self._slope.tolist(),
            "updates": self.updates,
            "difference_second_moment": self.difference_second_moment,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LocalLinearMap":
        """Rebuild an LLM from :meth:`to_dict` output."""
        llm = cls(
            prototype=np.asarray(payload["prototype"], dtype=float),
            mean_output=float(payload["mean_output"]),
            slope=np.asarray(payload["slope"], dtype=float),
        )
        llm.updates = int(payload.get("updates", 0))
        llm._scalars[cls.SCALAR_SECOND_MOMENT] = float(
            payload.get("difference_second_moment", 0.0)
        )
        return llm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalLinearMap(center={np.array2string(self.center, precision=3)}, "
            f"radius={self.radius:.3g}, y={self.mean_output:.3g}, "
            f"updates={self.updates})"
        )


#: Initial row capacity of the dense prototype store.
_INITIAL_CAPACITY = 8


@dataclass
class LocalModelParameters:
    """The full parameter set ``alpha = {(y_k, b_k, w_k)}`` of a trained model.

    Every parameter is additionally mirrored in capacity-doubling dense
    arrays: a ``(K, d + 1)`` prototype matrix, a ``(K, d + 1)`` slope matrix
    and a ``(K, 3)`` scalar matrix holding each LLM's intercept, second
    moment and update count (see the ``SCALAR_*`` columns of
    :class:`LocalLinearMap`).  Each :class:`LocalLinearMap` added here has
    its parameters rebound to row views of those arrays, so the SGD's
    in-place updates write through, :meth:`prototype_view` is always current
    without re-stacking ``K`` rows, and the fused training kernel
    (:class:`~repro.core.sgd.FusedTrainingKernel`) can run whole chunks of
    winner searches and winner updates directly against the dense arrays
    with no per-step Python-object churn — amortised O(1) maintenance per
    training step instead of O(K) allocation.  An LLM should therefore
    belong to at most one parameter set at a time.
    """

    maps: list[LocalLinearMap] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._store: np.ndarray | None = None
        self._slope_store: np.ndarray | None = None
        self._scalar_store: np.ndarray | None = None
        self._maps_view: tuple[LocalLinearMap, ...] | None = None
        initial = list(self.maps)
        self.maps = []
        for llm in initial:
            self.add(llm)

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, index: int) -> LocalLinearMap:
        return self.maps[index]

    @property
    def prototype_count(self) -> int:
        """The number of prototypes ``K``."""
        return len(self.maps)

    @property
    def maps_view(self) -> tuple[LocalLinearMap, ...]:
        """A cached, read-only view of the LLM list.

        Callers that read the maps repeatedly (``LLMModel.local_maps``, the
        reference quantizers) would otherwise pay an O(K) ``list()`` copy on
        every access; the tuple is built once per growth event instead.
        """
        if self._maps_view is None:
            self._maps_view = tuple(self.maps)
        return self._maps_view

    def prototype_matrix(self) -> np.ndarray:
        """A copy of the ``(K, d + 1)`` prototype matrix (safe to mutate)."""
        return self.prototype_view().copy()

    def prototype_view(self) -> np.ndarray:
        """The live ``(K, d + 1)`` prototype matrix as a read-only view."""
        if not self.maps:
            return np.empty((0, 0))
        if self._store is None:
            raise InternalInvariantError(
                "parameter set has prototypes but no backing store"
            )
        view = self._store[: len(self.maps)]
        view.setflags(write=False)
        return view

    def training_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Writable ``(K, ·)`` row views of the dense parameter stores.

        Returns ``(prototypes, slopes, scalars)`` trimmed to the current
        prototype count.  This is the fused training kernel's write-through
        API, and what the model's prediction snapshot copies: mutations are
        immediately visible to the attached
        :class:`LocalLinearMap` objects (and vice versa) because both alias
        the same capacity-doubling storage.  The views are invalidated by
        the next :meth:`add` that doubles capacity, so callers must re-fetch
        them after any growth event.
        """
        count = len(self.maps)
        if self._store is None:
            raise NotFittedError("parameter set has no prototypes yet")
        if self._slope_store is None or self._scalar_store is None:
            raise InternalInvariantError(
                "prototype store exists without slope/scalar stores"
            )
        return (
            self._store[:count],
            self._slope_store[:count],
            self._scalar_store[:count],
        )

    def add(self, llm: LocalLinearMap) -> None:
        """Append a new LLM (a growth event of the quantizer)."""
        if self.maps and llm.dimension != self.maps[0].dimension:
            raise DimensionalityMismatchError(
                "all LLMs in a parameter set must share the same dimensionality"
            )
        row = llm.prototype
        slope_row = llm.slope
        scalar_row = llm._scalars.copy()
        count = len(self.maps)
        if self._store is None:
            self._store = np.empty((_INITIAL_CAPACITY, row.shape[0]), dtype=float)
            self._slope_store = np.empty_like(self._store)
            self._scalar_store = np.empty((_INITIAL_CAPACITY, 3), dtype=float)
        elif count == self._store.shape[0]:
            # Double all three stores together and re-attach every existing
            # LLM to its new rows (values are copied bit-for-bit, so the
            # resize is invisible to convergence tracking and to the kernel).
            self._store = self._grown(self._store, count)
            self._slope_store = self._grown(self._slope_store, count)
            self._scalar_store = self._grown(self._scalar_store, count)
            for index, existing in enumerate(self.maps):
                existing._attach_storage(
                    self._store[index],
                    self._slope_store[index],
                    self._scalar_store[index],
                )
        if self._slope_store is None or self._scalar_store is None:
            raise InternalInvariantError(
                "prototype store exists without slope/scalar stores"
            )
        self._store[count] = row
        self._slope_store[count] = slope_row
        self._scalar_store[count] = scalar_row
        llm._attach_storage(
            self._store[count],
            self._slope_store[count],
            self._scalar_store[count],
        )
        self.maps.append(llm)
        self._maps_view = None

    @staticmethod
    def _grown(store: np.ndarray, count: int) -> np.ndarray:
        grown = np.empty((2 * count, store.shape[1]), dtype=float)
        grown[:count] = store[:count]
        return grown

    def snapshot(self) -> list[dict]:
        """Serialise every LLM (used by persistence and convergence tests)."""
        return [llm.to_dict() for llm in self.maps]
