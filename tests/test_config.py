"""Tests for the configuration dataclasses and the vigilance formula."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import (
    DEFAULT_CONVERGENCE_THRESHOLD,
    DEFAULT_QUANTIZATION_COEFFICIENT,
    ModelConfig,
    TrainingConfig,
    vigilance_radius,
)
from repro.dbms.concurrent import ConcurrencyPolicy
from repro.dbms.lifecycle import DriftPolicy
from repro.dbms.resilience import DegradationPolicy
from repro.exceptions import ConfigurationError, InvalidQueryError, WorkloadError
from repro.queries.query import Query
from repro.queries.workload import RadiusDistribution, WorkloadSpec


class TestVigilanceRadius:
    def test_matches_paper_formula(self):
        # rho = a (sqrt(d) + 1)
        assert vigilance_radius(0.25, 4) == pytest.approx(0.25 * 3.0)

    def test_unit_coefficient_and_dimension(self):
        assert vigilance_radius(1.0, 1) == pytest.approx(2.0)

    def test_scales_linearly_with_coefficient(self):
        assert vigilance_radius(0.5, 9) == pytest.approx(2 * vigilance_radius(0.25, 9))

    def test_grows_with_dimension(self):
        assert vigilance_radius(0.3, 10) > vigilance_radius(0.3, 2)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_rejects_bad_coefficient(self, bad):
        with pytest.raises(ConfigurationError):
            vigilance_radius(bad, 3)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            vigilance_radius(0.5, 0)


class TestModelConfig:
    def test_defaults(self):
        config = ModelConfig()
        assert config.quantization_coefficient == DEFAULT_QUANTIZATION_COEFFICIENT
        assert config.norm_order == 2.0
        assert config.vigilance_override is None

    def test_vigilance_uses_formula(self):
        config = ModelConfig(quantization_coefficient=0.2)
        assert config.vigilance(4) == pytest.approx(0.2 * (math.sqrt(4) + 1))

    def test_vigilance_override_wins(self):
        config = ModelConfig(quantization_coefficient=0.2, vigilance_override=0.7)
        assert config.vigilance(4) == pytest.approx(0.7)

    def test_with_coefficient_returns_new_config(self):
        config = ModelConfig(quantization_coefficient=0.2, vigilance_override=0.7)
        updated = config.with_coefficient(0.4)
        assert updated.quantization_coefficient == 0.4
        assert updated.vigilance_override is None
        assert config.quantization_coefficient == 0.2

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.1])
    def test_rejects_bad_coefficient(self, bad):
        with pytest.raises(ConfigurationError):
            ModelConfig(quantization_coefficient=bad)

    def test_rejects_bad_norm_order(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(norm_order=0.5)

    def test_rejects_bad_override(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(vigilance_override=-1.0)


class TestTrainingConfig:
    def test_defaults(self):
        config = TrainingConfig()
        assert config.convergence_threshold == DEFAULT_CONVERGENCE_THRESHOLD
        assert config.learning_rate_schedule == "hyperbolic"
        assert config.max_steps is None

    def test_with_threshold(self):
        config = TrainingConfig().with_threshold(0.5)
        assert config.convergence_threshold == 0.5

    @pytest.mark.parametrize("bad", [0.0, -0.01])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ConfigurationError):
            TrainingConfig(convergence_threshold=bad)

    def test_rejects_bad_max_steps(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(max_steps=0)

    def test_rejects_negative_min_steps(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(min_steps=-1)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(convergence_window=0)

    def test_rejects_bad_learning_rate_scale(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(learning_rate_scale=0.0)


#: ``(constructor, field, other arguments, typed error)`` of every
#: range-checked float field of the query and config constructors.
RANGE_CHECKED_FIELDS = [
    (Query, "norm_order", {"center": (0.5, 0.5), "radius": 0.1}, InvalidQueryError),
    (ModelConfig, "norm_order", {}, ConfigurationError),
    (ModelConfig, "vigilance_override", {}, ConfigurationError),
    (TrainingConfig, "convergence_threshold", {}, ConfigurationError),
    (TrainingConfig, "learning_rate_scale", {}, ConfigurationError),
    (RadiusDistribution, "mean", {"std": 0.01}, WorkloadError),
    (RadiusDistribution, "std", {"mean": 0.1}, WorkloadError),
    (RadiusDistribution, "minimum", {"mean": 0.1, "std": 0.01}, WorkloadError),
    (WorkloadSpec, "norm_order", {"dimension": 2}, WorkloadError),
    (WorkloadSpec, "center_low", {"dimension": 2}, WorkloadError),
    (WorkloadSpec, "center_high", {"dimension": 2}, WorkloadError),
    (DriftPolicy, "cooldown_seconds", {}, ConfigurationError),
    (DriftPolicy, "max_backoff_seconds", {}, ConfigurationError),
    (DriftPolicy, "backoff_multiplier", {}, ConfigurationError),
    (DriftPolicy, "rollback_fallback_factor", {}, ConfigurationError),
    (DriftPolicy, "rollback_rmse_factor", {}, ConfigurationError),
    (DegradationPolicy, "backoff_seconds", {}, ConfigurationError),
    (DegradationPolicy, "backoff_multiplier", {}, ConfigurationError),
    (DegradationPolicy, "breaker_reset_seconds", {}, ConfigurationError),
]


@pytest.mark.parametrize(
    "constructor, field, arguments, error",
    RANGE_CHECKED_FIELDS,
    ids=[f"{case[0].__name__}.{case[1]}" for case in RANGE_CHECKED_FIELDS],
)
def test_nan_fails_every_range_check(constructor, field, arguments, error):
    # ``x < bound`` is False for NaN, so each check must be written to fail
    # on it.
    with pytest.raises(error):
        constructor(**arguments, **{field: math.nan})


@pytest.mark.parametrize("field", ["backoff_seconds", "backoff_multiplier"])
def test_degradation_backoff_refuses_infinity(field):
    # A retry would sleep ``inf`` (OverflowError) or ``0 * inf`` (NaN,
    # ValueError) in the middle of a served call.
    with pytest.raises(ConfigurationError):
        DegradationPolicy(**{field: math.inf})


#: ``(constructor, field, typed error)`` of every integer count field of the
#: config and policy constructors.
INTEGER_FIELDS = [
    (TrainingConfig, "min_steps", ConfigurationError),
    (TrainingConfig, "convergence_window", ConfigurationError),
    (TrainingConfig, "max_steps", ConfigurationError),
    (DriftPolicy, "min_window_statements", ConfigurationError),
    (DriftPolicy, "window_buckets", ConfigurationError),
    (DriftPolicy, "min_retrain_queries", ConfigurationError),
    (DriftPolicy, "probe_size", ConfigurationError),
    (DriftPolicy, "keep_versions", ConfigurationError),
    (ConcurrencyPolicy, "max_workers", ConfigurationError),
    (ConcurrencyPolicy, "max_pending_statements", ConfigurationError),
    (ConcurrencyPolicy, "max_batch_statements", ConfigurationError),
    (ConcurrencyPolicy, "cache_capacity", ConfigurationError),
    (DegradationPolicy, "max_attempts", ConfigurationError),
    (DegradationPolicy, "breaker_failure_threshold", ConfigurationError),
    (WorkloadSpec, "dimension", WorkloadError),
]


@pytest.mark.parametrize("value", [math.nan, 2.5], ids=["nan", "fraction"])
@pytest.mark.parametrize(
    "constructor, field, error",
    INTEGER_FIELDS,
    ids=[f"{case[0].__name__}.{case[1]}" for case in INTEGER_FIELDS],
)
def test_integer_fields_refuse_nan_and_fractions(constructor, field, error, value):
    with pytest.raises(error):
        constructor(**{field: value})


def test_integer_fields_accept_numpy_integers():
    assert TrainingConfig(min_steps=np.int64(3)).min_steps == 3
