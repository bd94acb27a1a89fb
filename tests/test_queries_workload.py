"""Tests for workload specification and generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.queries.query import Query
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)


class TestRadiusDistribution:
    def test_sampling_is_positive(self):
        rng = np.random.default_rng(0)
        dist = RadiusDistribution(mean=0.05, std=0.2)
        radii = dist.sample(rng, 500)
        assert np.all(radii >= dist.minimum)

    def test_zero_std_is_constant(self):
        rng = np.random.default_rng(0)
        dist = RadiusDistribution(mean=0.3, std=0.0)
        radii = dist.sample(rng, 10)
        assert np.allclose(radii, 0.3)

    def test_sample_mean_close_to_configured_mean(self):
        rng = np.random.default_rng(0)
        dist = RadiusDistribution(mean=0.5, std=0.05)
        radii = dist.sample(rng, 2_000)
        assert abs(radii.mean() - 0.5) < 0.01

    @pytest.mark.parametrize("mean,std", [(0.0, 0.1), (-0.1, 0.1), (0.1, -0.1)])
    def test_rejects_bad_parameters(self, mean, std):
        with pytest.raises(WorkloadError):
            RadiusDistribution(mean=mean, std=std)

    def test_rejects_negative_sample_size(self):
        dist = RadiusDistribution(mean=0.1, std=0.1)
        with pytest.raises(WorkloadError):
            dist.sample(np.random.default_rng(0), -1)


class TestWorkloadSpec:
    def test_scalar_bounds_broadcast(self):
        spec = WorkloadSpec(dimension=3, center_low=-1.0, center_high=1.0)
        low, high = spec.bounds
        assert low.shape == (3,) and high.shape == (3,)
        assert np.all(low == -1.0) and np.all(high == 1.0)

    def test_per_dimension_bounds(self):
        spec = WorkloadSpec(dimension=2, center_low=[0.0, -1.0], center_high=[1.0, 1.0])
        low, high = spec.bounds
        assert low.tolist() == [0.0, -1.0]
        assert high.tolist() == [1.0, 1.0]

    def test_rejects_inverted_bounds(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(dimension=2, center_low=1.0, center_high=0.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(dimension=0)

    def test_rejects_norm_order_below_one(self):
        # Refused at construction, as Query refuses it, not at generation.
        with pytest.raises(WorkloadError):
            WorkloadSpec(dimension=2, norm_order=0.5)


class TestQueryWorkloadGenerator:
    def test_generates_requested_count(self):
        spec = WorkloadSpec(dimension=2)
        queries = QueryWorkloadGenerator(spec, seed=1).generate(25)
        assert len(queries) == 25
        assert all(isinstance(q, Query) for q in queries)

    def test_centers_within_bounds(self):
        spec = WorkloadSpec(dimension=3, center_low=-2.0, center_high=2.0)
        queries = QueryWorkloadGenerator(spec, seed=1).generate(200)
        centers = np.vstack([q.center for q in queries])
        assert centers.min() >= -2.0 and centers.max() <= 2.0

    def test_seed_reproducibility(self):
        spec = WorkloadSpec(dimension=2)
        first = QueryWorkloadGenerator(spec, seed=42).generate(10)
        second = QueryWorkloadGenerator(spec, seed=42).generate(10)
        for a, b in zip(first, second):
            assert np.allclose(a.center, b.center)
            assert a.radius == pytest.approx(b.radius)

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(dimension=2)
        first = QueryWorkloadGenerator(spec, seed=1).generate(5)
        second = QueryWorkloadGenerator(spec, seed=2).generate(5)
        assert not all(
            np.allclose(a.center, b.center) for a, b in zip(first, second)
        )

    def test_iter_queries_matches_count(self):
        spec = WorkloadSpec(dimension=2)
        generator = QueryWorkloadGenerator(spec, seed=1)
        queries = list(generator.iter_queries(37, batch_size=10))
        assert len(queries) == 37

    def test_norm_order_propagates(self):
        spec = WorkloadSpec(dimension=2, norm_order=1.0)
        queries = QueryWorkloadGenerator(spec, seed=1).generate(3)
        assert all(q.norm_order == 1.0 for q in queries)

    def test_rejects_negative_count(self):
        spec = WorkloadSpec(dimension=2)
        with pytest.raises(WorkloadError):
            QueryWorkloadGenerator(spec, seed=1).generate(-1)
