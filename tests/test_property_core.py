"""Property-based tests for the core model invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ols import OLSRegressor
from repro.baselines.plr import MARSRegressor
from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.core.prototypes import LocalLinearMap
from repro.queries.query import Query
from repro.testing.reference_training import GrowingQuantizer, apply_winner_update

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestQuantizerInvariants:
    @given(
        st.lists(
            st.tuples(unit_floats, unit_floats),
            min_size=1,
            max_size=120,
        ),
        st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_new_prototypes_only_created_beyond_vigilance(self, centers, vigilance):
        """At creation time every new prototype is farther than rho from all others.

        Prototypes drift afterwards, so the invariant is checked at the
        moment of growth, which is exactly what the algorithm guarantees.
        """
        quantizer = GrowingQuantizer(vigilance=vigilance)
        for x1, x2 in centers:
            vector = np.array([x1, x2, 0.1])
            before = quantizer.prototype_matrix()
            _, grew, distance = quantizer.observe(vector)
            if grew and before.size:
                distances = np.linalg.norm(before - vector, axis=1)
                assert distances.min() > vigilance
                assert distance == pytest.approx(distances.min())
        assert 1 <= quantizer.prototype_count <= len(centers)

    @given(
        st.lists(st.tuples(unit_floats, unit_floats), min_size=5, max_size=80),
    )
    @settings(max_examples=30, deadline=None)
    def test_coarser_vigilance_never_more_prototypes(self, centers):
        fine = GrowingQuantizer(vigilance=0.1)
        coarse = GrowingQuantizer(vigilance=0.5)
        for x1, x2 in centers:
            vector = np.array([x1, x2, 0.1])
            fine.observe(vector)
            coarse.observe(vector)
        assert coarse.prototype_count <= fine.prototype_count


class TestSGDInvariants:
    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        st.tuples(unit_floats, unit_floats),
    )
    @settings(max_examples=60, deadline=None)
    def test_prototype_update_is_convex_combination(self, rate, answer, center):
        llm = LocalLinearMap(prototype=np.array([0.5, 0.5, 0.1]))
        before = llm.prototype
        query = np.array([center[0], center[1], 0.1])
        apply_winner_update(llm, query, answer, rate)
        after = llm.prototype
        # The updated prototype lies on the segment between the old
        # prototype and the query.
        expected = (1 - rate) * before + rate * query
        assert np.allclose(after, expected, atol=1e-12)

    @given(st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_intercept_error_shrinks(self, rate, answer):
        llm = LocalLinearMap(prototype=np.array([0.5, 0.1]), mean_output=0.0)
        before_error = abs(answer - llm.mean_output)
        apply_winner_update(llm, np.array([0.5, 0.1]), answer, rate)
        after_error = abs(answer - llm.mean_output)
        assert after_error <= before_error + 1e-12


class TestModelInvariants:
    @given(st.integers(min_value=20, max_value=80), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_prototype_count_never_exceeds_training_pairs(self, count, seed):
        rng = np.random.default_rng(seed)
        model = LLMModel(
            dimension=2,
            config=ModelConfig(quantization_coefficient=0.05),
            training=TrainingConfig(convergence_threshold=1e-9),
        )
        for _ in range(count):
            center = rng.uniform(0, 1, size=2)
            model.partial_fit(Query(center=center, radius=0.1), float(center.sum()))
        assert 1 <= model.prototype_count <= count
        assert model.steps == count

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_prediction_within_training_answer_range(self, seed):
        rng = np.random.default_rng(seed)
        model = LLMModel(dimension=2, config=ModelConfig(quantization_coefficient=0.1))
        answers = []
        for _ in range(150):
            center = rng.uniform(0, 1, size=2)
            answer = float(np.sin(center[0]) + center[1])
            answers.append(answer)
            model.partial_fit(Query(center=center, radius=0.1), answer)
        lo, hi = min(answers), max(answers)
        margin = 0.5 * (hi - lo) + 0.1
        for _ in range(20):
            query = Query(center=rng.uniform(0, 1, size=2), radius=0.1)
            prediction = model.predict_mean(query)
            assert lo - margin <= prediction <= hi + margin


class TestBaselineInvariants:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_ols_residuals_orthogonal_to_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(60, 2))
        u = rng.normal(size=60)
        model = OLSRegressor().fit(x, u)
        residuals = model.residuals(x, u)
        # Normal equations: residuals are orthogonal to each column and sum to 0.
        assert abs(residuals.sum()) < 1e-6
        assert np.all(np.abs(x.T @ residuals) < 1e-6)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_plr_never_worse_than_constant_model(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(120, 1))
        u = np.sin(4 * x.ravel()) + rng.normal(0, 0.1, 120)
        model = MARSRegressor(max_basis_functions=6).fit(x, u)
        predictions = model.predict(x)
        ssr = np.sum((u - predictions) ** 2)
        tss = np.sum((u - u.mean()) ** 2)
        assert ssr <= tss * (1 + 1e-9)
