"""Tests for weighted IRLS logistic regression and field projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LearningError
from repro.learning.logistic import (
    field_of_truth_sensor,
    fit_logistic,
    fit_sensor_model,
    fit_sensor_to_field,
)
from repro.models.sensor import SensorModel, SensorParams, features
from repro.simulation.truth_sensor import ConeTruthSensor


class TestFitLogistic:
    def test_recovers_known_weights(self, rng):
        true_w = np.array([1.0, -2.0, 0.5])
        X = np.column_stack([np.ones(4000), rng.normal(size=(4000, 2))])
        p = 1 / (1 + np.exp(-X @ true_w))
        y = (rng.uniform(size=4000) < p).astype(float)
        fit = fit_logistic(X, y, ridge=1e-6)
        assert fit.weights == pytest.approx(true_w, abs=0.15)
        assert fit.converged

    def test_sample_weights_soft_labels(self, rng):
        # Duplicated soft-label examples must match hard-label Bernoulli fit.
        X = np.column_stack([np.ones(300), np.linspace(-2, 2, 300)])
        true_w = np.array([0.3, 1.7])
        p = 1 / (1 + np.exp(-X @ true_w))
        X_soft = np.vstack([X, X])
        y_soft = np.concatenate([np.ones(300), np.zeros(300)])
        w_soft = np.concatenate([p, 1 - p])
        fit = fit_logistic(X_soft, y_soft, sample_weights=w_soft, ridge=1e-8)
        assert fit.weights == pytest.approx(true_w, abs=0.05)

    def test_separable_data_bounded_by_ridge(self):
        X = np.column_stack([np.ones(20), np.concatenate([-np.ones(10), np.ones(10)])])
        y = np.concatenate([np.zeros(10), np.ones(10)])
        fit = fit_logistic(X, y, ridge=0.1)
        assert np.all(np.isfinite(fit.weights))
        assert np.abs(fit.weights).max() < 50

    def test_rejects_empty(self):
        with pytest.raises(LearningError):
            fit_logistic(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_bad_weights(self):
        X = np.ones((3, 1))
        y = np.ones(3)
        with pytest.raises(LearningError):
            fit_logistic(X, y, sample_weights=np.array([-1.0, 1.0, 1.0]))
        with pytest.raises(LearningError):
            fit_logistic(X, y, sample_weights=np.zeros(3))
        with pytest.raises(LearningError):
            fit_logistic(X, y, sample_weights=np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(LearningError):
            fit_logistic(np.zeros((3, 2)), np.zeros(4))


class TestFitSensorModel:
    def test_recovers_sensor_params(self, rng):
        true = SensorParams(a=(4.0, -0.5, -0.8), b=(-0.5, -4.0))
        model = SensorModel(true)
        d = rng.uniform(0, 4, size=6000)
        theta = rng.uniform(0, math.pi, size=6000)
        p = model.read_probability(d, theta)
        y = (rng.uniform(size=6000) < p).astype(float)
        fit = fit_sensor_model(d, theta, y, ridge=1e-6)
        learned = SensorModel(fit.sensor_params)
        # Compare predicted probabilities on a grid, not raw coefficients.
        dg = rng.uniform(0, 4, size=200)
        tg = rng.uniform(0, math.pi, size=200)
        assert learned.read_probability(dg, tg) == pytest.approx(
            model.read_probability(dg, tg), abs=0.08
        )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_fit_never_crashes_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        d = rng.uniform(0, 5, size=n)
        theta = rng.uniform(0, math.pi, size=n)
        y = rng.integers(0, 2, size=n).astype(float)
        fit = fit_sensor_model(d, theta, y)
        assert np.all(np.isfinite(fit.weights))


class TestFieldProjection:
    def test_cone_projection_matches_field_in_support(self):
        cone = ConeTruthSensor(rr_major=1.0, max_range=3.0)
        fit = fit_sensor_to_field(field_of_truth_sensor(cone), max_distance=4.5)
        model = SensorModel(fit.sensor_params)
        # High read rate on boresight inside range.
        assert float(model.read_probability(1.0, 0.0)) > 0.6
        # Low read rate far outside the aperture.
        assert float(model.read_probability(1.0, math.pi / 2)) < 0.3
        assert float(model.read_probability(1.0, math.pi)) < 0.3
        # Low read rate far beyond range.
        assert float(model.read_probability(6.0, 0.0)) < 0.2

    def test_projection_monotone_behind(self):
        # No rising tail behind the reader (the non-monotone-theta trap).
        cone = ConeTruthSensor()
        fit = fit_sensor_to_field(field_of_truth_sensor(cone), max_distance=4.5)
        model = SensorModel(fit.sensor_params)
        near_front = float(model.read_probability(0.5, 0.0))
        near_back = float(model.read_probability(0.5, math.pi))
        assert near_back < near_front
        assert near_back < 0.4


def reference_fit_logistic(
    X, y, sample_weights=None, ridge=1e-3, max_iter=100, tol=1e-8, initial_weights=None
):
    """``fit_logistic`` as it was when it re-evaluated the log-likelihood of
    the current and the accepted weights every iteration — kept verbatim as
    the oracle, plus a count of refused backtracking candidates."""
    from repro.learning.logistic import LogisticFitResult, weighted_log_likelihood
    from repro.models.sensor import sigmoid

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, k = X.shape
    if sample_weights is None:
        sw = np.ones(n)
    else:
        sw = np.asarray(sample_weights, dtype=float).ravel()
    sw = sw * (n / sw.sum())
    w = (
        np.zeros(k)
        if initial_weights is None
        else np.asarray(initial_weights, dtype=float).copy()
    )
    prev_ll = -np.inf
    converged = False
    iterations = 0
    backtracks = 0
    for iterations in range(1, max_iter + 1):
        z = np.clip(X @ w, -35.0, 35.0)
        p = sigmoid(z)
        r = np.maximum(p * (1.0 - p), 1e-10) * sw
        gradient = X.T @ (sw * (y - p)) - ridge * w
        hessian = (X * r[:, None]).T @ X + ridge * np.eye(k)
        step = np.linalg.solve(hessian, gradient)
        scale = 1.0
        ll = weighted_log_likelihood(w, X, y, sw) - 0.5 * ridge * float(w @ w)
        for _ in range(30):
            cand = w + scale * step
            cand_ll = weighted_log_likelihood(cand, X, y, sw) - 0.5 * ridge * float(
                cand @ cand
            )
            if cand_ll >= ll - 1e-12:
                break
            scale *= 0.5
            backtracks += 1
        w = w + scale * step
        new_ll = weighted_log_likelihood(w, X, y, sw) - 0.5 * ridge * float(w @ w)
        if abs(new_ll - prev_ll) < tol * (abs(prev_ll) + 1.0):
            converged = True
            prev_ll = new_ll
            break
        prev_ll = new_ll
    result = LogisticFitResult(
        weights=w,
        converged=converged,
        iterations=iterations,
        final_log_likelihood=float(weighted_log_likelihood(w, X, y, sw)),
    )
    return result, backtracks


def _irls_problem(name):
    """Fits that take the plain, the backtracking and the backtrack-exhausted
    path through the line search."""
    rng = np.random.default_rng(77)
    n = 600
    d = rng.uniform(0, 6, size=n)
    theta = rng.uniform(0, math.pi, size=n)
    X = features(d, theta)
    p = 1.0 / (1.0 + np.exp(-X @ np.array([2.0, -0.9, -0.05, -0.6, -0.3])))
    y = (rng.uniform(size=n) < p).astype(float)
    kwargs = {}
    if name == "weighted":
        kwargs = {"sample_weights": rng.uniform(0.0, 2.0, size=n), "ridge": 1e-2}
    elif name == "saturated-start":  # the Newton step overshoots: halvings
        kwargs = {"initial_weights": np.array([30.0, -20.0, 5.0, 10.0, -8.0])}
    elif name == "noise-labels":
        y = rng.integers(0, 2, size=n).astype(float)
        kwargs = {"initial_weights": np.array([-5.0, 4.0, -1.0, 3.0, 2.0]), "max_iter": 3}
    elif name == "exhausted":  # no halving of an uphill step is ever accepted
        X, y = np.array([[1.0], [1.0]]), np.array([1.0, 0.0])
        kwargs = {"ridge": -10.0, "initial_weights": np.array([1.0]), "max_iter": 2}
    return X, y, kwargs


IRLS_PROBLEMS = ["plain", "weighted", "saturated-start", "noise-labels", "exhausted"]


class TestIrlsEvaluatesEachLikelihoodOnce:
    @pytest.mark.parametrize("name", IRLS_PROBLEMS)
    def test_bitwise_equal_to_reference_within_call_budget(self, name, monkeypatch):
        from repro.learning import logistic

        X, y, kwargs = _irls_problem(name)
        want, backtracks = reference_fit_logistic(X, y, **kwargs)
        calls = []
        evaluate = logistic.weighted_log_likelihood

        def counting(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(logistic, "weighted_log_likelihood", counting)
        got = fit_logistic(X, y, **kwargs)
        np.testing.assert_array_equal(got.weights, want.weights)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.final_log_likelihood == want.final_log_likelihood
        assert len(calls) <= want.iterations + backtracks + 2

    def test_problems_cover_every_line_search_path(self):
        backtracks = {
            name: reference_fit_logistic(*_irls_problem(name)[:2], **_irls_problem(name)[2])[1]
            for name in IRLS_PROBLEMS
        }
        assert backtracks["plain"] == 0
        assert 0 < backtracks["noise-labels"] < 30  # accepted after some halvings
        assert backtracks["saturated-start"] > 0
        assert backtracks["exhausted"] == 30 * 2  # refused 30 times, both iterations
