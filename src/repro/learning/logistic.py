"""Weighted logistic regression via IRLS (Section III-C's M-step core).

The sensor model (Eq. 1) is "the logistic regression model, which is a
standard technique for probabilistic binary classification"; calibration
reduces to fitting its five coefficients from (distance, angle, read?)
examples.  We implement iteratively-reweighted least squares with an L2
ridge: the ridge keeps the Hessian well-conditioned when the training trace
only exercises a narrow feature range (e.g. few shelf tags -> few distinct
distances), which is precisely the paper's small-training-set regime.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import LearningError
from ..models.sensor import SensorParams, features, sigmoid


@dataclass(frozen=True)
class LogisticFitResult:
    """Outcome of an IRLS fit."""

    weights: np.ndarray  # (5,) coefficient vector
    converged: bool
    iterations: int
    final_log_likelihood: float

    @property
    def sensor_params(self) -> SensorParams:
        return SensorParams.from_weights(self.weights)


def weighted_log_likelihood(
    weights: np.ndarray, X: np.ndarray, y: np.ndarray, sample_weights: np.ndarray
) -> float:
    """Weighted Bernoulli log-likelihood (no ridge term)."""
    z = np.clip(X @ weights, -35.0, 35.0)
    # log p(y) = y * log(sigma(z)) + (1-y) * log(sigma(-z))
    ll = y * -np.logaddexp(0.0, -z) + (1.0 - y) * -np.logaddexp(0.0, z)
    return float((sample_weights * ll).sum())


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    sample_weights: Optional[np.ndarray] = None,
    ridge: float = 1e-3,
    max_iter: int = 100,
    tol: float = 1e-8,
    initial_weights: Optional[np.ndarray] = None,
) -> LogisticFitResult:
    """Fit ``p(y=1|x) = sigmoid(x @ w)`` by ridge-regularized IRLS.

    Parameters
    ----------
    X:
        Design matrix ``(n, k)``.
    y:
        Binary labels ``(n,)`` in {0, 1} (floats accepted).
    sample_weights:
        Non-negative per-example weights (posterior weights from the E-step).
    ridge:
        L2 penalty ``ridge * ||w||^2 / 2`` added to the negative
        log-likelihood (the intercept is penalized too; with standardized-ish
        RFID features this is harmless and keeps the code simple).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise LearningError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if X.shape[0] == 0:
        raise LearningError("cannot fit logistic regression on zero examples")
    n, k = X.shape
    if sample_weights is None:
        sw = np.ones(n)
    else:
        sw = np.asarray(sample_weights, dtype=float).ravel()
        if sw.shape != (n,):
            raise LearningError(f"sample_weights shape {sw.shape} != ({n},)")
        if (sw < 0).any():
            raise LearningError("sample_weights must be non-negative")
        if sw.sum() <= 0:
            raise LearningError("sample_weights sum to zero")
    # Normalizing example weights to mean 1 keeps the ridge's relative
    # strength independent of how many posterior samples the E-step drew.
    sw = sw * (n / sw.sum())

    w = (
        np.zeros(k)
        if initial_weights is None
        else np.asarray(initial_weights, dtype=float).copy()
    )
    # Each candidate's log-likelihood is evaluated once and carried: ``raw``
    # is the accepted ``w``'s, ``ll`` its ridge-penalized value.
    raw = weighted_log_likelihood(w, X, y, sw)
    ll = raw - 0.5 * ridge * float(w @ w)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z = np.clip(X @ w, -35.0, 35.0)
        p = sigmoid(z)
        # IRLS working weights; floor keeps the system solvable when the
        # model saturates (p near 0/1).
        r = np.maximum(p * (1.0 - p), 1e-10) * sw
        gradient = X.T @ (sw * (y - p)) - ridge * w
        hessian = (X * r[:, None]).T @ X + ridge * np.eye(k)
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError as exc:
            raise LearningError("singular IRLS system") from exc
        # Backtracking keeps IRLS monotone on nasty posteriors; when all 30
        # halvings are refused the next, untried, one is taken regardless.
        scale = 1.0
        for attempt in range(31):
            w_new = w + scale * step
            raw = weighted_log_likelihood(w_new, X, y, sw)
            new_ll = raw - 0.5 * ridge * float(w_new @ w_new)
            if new_ll >= ll - 1e-12 or attempt == 30:
                break
            scale *= 0.5
        # The first step has no previous step's objective to compare with.
        converged = iterations > 1 and abs(new_ll - ll) < tol * (abs(ll) + 1.0)
        w, ll = w_new, new_ll
        if converged:
            break
    return LogisticFitResult(
        weights=w, converged=converged, iterations=iterations, final_log_likelihood=raw
    )


def fit_sensor_model(
    d: np.ndarray,
    theta: np.ndarray,
    read: np.ndarray,
    sample_weights: Optional[np.ndarray] = None,
    ridge: float = 1e-3,
    initial: Optional[SensorParams] = None,
) -> LogisticFitResult:
    """Fit :class:`~repro.models.sensor.SensorParams` from labelled examples.

    ``d``/``theta``/``read`` are parallel arrays of distances, bearings and
    binary read outcomes; the design matrix is the sensor model's
    ``[1, d, d^2, theta, theta^2]``.
    """
    X = features(np.asarray(d, dtype=float), np.asarray(theta, dtype=float))
    init = initial.weights if initial is not None else None
    return fit_logistic(
        X,
        np.asarray(read, dtype=float),
        sample_weights=sample_weights,
        ridge=ridge,
        initial_weights=init,
    )


def fit_sensor_to_field(
    read_probability,
    max_distance: float,
    max_angle: float = math.pi,
    grid: int = 30,
    ridge: float = 1e-4,
) -> LogisticFitResult:
    """Best logistic approximation of an arbitrary read-rate field.

    ``read_probability(d, theta)`` returns the field's read rate.  Each grid
    point contributes a soft pair of examples (read weighted by p, not-read
    by 1-p), so IRLS converges to the KL projection of the field onto the
    logistic family.  This is how the "true sensor model" curves of the
    paper's Fig 5(e) are realized here: the simulator's cone field is not
    itself logistic, so the best-in-family projection plays the role of the
    true model during inference.

    The angle grid must span the full bearing range (default pi): the
    quadratic-in-theta logit is non-monotone, and a fit that never sees
    "no reads behind the reader" can extrapolate a *rising* read rate at
    large angles, which wrecks negative evidence during inference.
    """
    ds = np.linspace(0.0, max_distance, grid)
    thetas = np.linspace(0.0, max_angle, grid)
    dd, tt = np.meshgrid(ds, thetas, indexing="ij")
    d_flat = dd.ravel()
    t_flat = tt.ravel()
    p = np.asarray(
        [float(read_probability(d, t)) for d, t in zip(d_flat, t_flat)]
    )
    p = np.clip(p, 0.0, 1.0)
    d_all = np.concatenate([d_flat, d_flat])
    t_all = np.concatenate([t_flat, t_flat])
    y_all = np.concatenate([np.ones_like(p), np.zeros_like(p)])
    w_all = np.concatenate([p, 1.0 - p])
    keep = w_all > 1e-9
    return fit_sensor_model(
        d_all[keep], t_all[keep], y_all[keep], sample_weights=w_all[keep], ridge=ridge
    )


def field_of_truth_sensor(truth_sensor) -> "Callable[[float, float], float]":
    """Adapt a simulator :class:`TruthSensor` into a ``(d, theta) -> p``
    function for :func:`fit_sensor_to_field`."""

    def field(d: float, theta: float) -> float:
        tag = np.array([[d * math.cos(theta), d * math.sin(theta), 0.0]])
        return float(
            truth_sensor.read_probability(np.zeros(3), 0.0, tag)[0]
        )

    return field
