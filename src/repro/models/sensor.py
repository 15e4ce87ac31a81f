"""The parametric RFID sensor model (Section III-A, Eq. 1).

The paper models the probability of *not* reading a tag at distance ``d`` and
bearing ``theta`` as

    p(read = 0 | d, theta) = 1 / (1 + exp{ sum_c a_c d^c + sum_c b_c theta^c })

i.e. a logistic-regression model on the feature vector
``[1, d, d^2, theta, theta^2]``.  Equivalently (and how we implement it),

    p(read = 1 | d, theta) = sigmoid(a0 + a1 d + a2 d^2 + b1 theta + b2 theta^2)

The coefficients are learned from data (``repro.learning``); the same model
and coefficients are used for object tags and shelf tags.

The model's log-probabilities are the inner loop of every particle filter
weighting step, so everything here is vectorized over particle batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..geometry.vec import distances_and_bearings

#: Clip for logits before exponentiation: keeps probabilities in open (0, 1)
#: so log-weights stay finite even for absurd distances.
_LOGIT_CLIP = 35.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function."""
    # Clipped with the two ufuncs ``np.clip`` ends in.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -_LOGIT_CLIP), _LOGIT_CLIP)))


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) computed without overflow."""
    return -np.logaddexp(0.0, -np.minimum(np.maximum(x, -_LOGIT_CLIP), _LOGIT_CLIP))


def features(d: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Design matrix ``[1, d, d^2, theta, theta^2]`` (shape ``(n, 5)``)."""
    d = np.asarray(d, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.empty(d.shape + (5,))
    out[..., 0], out[..., 1], out[..., 3] = 1.0, d, theta
    np.multiply(out[..., 1::2], out[..., 1::2], out=out[..., 2::2])  # d^2, theta^2
    return out


@dataclass(frozen=True)
class SensorParams:
    """Coefficients of the logistic sensor model.

    ``a`` multiplies ``[1, d, d^2]`` and ``b`` multiplies ``[theta,
    theta^2]``; the paper expects the non-constant coefficients to be
    negative (read rate decays with distance and angle) but does not enforce
    it, and neither do we — learning finds whatever fits.
    """

    a: Tuple[float, float, float]
    b: Tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.a) != 3 or len(self.b) != 2:
            raise ConfigurationError("SensorParams needs 3 'a' and 2 'b' coefficients")
        values = list(self.a) + list(self.b)
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError(f"non-finite sensor coefficients {values}")

    @property
    def weights(self) -> np.ndarray:
        """Coefficients as the weight vector matching :func:`features`."""
        return np.array([self.a[0], self.a[1], self.a[2], self.b[0], self.b[1]])

    @staticmethod
    def from_weights(w: np.ndarray) -> "SensorParams":
        w = np.asarray(w, dtype=float)
        if w.shape != (5,):
            raise ConfigurationError(f"weight vector must have shape (5,), got {w.shape}")
        return SensorParams(a=(float(w[0]), float(w[1]), float(w[2])), b=(float(w[3]), float(w[4])))


#: A reasonable default: ~98% read rate at the reader, decaying to ~50% at
#: 1.8 ft on boresight, and to near zero outside a ~30 degree aperture.
DEFAULT_SENSOR_PARAMS = SensorParams(a=(4.0, 0.0, -1.2), b=(0.0, -9.0))


class SensorModel:
    """Evaluates read probabilities p(read | d, theta) and their logs.

    The public surface accepts either raw ``(d, theta)`` features or reader
    pose plus tag positions (computing the features per the paper's
    formulas).
    """

    def __init__(self, params: SensorParams = DEFAULT_SENSOR_PARAMS):
        self.params = params
        self._w = params.weights
        self._coefficients = (*params.a, *params.b)

    # ------------------------------------------------------------------
    # Feature-space interface
    # ------------------------------------------------------------------
    def logits(self, d, theta) -> np.ndarray:
        """Logit of the read probability for each (d, theta) pair."""
        return features(d, theta) @ self._w

    def read_probability(self, d, theta) -> np.ndarray:
        """p(read = 1 | d, theta)."""
        return sigmoid(self.logits(d, theta))

    def log_likelihood(self, d, theta, read) -> np.ndarray:
        """log p(read | d, theta) with ``read`` boolean (scalar or array).

        Uses log-sigmoid identities: log p(1) = log sigma(z) and
        log p(0) = log sigma(-z).
        """
        z = self.logits(d, theta)
        read_arr = np.broadcast_to(np.asarray(read, dtype=bool), z.shape)
        return np.where(read_arr, log_sigmoid(z), log_sigmoid(-z))

    def log_likelihood_rows(self, d, theta, read) -> np.ndarray:
        """Fused log p(read | d, theta) for large flat batches.

        Same model as :meth:`log_likelihood`, specialized for the inference
        hot path: the logit is evaluated in Horner form (no ``(n, 5)``
        design-matrix allocation) and the read/unread branch is folded into
        one ``logaddexp`` via ``log sigma(±z) = -log(1 + e^{∓z})``.
        ``read`` is a boolean mask broadcastable against ``d`` — per-row
        flags for a cross-object batch, per-column for a joint filter's
        particle-by-object grid or the shelf evidence's particle-by-tag one.
        """
        a0, a1, a2, b1, b2 = self._coefficients
        d = np.asarray(d, dtype=float)
        theta = np.asarray(theta, dtype=float)
        z = a0 + d * (a1 + a2 * d) + theta * (b1 + b2 * theta)
        np.minimum(np.maximum(z, -_LOGIT_CLIP, out=z), _LOGIT_CLIP, out=z)
        z *= np.where(read, -1.0, 1.0)
        return np.negative(np.logaddexp(0.0, z, out=z), out=z)

    # ------------------------------------------------------------------
    # Pose-space interface
    # ------------------------------------------------------------------
    def read_probability_at(
        self, reader_position, reader_heading: float, tag_positions
    ) -> np.ndarray:
        """p(read) for each tag position given a reader pose."""
        d, theta = distances_and_bearings(reader_position, reader_heading, tag_positions)
        return self.read_probability(d, theta)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def effective_range(
        self, probability: float = 0.05, theta: float = 0.0, cap: float = 25.0
    ) -> float:
        """Distance at which p(read) first drops below ``probability``.

        Used to size initialization cones and sensing-region bounding boxes.
        First-crossing semantics matter: the quadratic-in-distance logit is
        not constrained to be monotone, and models learned from
        manifold-limited data can have a spurious *rising* tail far beyond
        the training distances — the physical read range is where the rate
        first dies, not where the extrapolation resurrects it.  Returns 0
        if the model is below ``probability`` already at the reader, and
        ``cap`` if it never drops.
        """
        if not (0.0 < probability < 1.0):
            raise ConfigurationError("probability must be in (0, 1)")
        if float(self.read_probability(0.0, theta)) < probability:
            return 0.0
        step = 0.05
        grid = np.arange(step, cap + step, step)
        probs = self.read_probability(grid, np.full_like(grid, theta))
        below = np.flatnonzero(probs < probability)
        if below.size:
            d = float(grid[below[0]])
            # Refine the crossing inside (d - step, d) by bisection.
            lo, hi = d - step, d
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if float(self.read_probability(mid, theta)) >= probability:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        # Never crossed: if the field has an interior minimum (a spurious
        # rising tail from extrapolation), the physical range ends there.
        argmin = int(np.argmin(probs))
        if 0 < argmin < grid.size - 1:
            return float(grid[argmin])
        return cap

    def field_grid(
        self,
        extent_ft: float = 4.0,
        resolution: int = 41,
        heading: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample the read-rate field on a planar grid around the reader.

        Returns ``(xs, ys, probabilities)`` with the reader at the origin
        facing ``heading``.  This regenerates the sensor-model pictures of
        Fig 5(a)-(d) in numeric form.
        """
        xs = np.linspace(-extent_ft, extent_ft, resolution)
        ys = np.linspace(-extent_ft, extent_ft, resolution)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
        probs = self.read_probability_at(np.zeros(3), heading, pts)
        return xs, ys, probs.reshape(resolution, resolution)

    def __repr__(self) -> str:
        a, b = self.params.a, self.params.b
        return (
            f"SensorModel(a=({a[0]:.3f}, {a[1]:.3f}, {a[2]:.3f}), "
            f"b=({b[0]:.3f}, {b[1]:.3f}))"
        )


def field_correlation(model_a: SensorModel, model_b: SensorModel, extent_ft: float = 4.0, resolution: int = 41) -> float:
    """Pearson correlation between two models' read-rate fields.

    The paper compares learned sensor models to the true one visually
    (Fig 5a-5c); this statistic makes the comparison quantitative for the
    benchmark harness.  Returns 1.0 for identical fields.
    """
    _, _, fa = model_a.field_grid(extent_ft, resolution)
    _, _, fb = model_b.field_grid(extent_ft, resolution)
    va = fa.ravel() - fa.mean()
    vb = fb.ravel() - fb.mean()
    denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
    if denom == 0.0:
        return 0.0
    return float(va @ vb / denom)
