"""Reader location sensing model (Section III-A).

The positioning system (ultrasound, indoor GPS, or a robot's dead reckoning)
reports ``R̂_t = R_t + eta`` with ``eta ~ N(mu_s, Sigma_s)`` (diagonal).  A
non-zero ``mu_s`` captures *systematic* error — the paper's robot "drifted
significantly away from the reported location" along the scan axis, which is
exactly the Fig 5(g) experiment — while ``Sigma_s`` captures the random
jitter.  The paper argues a richer noise model is unnecessary because shelf
tags correct residual location error during inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SensingNoiseParams:
    """Mean and per-axis std-dev of the location-sensing noise."""

    mean: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma: Tuple[float, float, float] = (0.01, 0.01, 0.0)

    def __post_init__(self) -> None:
        if len(self.mean) != 3 or len(self.sigma) != 3:
            raise ConfigurationError("mean and sigma must be 3-vectors")
        if any(s < 0 for s in self.sigma):
            raise ConfigurationError("sigma components must be non-negative")
        if not all(math.isfinite(v) for v in self.mean):
            raise ConfigurationError(f"non-finite mean {self.mean}")

    @property
    def mean_array(self) -> np.ndarray:
        return np.asarray(self.mean, dtype=float)

    @property
    def sigma_array(self) -> np.ndarray:
        return np.asarray(self.sigma, dtype=float)


class LocationSensingModel:
    """Scores reported locations against true-location hypotheses."""

    #: Std-dev substituted for exactly-zero axes when scoring, so that a
    #: deterministic axis does not produce infinite log-densities under
    #: floating-point jitter.
    _MIN_SIGMA = 1e-6

    def __init__(self, params: SensingNoiseParams = SensingNoiseParams()):
        self.params = params
        self._mean = params.mean_array
        self._sigma = np.maximum(params.sigma_array, self._MIN_SIGMA)
        self._log_norm = -np.log(self._sigma * math.sqrt(2.0 * math.pi))
        self._zero_axes = [i for i, s in enumerate(params.sigma) if s < self._MIN_SIGMA]

    def observe(self, true_position: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample a reported location for a true position (generative use)."""
        noise = rng.normal(0.0, 1.0, size=3) * self.params.sigma_array
        return np.asarray(true_position, dtype=float) + self.params.mean_array + noise

    def log_likelihood(
        self, reported: np.ndarray, true_positions: np.ndarray
    ) -> np.ndarray:
        """log p(R̂ | R) for a batch of true-position hypotheses.

        ``reported`` is the single reported location for the epoch;
        ``true_positions`` an ``(n, 3)`` batch of reader-particle positions.
        """
        residual = np.asarray(reported, dtype=float) - true_positions - self._mean
        z = residual / self._sigma
        per_axis = -0.5 * z * z + self._log_norm
        # Degenerate-z scenes: ignore axes where both sigma is ~0 and the
        # residual is ~0, otherwise they dominate with huge z-scores.
        for axis in self._zero_axes:
            if np.maximum.reduce(np.abs(residual[:, axis])) < 1e-9:
                per_axis[:, axis] = 0.0
        return np.add.reduce(per_axis, axis=1)
