"""Reader motion model (Section III-A).

"The new location is the old location plus a noisy version of the average
velocity":  ``R_t = R_{t-1} + Delta + eps`` with ``eps ~ N(0, Sigma_m)``
(diagonal).  The reader pose also carries a heading ``phi`` that performs a
small Gaussian random walk (plus optional scripted turns fed from the data —
e.g. the lab robot turning around at the end of a shelf); the paper folds
orientation into ``R_t``'s pose vector, and this keeps the treatment uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class MotionParams:
    """Parameters of the reader motion model.

    ``velocity`` is the average displacement per epoch (the paper's Delta);
    ``sigma`` the per-axis standard deviation of the motion noise (square
    root of the diagonal of Sigma_m); ``heading_sigma`` the heading random
    walk std-dev in radians.
    """

    velocity: Tuple[float, float, float] = (0.0, 0.1, 0.0)
    sigma: Tuple[float, float, float] = (0.01, 0.01, 0.0)
    heading_sigma: float = 0.01

    def __post_init__(self) -> None:
        if len(self.velocity) != 3 or len(self.sigma) != 3:
            raise ConfigurationError("velocity and sigma must be 3-vectors")
        if any(s < 0 for s in self.sigma) or self.heading_sigma < 0:
            raise ConfigurationError("noise std-devs must be non-negative")
        if not all(math.isfinite(v) for v in self.velocity):
            raise ConfigurationError(f"non-finite velocity {self.velocity}")

    @property
    def velocity_array(self) -> np.ndarray:
        return np.asarray(self.velocity, dtype=float)

    @property
    def sigma_array(self) -> np.ndarray:
        return np.asarray(self.sigma, dtype=float)


class ReaderMotionModel:
    """Samples and scores reader-pose transitions."""

    def __init__(self, params: MotionParams = MotionParams()):
        self.params = params
        self._velocity = params.velocity_array
        self._sigma = params.sigma_array

    def propagate(
        self,
        positions: np.ndarray,
        headings: np.ndarray,
        rng: np.random.Generator,
        velocity_override: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``R_t`` for a batch of particles from ``R_{t-1}``.

        ``velocity_override`` lets the proposal use per-step control input
        when available (e.g. the robot reports "turning now"); the paper's
        model uses the constant average velocity, which is the default.
        """
        n = positions.shape[0]
        velocity = (
            self._velocity
            if velocity_override is None
            else np.asarray(velocity_override, dtype=float)
        )
        noise = rng.normal(0.0, 1.0, size=(n, 3)) * self._sigma
        new_positions = positions + velocity + noise
        if self.params.heading_sigma > 0:
            new_headings = headings + rng.normal(0.0, self.params.heading_sigma, size=n)
        else:
            new_headings = headings.copy()
        # Vectorized wrap into (-pi, pi].
        new_headings = np.pi - np.mod(np.pi - new_headings, 2.0 * np.pi)
        return new_positions, new_headings
