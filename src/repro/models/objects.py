"""Object location model (Section III-A).

"Objects in a warehouse are assumed to be stationary but can occasionally
change locations; the object location can change with a probability alpha at
each time t, in which case the new location is distributed uniformly across
all shelves."

The model is deliberately uninformative about where a moved object went — the
particle filter recovers the destination from subsequent readings.  During
proposal sampling each particle independently either stays (optionally with a
small jitter, default zero, matching the paper) or teleports to a uniform
shelf location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..geometry.shapes import ShelfSet


@dataclass(frozen=True)
class ObjectDynamicsParams:
    """Parameters of the object location model.

    ``move_probability`` is the paper's alpha.  The default matches the
    paper's movement workload (one relocation per ~1600 s, Section V-B):
    alpha much larger than the true movement rate makes unobserved beliefs
    diffuse toward the uniform-over-shelves distribution, inflating the mean
    estimate's error long after an object leaves the read range.
    ``stationary_jitter`` adds an optional small Gaussian diffusion to
    "stationary" particles, which helps particle diversity after many
    resampling steps (0 disables it and is the paper-faithful default).
    """

    move_probability: float = 0.0006
    stationary_jitter: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.move_probability <= 1.0):
            raise ConfigurationError("move_probability must be in [0, 1]")
        if self.stationary_jitter < 0:
            raise ConfigurationError("stationary_jitter must be >= 0")


class ObjectLocationModel:
    """Samples object-location transitions p(O_t | O_{t-1})."""

    def __init__(
        self,
        shelves: ShelfSet,
        params: ObjectDynamicsParams = ObjectDynamicsParams(),
    ):
        self.shelves = shelves
        self.params = params

    def propagate(
        self, positions: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample next locations for an ``(n, 3)`` batch of particles."""
        return self.propagate_many(positions, rng, in_place=False)

    def propagate_many(
        self,
        positions: np.ndarray,
        rng: np.random.Generator,
        in_place: bool = False,
    ) -> np.ndarray:
        """Batched transition over a flat ``(n, 3)`` particle slab.

        The transition is i.i.d. per particle, so a slab concatenating many
        objects' clouds (the belief arena's layout) propagates in one
        vectorized pass — this is the fused kernel behind the filters' "one
        propagate call per epoch".  With ``in_place=True`` the slab is
        mutated and returned (no copy), which is safe on gathered batches
        and on reshaped views of a filter's own state.
        """
        n = positions.shape[0]
        out = positions if in_place else positions.copy()
        if n == 0:
            return out
        alpha = self.params.move_probability
        if alpha > 0.0:
            moves = rng.uniform(size=n) < alpha
            count = int(np.add.reduce(moves))
            if count:
                out[moves] = self.shelves.sample_uniform(rng, count)
        jitter = self.params.stationary_jitter
        if jitter > 0.0:
            stay = ~moves if alpha > 0.0 else np.ones(n, dtype=bool)
            idx = np.flatnonzero(stay)
            if idx.size:
                noise = rng.normal(0.0, jitter, size=(idx.size, 3))
                noise[:, 2] = 0.0  # stay on the shelf plane
                out[idx] += noise
        return out

    def initial_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Prior over object locations: uniform over all shelves
        (Section III-B: "Sample initial object locations O_1 from a uniform
        distribution over the shelf")."""
        return self.shelves.sample_uniform(rng, n)
