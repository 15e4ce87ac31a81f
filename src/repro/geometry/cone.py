"""Sensing cones.

Two places in the paper need an explicit cone:

* the simulator's ground-truth sensor field has a conical major detection
  range (Section V-A: a 30 degree open angle at uniform read rate plus a
  15 degree decaying fringe), and
* particle initialization draws new object particles "from a uniform
  distribution over a cone originating at the reader location" whose width
  is "an overestimate of the true range of the reader" (Section IV-A).

A :class:`Cone` is an apex position, a heading ``phi`` in the xy-plane, a
half-angle, and a maximum range.  All geometry is planar (bearings are
measured in the xy-plane, matching the paper's angle formula) while points
retain their z coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GeometryError
from .box import Box
from .vec import as_point, distances_and_bearings


@dataclass(frozen=True)
class Cone:
    """Planar sensing cone: apex, heading, half-angle (rad), max range."""

    apex: Tuple[float, float, float]
    phi: float
    half_angle: float
    max_range: float

    def __post_init__(self) -> None:
        if not (0.0 < self.half_angle <= math.pi):
            raise GeometryError(f"half_angle {self.half_angle} outside (0, pi]")
        if self.max_range <= 0.0:
            raise GeometryError(f"max_range {self.max_range} must be positive")

    @staticmethod
    def from_pose(position, phi: float, half_angle: float, max_range: float) -> "Cone":
        p = as_point(position)
        return Cone(tuple(float(v) for v in p), float(phi), half_angle, max_range)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, points) -> np.ndarray:
        """Mask of points within range and within the angular aperture."""
        d, theta = distances_and_bearings(np.asarray(self.apex), self.phi, points)
        return (d <= self.max_range) & (theta <= self.half_angle)

    def bounding_box(self) -> Box:
        """Tight axis-aligned box around the cone's planar footprint.

        The footprint is the apex plus the circular-sector arc; its extrema
        occur at the sector's two edge endpoints and at any axis-aligned
        tangent direction (0, 90, 180, 270 degrees) inside the aperture.
        """
        apex = np.asarray(self.apex)
        angles = [self.phi - self.half_angle, self.phi + self.half_angle]
        for cardinal in (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi):
            # Angle differences are compared on the circle.
            diff = math.atan2(
                math.sin(cardinal - self.phi), math.cos(cardinal - self.phi)
            )
            if abs(diff) <= self.half_angle:
                angles.append(cardinal)
        xs = [apex[0]] + [apex[0] + self.max_range * math.cos(a) for a in angles]
        ys = [apex[1]] + [apex[1] + self.max_range * math.sin(a) for a in angles]
        lo = (min(xs), min(ys), apex[2])
        hi = (max(xs), max(ys), apex[2])
        return Box(lo, hi)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` points uniformly over the cone's planar sector.

        Uniform over *area*: radius is drawn proportional to sqrt(u) so that
        annuli receive probability proportional to their area, and bearing is
        uniform across the aperture.  z is the apex's z (the paper's scenes
        are planar).
        """
        u = rng.uniform(0.0, 1.0, size=n)
        r = self.max_range * np.sqrt(u)
        a = rng.uniform(self.phi - self.half_angle, self.phi + self.half_angle, size=n)
        apex = np.asarray(self.apex)
        pts = np.empty((n, 3))
        pts[:, 0] = apex[0] + r * np.cos(a)
        pts[:, 1] = apex[1] + r * np.sin(a)
        pts[:, 2] = apex[2]
        return pts
