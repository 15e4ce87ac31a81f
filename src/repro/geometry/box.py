"""Axis-aligned bounding boxes.

Boxes are the currency of the spatial index (Section IV-C of the paper): every
epoch the filter builds a bounding box of the reader's sensing region, records
it in the sensing-region table, and probes the table with the current region's
box to find past regions that overlap it.

The implementation is 3-D; the paper's simulator produces degenerate-z boxes
(``lo.z == hi.z == 0``), which all operations handle (a flat box still has
well-defined intersection and containment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import GeometryError
from .vec import as_point, as_points


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box ``[lo, hi]`` in 3-D.

    Immutable so boxes can be shared freely without defensive copies.
    """

    lo: Tuple[float, float, float]
    hi: Tuple[float, float, float]

    def __post_init__(self) -> None:
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise GeometryError(f"box lo {self.lo} exceeds hi {self.hi}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(lo, hi) -> "Box":
        """Build a box from any 2/3-element sequences."""
        lo3 = as_point(lo)
        hi3 = as_point(hi)
        return Box(tuple(float(v) for v in lo3), tuple(float(v) for v in hi3))

    @staticmethod
    def around(center, radius: float) -> "Box":
        """Cube of half-width ``radius`` centred at ``center``."""
        if radius < 0:
            raise GeometryError(f"negative radius {radius}")
        c = as_point(center)
        return Box.from_arrays(c - radius, c + radius)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def extents(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def volume(self) -> float:
        """Product of extents.  Degenerate axes contribute factor 0."""
        e = self.extents
        return float(e[0] * e[1] * e[2])

    def area_xy(self) -> float:
        """Area of the xy-projection (useful in the paper's 2-D scenes)."""
        e = self.extents
        return float(e[0] * e[1])

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point) -> bool:
        p = as_point(point)
        return bool(
            all(l <= v <= h for l, v, h in zip(self.lo, p, self.hi))
        )

    def contains_points(self, points) -> np.ndarray:
        """Boolean mask of which rows of ``points`` fall inside the box."""
        pts = as_points(points)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.logical_and.reduce((pts >= lo) & (pts <= hi), axis=1)

    def contains_box(self, other: "Box") -> bool:
        return bool(
            all(sl <= ol for sl, ol in zip(self.lo, other.lo))
            and all(oh <= sh for oh, sh in zip(other.hi, self.hi))
        )

    def intersects(self, other: "Box") -> bool:
        return bool(
            all(sl <= oh for sl, oh in zip(self.lo, other.hi))
            and all(ol <= sh for ol, sh in zip(other.lo, self.hi))
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def union(self, other: "Box") -> "Box":
        return Box(
            tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(max(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def intersection(self, other: "Box") -> Optional["Box"]:
        """Overlap box, or ``None`` when the boxes are disjoint."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def expanded(self, amount: float) -> "Box":
        """Box grown by ``amount`` on every side (clamped to stay valid)."""
        lo = tuple(l - amount for l in self.lo)
        hi = tuple(h + amount for h in self.hi)
        lo = tuple(min(l, h) for l, h in zip(lo, hi))
        return Box(lo, hi)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` points uniformly from the box (``(n, 3)``)."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return rng.uniform(lo, hi, size=(n, 3))

