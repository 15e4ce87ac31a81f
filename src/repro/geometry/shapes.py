"""Shelf regions and related planar shapes.

The paper's world is "a large storage area comprising shelves S and a set of
objects O".  A :class:`ShelfRegion` is the rectangular slab of space a shelf
occupies; the object location model relocates objects "uniformly across all
shelves", and the baselines sample object locations over the intersection of
the sensing region and the shelf, so shelves need uniform sampling and
point-membership tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import GeometryError
from .box import Box
from .vec import as_point


@dataclass(frozen=True)
class ShelfRegion:
    """A shelf: an id plus the box of space it occupies."""

    shelf_id: int
    box: Box

    def contains(self, point) -> bool:
        return self.box.contains_point(point)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.box.sample(rng, n)

    @property
    def center(self) -> np.ndarray:
        return self.box.center


class ShelfSet:
    """An ordered collection of shelves with area-weighted uniform sampling.

    "Uniform across all shelves" is interpreted as uniform over the union of
    the shelf regions: a shelf is chosen with probability proportional to its
    xy-area (shelves are flat in the simulated scenes) and a point is drawn
    uniformly inside it.
    """

    def __init__(self, shelves: Sequence[ShelfRegion]):
        if not shelves:
            raise GeometryError("ShelfSet requires at least one shelf")
        ids = [s.shelf_id for s in shelves]
        if len(set(ids)) != len(ids):
            raise GeometryError(f"duplicate shelf ids in {ids}")
        self._shelves: List[ShelfRegion] = list(shelves)
        areas = np.array([max(s.box.area_xy(), 1e-12) for s in shelves])
        self._weights = areas / areas.sum()

    def __len__(self) -> int:
        return len(self._shelves)

    def __iter__(self):
        return iter(self._shelves)

    def __getitem__(self, index: int) -> ShelfRegion:
        return self._shelves[index]

    def bounding_box(self) -> Box:
        out = self._shelves[0].box
        for shelf in self._shelves[1:]:
            out = out.union(shelf.box)
        return out

    def containing(self, point) -> Optional[ShelfRegion]:
        """The first shelf containing ``point``, or ``None``."""
        p = as_point(point)
        for shelf in self._shelves:
            if shelf.box.contains_point(p):
                return shelf
        return None

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Mask of which rows of ``points`` lie on any shelf."""
        pts = np.asarray(points, dtype=float)
        mask = np.zeros(pts.shape[0], dtype=bool)
        for shelf in self._shelves:
            mask |= shelf.box.contains_points(pts)
        return mask

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` points uniformly over the union of all shelves."""
        choice = rng.choice(len(self._shelves), size=n, p=self._weights)
        out = np.empty((n, 3))
        for idx in range(len(self._shelves)):
            mask = choice == idx
            count = int(mask.sum())
            if count:
                out[mask] = self._shelves[idx].sample(rng, count)
        return out

    def nearest_point_on_shelves(self, point) -> np.ndarray:
        """Project ``point`` onto the closest shelf box (used to snap
        estimates back onto physically-possible locations)."""
        p = as_point(point)
        best = None
        best_d = float("inf")
        for shelf in self._shelves:
            lo = np.asarray(shelf.box.lo)
            hi = np.asarray(shelf.box.hi)
            clamped = np.minimum(np.maximum(p, lo), hi)
            d = float(np.linalg.norm(clamped - p))
            if d < best_d:
                best_d = d
                best = clamped
        assert best is not None
        return best
