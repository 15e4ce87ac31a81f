"""Geometric primitives: points, boxes, cones and shelf regions.

This package is the lowest layer of the library; everything above it (the
probabilistic models, the spatial index, the simulator) speaks in terms of
these types.
"""

from .box import Box
from .cone import Cone
from .shapes import ShelfRegion, ShelfSet
from .vec import (
    as_point,
    as_points,
    bearing,
    bearings,
    distance,
    distances,
    distances_and_bearings,
    heading_vector,
    pairwise_distances_and_bearings,
    planar_distance,
    wrap_angle,
)

__all__ = [
    "Box",
    "Cone",
    "ShelfRegion",
    "ShelfSet",
    "as_point",
    "as_points",
    "bearing",
    "bearings",
    "distance",
    "distances",
    "distances_and_bearings",
    "heading_vector",
    "pairwise_distances_and_bearings",
    "planar_distance",
    "wrap_angle",
]
