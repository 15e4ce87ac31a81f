"""Tests for repro.geometry.shapes: shelves and shelf sets."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet


class TestShelfSetConstruction:
    def test_requires_shelves(self):
        with pytest.raises(GeometryError):
            ShelfSet([])

    def test_rejects_duplicate_ids(self):
        box = Box((0, 0, 0), (1, 1, 0))
        with pytest.raises(GeometryError):
            ShelfSet([ShelfRegion(0, box), ShelfRegion(0, box)])

    def test_len_iter_getitem(self, two_shelves):
        assert len(two_shelves) == 2
        assert [s.shelf_id for s in two_shelves] == [0, 1]
        assert two_shelves[0].shelf_id == 0


class TestMembership:
    def test_containing(self, two_shelves):
        assert two_shelves.containing((2.5, 4.0, 0.0)).shelf_id == 0
        assert two_shelves.containing((-2.5, 4.0, 0.0)).shelf_id == 1
        assert two_shelves.containing((0.0, 4.0, 0.0)) is None

    def test_contains_points_mask(self, two_shelves):
        pts = np.array(
            [[2.5, 1.0, 0.0], [-2.5, 1.0, 0.0], [0.0, 1.0, 0.0], [2.5, 9.0, 0.0]]
        )
        assert two_shelves.contains_points(pts).tolist() == [True, True, False, False]


class TestSampling:
    def test_samples_on_shelves(self, two_shelves, rng):
        pts = two_shelves.sample_uniform(rng, 500)
        assert two_shelves.contains_points(pts).all()

    def test_area_weighting(self, rng):
        # A shelf with 3x the area should receive ~3x the samples.
        shelves = ShelfSet(
            [
                ShelfRegion(0, Box((0, 0, 0), (1, 3, 0))),
                ShelfRegion(1, Box((5, 0, 0), (6, 1, 0))),
            ]
        )
        pts = shelves.sample_uniform(rng, 6000)
        on_big = (pts[:, 0] <= 1.0).mean()
        assert on_big == pytest.approx(0.75, abs=0.03)

    def test_uniform_within_shelf(self, single_shelf, rng):
        pts = single_shelf.sample_uniform(rng, 5000)
        # y uniform over [0, 8]: mean ~4, std ~8/sqrt(12).
        assert pts[:, 1].mean() == pytest.approx(4.0, abs=0.15)
        assert pts[:, 1].std() == pytest.approx(8 / np.sqrt(12), abs=0.15)


class TestGeometryHelpers:
    def test_bounding_box(self, two_shelves):
        box = two_shelves.bounding_box()
        assert box.lo == (-3.0, 0.0, 0.0)
        assert box.hi == (3.0, 8.0, 0.0)

    def test_nearest_point_inside_is_identity(self, single_shelf):
        p = np.array([2.5, 4.0, 0.0])
        assert single_shelf.nearest_point_on_shelves(p).tolist() == p.tolist()

    def test_nearest_point_projects(self, two_shelves):
        p = np.array([1.0, 4.0, 0.0])  # in the aisle, closer to shelf 0
        nearest = two_shelves.nearest_point_on_shelves(p)
        assert nearest.tolist() == [2.0, 4.0, 0.0]

    def test_shelf_region_center(self, single_shelf):
        assert single_shelf[0].center.tolist() == [2.5, 4.0, 0.0]
