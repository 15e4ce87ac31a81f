"""Tests for repro.geometry.box: AABB algebra used by the spatial index."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.box import Box


def box_strategy():
    coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
    return st.builds(
        lambda x1, y1, z1, dx, dy, dz: Box(
            (x1, y1, z1), (x1 + abs(dx), y1 + abs(dy), z1 + abs(dz))
        ),
        coord,
        coord,
        coord,
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
    )


class TestConstruction:
    def test_rejects_inverted(self):
        with pytest.raises(GeometryError):
            Box((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))

    def test_around(self):
        b = Box.around((1, 1, 0), 0.5)
        assert b.lo == (0.5, 0.5, -0.5)
        assert b.hi == (1.5, 1.5, 0.5)

    def test_around_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            Box.around((0, 0, 0), -1.0)


class TestPredicates:
    def test_contains_point_boundary(self):
        b = Box((0, 0, 0), (1, 1, 1))
        assert b.contains_point((0, 0, 0))
        assert b.contains_point((1, 1, 1))
        assert not b.contains_point((1.0001, 0.5, 0.5))

    def test_contains_points_mask(self):
        b = Box((0, 0, 0), (1, 1, 0))
        pts = np.array([[0.5, 0.5, 0.0], [2.0, 0.5, 0.0], [0.5, 0.5, 0.1]])
        assert b.contains_points(pts).tolist() == [True, False, False]

    def test_intersects_touching(self):
        a = Box((0, 0, 0), (1, 1, 1))
        b = Box((1, 0, 0), (2, 1, 1))
        assert a.intersects(b)  # closed boxes share a face

    def test_disjoint(self):
        a = Box((0, 0, 0), (1, 1, 1))
        b = Box((2, 2, 2), (3, 3, 3))
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_contains_box(self):
        outer = Box((0, 0, 0), (10, 10, 10))
        inner = Box((1, 1, 1), (2, 2, 2))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)


class TestCombinators:
    def test_union(self):
        a = Box((0, 0, 0), (1, 1, 0))
        b = Box((2, -1, 0), (3, 0.5, 0))
        u = a.union(b)
        assert u.lo == (0.0, -1.0, 0.0)
        assert u.hi == (3.0, 1.0, 0.0)

    def test_intersection_value(self):
        a = Box((0, 0, 0), (2, 2, 0))
        b = Box((1, 1, 0), (3, 3, 0))
        inter = a.intersection(b)
        assert inter is not None
        assert inter.lo == (1.0, 1.0, 0.0)
        assert inter.hi == (2.0, 2.0, 0.0)

    def test_expanded(self):
        b = Box((0, 0, 0), (1, 1, 1)).expanded(0.5)
        assert b.lo == (-0.5, -0.5, -0.5)
        assert b.hi == (1.5, 1.5, 1.5)


class TestMeasures:
    def test_volume_and_area(self):
        b = Box((0, 0, 0), (2, 3, 4))
        assert b.volume() == pytest.approx(24.0)
        assert b.area_xy() == pytest.approx(6.0)


class TestSampling:
    def test_samples_inside(self, rng):
        b = Box((0, -1, 0), (2, 1, 0))
        pts = b.sample(rng, 200)
        assert pts.shape == (200, 3)
        assert b.contains_points(pts).all()


class TestProperties:
    @given(box_strategy(), box_strategy())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_box(a)
        assert u.contains_box(b)

    @given(box_strategy(), box_strategy())
    def test_intersection_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        ia = a.intersection(b)
        ib = b.intersection(a)
        assert (ia is None) == (ib is None)
        if ia is not None:
            assert ia.lo == ib.lo and ia.hi == ib.hi

    @given(box_strategy(), box_strategy())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_box(inter)
            assert b.contains_box(inter)

    @given(box_strategy())
    def test_expansion_monotone(self, b):
        assert b.expanded(1.0).contains_box(b)
