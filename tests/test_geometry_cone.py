"""Tests for repro.geometry.cone: the sensing/initialization cone."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.cone import Cone


@pytest.fixture
def forward_cone():
    """Apex at origin, facing +x, 30 degree half-angle, range 3."""
    return Cone((0.0, 0.0, 0.0), 0.0, math.radians(30), 3.0)


class TestValidation:
    def test_rejects_bad_half_angle(self):
        with pytest.raises(GeometryError):
            Cone((0, 0, 0), 0.0, 0.0, 1.0)
        with pytest.raises(GeometryError):
            Cone((0, 0, 0), 0.0, 4.0, 1.0)

    def test_rejects_bad_range(self):
        with pytest.raises(GeometryError):
            Cone((0, 0, 0), 0.0, 0.5, 0.0)


class TestContains(object):
    def test_contains_boresight_points(self, forward_cone):
        pts = np.array([[1, 0, 0], [2.9, 0, 0]])
        assert forward_cone.contains(pts).all()

    def test_excludes_beyond_range(self, forward_cone):
        assert not forward_cone.contains(np.array([[3.5, 0, 0]]))[0]

    def test_excludes_outside_aperture(self, forward_cone):
        # 45 degrees off axis > 30 degree half-angle.
        assert not forward_cone.contains(np.array([[1.0, 1.0, 0.0]]))[0]

    def test_includes_edge_of_aperture(self, forward_cone):
        theta = math.radians(29.9)
        p = np.array([[2 * math.cos(theta), 2 * math.sin(theta), 0.0]])
        assert forward_cone.contains(p)[0]

    def test_heading_rotation(self):
        cone = Cone((0, 0, 0), math.pi / 2, math.radians(30), 3.0)
        assert cone.contains(np.array([[0, 2, 0]]))[0]
        assert not cone.contains(np.array([[2, 0, 0]]))[0]


class TestBoundingBox:
    def test_box_contains_all_samples(self, forward_cone, rng):
        box = forward_cone.bounding_box()
        pts = forward_cone.sample(rng, 500)
        assert box.contains_points(pts).all()

    def test_box_tight_for_forward_cone(self, forward_cone):
        box = forward_cone.bounding_box()
        # Forward cone: x spans [0, 3], y spans +/- 3*sin(30).
        assert box.lo[0] == pytest.approx(0.0)
        assert box.hi[0] == pytest.approx(3.0)
        assert box.hi[1] == pytest.approx(3.0 * math.sin(math.radians(30)))

    def test_box_for_backward_cone_includes_cardinal(self):
        cone = Cone((0, 0, 0), math.pi, math.radians(40), 2.0)
        box = cone.bounding_box()
        # The -x cardinal direction is inside the aperture.
        assert box.lo[0] == pytest.approx(-2.0)


class TestSampling:
    def test_samples_inside_cone(self, forward_cone, rng):
        pts = forward_cone.sample(rng, 400)
        assert forward_cone.contains(pts).all()

    def test_area_uniformity(self, forward_cone, rng):
        # Uniform-over-area: P(r <= R/2) should be ~1/4.
        pts = forward_cone.sample(rng, 4000)
        r = np.linalg.norm(pts[:, :2], axis=1)
        frac = (r <= 1.5).mean()
        assert frac == pytest.approx(0.25, abs=0.03)
