"""Tests for the reader motion model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.motion import MotionParams, ReaderMotionModel


class TestMotionParams:
    def test_defaults_valid(self):
        params = MotionParams()
        assert params.velocity_array.tolist() == [0.0, 0.1, 0.0]

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigurationError):
            MotionParams(sigma=(-0.1, 0.0, 0.0))

    def test_rejects_nonfinite_velocity(self):
        with pytest.raises(ConfigurationError):
            MotionParams(velocity=(float("inf"), 0.0, 0.0))


class TestPropagate:
    def test_mean_displacement_matches_velocity(self, rng):
        model = ReaderMotionModel(MotionParams(velocity=(0.0, 0.1, 0.0), sigma=(0.01, 0.01, 0.0)))
        positions = np.zeros((5000, 3))
        headings = np.zeros(5000)
        new_positions, _ = model.propagate(positions, headings, rng)
        delta = new_positions.mean(axis=0)
        assert delta[1] == pytest.approx(0.1, abs=0.002)
        assert delta[0] == pytest.approx(0.0, abs=0.002)
        assert new_positions[:, 2].std() == 0.0  # z noise disabled

    def test_noise_scale(self, rng):
        model = ReaderMotionModel(MotionParams(velocity=(0, 0, 0), sigma=(0.05, 0.2, 0.0)))
        new_positions, _ = model.propagate(np.zeros((8000, 3)), np.zeros(8000), rng)
        assert new_positions[:, 0].std() == pytest.approx(0.05, rel=0.1)
        assert new_positions[:, 1].std() == pytest.approx(0.2, rel=0.1)

    def test_velocity_override(self, rng):
        model = ReaderMotionModel(MotionParams(velocity=(0.0, 0.1, 0.0), sigma=(0.0, 0.0, 0.0)))
        new_positions, _ = model.propagate(
            np.zeros((3, 3)), np.zeros(3), rng, velocity_override=np.array([1.0, 0.0, 0.0])
        )
        assert new_positions[:, 0].tolist() == pytest.approx([1.0, 1.0, 1.0])

    def test_headings_wrap(self, rng):
        model = ReaderMotionModel(MotionParams(heading_sigma=0.5))
        headings = np.full(1000, 3.1)
        _, new_headings = model.propagate(np.zeros((1000, 3)), headings, rng)
        assert (new_headings <= np.pi).all()
        assert (new_headings > -np.pi).all()

    def test_zero_heading_sigma_keeps_headings(self, rng):
        model = ReaderMotionModel(MotionParams(heading_sigma=0.0))
        headings = np.array([0.5, -0.5])
        _, new_headings = model.propagate(np.zeros((2, 3)), headings, rng)
        assert new_headings.tolist() == pytest.approx([0.5, -0.5])
