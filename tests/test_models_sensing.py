"""Tests for the reader location sensing model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.sensing import LocationSensingModel, SensingNoiseParams


class TestParams:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigurationError):
            SensingNoiseParams(sigma=(0.1, -0.1, 0.0))

    def test_rejects_nonfinite_mean(self):
        with pytest.raises(ConfigurationError):
            SensingNoiseParams(mean=(float("nan"), 0.0, 0.0))


class TestObserve:
    def test_bias_applied(self, rng):
        model = LocationSensingModel(
            SensingNoiseParams(mean=(0.0, 0.5, 0.0), sigma=(0.01, 0.01, 0.0))
        )
        true = np.array([1.0, 2.0, 0.0])
        reports = np.stack([model.observe(true, rng) for _ in range(2000)])
        assert reports[:, 1].mean() == pytest.approx(2.5, abs=0.01)
        assert reports[:, 0].mean() == pytest.approx(1.0, abs=0.01)


class TestLogLikelihood:
    def test_prefers_consistent_hypotheses(self):
        model = LocationSensingModel(
            SensingNoiseParams(mean=(0.0, 0.0, 0.0), sigma=(0.1, 0.1, 0.0))
        )
        reported = np.array([0.0, 1.0, 0.0])
        hypotheses = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.5, 1.0, 0.0]])
        ll = model.log_likelihood(reported, hypotheses)
        assert ll[0] > ll[1]
        assert ll[0] > ll[2]

    def test_bias_shifts_peak(self):
        # With mean (0, +1, 0), truth = reported - bias is most likely.
        model = LocationSensingModel(
            SensingNoiseParams(mean=(0.0, 1.0, 0.0), sigma=(0.1, 0.1, 0.0))
        )
        reported = np.array([0.0, 3.0, 0.0])
        hypotheses = np.array([[0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
        ll = model.log_likelihood(reported, hypotheses)
        assert ll[0] > ll[1]

    def test_degenerate_z_is_ignored(self):
        model = LocationSensingModel(
            SensingNoiseParams(sigma=(0.1, 0.1, 0.0))
        )
        reported = np.array([0.0, 0.0, 0.0])
        hypotheses = np.zeros((4, 3))
        ll = model.log_likelihood(reported, hypotheses)
        assert np.isfinite(ll).all()
        # All identical hypotheses get identical likelihoods.
        assert np.allclose(ll, ll[0])
