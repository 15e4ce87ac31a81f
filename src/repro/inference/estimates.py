"""Posterior summaries: location estimates and event statistics.

Section IV-A Step 3: "the posterior distribution over the hidden variables
can be estimated by a weighted average of the particles ... it is easy to
compute any desired statistics, such as the mean, the variance, or a
confidence region."  :class:`LocationEstimate` is that summary object; it
also converts to the optional statistics field of output events.

The ``*_from_particles`` constructors accept any ``(n, 3)`` float array —
in particular the zero-copy views the belief arena hands out — and never
mutate or retain their inputs, so estimates read straight off the arena
without copying particle blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..streams.records import LocationEvent, LocationStatistics, TagId
from .base import normalize_log_weights, weighted_mean_cov

#: sqrt of the chi-square 95% quantile with 2 dof — scales the planar
#: covariance's dominant std-dev into a ~95% confidence radius.
_CHI2_95_2DOF_SQRT = math.sqrt(5.991)


def _weighted_medians(values: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Per column of ``(n, k)`` values, the smallest v with cumulative
    probability >= 0.5 (cumsums never decrease: a count is a searchsorted)."""
    order = values.argsort(axis=0)
    index = np.add.reduce(probabilities[order].cumsum(axis=0) < 0.5, axis=0)
    columns = np.arange(values.shape[1])
    return values[order[np.minimum(index, len(values) - 1), columns], columns]


@dataclass(frozen=True)
class LocationEstimate:
    """Mean/covariance summary of one object's location posterior."""

    mean: np.ndarray  # (3,)
    covariance: np.ndarray  # (3, 3)
    sample_size: int  # number of particles (0 = compressed Gaussian belief)

    @staticmethod
    def from_particles(points: np.ndarray, log_weights: np.ndarray) -> "LocationEstimate":
        mean, cov = weighted_mean_cov(points, log_weights)
        return LocationEstimate(mean=mean, covariance=cov, sample_size=points.shape[0])

    @staticmethod
    def robust_from_particles(
        points: np.ndarray, log_weights: np.ndarray, trim_mads: float = 6.0
    ) -> "LocationEstimate":
        """Outlier-trimmed location estimate.

        The object location model mixes a dominant "stayed put" mode with a
        small uniform-over-shelves component (the paper's move-probability
        alpha); the plain weighted mean of such a mixture is dragged toward
        the warehouse centroid by an amount that *grows with warehouse
        size*.  This estimator recenters on the weighted component-wise
        median and drops particles beyond ``trim_mads`` weighted MADs before
        moment-matching, which recovers the dominant mode while leaving
        genuinely unimodal clouds (median = mean, everything kept) intact.
        """
        pts = np.asarray(points, dtype=float)
        p, _ = normalize_log_weights(log_weights)
        center = _weighted_medians(pts, p)
        # np.linalg.norm(pts[:, :2] - center[:2], axis=1) without its dispatch.
        deviation = np.sqrt(np.add.reduce(np.square(pts[:, :2] - center[:2]), axis=1))
        mad = _weighted_medians(deviation[:, None], p)[0]
        if mad <= 1e-9:
            radius = np.inf  # degenerate cloud: keep everything
        else:
            radius = trim_mads * mad
        keep = deviation <= radius
        kept = int(np.add.reduce(keep))
        if kept < max(4, 0.2 * pts.shape[0]) or kept == keep.size:
            return LocationEstimate.from_particles(pts, log_weights)
        kept_lw = np.asarray(log_weights, dtype=float)[keep]
        mean, cov = weighted_mean_cov(pts[keep], kept_lw)
        return LocationEstimate(mean=mean, covariance=cov, sample_size=kept)

    @staticmethod
    def from_gaussian(mean: np.ndarray, covariance: np.ndarray) -> "LocationEstimate":
        return LocationEstimate(
            mean=np.asarray(mean, dtype=float),
            covariance=np.asarray(covariance, dtype=float),
            sample_size=0,
        )

    @property
    def planar_std(self) -> float:
        """Largest std-dev of the xy marginal (spectral norm of the 2x2)."""
        xy = self.covariance[:2, :2]
        eigenvalues = np.linalg.eigvalsh(xy)
        return float(math.sqrt(max(float(eigenvalues[-1]), 0.0)))

    @property
    def confidence_radius(self) -> float:
        """Radius of an approximate 95% planar confidence disc."""
        return _CHI2_95_2DOF_SQRT * self.planar_std

    @property
    def spread(self) -> float:
        """Weighted mean squared deviation from the mean = trace of the
        covariance.  This is the compression-error score of Section IV-D."""
        return float(np.trace(self.covariance))

    def statistics(self) -> LocationStatistics:
        return LocationStatistics(
            covariance=tuple(float(v) for v in self.covariance.ravel()),
            confidence_radius=float(self.confidence_radius),
            sample_size=self.sample_size,
        )

    def to_event(self, time: float, tag: TagId) -> LocationEvent:
        return LocationEvent(
            time=time,
            tag=tag,
            position=tuple(float(v) for v in self.mean),
            statistics=self.statistics(),
        )
