"""Shared particle-filter machinery: log-weight algebra and resampling.

All engines keep weights in log space (sensor likelihoods of far-away
negatives multiply thousands of near-one factors; products underflow fast in
linear space) and resample with the systematic ("stochastic universal")
scheme, which has lower variance than multinomial resampling and costs O(n).

The ``segmented_*`` family operates on a *batch* of independent particle
sets laid out back-to-back in one flat array (the belief arena's layout,
one segment per object), reducing per segment with ``np.add.reduceat`` /
``np.maximum.reduceat`` so that normalization and ESS for thousands of
objects cost a handful of numpy calls instead of a Python loop.  Each
segment's result matches calling the scalar helper on that segment alone
(up to summation-order roundoff).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import InferenceError


def normalize_log_weights(log_weights: np.ndarray) -> Tuple[np.ndarray, float]:
    """Return ``(probabilities, log_normalizer)`` for a log-weight vector.

    A vector of all ``-inf`` (every hypothesis impossible) degrades to the
    uniform distribution rather than NaNs: in a particle filter this means
    "the evidence killed everyone, keep diversity and let the next epochs
    sort it out", which is the standard practical fallback.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        raise InferenceError("cannot normalize zero log-weights")
    m = np.maximum.reduce(lw, axis=None)
    if not math.isfinite(m):
        n = lw.size
        return np.full(n, 1.0 / n), -np.inf
    shifted = np.exp(lw - m)
    total = np.add.reduce(shifted, axis=None)
    return shifted / total, float(m + np.log(total))


def effective_sample_size(log_weights: np.ndarray) -> float:
    """ESS = 1 / sum(p_i^2) of the normalized weights.

    Ranges from 1 (all mass on one particle) to n (uniform); the filters
    resample when ESS falls below a configured fraction of n.
    """
    p, _ = normalize_log_weights(log_weights)
    return float(1.0 / np.add.reduce(np.square(p)))


def systematic_resample(
    probabilities: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of ``n`` systematic-resampling draws from ``probabilities``.

    One uniform offset, then a comb of ``n`` equally spaced pointers across
    the CDF.  Deterministic given the offset, unbiased, O(n).
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InferenceError(f"bad probability vector shape {p.shape}")
    if n < 1:
        raise InferenceError("n must be >= 1")
    total = np.add.reduce(p)
    if not math.isfinite(total) or total <= 0:
        raise InferenceError("probabilities must sum to a positive finite value")
    cdf = (p / total).cumsum()
    cdf[-1] = 1.0  # guard against floating-point shortfall
    u0 = rng.uniform(0.0, 1.0 / n)
    pointers = u0 + np.arange(n) / n
    return cdf.searchsorted(pointers)


def resample_log_weights(
    log_weights: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Systematic resampling straight from log weights."""
    p, _ = normalize_log_weights(log_weights)
    return systematic_resample(p, n, rng)


def segmented_normalize(
    log_weights: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment :func:`normalize_log_weights` over a flat batch.

    ``starts``/``lengths`` delimit contiguous segments covering the whole
    array (``starts[0] == 0``, ``starts[i+1] == starts[i] + lengths[i]``).
    Returns ``(probabilities, log_normalizers)`` where probabilities are
    normalized *within* each segment and ``log_normalizers`` has one entry
    per segment.  A segment of all ``-inf`` degrades to uniform, like the
    scalar helper.  Hot-path code: inputs are trusted, not validated.

    A float32 batch (the float32 arena tier) is reduced in float32 — the
    point of that tier is bandwidth, and segment sums are short enough
    (particles per object) that single precision holds comfortably; any
    other dtype is promoted to float64 as before.
    """
    lw = np.asarray(log_weights)
    if lw.dtype not in (np.float32, np.float64):
        lw = lw.astype(float)
    m = np.maximum.reduceat(lw, starts)
    bad = ~np.isfinite(m)
    any_bad = np.logical_or.reduce(bad)
    if any_bad:
        m = np.where(bad, 0.0, m)
    p = np.exp(lw - m.repeat(lengths))
    if any_bad:
        p[bad.repeat(lengths)] = 1.0
    totals = np.add.reduceat(p, starts)
    p /= totals.repeat(lengths)
    return p, np.where(bad, -np.inf, m + np.log(totals))


def segmented_ess(
    log_weights: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-segment :func:`effective_sample_size` over a flat batch."""
    p, _ = segmented_normalize(log_weights, starts, lengths)
    return 1.0 / np.add.reduceat(np.square(p), starts)


def weighted_mean_cov(
    points: np.ndarray, log_weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted mean and covariance of an ``(n, 3)`` particle cloud.

    These are the moment-matched (KL-optimal) Gaussian parameters of
    Section IV-D: ``mu = sum_j w_j x_j`` and
    ``Sigma = sum_j w_j (x_j - mu)(x_j - mu)^T``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InferenceError(f"expected (n, 3) points, got {pts.shape}")
    p, _ = normalize_log_weights(log_weights)
    mean = p @ pts
    centered = pts - mean[None, :]
    cov = (centered * p[:, None]).T @ centered
    return mean, cov


def stratified_heading_mean(headings: np.ndarray, log_weights: np.ndarray) -> float:
    """Weight-aware circular mean of heading angles."""
    p, _ = normalize_log_weights(log_weights)
    s = float(p @ np.sin(headings))
    c = float(p @ np.cos(headings))
    return float(np.arctan2(s, c))
