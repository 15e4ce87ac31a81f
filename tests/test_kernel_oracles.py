"""The per-epoch kernels against the bodies they replaced, bit for bit.

Every helper ``FactoredParticleFilter.step`` calls each epoch was rewritten
to make fewer numpy calls: wrappers (``np.clip``, ``np.repeat``,
``np.linalg.norm``, ``np.stack``, ``.sum()`` / ``.any()``) replaced by the
ufunc or method they end in, model constants hoisted into constructors,
private temporaries updated in place.  The rule was the same floating-point
operations in the same order and the same random draws in the same order,
so the previous bodies live on here, verbatim, as oracles: each rewritten
helper must return arrays of equal dtype, equal shape and equal bytes (a
``-0.0`` or a NaN payload counts), raise where its oracle raises, and leave
a generator in the same ``bit_generator.state``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ArenaConfig
from repro.errors import InferenceError
from repro.geometry import vec
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet
from repro.geometry.vec import as_point, as_points
from repro.inference import base
from repro.inference.arena import BeliefArena, segment_gather_indices
from repro.inference.base import weighted_mean_cov
from repro.inference.estimates import LocationEstimate
from repro.inference.factored import _segmented_reader_feedback
from repro.models import sensor as sensor_module
from repro.models.joint import RFIDWorldModel
from repro.models.motion import MotionParams, ReaderMotionModel
from repro.models.objects import ObjectDynamicsParams, ObjectLocationModel
from repro.models.sensing import LocationSensingModel, SensingNoiseParams
from repro.models.sensor import SensorModel, SensorParams
from repro.streams.records import TagId

_EPS = 1e-12
_LOGIT_CLIP = 35.0
_MIN_SIGMA = 1e-6


# ---------------------------------------------------------------------------
# Oracles: the replaced bodies, verbatim (``self`` made an argument)
# ---------------------------------------------------------------------------
def old_bearings(origin, phi, targets):
    pts = as_points(targets)
    delta = pts - as_point(origin)[None, :]
    d = np.hypot(delta[:, 0], delta[:, 1])
    safe_d = np.where(d < _EPS, 1.0, d)
    cos_theta = (delta[:, 0] * math.cos(phi) + delta[:, 1] * math.sin(phi)) / safe_d
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    return np.where(d < _EPS, 0.0, theta)


def old_delta_range_bearing(delta, cos_phi, sin_phi):
    planar = np.hypot(delta[..., 0], delta[..., 1])
    d = np.sqrt(np.einsum("...i,...i->...", delta, delta))
    safe = np.where(planar < _EPS, 1.0, planar)
    cos_theta = (delta[..., 0] * cos_phi + delta[..., 1] * sin_phi) / safe
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    theta = np.where(planar < _EPS, 0.0, np.arccos(cos_theta))
    return d, theta


def old_distances_and_bearings(origin, phi, targets):
    pts = as_points(targets)
    origin3 = as_point(origin)
    delta = pts - origin3[None, :]
    planar = np.hypot(delta[:, 0], delta[:, 1])
    d = np.linalg.norm(delta, axis=1)
    safe = np.where(planar < _EPS, 1.0, planar)
    cos_theta = (delta[:, 0] * math.cos(phi) + delta[:, 1] * math.sin(phi)) / safe
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    theta = np.where(planar < _EPS, 0.0, np.arccos(cos_theta))
    return d, theta


def old_pairwise_distances_and_bearings(origins, phis, targets):
    orgs = as_points(origins)
    tgts = as_points(targets)
    phis = np.asarray(phis, dtype=float)
    delta = tgts[None, :, :] - orgs[:, None, :]
    planar = np.hypot(delta[:, :, 0], delta[:, :, 1])
    d = np.linalg.norm(delta, axis=2)
    safe = np.where(planar < _EPS, 1.0, planar)
    cos_theta = (
        delta[:, :, 0] * np.cos(phis)[:, None] + delta[:, :, 1] * np.sin(phis)[:, None]
    ) / safe
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    theta = np.where(planar < _EPS, 0.0, np.arccos(cos_theta))
    return d, theta


def old_contains_points(box, points):
    pts = as_points(points)
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    return np.all((pts >= lo) & (pts <= hi), axis=1)


def old_sigmoid(x):
    x = np.clip(x, -_LOGIT_CLIP, _LOGIT_CLIP)
    return 1.0 / (1.0 + np.exp(-x))


def old_log_sigmoid(x):
    x = np.clip(x, -_LOGIT_CLIP, _LOGIT_CLIP)
    return -np.logaddexp(0.0, -x)


def old_features(d, theta):
    d = np.asarray(d, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.ones_like(d), d, d * d, theta, theta * theta], axis=-1)


def old_log_likelihood_rows(params, d, theta, read):
    a0, a1, a2 = params.a
    b1, b2 = params.b
    d = np.asarray(d, dtype=float)
    theta = np.asarray(theta, dtype=float)
    z = a0 + d * (a1 + a2 * d) + theta * (b1 + b2 * theta)
    np.clip(z, -_LOGIT_CLIP, _LOGIT_CLIP, out=z)
    sign = np.where(read, 1.0, -1.0)
    return -np.logaddexp(0.0, -sign * z)


def old_sensing_log_likelihood(params, reported, true_positions):
    reported = np.asarray(reported, dtype=float)
    residual = reported[None, :] - true_positions - params.mean_array[None, :]
    sigma = np.maximum(params.sigma_array, _MIN_SIGMA)
    z = residual / sigma[None, :]
    log_norm = -np.log(sigma * math.sqrt(2.0 * math.pi))
    per_axis = -0.5 * z * z + log_norm[None, :]
    degenerate = (params.sigma_array < _MIN_SIGMA) & (
        np.abs(residual).max(axis=0) < 1e-9
    )
    per_axis[:, degenerate] = 0.0
    return per_axis.sum(axis=1)


def old_motion_propagate(params, positions, headings, rng, velocity_override=None):
    n = positions.shape[0]
    velocity = (
        params.velocity_array
        if velocity_override is None
        else np.asarray(velocity_override, dtype=float)
    )
    noise = rng.normal(0.0, 1.0, size=(n, 3)) * params.sigma_array[None, :]
    new_positions = positions + velocity[None, :] + noise
    if params.heading_sigma > 0:
        new_headings = headings + rng.normal(0.0, params.heading_sigma, size=n)
    else:
        new_headings = headings.copy()
    new_headings = np.pi - np.mod(np.pi - new_headings, 2.0 * np.pi)
    return new_positions, new_headings


def old_propagate_many(model, positions, rng, in_place=False):
    n = positions.shape[0]
    out = positions if in_place else positions.copy()
    if n == 0:
        return out
    alpha = model.params.move_probability
    if alpha > 0.0:
        moves = rng.uniform(size=n) < alpha
        count = int(moves.sum())
        if count:
            out[moves] = model.shelves.sample_uniform(rng, count)
    jitter = model.params.stationary_jitter
    if jitter > 0.0:
        stay = ~moves if alpha > 0.0 else np.ones(n, dtype=bool)
        idx = np.flatnonzero(stay)
        if idx.size:
            noise = rng.normal(0.0, jitter, size=(idx.size, 3))
            noise[:, 2] = 0.0
            out[idx] += noise
    return out


def old_normalize_log_weights(log_weights):
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        raise InferenceError("cannot normalize zero log-weights")
    m = lw.max()
    if not np.isfinite(m):
        n = lw.size
        return np.full(n, 1.0 / n), -np.inf
    shifted = np.exp(lw - m)
    total = shifted.sum()
    return shifted / total, float(m + np.log(total))


def old_effective_sample_size(log_weights):
    p, _ = old_normalize_log_weights(log_weights)
    return float(1.0 / np.square(p).sum())


def old_systematic_resample(probabilities, n, rng):
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InferenceError(f"bad probability vector shape {p.shape}")
    if n < 1:
        raise InferenceError("n must be >= 1")
    total = p.sum()
    if not np.isfinite(total) or total <= 0:
        raise InferenceError("probabilities must sum to a positive finite value")
    cdf = np.cumsum(p / total)
    cdf[-1] = 1.0
    u0 = rng.uniform(0.0, 1.0 / n)
    pointers = u0 + np.arange(n) / n
    return np.searchsorted(cdf, pointers, side="left")


def old_segmented_normalize(log_weights, starts, lengths):
    lw = np.asarray(log_weights)
    if lw.dtype not in (np.float32, np.float64):
        lw = lw.astype(float)
    m = np.maximum.reduceat(lw, starts)
    bad = ~np.isfinite(m)
    if bad.any():
        m = np.where(bad, 0.0, m)
    shifted = np.exp(lw - np.repeat(m, lengths))
    if bad.any():
        shifted[np.repeat(bad, lengths)] = 1.0
    totals = np.add.reduceat(shifted, starts)
    p = shifted / np.repeat(totals, lengths)
    log_norm = np.where(bad, -np.inf, m + np.log(totals))
    return p, log_norm


def old_segment_gather_indices(starts, lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(lengths.sum())
    batch_starts = np.zeros(lengths.size, dtype=np.int64)
    if lengths.size:
        np.cumsum(lengths[:-1], out=batch_starts[1:])
    if total == 0:
        return np.empty(0, dtype=np.int64), batch_starts
    idx = np.arange(total, dtype=np.int64) + np.repeat(starts - batch_starts, lengths)
    return idx, batch_starts


def old_segments(arena, object_ids):
    n = len(object_ids)
    starts = np.empty(n, dtype=np.int64)
    lengths = np.empty(n, dtype=np.int64)
    slots = arena._slots
    for i, object_id in enumerate(object_ids):
        starts[i], lengths[i] = slots[object_id]
    return starts, lengths


def old_remap_parents(arena, old_to_new, rng):
    j = old_to_new.shape[0]
    rows = arena._parents[: arena._end]
    remapped = old_to_new[rows]
    dropped = remapped < 0
    if arena._free_rows:
        dropped &= arena.live_row_mask()
    if dropped.any():
        remapped[dropped] = rng.integers(0, j, size=int(dropped.sum()))
    np.maximum(remapped, 0, out=remapped)
    arena._parents[: arena._end] = remapped
    arena._parents_dirty = True


def old_segmented_reader_feedback(parents, inc, seg_starts, lengths, seg_weighted, n_readers):
    lik = np.exp(np.clip(inc, -60.0, 0.0))
    n_seg = lengths.size
    seg_ids = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
    keys = seg_ids * n_readers + parents
    bins = n_seg * n_readers
    sums = np.bincount(keys, weights=lik, minlength=bins).reshape(n_seg, n_readers)
    counts = np.bincount(keys, minlength=bins).reshape(n_seg, n_readers)
    overall = np.add.reduceat(lik, seg_starts) / lengths
    means = np.where(counts > 0, sums / np.maximum(counts, 1), overall[:, None])
    log_means = np.log(np.maximum(means, 1e-300))
    return log_means[seg_weighted].sum(axis=0)


def old_weighted_median(values, probabilities):
    order = np.argsort(values)
    cumulative = np.cumsum(probabilities[order])
    index = int(np.searchsorted(cumulative, 0.5))
    index = min(index, len(values) - 1)
    return float(values[order][index])


def old_robust_from_particles(points, log_weights, trim_mads=6.0):
    pts = np.asarray(points, dtype=float)
    p, _ = old_normalize_log_weights(log_weights)
    center = np.array([old_weighted_median(pts[:, axis], p) for axis in range(3)])
    deviation = np.linalg.norm(pts[:, :2] - center[None, :2], axis=1)
    mad = old_weighted_median(deviation, p)
    if mad <= 1e-9:
        radius = np.inf
    else:
        radius = trim_mads * mad
    keep = deviation <= radius
    if keep.sum() < max(4, 0.2 * pts.shape[0]) or keep.all():
        return LocationEstimate.from_particles(pts, log_weights)
    kept_lw = np.asarray(log_weights, dtype=float)[keep]
    mean, cov = weighted_mean_cov(pts[keep], kept_lw)
    return LocationEstimate(mean=mean, covariance=cov, sample_size=int(keep.sum()))


def old_reader_evidence(model, reader_positions, cos_headings, sin_headings,
                        reported_position, shelf_tags_read, negative_evidence_range=6.0):
    out = np.zeros(reader_positions.shape[0])
    if reported_position is not None:
        out += old_sensing_log_likelihood(
            model.sensing.params, reported_position, reader_positions
        )
        anchor = np.asarray(reported_position, dtype=float)
    else:
        anchor = reader_positions.mean(axis=0)
    tags = model._shelf_positions
    read = np.zeros(tags.shape[0], dtype=bool)
    for tag in shelf_tags_read:
        column = model._shelf_columns.get(tag.number)
        if column is not None:
            read[column] = True
    offset = tags - anchor
    in_range = np.sqrt(np.einsum("ij,ij->i", offset, offset)) <= negative_evidence_range
    scored = read | in_range
    if not scored.any():
        return out
    if not scored.all():
        tags, read = tags[scored], read[scored]
    delta = tags[None, :, :] - reader_positions[:, None, :]
    d, theta = old_delta_range_bearing(delta, cos_headings[:, None], sin_headings[:, None])
    out += old_log_likelihood_rows(model.sensor.params, d, theta, read[None, :]).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
def assert_same(got, want):
    """Equal types; arrays and scalars also equal dtype, shape and bytes."""
    if isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, LocationEstimate):
        assert isinstance(got, LocationEstimate)
        assert_same((got.mean, got.covariance, got.sample_size),
                    (want.mean, want.covariance, want.sample_size))
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert type(got) is type(want), (type(got), type(want))
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception type is the result
        return "raised", type(exc)


def assert_same_outcome(new, old, *args, **kwargs):
    got, want = outcome(new, *args, **kwargs), outcome(old, *args, **kwargs)
    assert got[0] == want[0], (got, want)
    if want[0] == "raised":
        assert got[1] is want[1]
    else:
        assert_same(got[1], want[1])


def rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_rng(a, b):
    assert a.bit_generator.state == b.bit_generator.state


SEEDS = st.integers(0, 2**32 - 1)
DTYPES = st.sampled_from([np.float64, np.float32])
EXAMPLES = settings(max_examples=60, deadline=None)


def offsets(rng, n, dtype, above=0):
    """``(n, 3)`` displacements; the first ``above`` rows sit (within
    ``_EPS``) straight above or below the origin."""
    delta = rng.normal(0.0, 4.0, size=(n, 3))
    k = min(above, n)
    delta[:k, :2] = rng.choice([0.0, 1e-13, -3e-13], size=(k, 2))
    return delta.astype(dtype)


def segment_lengths(rng, n_seg, ragged):
    if ragged:
        return rng.integers(1, 9, size=n_seg).astype(np.int64)
    return np.full(n_seg, int(rng.integers(1, 9)), dtype=np.int64)


def flat_segments(lengths):
    starts = np.zeros(lengths.size, dtype=np.int64)
    starts[1:] = np.cumsum(lengths[:-1])
    return starts


# ---------------------------------------------------------------------------
# geometry/vec.py, geometry/box.py
# ---------------------------------------------------------------------------
class TestGeometry:
    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(0, 30), j=st.integers(1, 6), dtype=DTYPES,
           above=st.integers(0, 3), grid=st.booleans())
    def test_delta_range_bearing(self, seed, n, j, dtype, above, grid):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-np.pi, np.pi, size=j).astype(dtype)
        if grid:  # the (J, S) particle-by-tag grid with (J, 1) trig columns
            delta = offsets(rng, j * n, dtype, above).reshape(j, n, 3)
            cos_phi, sin_phi = np.cos(phi)[:, None], np.sin(phi)[:, None]
        else:  # per-row gathered trig
            delta = offsets(rng, n, dtype, above)
            rows = rng.integers(0, j, size=n)
            cos_phi, sin_phi = np.cos(phi)[rows], np.sin(phi)[rows]
        assert_same(
            vec.delta_range_bearing(delta, cos_phi, sin_phi),
            old_delta_range_bearing(delta, cos_phi, sin_phi),
        )

    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(0, 30), dtype=DTYPES, above=st.integers(0, 3))
    def test_distances_and_bearings_and_bearings(self, seed, n, dtype, above):
        rng = np.random.default_rng(seed)
        origin = rng.normal(0.0, 3.0, size=3)
        targets = (origin + offsets(rng, n, np.float64, above)).astype(dtype)
        phi = float(rng.uniform(-np.pi, np.pi))
        assert_same(
            vec.distances_and_bearings(origin, phi, targets),
            old_distances_and_bearings(origin, phi, targets),
        )
        assert_same(vec.bearings(origin, phi, targets), old_bearings(origin, phi, targets))
        flat = targets[:, :2].tolist()  # (x, y) pairs are zero-padded; [] raises
        assert_same_outcome(
            vec.distances_and_bearings, old_distances_and_bearings, origin[:2], phi, flat
        )

    @EXAMPLES
    @given(seed=SEEDS, j=st.integers(1, 5), n=st.integers(0, 8), above=st.booleans())
    def test_pairwise_distances_and_bearings(self, seed, j, n, above):
        rng = np.random.default_rng(seed)
        origins = rng.normal(0.0, 3.0, size=(j, 3))
        targets = rng.normal(0.0, 3.0, size=(n, 3))
        if above and n:
            targets[0, :2] = origins[0, :2]
        phis = rng.uniform(-np.pi, np.pi, size=j)
        assert_same(
            vec.pairwise_distances_and_bearings(origins, phis, targets),
            old_pairwise_distances_and_bearings(origins, phis, targets),
        )

    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(0, 30))
    def test_box_contains_points(self, seed, n):
        rng = np.random.default_rng(seed)
        box = Box((0.0, 0.0, 0.0), (2.0, 3.0, 0.0))
        points = rng.uniform(-1.0, 4.0, size=(n, 3))
        points[: n // 2, 2] = 0.0
        assert_same(box.contains_points(points), old_contains_points(box, points))


# ---------------------------------------------------------------------------
# models/sensor.py
# ---------------------------------------------------------------------------
PARAMS = st.builds(
    SensorParams,
    a=st.tuples(*[st.floats(-8.0, 8.0)] * 3),
    b=st.tuples(*[st.floats(-12.0, 12.0)] * 2),
)


def logits_like(rng, shape, dtype):
    x = rng.normal(0.0, 30.0, size=shape)
    flat = x.reshape(-1)
    specials = [np.inf, -np.inf, np.nan, 35.0, -35.0, 0.0, -0.0, 1e300]
    flat[: len(specials)] = specials[: flat.size]
    return x.astype(dtype)


class TestSensor:
    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(0, 20), dtype=DTYPES)
    def test_sigmoid_and_log_sigmoid(self, seed, n, dtype):
        x = logits_like(np.random.default_rng(seed), n, dtype)
        for value in (x, x.reshape(1, -1), 3.0, np.float64(-50.0), np.arange(-40, 40, 7)):
            assert_same(sensor_module.sigmoid(value), old_sigmoid(value))
            assert_same(sensor_module.log_sigmoid(value), old_log_sigmoid(value))

    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(0, 20), dtype=DTYPES, params=PARAMS)
    def test_features_and_logits(self, seed, n, dtype, params):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.0, 10.0, size=n).astype(dtype)
        theta = rng.uniform(0.0, np.pi, size=n).astype(dtype)
        for args in ((d, theta), (d.reshape(-1, 1), theta.reshape(-1, 1)), (1.5, 0.25)):
            assert_same(sensor_module.features(*args), old_features(*args))
        model = SensorModel(params)
        assert_same(model.logits(d, theta), old_features(d, theta) @ params.weights)
        assert_same(
            model.read_probability(d, theta), old_sigmoid(old_features(d, theta) @ params.weights)
        )

    @EXAMPLES
    @given(seed=SEEDS, j=st.integers(1, 6), n=st.integers(0, 12), dtype=DTYPES,
           params=PARAMS, layout=st.sampled_from(["rows", "columns", "scalar"]))
    def test_log_likelihood_rows(self, seed, j, n, dtype, params, layout):
        rng = np.random.default_rng(seed)
        if layout == "rows":
            shape, read = (n,), rng.random(n) < 0.5
        elif layout == "columns":
            shape, read = (j, n), (rng.random(n) < 0.5)[None, :]
        else:
            shape, read = (n,), bool(rng.random() < 0.5)
        d = rng.uniform(0.0, 40.0, size=shape).astype(dtype)
        theta = rng.uniform(0.0, np.pi, size=shape).astype(dtype)
        assert_same(
            SensorModel(params).log_likelihood_rows(d, theta, read),
            old_log_likelihood_rows(params, d, theta, read),
        )


# ---------------------------------------------------------------------------
# models/sensing.py, models/motion.py, models/objects.py, models/joint.py
# ---------------------------------------------------------------------------
SIGMAS = st.tuples(*[st.sampled_from([0.0, 1e-7, 0.01, 0.3])] * 3)


class TestModels:
    @EXAMPLES
    @given(seed=SEEDS, j=st.integers(1, 25), sigma=SIGMAS, biased=st.booleans(),
           exact=st.booleans())
    def test_sensing_log_likelihood(self, seed, j, sigma, biased, exact):
        rng = np.random.default_rng(seed)
        mean = tuple(rng.normal(0.0, 0.05, size=3)) if biased else (0.0, 0.0, 0.0)
        params = SensingNoiseParams(mean=mean, sigma=sigma)
        reported = rng.normal(0.0, 3.0, size=3)
        positions = reported + rng.normal(0.0, 0.05, size=(j, 3))
        if exact:  # a zero-sigma axis the particles match exactly: degenerate
            positions[:, 2] = reported[2] - params.mean_array[2]
        assert_same(
            LocationSensingModel(params).log_likelihood(reported, positions),
            old_sensing_log_likelihood(params, reported, positions),
        )

    @EXAMPLES
    @given(seed=SEEDS, j=st.integers(0, 25), sigma=SIGMAS,
           heading_sigma=st.sampled_from([0.0, 0.01, 0.5]), override=st.booleans())
    def test_motion_propagate(self, seed, j, sigma, heading_sigma, override):
        params = MotionParams(velocity=(0.01, 0.1, 0.0), sigma=sigma, heading_sigma=heading_sigma)
        rng = np.random.default_rng(seed)
        positions = rng.normal(0.0, 3.0, size=(j, 3))
        headings = rng.uniform(-4.0, 4.0, size=j)
        velocity = rng.normal(0.0, 0.2, size=3) if override else None
        new_rng, old_rng = rng_pair(seed + 1)
        assert_same(
            ReaderMotionModel(params).propagate(positions, headings, new_rng, velocity),
            old_motion_propagate(params, positions, headings, old_rng, velocity),
        )
        assert_same_rng(new_rng, old_rng)

    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(0, 60), alpha=st.sampled_from([0.0, 0.05, 1.0]),
           jitter=st.sampled_from([0.0, 0.02]), in_place=st.booleans())
    def test_propagate_many(self, seed, n, alpha, jitter, in_place):
        shelves = ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, 8.0, 0.0)))])
        model = ObjectLocationModel(shelves, ObjectDynamicsParams(alpha, jitter))
        positions = np.random.default_rng(seed).uniform(0.0, 8.0, size=(n, 3))
        new_rng, old_rng = rng_pair(seed + 1)
        got = model.propagate_many(positions.copy(), new_rng, in_place=in_place)
        assert_same(got, old_propagate_many(model, positions.copy(), old_rng, in_place))
        assert_same_rng(new_rng, old_rng)

    @EXAMPLES
    @given(seed=SEEDS, j=st.integers(1, 20), reported=st.booleans(),
           reach=st.sampled_from([0.5, 3.0, 6.0, 50.0]), n_read=st.integers(0, 3))
    def test_reader_evidence(self, seed, j, reported, reach, n_read):
        rng = np.random.default_rng(seed)
        shelves = ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, 20.0, 0.0)))])
        tags = {k: (2.0, 2.5 * k, 0.0) for k in range(8)}
        model = RFIDWorldModel.build(
            shelves, tags, sensing_params=SensingNoiseParams(sigma=(0.01, 0.01, 0.0))
        )
        report = np.array([0.0, rng.uniform(0.0, 20.0), 0.0])
        positions = report + rng.normal(0.0, 0.1, size=(j, 3)) * [1.0, 1.0, 0.0]
        positions[0, :2] = tags[0][:2]  # a shelf tag straight above a reader
        headings = rng.normal(0.0, 0.3, size=j)
        read = frozenset(TagId.shelf(int(k)) for k in rng.choice(9, size=n_read))
        args = (positions, np.cos(headings), np.sin(headings), report if reported else None, read)
        assert_same(
            model.reader_evidence_log_likelihood(*args, negative_evidence_range=reach),
            old_reader_evidence(model, *args, negative_evidence_range=reach),
        )


# ---------------------------------------------------------------------------
# inference/base.py
# ---------------------------------------------------------------------------
def log_weights(rng, n, dtype, dead=False):
    lw = rng.normal(0.0, 6.0, size=n)
    lw[rng.random(n) < 0.15] = -np.inf
    if dead:
        lw[:] = -np.inf
    return lw.astype(dtype)


class TestWeights:
    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(0, 30), dtype=DTYPES, dead=st.booleans())
    def test_normalize_and_ess(self, seed, n, dtype, dead):
        lw = log_weights(np.random.default_rng(seed), n, dtype, dead)
        assert_same_outcome(base.normalize_log_weights, old_normalize_log_weights, lw)
        assert_same_outcome(base.effective_sample_size, old_effective_sample_size, lw)

    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(0, 30), draws=st.integers(0, 40), dead=st.booleans())
    def test_systematic_resample(self, seed, n, draws, dead):
        p = np.random.default_rng(seed).random(n)
        if dead:
            p[:] = 0.0
        new_rng, old_rng = rng_pair(seed + 1)
        assert_same_outcome(
            lambda: base.systematic_resample(p, draws, new_rng),
            lambda: old_systematic_resample(p, draws, old_rng),
        )
        assert_same_rng(new_rng, old_rng)

    @EXAMPLES
    @given(seed=SEEDS, n_seg=st.integers(1, 12), dtype=DTYPES, ragged=st.booleans(),
           dead=st.integers(0, 2))
    def test_segmented_normalize(self, seed, n_seg, dtype, ragged, dead):
        rng = np.random.default_rng(seed)
        lengths = segment_lengths(rng, n_seg, ragged)
        starts = flat_segments(lengths)
        lw = log_weights(rng, int(lengths.sum()), dtype)
        for s in rng.choice(n_seg, size=min(dead, n_seg), replace=False):
            lw[starts[s] : starts[s] + lengths[s]] = -np.inf  # an all -inf segment
        assert_same(
            base.segmented_normalize(lw, starts, lengths),
            old_segmented_normalize(lw, starts, lengths),
        )

    def test_segmented_normalize_empty_batch(self):
        empty = np.zeros(0, dtype=np.int64)
        assert_same_outcome(
            base.segmented_normalize, old_segmented_normalize, np.zeros(0), empty, empty
        )


# ---------------------------------------------------------------------------
# inference/arena.py
# ---------------------------------------------------------------------------
def populated_arena(seed, n_objects, holes, dtype="float64"):
    rng = np.random.default_rng(seed)
    arena = BeliefArena(ArenaConfig(initial_capacity=64, dtype=dtype))
    for number in range(n_objects):
        k = int(rng.integers(1, 12))
        arena.set_object(
            number,
            rng.normal(size=(k, 3)),
            rng.integers(0, 10, size=k).astype(np.int32),
            rng.normal(size=k),
        )
    for number in rng.choice(n_objects, size=min(holes, n_objects), replace=False):
        arena.free(int(number), compact_ok=False)
    return arena, rng


class TestArena:
    @EXAMPLES
    @given(seed=SEEDS, n_seg=st.integers(0, 12), zeros=st.booleans())
    def test_segment_gather_indices(self, seed, n_seg, zeros):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0 if zeros else 1, 9, size=n_seg)
        starts = rng.permutation(np.arange(n_seg) * 10)[:n_seg]
        assert_same(
            segment_gather_indices(starts, lengths),
            old_segment_gather_indices(starts, lengths),
        )
        assert_same(
            segment_gather_indices(list(starts), list(lengths)),
            old_segment_gather_indices(list(starts), list(lengths)),
        )

    @EXAMPLES
    @given(seed=SEEDS, n_objects=st.integers(1, 15), holes=st.integers(0, 4))
    def test_segments(self, seed, n_objects, holes):
        arena, rng = populated_arena(seed, n_objects, holes)
        live = arena.object_ids()
        for ids in ([], live, list(rng.permutation(live)[: len(live) // 2])):
            assert_same(arena.segments(ids), old_segments(arena, ids))
        with pytest.raises(KeyError):
            arena.segments([n_objects + 1])

    @EXAMPLES
    @given(seed=SEEDS, n_objects=st.integers(1, 15), holes=st.integers(0, 4),
           readers=st.integers(1, 10))
    def test_remap_parents(self, seed, n_objects, holes, readers):
        new_arena, _ = populated_arena(seed, n_objects, holes)
        old_arena, rng = populated_arena(seed, n_objects, holes)
        chosen = np.sort(rng.integers(0, 10, size=10))
        old_to_new = np.full(10, -1, dtype=np.int64)
        old_to_new[chosen] = np.arange(10)
        new_rng, old_rng = rng_pair(seed + 1)
        new_arena.remap_parents(old_to_new, new_rng)
        old_remap_parents(old_arena, old_to_new, old_rng)
        assert_same(new_arena._parents, old_arena._parents)
        assert_same_rng(new_rng, old_rng)


# ---------------------------------------------------------------------------
# inference/factored.py, inference/estimates.py
# ---------------------------------------------------------------------------
class TestFilterHelpers:
    @EXAMPLES
    @given(seed=SEEDS, n_seg=st.integers(1, 10), readers=st.integers(1, 12),
           ragged=st.booleans(), skipped=st.integers(0, 3))
    def test_segmented_reader_feedback(self, seed, n_seg, readers, ragged, skipped):
        rng = np.random.default_rng(seed)
        lengths = segment_lengths(rng, n_seg, ragged)
        n = int(lengths.sum())
        parents = rng.integers(0, readers, size=n).astype(np.int32)
        inc = rng.normal(-5.0, 30.0, size=n)
        inc[rng.random(n) < 0.1] = 0.0
        args = (parents, inc, flat_segments(lengths), lengths)
        weighted = np.ones(n_seg, dtype=bool)
        want_all = old_segmented_reader_feedback(*args, weighted, readers)
        assert_same(_segmented_reader_feedback(*args, slice(None), readers), want_all)
        assert_same(_segmented_reader_feedback(*args, weighted, readers), want_all)
        weighted[rng.choice(n_seg, size=min(skipped, n_seg), replace=False)] = False
        assert_same(
            _segmented_reader_feedback(*args, weighted, readers),
            old_segmented_reader_feedback(*args, weighted, readers),
        )

    @EXAMPLES
    @given(seed=SEEDS, n=st.integers(1, 60), dtype=DTYPES,
           shape=st.sampled_from(["cloud", "outliers", "ties", "point"]))
    def test_robust_from_particles(self, seed, n, dtype, shape):
        rng = np.random.default_rng(seed)
        points = rng.normal([2.5, 10.0, 0.0], [0.2, 0.3, 0.0], size=(n, 3))
        if shape == "outliers":  # a teleported tail far along the shelf
            points[rng.random(n) < 0.2, 1] += rng.uniform(-20.0, 20.0)
        elif shape == "ties":  # duplicates, as after a resample
            points = points[rng.integers(0, max(1, n // 4), size=n)]
        elif shape == "point":  # collapsed: the MAD is zero
            points[:] = points[0]
        points = points.astype(dtype)
        lw = log_weights(rng, n, dtype)
        assert_same_outcome(
            LocationEstimate.robust_from_particles, old_robust_from_particles, points, lw
        )
