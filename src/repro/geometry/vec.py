"""Small vector helpers used throughout the library.

Positions are plain ``numpy`` arrays of shape ``(3,)`` (single point) or
``(n, 3)`` (batch of points).  The paper's simulator ignores the z axis
("we assume the same height for all tags"), so simulated scenes put ``z = 0``,
but every routine here is written for full 3-D input so the library remains
usable for 3-D deployments.

The reader pose additionally carries a heading angle ``phi`` (radians,
measured in the xy-plane from the +x axis), matching the paper's
``r^phi_t`` notation.  :func:`bearing` implements the paper's angle formula

    cos(theta) = delta^T [cos(phi), sin(phi)] / d

which measures how far off the reader's boresight a tag sits, projected onto
the xy-plane.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from ..errors import GeometryError

ArrayLike = Union[Sequence[float], np.ndarray]

#: Numerical floor used to avoid division by zero in angle computations.
_EPS = 1e-12


def as_point(value: ArrayLike) -> np.ndarray:
    """Coerce *value* into a float ``(3,)`` array.

    Two-element sequences are zero-padded on z so that callers working in the
    paper's 2-D simulated world can pass ``(x, y)`` pairs directly.
    """
    arr = np.asarray(value, dtype=float)
    if arr.shape == (2,):
        arr = np.array([arr[0], arr[1], 0.0])
    if arr.shape != (3,):
        raise GeometryError(f"expected a 2- or 3-vector, got shape {arr.shape}")
    return arr


def as_points(values: Union[ArrayLike, Iterable[ArrayLike]]) -> np.ndarray:
    """Coerce *values* into a float ``(n, 3)`` array (zero-padding z)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        return as_point(arr)[None, :]
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise GeometryError(f"expected an (n, 2) or (n, 3) array, got shape {arr.shape}")
    if arr.shape[1] == 2:
        arr = np.hstack([arr, np.zeros((arr.shape[0], 1))])
    return arr


def distance(a: ArrayLike, b: ArrayLike) -> float:
    """Euclidean distance between two points."""
    return float(np.linalg.norm(as_point(a) - as_point(b)))


def distances(points: np.ndarray, origin: ArrayLike) -> np.ndarray:
    """Euclidean distances from each row of ``points`` to ``origin``."""
    pts = as_points(points)
    return np.linalg.norm(pts - as_point(origin)[None, :], axis=1)


def planar_distance(a: ArrayLike, b: ArrayLike) -> float:
    """Distance between two points projected onto the xy-plane."""
    pa, pb = as_point(a), as_point(b)
    return float(math.hypot(pa[0] - pb[0], pa[1] - pb[1]))


def heading_vector(phi: float) -> np.ndarray:
    """Unit vector in the xy-plane pointing along heading ``phi``."""
    return np.array([math.cos(phi), math.sin(phi), 0.0])


def bearing(origin: ArrayLike, phi: float, target: ArrayLike) -> float:
    """Angle (radians, in ``[0, pi]``) between heading ``phi`` and *target*.

    This is the paper's ``theta_ti``: the reader at *origin* faces along
    ``phi``; the returned angle says how far the direction to *target*
    deviates from that boresight, measured in the xy-plane.  A target at the
    reader's own position has an undefined bearing; we return 0.0 (it is
    maximally readable).
    """
    delta = as_point(target) - as_point(origin)
    d = math.hypot(delta[0], delta[1])
    if d < _EPS:
        return 0.0
    cos_theta = (delta[0] * math.cos(phi) + delta[1] * math.sin(phi)) / d
    cos_theta = max(-1.0, min(1.0, cos_theta))
    return math.acos(cos_theta)


def _bearing(x: np.ndarray, y: np.ndarray, cos_phi, sin_phi) -> np.ndarray:
    """The bearing tail of every batch kernel here, from planar offsets
    ``x, y``: ``arccos`` of the boresight projection over the planar distance
    clipped to ``[-1, 1]``; 0.0 within ``_EPS`` of straight above the reader."""
    planar = np.hypot(x, y)
    flat = planar < _EPS
    degenerate = np.logical_or.reduce(flat, axis=None)
    if degenerate:
        planar[flat] = 1.0
    cos_theta = x * cos_phi
    cos_theta += y * sin_phi
    cos_theta /= planar
    np.minimum(np.maximum(cos_theta, -1.0, out=cos_theta), 1.0, out=cos_theta)
    theta = np.arccos(cos_theta, out=cos_theta)
    if degenerate:
        theta[flat] = 0.0
    return theta


def bearings(origin: ArrayLike, phi: float, targets: np.ndarray) -> np.ndarray:
    """Vectorized :func:`bearing` for an ``(n, 3)`` batch of targets."""
    delta = as_points(targets) - as_point(origin)
    return _bearing(delta[:, 0], delta[:, 1], math.cos(phi), math.sin(phi))


def delta_range_bearing(
    delta: np.ndarray, cos_phi: np.ndarray, sin_phi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(d, theta)`` from precomputed displacements and heading trig.

    The broadcast-friendly core shared by every likelihood kernel that
    scores tag positions against *per-hypothesis* reader poses: ``delta``
    is a ``(..., 3)`` batch (target minus reader) and ``cos_phi``/``sin_phi``
    broadcast against its leading shape — per-row gathered trig for the
    factored filter's cross-object batches, a ``(J, 1)`` column for the
    naive filter's particle-by-object grid and for the particle-by-tag
    grid of shelf-tag evidence.  Keeping the degenerate-planar guard, the
    cosine clip, and the bearing convention in one place is what lets those
    three callers stay in exact agreement.
    """
    d = np.sqrt(np.einsum("...i,...i->...", delta, delta))
    return d, _bearing(delta[..., 0], delta[..., 1], cos_phi, sin_phi)


def distances_and_bearings(
    origin: ArrayLike, phi: float, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute ``(d, theta)`` for a batch of targets in one pass.

    This is the hot path of the sensor model: every weighting step evaluates
    the read probability of every active particle, and both features derive
    from the same ``delta`` array.
    """
    delta = as_points(targets) - as_point(origin)
    theta = _bearing(delta[:, 0], delta[:, 1], math.cos(phi), math.sin(phi))
    # np.linalg.norm(delta, axis=1) without its dispatch.
    return np.sqrt(np.add.reduce(np.square(delta, out=delta), axis=1)), theta


def pairwise_distances_and_bearings(
    origins: np.ndarray, phis: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(d, theta)`` matrices of shape ``(len(origins), len(targets))``.

    Used by the naive (unfactorized) particle filter, which must evaluate
    every reader-particle / tag pair each epoch.
    """
    orgs = as_points(origins)
    tgts = as_points(targets)
    phis = np.asarray(phis, dtype=float)
    if phis.shape != (orgs.shape[0],):
        raise GeometryError(
            f"phis shape {phis.shape} does not match origins {orgs.shape[0]}"
        )
    delta = tgts[None, :, :] - orgs[:, None, :]
    theta = _bearing(delta[..., 0], delta[..., 1], np.cos(phis)[:, None], np.sin(phis)[:, None])
    return np.linalg.norm(delta, axis=2), theta


def wrap_angle(phi: float) -> float:
    """Wrap an angle into ``(-pi, pi]``."""
    wrapped = math.fmod(phi + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi
