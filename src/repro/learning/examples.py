"""Batched ``(d, theta, read?)`` training examples for the sensor fit, built
on :func:`repro.geometry.vec.delta_range_bearing` — the kernel the filters
score evidence with — so calibration and inference share one
degenerate-planar guard, one cosine clip and one bearing convention."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import LearningError
from ..geometry.vec import as_point, delta_range_bearing
from ..streams.records import Epoch

#: Epochs per kernel call: transients are ``block * S * N`` rows, not ``T * S * N``.
_EPOCH_BLOCK = 64


def range_bearing_examples(
    poses: np.ndarray, tags: np.ndarray, read: np.ndarray, negative_cutoff_ft: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, theta, label)`` flattened in (epoch, pose sample, tag) order.

    ``poses`` is ``(T, S, 4)`` — ``S`` reader hypotheses ``x, y, z, phi`` per
    epoch; ``tags`` is ``(N, 3)``, or ``(T, N, 3)`` for per-epoch locations;
    ``read`` is the ``(T, N)`` was-it-read mask.  Every read tag yields an
    example, an unread one only within ``negative_cutoff_ft`` of the
    hypothesised reader.
    """
    n_epochs = poses.shape[0]
    tags = np.broadcast_to(tags, (n_epochs, *tags.shape[-2:]))
    parts = []
    for start in range(0, n_epochs, _EPOCH_BLOCK):
        block = slice(start, start + _EPOCH_BLOCK)
        phi = poses[block, :, 3:]
        d, theta = delta_range_bearing(
            tags[block, None] - poses[block, :, None, :3], np.cos(phi), np.sin(phi)
        )
        label = np.broadcast_to(read[block, None], d.shape)
        keep = label | ~(d > negative_cutoff_ft)
        parts.append((d[keep], theta[keep], label[keep].astype(float)))
    if not sum(part[0].size for part in parts):
        raise LearningError("no sensor training examples (trace empty or all tags far)")
    return tuple(np.concatenate(column) for column in zip(*parts))


def sensor_examples(
    epochs: Sequence[Epoch],
    poses: np.ndarray,
    tag_positions: Dict[int, np.ndarray],
    negative_cutoff_ft: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`range_bearing_examples` of ``epochs[:len(poses)]`` for a tag
    number -> location mapping: tags in the mapping's order, reads of tags it
    does not hold ignored."""
    column = {number: j for j, number in enumerate(tag_positions)}
    tags = np.array([as_point(p) for p in tag_positions.values()]).reshape(-1, 3)
    read = np.zeros((poses.shape[0], len(column)), dtype=bool)
    for row, epoch in zip(read, epochs):
        for tag in (*epoch.object_tags, *epoch.shelf_tags):
            if tag.number in column:
                row[column[tag.number]] = True
    return range_bearing_examples(poses, tags, read, negative_cutoff_ft)
