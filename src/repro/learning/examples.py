"""Batched ``(d, theta, read?)`` training examples for the sensor fit, built
on :func:`repro.geometry.vec.delta_range_bearing` — the kernel the filters
score evidence with — so calibration and inference share one
degenerate-planar guard, one cosine clip and one bearing convention."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import LearningError
from ..geometry.vec import as_point, delta_range_bearing
from ..streams.records import Epoch
from ..streams.sources import ObjectMove

#: Epochs per kernel call: transients are ``block * S * N`` rows, not ``T * S * N``.
_EPOCH_BLOCK = 64

Examples = Tuple[np.ndarray, np.ndarray, np.ndarray]


def range_bearing_examples(
    poses: np.ndarray, tags: np.ndarray, read: np.ndarray, negative_cutoff_ft: float
) -> Examples:
    """``(d, theta, label)`` flattened in (epoch, pose sample, tag) order.

    ``poses`` is ``(T, S, 4)`` — ``S`` reader hypotheses ``x, y, z, phi`` per
    epoch; ``tags`` is ``(N, 3)``, or ``(T, N, 3)`` for per-epoch locations;
    ``read`` is the ``(T, N)`` was-it-read mask.  Every read tag yields an
    example, an unread one only within ``negative_cutoff_ft`` of the
    hypothesised reader.
    """
    return _concatenate(_example_blocks(poses, tags, read, negative_cutoff_ft))


def _example_blocks(
    poses: np.ndarray, tags: np.ndarray, read: np.ndarray, negative_cutoff_ft: float
) -> List[Examples]:
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
    return parts


def _concatenate(parts: List[Examples]) -> Examples:
    if not sum(part[0].size for part in parts):
        raise LearningError("no sensor training examples (trace empty or all tags far)")
    return tuple(np.concatenate(column) for column in zip(*parts))


def sensor_examples(
    epochs: Sequence[Epoch],
    poses: np.ndarray,
    tag_positions: Dict[int, np.ndarray],
    negative_cutoff_ft: float,
    moves: Sequence[ObjectMove] = (),
) -> Examples:
    """:func:`range_bearing_examples` of ``epochs[:len(poses)]`` for a tag
    number -> location mapping: tags in the mapping's order, reads of tags it
    does not hold ignored.

    ``moves`` (in epoch order) relocate tags from their epoch on.  Each run of
    epochs between moves is scored against the locations true during it, one
    kernel pass per run, so a static trace builds no per-epoch table.
    """
    column = {number: j for j, number in enumerate(tag_positions)}
    tags = np.array([as_point(p) for p in tag_positions.values()]).reshape(-1, 3)
    read = np.zeros((poses.shape[0], len(column)), dtype=bool)
    for row, epoch in zip(read, epochs):
        for tag in (*epoch.object_tags, *epoch.shelf_tags):
            if tag.number in column:
                row[column[tag.number]] = True
    runs = [(0, tags)]  # (first epoch, tag table)
    for move in moves:
        if move.number in column:
            if move.epoch_index > runs[-1][0]:
                runs.append((move.epoch_index, runs[-1][1].copy()))
            runs[-1][1][column[move.number]] = move.position
    stops = [start for start, _ in runs[1:]] + [poses.shape[0]]
    parts: List[Examples] = []
    for (start, table), stop in zip(runs, stops):
        parts += _example_blocks(poses[start:stop], table, read[start:stop], negative_cutoff_ft)
    return _concatenate(parts)
