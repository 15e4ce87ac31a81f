"""Delta materialization: overlay differential captures onto a base tree.

A *delta capture* (``FilterShard.snapshot(mode="delta")``) records what
changed in a shard since its previous capture: per-epoch scalars and the
RNG/reader state in full (they change every epoch), the complete belief /
arena / visit **id order** (tiny — it carries ordering, which is
semantically load-bearing, and deletions, which are just absences from the
list), and per-object column data only for objects whose state actually
changed.  This module replays such captures:

    full tree at epoch T  =  apply_shard_delta(tree at T-k, delta at T)

The result is **exactly** the tree a full capture at the same epoch would
have produced — array-for-array, scalar-for-scalar — which is what lets the
checkpoint layer (:mod:`.checkpoint`) restore a base + delta chain
bitwise-identically to a full snapshot, and lets tests assert that equality
directly.

Chain integrity is proven, not assumed: every capture carries a
``capture_serial`` and every delta the serial of its parent capture;
:func:`apply_shard_delta` refuses an overlay whose parent serial does not
match the base tree's serial (a *torn chain* — a capture was taken, or a
checkpoint was written, between the two).  The same check runs at save time
(:func:`.checkpoint.save_checkpoint`), so a torn chain is never written in
the first place.
"""

from __future__ import annotations

import copy
from typing import Dict, Tuple

import numpy as np

from ..errors import StateError

#: Engine-tree keys a delta ships in full (they change every epoch, or are
#: cheap): everything except the belief/arena column data.
_ENGINE_FULL_KEYS = (
    "engine",
    "capture_serial",
    "rng_state",
    "epoch_index",
    "active_count",
    "stats",
    "arena_stats",
    "last_reported",
    "last_reported_epoch",
    "reader",
    "selector",
)

#: Per-belief metadata columns (row i describes belief ``ids[i]``).
_BELIEF_COLUMNS = (
    "created",
    "last_read",
    "last_split",
    "anchors",
    "compressed",
    "gauss_mean",
    "gauss_cov",
    "settled",
    "budget_epoch",
)

#: Per-visit columns of the pipeline tree.
_VISIT_COLUMNS = ("entered", "last_read", "emitted", "has_pos", "pos")


def is_delta_state(state: dict) -> bool:
    """True when a shard state tree is a delta capture, not a full one."""
    return bool(state.get("engine", {}).get("delta")) or bool(
        state.get("pipeline", {}).get("delta")
    )


def _check_serial(base: dict, delta: dict, what: str) -> None:
    parent = delta.get("parent_capture_serial")
    have = base.get("capture_serial")
    if parent != have:
        raise StateError(
            f"torn delta chain: {what} delta chains onto capture "
            f"{parent!r} but the base tree is capture {have!r}"
        )


def _merge_rows(
    order_ids: np.ndarray,
    base_ids: np.ndarray,
    base_columns: Dict[str, np.ndarray],
    dirty_ids: np.ndarray,
    dirty_columns: Dict[str, np.ndarray],
    what: str,
) -> Dict[str, np.ndarray]:
    """Reassemble full column arrays in ``order_ids`` order.

    Each id takes its row from the dirty set when present, from the base
    otherwise; an id in neither is a torn chain.  One Python pass resolves
    each id to a (source, row) pair; the column data itself is copied with
    one fancy-index per column, so materializing a 10⁴-object shard costs a
    handful of numpy kernels, not 10⁴ × columns row assignments.  Column
    dtypes/shapes come from the base arrays (empty bases fall back to the
    dirty arrays), so the merged arrays are indistinguishable from a full
    capture's.
    """
    order = np.asarray(order_ids, dtype=np.int64)
    base_index = {
        int(n): i for i, n in enumerate(np.asarray(base_ids, dtype=np.int64))
    }
    dirty_index = {
        int(n): i for i, n in enumerate(np.asarray(dirty_ids, dtype=np.int64))
    }
    from_dirty = np.zeros(order.size, dtype=bool)
    source_row = np.zeros(order.size, dtype=np.int64)
    for i, number in enumerate(order):
        number = int(number)
        row = dirty_index.get(number)
        if row is not None:
            from_dirty[i] = True
        else:
            row = base_index.get(number)
            if row is None:
                raise StateError(
                    f"torn delta chain: {what} {number} is neither in the "
                    "base capture nor in the delta"
                )
        source_row[i] = row
    merged: Dict[str, np.ndarray] = {}
    for name in base_columns:
        base_array = np.asarray(base_columns[name])
        dirty_array = np.asarray(dirty_columns[name])
        template = base_array if base_array.size else dirty_array
        out = np.zeros((order.size,) + tuple(template.shape[1:]), dtype=template.dtype)
        if from_dirty.any():
            out[from_dirty] = dirty_array[source_row[from_dirty]]
        clean = ~from_dirty
        if clean.any():
            out[clean] = base_array[source_row[clean]]
        merged[name] = out
    return merged


def _split_blocks(
    ids: np.ndarray, counts: np.ndarray, arrays: Tuple[np.ndarray, ...], what: str
) -> Dict[int, Tuple[np.ndarray, ...]]:
    """Cut concatenated per-object arrays into an ``{id: (views...)}`` map."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    for array in arrays:
        if np.asarray(array).shape[0] != total:
            raise StateError(
                f"{what} blocks are inconsistent: rows do not match counts"
            )
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return {
        int(number): tuple(
            np.asarray(array)[int(offsets[i]) : int(offsets[i + 1])]
            for array in arrays
        )
        for i, number in enumerate(np.asarray(ids, dtype=np.int64))
    }


def apply_arena_delta(base: dict, delta: dict) -> dict:
    """Overlay an arena delta capture on a full arena snapshot."""
    order_ids = np.asarray(delta["ids"], dtype=np.int64)
    counts = np.asarray(delta["counts"], dtype=np.int64)
    count_of = {int(n): int(c) for n, c in zip(order_ids, counts)}
    base_blocks = _split_blocks(
        base["ids"],
        base["counts"],
        (base["positions"], base["parents"], base["log_weights"]),
        "base arena",
    )
    dirty_ids = np.asarray(delta["dirty_ids"], dtype=np.int64)
    dirty_blocks = _split_blocks(
        dirty_ids,
        np.asarray([count_of[int(n)] for n in dirty_ids], dtype=np.int64),
        (delta["positions"], delta["parents"], delta["log_weights"]),
        "delta arena",
    )
    clean_parents: Dict[int, np.ndarray] = {}
    if delta.get("parents_dirty"):
        clean_ids = [int(n) for n in order_ids if int(n) not in dirty_blocks]
        clean_parents = {
            number: block[0]
            for number, block in _split_blocks(
                np.asarray(clean_ids, dtype=np.int64),
                np.asarray([count_of[n] for n in clean_ids], dtype=np.int64),
                # Shipped narrowed (see BeliefArena.delta_snapshot).
                (np.asarray(delta["clean_parents"], dtype=base["parents"].dtype),),
                "delta arena parents",
            ).items()
        }
    # Empty fallbacks inherit the captured arrays' dtype (float32 arenas
    # must materialize bitwise-identically, not silently promote).
    base_positions = np.asarray(base["positions"])
    positions, parents, log_weights = [], [], []
    for number in order_ids:
        number = int(number)
        block = dirty_blocks.get(number)
        if block is None:
            block = base_blocks.get(number)
            if block is None:
                raise StateError(
                    f"torn delta chain: arena block {number} is neither in "
                    "the base capture nor in the delta"
                )
            if block[0].shape[0] != count_of[number]:
                raise StateError(
                    f"torn delta chain: arena block {number} changed size "
                    "without being captured as dirty"
                )
            if number in clean_parents:
                block = (block[0], clean_parents[number], block[2])
        positions.append(block[0])
        parents.append(block[1])
        log_weights.append(block[2])
    return {
        "ids": order_ids.copy(),
        "counts": counts.copy(),
        "positions": (
            np.concatenate(positions)
            if positions
            else np.zeros((0, 3), dtype=base_positions.dtype)
        ),
        "parents": (
            np.concatenate(parents) if parents else np.zeros(0, dtype=np.int32)
        ),
        "log_weights": (
            np.concatenate(log_weights)
            if log_weights
            else np.zeros(0, dtype=np.asarray(base["log_weights"]).dtype)
        ),
    }


def apply_engine_delta(base: dict, delta: dict) -> dict:
    """Overlay an engine delta capture on a full engine state tree."""
    if base.get("engine") != "factored" or delta.get("engine") != "factored":
        raise StateError("delta materialization supports the factored engine only")
    if base.get("delta"):
        raise StateError("base of a delta overlay must be a full capture")
    if not delta.get("delta"):
        raise StateError("overlay is not a delta capture")
    _check_serial(base, delta, "engine")
    out = {key: delta[key] for key in _ENGINE_FULL_KEYS}
    # Clean-marker resolution: a delta whose reader belief / selector tree
    # did not change since the parent ships ``{"__clean__": True}`` instead
    # of the state; the materialized tree takes the base's copy verbatim
    # (array copies / deepcopy — no re-encoding, so bitwise-exact).
    reader = out["reader"]
    if isinstance(reader, dict) and reader.get("__clean__"):
        base_reader = base.get("reader")
        if not isinstance(base_reader, dict) or base_reader.get("__clean__"):
            raise StateError(
                "torn delta chain: reader marked clean but the base capture "
                "carries no reader belief"
            )
        out["reader"] = {
            name: np.asarray(value).copy() for name, value in base_reader.items()
        }
    selector = out["selector"]
    if isinstance(selector, dict) and selector.get("__clean__"):
        base_selector = base.get("selector")
        if not isinstance(base_selector, dict) or base_selector.get("__clean__"):
            raise StateError(
                "torn delta chain: selector marked clean but the base capture "
                "carries no selector state"
            )
        out["selector"] = copy.deepcopy(base_selector)
    out["arena"] = apply_arena_delta(base["arena"], delta["arena"])
    beliefs = delta["beliefs"]
    out["beliefs"] = {
        "ids": np.asarray(beliefs["ids"], dtype=np.int64).copy(),
        **_merge_rows(
            beliefs["ids"],
            base["beliefs"]["ids"],
            {name: np.asarray(base["beliefs"][name]) for name in _BELIEF_COLUMNS},
            beliefs["dirty_ids"],
            {name: np.asarray(beliefs[name]) for name in _BELIEF_COLUMNS},
            "belief",
        ),
    }
    return out


def apply_pipeline_delta(base: dict, delta: dict) -> dict:
    """Overlay a pipeline delta capture on a full pipeline state tree."""
    if base.get("delta"):
        raise StateError("base of a delta overlay must be a full capture")
    if not delta.get("delta"):
        raise StateError("overlay is not a delta capture")
    _check_serial(base, delta, "pipeline")
    visits = delta["visits"]
    # Key order mirrors a full capture's, so the materialized tree is
    # indistinguishable from one even in serialized (skeleton) form.
    return {
        "capture_serial": delta["capture_serial"],
        "emitted_ever": delta["emitted_ever"],
        "last_epoch_time": delta["last_epoch_time"],
        "visits": {
            "ids": np.asarray(visits["ids"], dtype=np.int64).copy(),
            **_merge_rows(
                visits["ids"],
                base["visits"]["ids"],
                {name: np.asarray(base["visits"][name]) for name in _VISIT_COLUMNS},
                visits["dirty_ids"],
                {name: np.asarray(visits[name]) for name in _VISIT_COLUMNS},
                "visit",
            ),
        },
    }


def apply_shard_delta(base: dict, delta: dict) -> dict:
    """Materialize one shard's full state tree from base + one delta."""
    return {
        "engine": apply_engine_delta(base["engine"], delta["engine"]),
        "pipeline": apply_pipeline_delta(base["pipeline"], delta["pipeline"]),
    }
