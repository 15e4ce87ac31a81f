"""Delta materialization: overlay differential captures onto a base tree.

A *delta capture* (``FilterShard.snapshot(mode="delta")``) records what
changed in a shard since its previous capture: per-epoch scalars and the
RNG/reader/selector state in full, and for each per-object table
(:mod:`.tables` — beliefs, arena blocks, visits) a
:func:`~.tables.dirty_cut`: the complete **id order** ``ids`` (tiny — it
carries ordering, which is semantically load-bearing, and deletions, which
are just absences from the list) plus ``dirty_ids`` and the columns' rows
for those objects only.  Replaying one is ``select([dirty rows, base],
ids)`` per table — this module names no column:

    full tree at epoch T  =  apply_shard_delta(tree at T-k, delta at T)

The result is **exactly** the tree a full capture at the same epoch would
have produced — array-for-array, scalar-for-scalar — which is what lets the
checkpoint layer (:mod:`.checkpoint`) restore a base + delta chain
bitwise-identically to a full snapshot, and lets tests assert that equality
directly.

Chain integrity is proven, not assumed: every shard capture carries one
``capture_serial`` and every delta the serial of its parent capture;
:func:`apply_shard_delta` refuses an overlay whose parent serial does not
match the base tree's serial (a *torn chain* — a capture was taken, or a
checkpoint was written, between the two).  The same check runs at save time
(:func:`.checkpoint.save_checkpoint`), so a torn chain is never written in
the first place.
"""

from __future__ import annotations

import numpy as np

from ..errors import StateError
from .tables import check, columns, select

#: Engine-tree keys a delta ships in full (they change every epoch, or are
#: cheap): everything except the belief/arena column data.
_ENGINE_FULL_KEYS = (
    "engine",
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


def is_delta_state(state: dict) -> bool:
    """True when a shard state tree is a delta capture, not a full one."""
    return bool(state.get("delta"))


def _overlay(base: dict, delta: dict, what: str) -> dict:
    """The full table at the delta's capture: every object of the delta's
    ``ids``, in that order, takes its rows from the delta when it is one of
    ``dirty_ids`` and from the base otherwise (row and block tables alike;
    an object in neither is a torn chain, an object in ``dirty_ids`` only
    is a malformed delta)."""
    check(base, f"base {what} table")
    names = columns(base)
    try:
        # Everything of the base's shape that is not a column: the ids and,
        # for a block table, each block's size — in full, for every object.
        order = {key: delta[key] for key in base if key not in names}
        rows = {name: delta[name] for name in names}
    except KeyError as exc:
        raise StateError(
            f"delta {what} table lacks {exc.args[0]!r}, which its base has"
        ) from None
    check(order, f"delta {what} order")
    dirty = {**select([order], delta["dirty_ids"], f"delta {what} order"), **rows}
    check(dirty, f"delta {what} table")
    return select([dirty, base], delta["ids"], f"torn delta chain: {what} table")


def apply_arena_delta(base: dict, delta: dict) -> dict:
    """Overlay an arena delta capture on a full arena snapshot.

    Two rules are the arena's own: a clean block keeps its size (a block
    that changed size was rewritten, hence dirty), and a ``clean_<column>``
    entry — shipped when one column of *every* block changed, narrowed (see
    ``BeliefArena.delta_snapshot``) — overwrites that column's rows in the
    clean blocks.
    """
    merged = _overlay(base, delta, "arena")
    if not np.array_equal(merged["counts"], delta["counts"]):
        raise StateError(
            "torn delta chain: an arena block changed size without being "
            "captured as dirty"
        )
    for name in columns(base):
        patch = delta.get(f"clean_{name}")
        if patch is None:
            continue
        clean_rows = np.repeat(
            ~np.isin(merged["ids"], delta["dirty_ids"]), merged["counts"]
        )
        if np.shape(patch) != (int(clean_rows.sum()),):
            raise StateError(
                f"delta arena clean_{name} does not cover the clean blocks"
            )
        merged[name][clean_rows] = patch
    return merged


def apply_engine_delta(base: dict, delta: dict) -> dict:
    """Overlay an engine delta capture on a full engine state tree."""
    if base.get("engine") != "factored" or delta.get("engine") != "factored":
        raise StateError("delta materialization supports the factored engine only")
    out = {key: delta[key] for key in _ENGINE_FULL_KEYS}
    out["arena"] = apply_arena_delta(base["arena"], delta["arena"])
    out["beliefs"] = _overlay(base["beliefs"], delta["beliefs"], "belief")
    return out


def apply_pipeline_delta(base: dict, delta: dict) -> dict:
    """Overlay a pipeline delta capture on a full pipeline state tree."""
    # Key order mirrors a full capture's, so the materialized tree is
    # indistinguishable from one even in serialized (skeleton) form.
    return {
        "emitted_ever": delta["emitted_ever"],
        "last_epoch_time": delta["last_epoch_time"],
        "visits": _overlay(base["visits"], delta["visits"], "visit"),
    }


def apply_shard_delta(base: dict, delta: dict) -> dict:
    """Materialize one shard's full state tree from base + one delta."""
    if is_delta_state(base):
        raise StateError("base of a delta overlay must be a full capture")
    if not is_delta_state(delta):
        raise StateError("overlay is not a delta capture")
    parent, have = delta.get("parent_capture_serial"), base.get("capture_serial")
    if have is None or parent != have:
        raise StateError(
            f"torn delta chain: the delta chains onto capture {parent!r} "
            f"but the base tree is capture {have!r}"
        )
    return {
        "capture_serial": delta["capture_serial"],
        "engine": apply_engine_delta(base["engine"], delta["engine"]),
        "pipeline": apply_pipeline_delta(base["pipeline"], delta["pipeline"]),
    }
