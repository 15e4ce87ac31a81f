"""Restore: rebuild a live :class:`ShardedRuntime` from a checkpoint.

Two restore modes, chosen by comparing the checkpoint's shard layout with
the requested one:

**Exact restore** — same shard count.  Every shard's state
tree is applied verbatim: RNG bit-generator states, reader beliefs, arena
blocks, visit bookkeeping.  The resumed run is *bitwise identical* to an
uninterrupted run — same events, same timestamps, same positions — because
every source of randomness and every piece of mutable state crosses the
checkpoint boundary intact (the arena's parent remapping was made
hole-layout-independent for exactly this reason).

**Elastic re-shard** — different shard count.  The per-object tables
(:mod:`.tables` — particle blocks, belief metadata, visit bookkeeping) are
repartitioned with the new layout's own router: each new shard's table is
what ``select`` picks for it out of the stack of every old shard's, so a
run can scale from N to M shards *without replaying from epoch 0* — and a
column added by a table's owner migrates unmentioned.
Three pieces of state cannot migrate exactly and are handled explicitly:

* **Reader beliefs** are duplicated per shard by design (each shard tracks
  the reader from the same broadcast evidence), so new shard ``m`` inherits
  the posterior of source shard ``m * N // M``.  Migrated objects' parent
  pointers then index a *different but equally valid* reader posterior —
  post-resampling reader particles are approximately i.i.d. posterior
  draws, so re-pointing is distributionally consistent (the same argument
  the filter itself uses for dropped parents after a reader resample).
* **RNG streams** are re-derived deterministically from the root seed, the
  new shard index, and the resume offset; splicing old bit-generator
  streams across a changed shard layout would correlate shards.
* **Spatial-index regions** (when enabled) migrate with the objects they
  cover.  Region ids are identical across the old shards — every shard
  records regions from the same broadcast reader poses under the same
  config — so new shard ``m`` takes the ``regions`` table of its reader
  donor shard, and its ``attached`` table is one more ``select``: the
  attachments of the objects ``m`` now owns, kept to the donor's region
  ids.  Without this the index restarted empty and every layout change
  paid a Case-2 warm-up window while regions re-recorded.

The re-shard path is also the live-migration engine:
:meth:`ShardedRuntime.reshard` snapshots the running shards and feeds the
trees through :func:`reshard_states` at an epoch boundary — same
repartitioning, no stop.

Consequently an exact restore is bitwise; a re-shard is exact on event
times and tags (the output policy's clock is deterministic) and accurate on
positions to the same tolerance as running sharded vs. unsharded.

Both modes apply unchanged to *differential* checkpoints:
:func:`~repro.state.checkpoint.load_checkpoint` materializes a delta chain
(full base + dirty-block deltas, replayed in order with per-link integrity
and serial-continuity checks) into state trees bit-for-bit identical to a
full snapshot's before this module ever sees them, so restoring the leaf of
a delta chain is exactly as bitwise as restoring a full checkpoint taken at
the same epoch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import RuntimeConfig
from ..errors import StateError
from ..models.joint import RFIDWorldModel
from ..runtime import EpochRouter, EventBus, ShardedRuntime
from ..spatial.region_index import SensingRegionIndex, check_snapshot
from ..streams.sinks import EventSink
from .checkpoint import _MALFORMED, CheckpointManifest, config_hash, load_checkpoint
from .tables import check, select


def restore_runtime(
    path,
    model: RFIDWorldModel,
    runtime_config: Optional[RuntimeConfig] = None,
    sink: Optional[EventSink] = None,
    bus: Optional[EventBus] = None,
) -> Tuple[ShardedRuntime, CheckpointManifest]:
    """Rebuild a runtime from a checkpoint file and prime it to resume.

    Parameters
    ----------
    path:
        Checkpoint file written by :func:`repro.state.save_checkpoint`
        (or by the runtime's periodic checkpointing).  Every file's
        SHA-256 trailer is checked before its state is applied.
    model:
        The world model — models are code + fitted parameters, not runtime
        state, so the caller re-derives them the same way the original run
        did (e.g. from the trace's calibration data).
    runtime_config:
        Target shard layout.  ``None`` restores the recorded layout
        exactly; a different ``n_shards`` triggers the elastic re-shard
        path.  The *executor* is a free choice either way:
        a checkpoint taken under the process executor restores into serial
        shards and vice versa (state trees cross the worker link on the
        process path), and an exact restore stays bitwise regardless.

    Returns the primed runtime and the parsed manifest; resume by feeding
    ``trace.epochs(start=manifest.epochs_processed)`` to ``runtime.run``.
    Checkpointed query-operator state is *not* applied here (the standing
    queries live outside the runtime): re-attach the engines, then call
    :func:`apply_query_states`.
    """
    manifest = load_checkpoint(path)
    digest = config_hash(manifest.config, manifest.policy, manifest.initial_heading)
    if digest != manifest.config_digest:
        raise StateError(
            "checkpoint config hash does not match its own configuration "
            "payload — the header was modified after it was written"
        )
    target = runtime_config if runtime_config is not None else manifest.runtime
    exact = target.n_shards == manifest.n_shards
    # Everything that can be refused is refused before a runtime (and, for
    # the worker executors, its processes) exists.
    if exact:
        states = manifest.shard_states
        _check_tables(states)
    else:
        states = reshard_states(
            manifest.shard_states,
            EpochRouter(target.n_shards),
            target.n_shards,
            manifest.config.seed,
            manifest.config.spatial_index.enabled,
            manifest.epochs_processed,
        )
    runtime = ShardedRuntime(
        model,
        manifest.config,
        target,
        manifest.policy,
        sink=sink,
        bus=bus,
        initial_heading=manifest.initial_heading,
    )
    try:
        for shard, state in zip(runtime.shards, states):
            shard.restore(state)
        runtime.epochs_processed = manifest.epochs_processed
        runtime.bus.resume_from(manifest.bus_last_time)
    except BaseException as exc:
        runtime.abort()  # a refused restore leaves no worker process behind
        if isinstance(exc, StateError) or not isinstance(exc, Exception):
            raise
        raise StateError(f"{path}: shard state cannot be applied: {exc!r}") from exc
    if exact and runtime.supervisor is not None:
        # The restored-from checkpoint is the supervisor's recovery
        # baseline until the runtime writes its own (elastic restores
        # cannot reuse per-shard states across a different layout).
        runtime.supervisor.note_checkpoint(path)
    return runtime, manifest


def apply_query_states(runtime: ShardedRuntime, manifest: CheckpointManifest) -> List[str]:
    """Restore checkpointed query-operator state into the engines attached
    to ``runtime`` (via :meth:`ShardedRuntime.attach_query_engine`, usually
    through ``QueryBridge(..., runtime=..., name=...)``).

    Every state recorded in the checkpoint must find its engine: a missing
    attachment would silently serve fresh-window answers that diverge from
    the pre-crash server, so it is an error, not a skip.  Engines attached
    under names the checkpoint does not know keep their fresh state (they
    are *new* standing queries).  Returns the names restored.
    """
    restored: List[str] = []
    for name, state in sorted(manifest.query_states.items()):
        engine = runtime.query_engines.get(name)
        if engine is None:
            raise StateError(
                f"checkpoint carries query-engine state {name!r} but no "
                "engine with that name is attached to the runtime; attach "
                "it before applying query states"
            )
        try:
            engine.restore_state(state)
        except _MALFORMED as exc:  # the tree came from a file: any shape it likes
            raise StateError(f"malformed query-engine state {name!r}: {exc!r}") from exc
        restored.append(name)
    return restored


# ---------------------------------------------------------------------------
# Elastic re-sharding
# ---------------------------------------------------------------------------
def _tables(state: dict) -> Dict[str, dict]:
    """The per-object tables (:mod:`.tables`) of one factored shard tree."""
    return {
        "beliefs": state["engine"]["beliefs"],
        "arena": state["engine"]["arena"],
        "visits": state["pipeline"]["visits"],
    }


def _check_tables(shard_states: List[dict]) -> None:
    """Refuse a shard tree that is not the factored filter's, or whose
    per-object or selector tables are inconsistent, before any shard sees it."""
    for index, state in enumerate(shard_states):
        kind = state["engine"].get("engine")
        if kind != "factored":
            raise StateError(
                f"shard {index} holds {kind!r} engine state; shards restore "
                "factored-filter state only"
            )
        for name, table in _tables(state).items():
            check(table, f"shard {index} {name} table")
        if state["engine"].get("selector") is not None:
            check_snapshot(state["engine"]["selector"], f"shard {index} selector")


def _owned_ids(table: dict, router, n_new: int) -> List[np.ndarray]:
    """Per new shard, the ids of ``table`` it owns, in the table's order."""
    ids = np.asarray(table["ids"])
    owners = np.fromiter(map(router.shard_of, ids.tolist()), np.int64, ids.size)
    return [ids[owners == m] for m in range(n_new)]


def _reshard_rng_state(root_seed: int, shard_index: int, n_shards: int, offset: int) -> dict:
    """Fresh, deterministic bit-generator state for a re-sharded engine.

    Keyed on the resume offset too, so restoring the same checkpoint into
    the same layout twice is reproducible while a later checkpoint of the
    same run yields independent streams.
    """
    seq = np.random.SeedSequence(
        [int(root_seed), int(shard_index), int(n_shards), int(offset)]
    )
    return np.random.default_rng(seq).bit_generator.state


def _migrate_selector(
    shard_states: List[dict], source_index: int, router, m: int
) -> dict:
    """Selector snapshot for new shard ``m``: regions travel with objects.

    Region geometry, recording order, ids, and the ``next_id`` watermark
    are shared across old shards (every shard records from the same
    broadcast reader poses under the same config), so the ``regions`` table
    comes from the reader-donor shard; the ``attached`` table holds the
    objects shard ``m`` now owns, selected out of every old shard's, each
    kept to the region ids the donor's table holds.
    """
    source = shard_states[source_index]["engine"].get("selector")
    if source is None:  # structurally valid, semantically empty
        return {**SensingRegionIndex().snapshot(), "last_region_id": None, "last_center": None}
    old = [s["engine"]["selector"] for s in shard_states if s["engine"].get("selector")]
    tables = [selector["attached"] for selector in old]
    ids = np.concatenate([np.asarray(table["ids"], dtype=np.int64) for table in tables])
    owned = np.fromiter((router.shard_of(n) == m for n in ids.tolist()), bool, ids.size)
    table = select(tables, np.unique(ids[owned]), "selector attached")
    keep = np.isin(table["regions"], source["regions"]["ids"])
    rows = np.repeat(np.arange(table["ids"].size), table["counts"])[keep]
    counts = np.bincount(rows, minlength=table["ids"].size)
    return {
        "next_id": max(int(selector["next_id"]) for selector in old),
        "regions": source["regions"],
        "attached": {
            "ids": table["ids"][counts > 0],
            "counts": counts[counts > 0],
            "regions": table["regions"][keep],
        },
        "last_region_id": source["last_region_id"],
        "last_center": source["last_center"],
    }


def reshard_states(
    shard_states: List[dict],
    router,
    n_new: int,
    root_seed: int,
    spatial_enabled: bool,
    epochs_processed: int,
) -> List[dict]:
    """Repartition N materialized shard state trees onto M shards.

    The core of the elastic restore path, factored out so
    :meth:`ShardedRuntime.reshard` can migrate a *running* runtime's state
    through the identical transformation (snapshot → repartition → restore)
    at an epoch boundary.  Returns one ``{"engine", "pipeline"}`` tree per
    new shard, ready for ``shard.restore``.
    """
    n_old = len(shard_states)
    _check_tables(shard_states)

    # Every object's rows go to its new owner.  A new shard's tables hold
    # its objects in a deterministic order: old shard index, then the old
    # table's own order; arena blocks follow the belief order (a compressed
    # belief has no block).
    old = [_tables(state) for state in shard_states]
    belief_ids = [_owned_ids(tables["beliefs"], router, n_new) for tables in old]
    visit_ids = [_owned_ids(tables["visits"], router, n_new) for tables in old]
    emitted_ids = [  # an id set: a table without columns
        _owned_ids({"ids": state["pipeline"]["emitted_ever"]}, router, n_new)
        for state in shard_states
    ]

    def gather(name: str, ids: List[np.ndarray]) -> dict:
        return select([tables[name] for tables in old], np.concatenate(ids), name)

    out: List[dict] = []
    for m in range(n_new):
        source_index = (m * n_old) // n_new
        source = shard_states[source_index]
        engine_src = source["engine"]
        mine = [ids[m] for ids in belief_ids]
        live = [
            ids[np.isin(ids, tables["arena"]["ids"])] for ids, tables in zip(mine, old)
        ]
        beliefs = gather("beliefs", mine)
        engine_state = {
            "engine": "factored",
            "rng_state": _reshard_rng_state(
                root_seed, m, n_new, epochs_processed
            ),
            "epoch_index": engine_src["epoch_index"],
            "active_count": int(beliefs["ids"].size),
            "stats": dict(engine_src["stats"]),
            "arena_stats": {"grows": 0, "compactions": 0},
            "last_reported": engine_src["last_reported"],
            "last_reported_epoch": engine_src["last_reported_epoch"],
            "reader": engine_src["reader"],
            "arena": gather("arena", live),
            "beliefs": beliefs,
            "selector": (
                _migrate_selector(shard_states, source_index, router, m)
                if spatial_enabled
                else None
            ),
        }
        pipeline_state = {
            "visits": gather("visits", [ids[m] for ids in visit_ids]),
            "emitted_ever": np.unique(np.concatenate([ids[m] for ids in emitted_ids])),
            "last_epoch_time": source["pipeline"]["last_epoch_time"],
        }
        out.append({"engine": engine_state, "pipeline": pipeline_state})
    return out
