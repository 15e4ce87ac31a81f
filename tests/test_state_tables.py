"""Per-object state tables: one ``select`` over a stack of tables under the
delta overlay and the elastic re-shard (``repro.state.tables``).

* The row-by-row overlay and re-shard this replaced live on here, verbatim,
  as oracles: on warm shards the table versions return the same trees —
  key order, dtype, shape and bytes.
* ``select(ts, ids)`` — the rows of ``ids`` out of the concatenation of
  ``ts``, first occurrence wins — is checked against a per-row Python
  reference on random tables.
* A column ``repro.state`` has never heard of rides through the overlay and
  the re-shard: adding per-object state is an edit to its owner only.
* A table that disagrees with itself — an id named twice, a short or missing
  column, fractional ids — is a ``StateError`` on every entry point, and a
  refused restore leaves no runtime (and no worker process) behind.
"""

import copy
import multiprocessing
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ArenaConfig,
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
)
from repro.errors import StateError
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet
from repro.models.joint import RFIDWorldModel
from repro.models.motion import MotionParams
from repro.models.sensing import SensingNoiseParams
from repro.models.sensor import SensorParams
from repro.runtime import EpochRouter, ShardedRuntime
from repro.state import (
    apply_shard_delta,
    load_checkpoint,
    read_checkpoint_header,
    reshard_states,
    restore_runtime,
    save_checkpoint,
)
from repro.state.restore import _migrate_selector, _reshard_rng_state
from repro.state.tables import check, select
from repro.streams.records import make_epoch

from test_state_delta import tree_equal

N_TAGS = 60
READS = 6
#: Visits are pruned 30 s after their last read; 4 s epochs get there.
EPOCH_S = 4.0
POLICY = OutputPolicyConfig(delay_s=3.0, visit_retention_s=1.0)


# ---------------------------------------------------------------------------
# Warm shards: engaged, parked and compressed beliefs, freed arena blocks,
# pruned and re-entered visits, reader resamples on some links only
# ---------------------------------------------------------------------------
def world() -> RFIDWorldModel:
    shelves = ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, 8.0, 0.0)))])
    return RFIDWorldModel.build(
        shelves,
        shelf_tags={0: np.array([2.0, 1.0, 0.0]), 1: np.array([2.0, 7.0, 0.0])},
        sensor_params=SensorParams(a=(4.0, 0.0, -0.9), b=(0.0, -6.0)),
        motion_params=MotionParams(velocity=(0.0, 0.1, 0.0), sigma=(0.01, 0.01, 0.0)),
        sensing_params=SensingNoiseParams(sigma=(0.01, 0.01, 0.0)),
    )


def inference_config(dtype: str) -> InferenceConfig:
    config = (
        InferenceConfig(reader_particles=40, object_particles=60, seed=3)
        .with_index()
        .with_compression(unread_epochs=6)
        .with_budget(
            tiers=(10, 25),
            decay_after_epochs=3,
            decay_every_epochs=2,
            settle_error_sq_ft=1000.0,
        )
    )
    return replace(config, arena=ArenaConfig(initial_capacity=128, dtype=dtype))


def step(runtime: ShardedRuntime, t: int) -> None:
    if t == 0:
        tags = list(range(N_TAGS))
    else:
        tags = [(t * READS + i) % N_TAGS for i in range(READS)]
    runtime.step(
        make_epoch(
            EPOCH_S * t, (0.0, 1.0 + 0.1 * t), object_tags=tags, reported_heading=0.0
        )
    )


def warm_runtime(dtype="float64", n_shards=1, epochs=5, executor="serial"):
    runtime = ShardedRuntime(
        world(),
        inference_config(dtype),
        RuntimeConfig(n_shards=n_shards, executor=executor),
        POLICY,
    )
    for t in range(epochs):
        step(runtime, t)
    return runtime


def capture_chain(dtype: str, n_shards: int):
    """Per shard: a full base capture, then a delta after every epoch (plus
    one unstepped, empty delta), and a final full capture of every shard."""
    runtime = warm_runtime(dtype, n_shards)
    bases = [shard.snapshot("full") for shard in runtime.shards]
    links: List[List[dict]] = [[] for _ in runtime.shards]
    for t in range(5, 14):
        step(runtime, t)
        for index, shard in enumerate(runtime.shards):
            links[index].append(shard.snapshot("delta"))
            if t == 9:
                links[index].append(shard.snapshot("delta"))  # nothing changed
    finals = [shard.snapshot("full") for shard in runtime.shards]
    runtime.abort()
    return bases, links, finals


@pytest.fixture(scope="module", params=[("float64", 1), ("float32", 4)])
def chain(request):
    return capture_chain(*request.param)


# ---------------------------------------------------------------------------
# Oracles: the deleted row-by-row implementations, verbatim
# ---------------------------------------------------------------------------
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
_VISIT_COLUMNS = ("entered", "last_read", "emitted", "has_pos", "pos")


def _merge_rows(
    order_ids: np.ndarray,
    base_ids: np.ndarray,
    base_columns: Dict[str, np.ndarray],
    dirty_ids: np.ndarray,
    dirty_columns: Dict[str, np.ndarray],
    what: str,
) -> Dict[str, np.ndarray]:
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


def oracle_arena_delta(base: dict, delta: dict) -> dict:
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
                (np.asarray(delta["clean_parents"], dtype=base["parents"].dtype),),
                "delta arena parents",
            ).items()
        }
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


def oracle_shard_delta(base: dict, delta: dict) -> dict:
    """The three tables through the deleted code; everything else (scalars,
    reader, selector — untouched by the table rewrite) from the live one."""
    out = apply_shard_delta(base, delta)
    beliefs = delta["engine"]["beliefs"]
    out["engine"]["arena"] = oracle_arena_delta(
        base["engine"]["arena"], delta["engine"]["arena"]
    )
    out["engine"]["beliefs"] = {
        "ids": np.asarray(beliefs["ids"], dtype=np.int64).copy(),
        **_merge_rows(
            beliefs["ids"],
            base["engine"]["beliefs"]["ids"],
            {n: np.asarray(base["engine"]["beliefs"][n]) for n in _BELIEF_COLUMNS},
            beliefs["dirty_ids"],
            {n: np.asarray(beliefs[n]) for n in _BELIEF_COLUMNS},
            "belief",
        ),
    }
    visits = delta["pipeline"]["visits"]
    out["pipeline"]["visits"] = {
        "ids": np.asarray(visits["ids"], dtype=np.int64).copy(),
        **_merge_rows(
            visits["ids"],
            base["pipeline"]["visits"]["ids"],
            {n: np.asarray(base["pipeline"]["visits"][n]) for n in _VISIT_COLUMNS},
            visits["dirty_ids"],
            {n: np.asarray(visits[n]) for n in _VISIT_COLUMNS},
            "visit",
        ),
    }
    return out


def _arena_blocks(
    arena_state: dict,
) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    counts = np.asarray(arena_state["counts"], dtype=np.int64)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    positions = np.asarray(arena_state["positions"])
    parents = np.asarray(arena_state["parents"])
    log_weights = np.asarray(arena_state["log_weights"])
    blocks = {}
    for i, oid in enumerate(np.asarray(arena_state["ids"], dtype=np.int64)):
        block = slice(int(offsets[i]), int(offsets[i + 1]))
        blocks[int(oid)] = (positions[block], parents[block], log_weights[block])
    return blocks


def _belief_entries(engine_state: dict) -> List[dict]:
    beliefs = engine_state["beliefs"]
    blocks = _arena_blocks(engine_state["arena"])
    ids = np.asarray(beliefs["ids"], dtype=np.int64)
    compressed = np.asarray(beliefs["compressed"], dtype=bool)
    settled = np.asarray(beliefs["settled"], dtype=bool)
    budget_epoch = np.asarray(beliefs["budget_epoch"], dtype=np.int64)
    entries = []
    for i, number in enumerate(ids):
        number = int(number)
        entry = {
            "number": number,
            "created": int(beliefs["created"][i]),
            "last_read": int(beliefs["last_read"][i]),
            "last_split": int(beliefs["last_split"][i]),
            "anchor": np.asarray(beliefs["anchors"][i], dtype=float),
            "compressed": bool(compressed[i]),
            "gauss_mean": np.asarray(beliefs["gauss_mean"][i], dtype=float),
            "gauss_cov": np.asarray(beliefs["gauss_cov"][i], dtype=float),
            "settled": bool(settled[i]),
            "budget_epoch": int(budget_epoch[i]),
            "block": None if compressed[i] else blocks.get(number),
        }
        if not entry["compressed"] and entry["block"] is None:
            raise StateError(f"belief {number} has no arena block in checkpoint")
        entries.append(entry)
    return entries


def _visit_entries(pipeline_state: dict) -> List[dict]:
    visits = pipeline_state["visits"]
    ids = np.asarray(visits["ids"], dtype=np.int64)
    has_pos = np.asarray(visits["has_pos"], dtype=bool)
    return [
        {
            "number": int(number),
            "entered": float(visits["entered"][i]),
            "last_read": float(visits["last_read"][i]),
            "emitted": bool(visits["emitted"][i]),
            "has_pos": bool(has_pos[i]),
            "pos": np.asarray(visits["pos"][i], dtype=float),
        }
        for i, number in enumerate(ids)
    ]


def _pack_beliefs(entries: List[dict]) -> Tuple[dict, dict]:
    beliefs = {
        "ids": np.asarray([e["number"] for e in entries], dtype=np.int64),
        "created": np.asarray([e["created"] for e in entries], dtype=np.int64),
        "last_read": np.asarray([e["last_read"] for e in entries], dtype=np.int64),
        "last_split": np.asarray([e["last_split"] for e in entries], dtype=np.int64),
        "anchors": (
            np.stack([e["anchor"] for e in entries])
            if entries
            else np.zeros((0, 3))
        ),
        "compressed": np.asarray([e["compressed"] for e in entries], dtype=bool),
        "gauss_mean": (
            np.stack([e["gauss_mean"] for e in entries])
            if entries
            else np.zeros((0, 3))
        ),
        "gauss_cov": (
            np.stack([e["gauss_cov"] for e in entries])
            if entries
            else np.zeros((0, 3, 3))
        ),
        "settled": np.asarray([e["settled"] for e in entries], dtype=bool),
        "budget_epoch": np.asarray(
            [e["budget_epoch"] for e in entries], dtype=np.int64
        ),
    }
    live = [e for e in entries if not e["compressed"]]
    float_dtype = live[0]["block"][0].dtype if live else np.float64
    arena = {
        "ids": np.asarray([e["number"] for e in live], dtype=np.int64),
        "counts": np.asarray(
            [e["block"][0].shape[0] for e in live], dtype=np.int64
        ),
        "positions": (
            np.concatenate([e["block"][0] for e in live])
            if live
            else np.zeros((0, 3), dtype=float_dtype)
        ),
        "parents": (
            np.concatenate([e["block"][1] for e in live])
            if live
            else np.zeros(0, dtype=np.int32)
        ),
        "log_weights": (
            np.concatenate([e["block"][2] for e in live])
            if live
            else np.zeros(0, dtype=float_dtype)
        ),
    }
    return beliefs, arena


def oracle_reshard_states(
    shard_states, router, n_new, root_seed, spatial_enabled, epochs_processed
) -> List[dict]:
    n_old = len(shard_states)
    beliefs_by_new: List[List[dict]] = [[] for _ in range(n_new)]
    visits_by_new: List[List[dict]] = [[] for _ in range(n_new)]
    emitted_by_new: List[set] = [set() for _ in range(n_new)]
    for state in shard_states:
        for entry in _belief_entries(state["engine"]):
            beliefs_by_new[router.shard_of(entry["number"])].append(entry)
        for visit in _visit_entries(state["pipeline"]):
            visits_by_new[router.shard_of(visit["number"])].append(visit)
        for number in np.asarray(state["pipeline"]["emitted_ever"]):
            emitted_by_new[router.shard_of(int(number))].add(int(number))

    out: List[dict] = []
    for m in range(n_new):
        source_index = (m * n_old) // n_new
        source = shard_states[source_index]
        engine_src = source["engine"]
        beliefs, arena = _pack_beliefs(beliefs_by_new[m])
        engine_state = {
            "engine": "factored",
            "rng_state": _reshard_rng_state(
                root_seed, m, n_new, epochs_processed
            ),
            "epoch_index": engine_src["epoch_index"],
            "active_count": len(beliefs_by_new[m]),
            "stats": dict(engine_src["stats"]),
            "arena_stats": {"grows": 0, "compactions": 0},
            "last_reported": engine_src["last_reported"],
            "last_reported_epoch": engine_src["last_reported_epoch"],
            "reader": engine_src["reader"],
            "arena": arena,
            "beliefs": beliefs,
            "selector": (
                _migrate_selector(shard_states, source_index, router, m)
                if spatial_enabled
                else None
            ),
        }
        entries = visits_by_new[m]
        pipeline_state = {
            "visits": {
                "ids": np.asarray([v["number"] for v in entries], dtype=np.int64),
                "entered": np.asarray([v["entered"] for v in entries]),
                "last_read": np.asarray([v["last_read"] for v in entries]),
                "emitted": np.asarray([v["emitted"] for v in entries], dtype=bool),
                "has_pos": np.asarray([v["has_pos"] for v in entries], dtype=bool),
                "pos": (
                    np.stack([v["pos"] for v in entries])
                    if entries
                    else np.zeros((0, 3))
                ),
            },
            "emitted_ever": np.asarray(sorted(emitted_by_new[m]), dtype=np.int64),
            "last_epoch_time": source["pipeline"]["last_epoch_time"],
        }
        out.append({"engine": engine_state, "pipeline": pipeline_state})
    return out


def assert_trees_bytes_equal(ours, oracle):
    """Key set and order, dtype, shape (``tree_equal``) — and bytes, which
    unlike ``array_equal`` tell ``-0.0`` from ``0.0`` and NaN payloads apart."""
    assert tree_equal(ours, oracle) is None, tree_equal(ours, oracle)

    def walk(a, b):
        if isinstance(a, dict):
            for key in a:
                walk(a[key], b[key])
        elif isinstance(a, (list, tuple)):
            for x, y in zip(a, b):
                walk(x, y)
        elif isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    walk(ours, oracle)


# ---------------------------------------------------------------------------
# (a) Oracle parity
# ---------------------------------------------------------------------------
class TestOverlayMatchesRowByRowOracle:
    def test_fixture_covers_the_cases(self, chain):
        bases, links, finals = chain
        beliefs = [link["engine"]["beliefs"] for link in links[0]]
        arenas = [link["engine"]["arena"] for link in links[0]]
        visits = [link["pipeline"]["visits"] for link in links[0]]
        final = finals[0]["engine"]["beliefs"]
        parked = final["settled"] & ~final["compressed"]
        assert final["compressed"].any() and parked.any()
        assert (~final["settled"] & ~final["compressed"]).any()  # engaged
        assert {bool(a["parents_dirty"]) for a in arenas} == {True, False}
        assert any(b["dirty_ids"].size == 0 for b in beliefs)  # the empty link
        # Blocks freed by compression and visits pruned since the base.
        assert len(arenas[-1]["ids"]) < len(bases[0]["engine"]["arena"]["ids"])
        gone = set(bases[0]["pipeline"]["visits"]["ids"].tolist())
        assert any(gone - set(v["ids"].tolist()) for v in visits)

    def test_chain_materializes_like_the_oracle(self, chain):
        bases, links, finals = chain
        for base, shard_links, final in zip(bases, links, finals):
            tree = base
            for delta in shard_links:
                ours = apply_shard_delta(tree, delta)
                assert_trees_bytes_equal(ours, oracle_shard_delta(tree, delta))
                tree = ours
            # ... and the last link is the full capture taken right after
            # it, capture serials aside.
            assert tree_equal(tree["engine"]["arena"], final["engine"]["arena"]) is None
            assert tree_equal(tree["engine"]["beliefs"], final["engine"]["beliefs"]) is None
            assert tree_equal(tree["pipeline"]["visits"], final["pipeline"]["visits"]) is None

    def test_object_absent_from_the_delta_order_is_dropped(self, chain):
        bases, links, _ = chain
        base, delta = bases[0], copy.deepcopy(links[0][0])
        beliefs = delta["engine"]["beliefs"]
        victim = next(
            int(n) for n in beliefs["ids"] if n not in set(beliefs["dirty_ids"].tolist())
        )
        beliefs["ids"] = beliefs["ids"][beliefs["ids"] != victim]
        ours = apply_shard_delta(base, delta)
        assert victim not in ours["engine"]["beliefs"]["ids"]
        assert_trees_bytes_equal(ours, oracle_shard_delta(base, delta))

    def test_results_never_alias_their_inputs(self, chain):
        bases, links, _ = chain
        ours = apply_shard_delta(bases[0], links[0][0])
        for part, name in (("engine", "beliefs"), ("engine", "arena"), ("pipeline", "visits")):
            for key, array in ours[part][name].items():
                for source in (bases[0], links[0][0]):
                    other = source[part][name].get(key)
                    if isinstance(other, np.ndarray):
                        assert not np.shares_memory(array, other), (name, key)


class _Router:
    """Sends every object to one shard: the other targets receive nothing."""

    def __init__(self, owner):
        self.owner = owner

    def shard_of(self, number):
        return self.owner


class TestReshardMatchesRowByRowOracle:
    @pytest.mark.parametrize("n_new", [2, 3])
    def test_reshard_like_the_oracle(self, chain, n_new):
        _, _, finals = chain  # 1 -> 2, 1 -> 3 (float64); 4 -> 2, 4 -> 3 (float32)
        args = (EpochRouter(n_new), n_new, 3, True, 14)
        ours = reshard_states(finals, *args)
        oracle = oracle_reshard_states(finals, *args)
        assert len(ours) == n_new
        assert sum(len(s["engine"]["beliefs"]["ids"]) for s in ours) == N_TAGS
        for new, ref in zip(ours, oracle):
            assert_trees_bytes_equal(new, ref)

    def test_target_that_receives_nothing(self, chain):
        _, _, finals = chain
        dtype = finals[0]["engine"]["arena"]["positions"].dtype
        args = (_Router(1), 3, 3, True, 14)
        ours = reshard_states(finals, *args)
        oracle = oracle_reshard_states(finals, *args)
        assert_trees_bytes_equal(ours[1], oracle[1])
        for empty, ref in ((ours[0], oracle[0]), (ours[2], oracle[2])):
            arena = empty["engine"]["arena"]
            assert arena["ids"].size == 0 and arena["positions"].shape == (0, 3)
            # The one permitted difference from the row-by-row code, which
            # fell back to float64 when a shard received no live belief: an
            # empty shard of a float32 arena stays float32.
            assert arena["positions"].dtype == dtype
            assert arena["log_weights"].dtype == dtype
            ref["engine"]["arena"]["positions"] = ref["engine"]["arena"]["positions"].astype(dtype)
            ref["engine"]["arena"]["log_weights"] = ref["engine"]["arena"]["log_weights"].astype(dtype)
            assert_trees_bytes_equal(empty, ref)

    def test_resharded_trees_restore(self, chain):
        _, _, finals = chain
        states = reshard_states(finals, EpochRouter(3), 3, 3, True, 14)
        config = inference_config(str(finals[0]["engine"]["arena"]["positions"].dtype))
        runtime = ShardedRuntime(world(), config, RuntimeConfig(n_shards=3), POLICY)
        for shard, state in zip(runtime.shards, states):
            shard.restore(state)
        assert len(runtime.known_objects()) == N_TAGS
        runtime.abort()


# ---------------------------------------------------------------------------
# (b) select against a per-row reference
# ---------------------------------------------------------------------------
@st.composite
def tables(draw, block: bool):
    """1-3 tables of one schema (ids may repeat within and across them)."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        ids = draw(st.lists(st.integers(0, 12), max_size=8))
        counts = [draw(st.integers(0, 3)) for _ in ids] if block else [1] * len(ids)
        rows = sum(counts)
        table = {"ids": np.asarray(ids, dtype=np.int64)}
        if block:
            table["counts"] = np.asarray(counts, dtype=np.int64)
        table["a"] = np.asarray(
            draw(st.lists(st.integers(-99, 99), min_size=rows, max_size=rows)),
            dtype=np.int32,
        )
        table["b"] = draw(
            st.lists(st.floats(-9, 9, width=32), min_size=2 * rows, max_size=2 * rows)
            .map(lambda v: np.asarray(v, dtype=np.float32).reshape(-1, 2))
        )
        out.append(table)
    return out


def reference_rows(tables_: List[dict]) -> Dict[int, Tuple[list, list]]:
    """``{id: (its a rows, its b rows)}``, first occurrence wins."""
    found: Dict[int, Tuple[list, list]] = {}
    for table in tables_:
        counts = table.get("counts", np.ones(len(table["ids"]), dtype=np.int64))
        offset = 0
        for number, count in zip(table["ids"].tolist(), counts.tolist()):
            rows = slice(offset, offset + count)
            found.setdefault(
                number, (table["a"][rows].tolist(), table["b"][rows].tolist())
            )
            offset += count
    return found


class TestSelectProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), block=st.booleans())
    def test_select_over_a_stack_equals_per_row_reference(self, data, block):
        parts = data.draw(tables(block))
        reference = reference_rows(parts)
        present = sorted(reference)
        wanted = data.draw(st.permutations(present).map(lambda p: p[: len(p) // 2 + 1]))
        picked = select(parts, np.asarray(wanted, dtype=np.int64), "t")
        assert list(picked) == list(parts[0])
        assert picked["ids"].tolist() == wanted
        assert picked["a"].dtype == np.int32 and picked["b"].dtype == np.float32
        assert picked["b"].shape[1:] == (2,)
        a, b = [], []
        for number in wanted:
            a += reference[number][0]
            b += reference[number][1]
        assert picked["a"].tolist() == a and picked["b"].tolist() == b
        if block:
            assert picked["counts"].tolist() == [len(reference[n][0]) for n in wanted]
        else:
            assert "counts" not in picked

    def test_absent_id_names_the_table(self):
        table = {"ids": np.asarray([1, 2]), "a": np.zeros(2)}
        with pytest.raises(StateError, match="visits holds no object 7"):
            select([table], np.asarray([2, 7]), "visits")

    @pytest.mark.parametrize(
        "table, match",
        [
            ({"a": np.zeros(2)}, "t ids are not a flat integer array"),
            ({"ids": np.asarray([1.0, 2.0]), "a": np.zeros(2)}, "integer"),
            ({"ids": np.asarray([[1, 2]]), "a": np.zeros(2)}, "integer"),
            ({"ids": np.asarray([1, 2]), "a": np.zeros(3)}, "column 'a'"),
            ({"ids": np.asarray([1, 2]), "a": None}, "column 'a'"),
            ({"ids": np.asarray([1, 1]), "a": np.zeros(2)}, "twice"),
            ({"ids": np.asarray([1, 2]), "counts": np.asarray([1]), "a": np.zeros(1)}, "counts"),
            ({"ids": np.asarray([1, 2]), "counts": np.asarray([2, -1]), "a": np.zeros(1)}, "counts"),
            ({"ids": np.asarray([1, 2]), "counts": np.asarray([2, 1]), "a": np.zeros(2)}, "3 rows"),
        ],
    )
    def test_check_refuses(self, table, match):
        with pytest.raises(StateError, match=match):
            check(table, "t")

    def test_select_refuses_mixed_schemas(self):
        one = {"ids": np.asarray([1]), "a": np.zeros(1)}
        other = {"ids": np.asarray([2]), "b": np.zeros(1)}
        blocks = {"ids": np.asarray([2]), "counts": np.asarray([1]), "a": np.zeros(1)}
        for tables_ in ([one, other], [one, blocks]):
            with pytest.raises(StateError, match="disagree"):
                select(tables_, np.asarray([1]), "t")


# ---------------------------------------------------------------------------
# (c) A column repro.state has never heard of
# ---------------------------------------------------------------------------
def tag_rows(table: dict, name: str, salt: int) -> None:
    """Add a per-row column whose value encodes (object, salt) — and, in a
    block table, the row's place in its block — so it proves which source
    every materialized row came from."""
    ids = table["dirty_ids"] if "dirty_ids" in table else table["ids"]
    if "counts" not in table:
        table[name] = ids * 10 + salt
        return
    size = dict(zip(table["ids"].tolist(), table["counts"].tolist()))
    table[name] = np.asarray(
        [n * 1000 + row * 10 + salt for n in ids.tolist() for row in range(size[n])],
        dtype=np.int64,
    )


def expected_tag(table: dict, salt_of) -> np.ndarray:
    if "counts" not in table:
        return np.asarray([n * 10 + salt_of(n) for n in table["ids"].tolist()])
    return np.asarray(
        [
            n * 1000 + row * 10 + salt_of(n)
            for n, count in zip(table["ids"].tolist(), table["counts"].tolist())
            for row in range(count)
        ],
        dtype=np.int64,
    )


TABLES = (("engine", "beliefs"), ("engine", "arena"), ("pipeline", "visits"))


class TestUnknownColumnsRideThrough:
    def test_overlay_carries_a_synthetic_column(self, chain):
        bases, links, _ = chain
        base, delta = copy.deepcopy(bases[0]), copy.deepcopy(links[0][0])
        for part, name in TABLES:
            tag_rows(base[part][name], "synthetic", salt=1)
            tag_rows(delta[part][name], "synthetic", salt=2)
        merged = apply_shard_delta(base, delta)
        for part, name in TABLES:
            table = merged[part][name]
            dirty = set(delta[part][name]["dirty_ids"].tolist())
            assert dirty and dirty != set(table["ids"].tolist())
            np.testing.assert_array_equal(
                table["synthetic"], expected_tag(table, lambda n: 2 if n in dirty else 1)
            )
            # ... as the last column, after everything a full capture has.
            assert list(table)[-1] == "synthetic"
            assert list(table)[:-1] == list(bases[0][part][name])

    def test_reshard_carries_a_synthetic_column(self, chain):
        _, _, finals = chain
        finals = copy.deepcopy(finals)
        for state in finals:
            for part, name in TABLES:
                tag_rows(state[part][name], "synthetic", salt=5)
        resharded = reshard_states(finals, EpochRouter(3), 3, 3, True, 14)
        for state in resharded:
            for part, name in TABLES:
                table = state[part][name]
                assert table["ids"].size
                np.testing.assert_array_equal(
                    table["synthetic"], expected_tag(table, lambda n: 5)
                )

    def test_delta_lacking_a_base_column_is_refused(self, chain):
        bases, links, _ = chain
        base = copy.deepcopy(bases[0])
        tag_rows(base["engine"]["beliefs"], "synthetic", salt=1)
        with pytest.raises(StateError, match="belief table lacks 'synthetic'"):
            apply_shard_delta(base, links[0][0])


# ---------------------------------------------------------------------------
# (d) Malformed tables
# ---------------------------------------------------------------------------
def _repeat_first(table, key="ids"):
    table[key] = table[key].copy()
    table[key][1] = table[key][0]


def _repeat_dirty_arena_id(arena):
    # Two dirty blocks of one object: the block is shipped twice.
    assert arena["dirty_ids"].size >= 2
    _repeat_first(arena, "dirty_ids")


def _stray_dirty_id(beliefs):
    beliefs["dirty_ids"] = beliefs["dirty_ids"].copy()
    beliefs["dirty_ids"][0] = 10_000


def _fractional_ids(beliefs):
    beliefs["ids"] = beliefs["ids"] + 0.5


def _short_counts(arena):
    arena["counts"] = arena["counts"][:-1]


def _short_column(beliefs):
    beliefs["gauss_cov"] = beliefs["gauss_cov"][:-1]


def _missing_column(visits):
    del visits["pos"]


#: The eight malformed delta tables: (shard-tree path, tamper, message).
MALFORMED_DELTAS = [
    pytest.param(("engine", "beliefs"), _repeat_first, "belief order names an object twice", id="belief-id-twice"),
    pytest.param(("pipeline", "visits"), _repeat_first, "visit order names an object twice", id="visit-id-twice"),
    pytest.param(("engine", "beliefs"), _stray_dirty_id, "belief order holds no object 10000", id="dirty-id-not-in-ids"),
    pytest.param(("engine", "beliefs"), _fractional_ids, "belief order ids are not a flat integer", id="fractional-ids"),
    pytest.param(("engine", "arena"), _repeat_dirty_arena_id, "arena table names an object twice", id="arena-id-twice"),
    pytest.param(("engine", "arena"), _short_counts, "arena order counts are negative or do not match", id="short-counts"),
    pytest.param(("engine", "beliefs"), _short_column, "belief table column 'gauss_cov'", id="short-column"),
    pytest.param(("pipeline", "visits"), _missing_column, "visit table lacks 'pos'", id="missing-column"),
]


def tampering(shard, path, tamper):
    """Make ``shard``'s next captures lie: ``tamper`` edits one table."""
    capture = shard.snapshot

    def snapshot(mode="full"):
        state = capture(mode)
        tamper(state[path[0]][path[1]])
        return state

    shard.snapshot = snapshot


class TestMalformedDeltaTables:
    @pytest.mark.parametrize("path, tamper, message", MALFORMED_DELTAS)
    def test_apply_shard_delta_refuses(self, chain, path, tamper, message):
        bases, links, _ = chain
        delta = copy.deepcopy(links[0][0])
        tamper(delta[path[0]][path[1]])
        with pytest.raises(StateError, match=message):
            apply_shard_delta(bases[0], delta)

    @pytest.mark.parametrize("path, tamper, message", MALFORMED_DELTAS)
    def test_load_checkpoint_refuses(self, tmp_path, path, tamper, message):
        runtime = warm_runtime()
        base = save_checkpoint(runtime, str(tmp_path / "epoch_00000005"))
        for t in range(5, 8):
            step(runtime, t)
        tampering(runtime.shards[0], path, tamper)
        leaf = str(tmp_path / "epoch_00000008")
        save_checkpoint(runtime, leaf, mode="delta", parent=base)
        runtime.abort()
        for verify in (True, False):
            with pytest.raises(StateError, match=message):
                load_checkpoint(leaf, verify=verify)
        with pytest.raises(StateError, match=message):
            restore_runtime(leaf, world())

    def test_repeated_base_id_is_refused(self, chain):
        bases, links, _ = chain
        base = copy.deepcopy(bases[0])
        _repeat_first(base["engine"]["beliefs"])
        with pytest.raises(StateError, match="base belief table names an object twice"):
            apply_shard_delta(base, links[0][0])


def _negative_count(arena):
    arena["counts"] = arena["counts"].copy()
    arena["counts"][0], arena["counts"][1] = -1, arena["counts"][0] + arena["counts"][1] + 1


#: Malformed *full* trees: (path, tamper, message naming shard and table).
MALFORMED_FULL = [
    pytest.param(("engine", "beliefs"), _short_column, "shard 1 beliefs table column 'gauss_cov'", id="short-belief-column"),
    pytest.param(("pipeline", "visits"), lambda v: v.update(pos=v["pos"][:-1]), "shard 1 visits table column 'pos'", id="short-visit-column"),
    pytest.param(("engine", "arena"), _negative_count, "shard 1 arena table counts", id="negative-count"),
    pytest.param(("engine", "beliefs"), _repeat_first, "shard 1 beliefs table names an object twice", id="belief-id-twice"),
    pytest.param(("engine", "arena"), _repeat_first, "shard 1 arena table names an object twice", id="arena-id-twice"),
]


class TestRestoreChecksBeforeItApplies:
    @pytest.fixture
    def no_runtime(self, monkeypatch):
        """Fail the test if a runtime is constructed at all."""
        import repro.state.restore as module

        def refuse(*args, **kwargs):
            raise AssertionError("a runtime was built for a malformed checkpoint")

        monkeypatch.setattr(module, "ShardedRuntime", refuse)

    @pytest.mark.parametrize("path, tamper, message", MALFORMED_FULL)
    def test_tampered_full_tree_is_refused_before_a_runtime_exists(
        self, tmp_path, no_runtime, path, tamper, message
    ):
        runtime = warm_runtime(n_shards=2, epochs=9)
        tampering(runtime.shards[1], path, tamper)
        target = str(tmp_path / "ck")
        save_checkpoint(runtime, target)
        runtime.abort()
        assert load_checkpoint(target).n_shards == 2  # the file itself is sound
        with pytest.raises(StateError, match=message):
            restore_runtime(target, world())  # at the recorded layout
        with pytest.raises(StateError, match=message):
            restore_runtime(target, world(), runtime_config=RuntimeConfig(n_shards=3))

    @pytest.mark.parametrize("path, tamper, message", MALFORMED_FULL)
    def test_reshard_states_refuses(self, chain, path, tamper, message):
        _, _, finals = chain
        finals = [copy.deepcopy(state) for state in finals * 2]  # two shards at least
        tamper(finals[1][path[0]][path[1]])
        with pytest.raises(StateError, match=message):
            reshard_states(finals, EpochRouter(3), 3, 3, True, 14)

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_failed_apply_leaves_no_worker_behind(self, tmp_path, n_shards):
        """A tree the table check cannot fault — a belief without its arena
        block — fails inside the worker; the runtime built for it is torn
        down and the failure leaves as ``StateError``."""

        def orphan_a_belief(arena):
            keep = np.repeat(np.arange(arena["ids"].size) > 0, arena["counts"])
            for name in ("positions", "parents", "log_weights"):
                arena[name] = arena[name][keep]
            arena["ids"], arena["counts"] = arena["ids"][1:], arena["counts"][1:]

        runtime = warm_runtime(n_shards=2, epochs=4)  # nothing compressed yet
        tampering(runtime.shards[1], ("engine", "arena"), orphan_a_belief)
        target = str(tmp_path / "ck")
        save_checkpoint(runtime, target)
        runtime.abort()
        assert not multiprocessing.active_children()
        with pytest.raises(StateError, match="no arena block"):
            restore_runtime(
                target,
                world(),
                runtime_config=RuntimeConfig(n_shards=n_shards, executor="process"),
            )
        assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# (e) The spatial index's tables: checked where the other tables are
# ---------------------------------------------------------------------------
def _writable(table, key):
    table[key] = np.array(table[key])
    return table[key]


def _nan_bound(selector):
    _writable(selector["regions"], "lo")[0, 0] = np.nan


def _inverted_bounds(selector):
    _writable(selector["regions"], "lo")[0] = selector["regions"]["hi"][0] + 1.0


def _flat_bounds(selector):
    selector["regions"]["hi"] = selector["regions"]["hi"][:, :2]


def _stray_region(selector):
    _writable(selector["attached"], "regions")[0] = 10**6


#: Malformed selector trees: (tamper, message naming shard and defect).  A
#: NaN box overlaps nothing, so its objects would silently lose Case 2.
MALFORMED_SELECTORS = [
    pytest.param(_nan_bound, "shard 1 selector holds a region whose bounds are not finite", id="nan-bound"),
    pytest.param(_inverted_bounds, "shard 1 selector holds a region whose bounds are not finite with lo <= hi", id="lo-above-hi"),
    pytest.param(_flat_bounds, "shard 1 selector region bounds are not 2 boxes", id="bound-shape"),
    pytest.param(lambda s: _repeat_first(s["regions"]), "shard 1 selector regions table names an object twice", id="region-id-twice"),
    pytest.param(lambda s: _repeat_first(s["attached"]), "shard 1 selector attached table names an object twice", id="object-twice"),
    pytest.param(_stray_region, "shard 1 selector attaches an object to a region it does not hold", id="attached-to-no-region"),
]


class TestSelectorTablesAreChecked:
    @pytest.mark.parametrize("tamper, message", MALFORMED_SELECTORS)
    def test_refused_before_a_runtime_exists(self, tmp_path, monkeypatch, tamper, message):
        import repro.state.restore as module

        runtime = warm_runtime(n_shards=2, epochs=9)
        tampering(runtime.shards[1], ("engine", "selector"), tamper)
        target = str(tmp_path / "ck")
        save_checkpoint(runtime, target)
        runtime.abort()
        monkeypatch.setattr(module, "ShardedRuntime", None)  # building one fails the test
        for layout in (None, RuntimeConfig(n_shards=3)):  # exact, then re-shard
            with pytest.raises(StateError, match=message):
                restore_runtime(target, world(), runtime_config=layout)

    @pytest.mark.parametrize("tamper, message", MALFORMED_SELECTORS)
    def test_direct_shard_restore_refuses(self, tamper, message):
        runtime = warm_runtime(n_shards=2, epochs=9)
        state = runtime.shards[1].snapshot("full")
        tamper(state["engine"]["selector"])
        defect = message.replace("shard 1 selector", "region index")
        with pytest.raises(StateError, match=defect):
            runtime.shards[0].restore(state)
        runtime.abort()

    def test_index_checkpoint_header_holds_no_per_region_dicts(self, tmp_path):
        """Regions and attachments are tables: raw arrays in the body, an
        array marker each in the JSON skeleton."""
        runtime = warm_runtime(n_shards=2, epochs=9)
        target = str(tmp_path / "ck")
        save_checkpoint(runtime, target)
        runtime.abort()
        for record in read_checkpoint_header(target)["shards"]:
            selector = record["state"]["engine"]["selector"]
            assert set(selector) == {"next_id", "regions", "attached", "last_region_id", "last_center"}
            for name in ("regions", "attached"):
                assert all(set(leaf) == {"__array__"} for leaf in selector[name].values())
