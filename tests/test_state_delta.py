"""Differential checkpoints: delta capture, chain materialization, restore.

The acceptance guarantees of the delta-checkpoint subsystem:

* a base + delta chain, materialized by ``load_checkpoint``, is
  **tree-identical** (every array bit-for-bit, every scalar equal, key
  order included) to a full checkpoint written at the same epoch by an
  identical run with the same capture cadence;
* restoring the leaf (or any intermediate link) of a delta chain resumes
  bitwise-identically to the uninterrupted run — under the serial and
  process executors, with compression/compaction on or off;
* torn chains — an interloper capture between deltas, a deleted base or
  intermediate link, a cycle — fail loudly with :class:`StateError` at save
  or load, never materialize a half-right state;
* query-operator state (shared windows, pending tick, result cache) rides
  in the manifest's ``query_states``: a restored ``query`` run resumes
  standing-query answers *exactly*, including ticks whose sliding window
  spans the restore boundary (ROADMAP "Query-operator state", pinned here).
"""

import os

import numpy as np
import pytest

from repro.config import (
    ArenaConfig,
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
)
from repro.errors import StateError
from repro.inference.arena import BeliefArena
from repro.runtime import EventBus, QueryBridge, ShardedRuntime
from repro.runtime.shard import FilterShard
from repro.state import (
    apply_shard_delta,
    load_checkpoint,
    read_checkpoint_header,
    restore_runtime,
    save_checkpoint,
)

POLICY = OutputPolicyConfig(delay_s=20.0)


@pytest.fixture(scope="module")
def scenario():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    simulator = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=6, n_shelf_tags=3), seed=11)
    )
    trace = simulator.generate()
    config = InferenceConfig(reader_particles=50, object_particles=100, seed=7)
    return simulator.world_model(), trace, config


def tree_equal(a, b, path=""):
    """Recursive equality over state trees: dict key order, array dtypes and
    contents, scalars.  Returns the first differing path (or None)."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return f"{path}: keys {list(a)} != {list(b)}"
        for key in a:
            diff = tree_equal(a[key], b[key], f"{path}/{key}")
            if diff:
                return diff
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = tree_equal(x, y, f"{path}/{i}")
            if diff:
                return diff
        return None
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype:
            return f"{path}: dtype {a.dtype} != {b.dtype}"
        if not np.array_equal(a, b):
            return f"{path}: arrays differ"
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def assert_bitwise_equal(events, reference):
    assert len(events) == len(reference)
    for ours, ref in zip(events, reference):
        assert ours.time == ref.time and ours.tag == ref.tag
        np.testing.assert_array_equal(ours.position, ref.position)


def write_chain(model, trace, config, runtime_config, splits, directory, modes):
    """Run a trace prefix, checkpointing at each split with the given mode.

    Returns (checkpoint paths, events emitted so far per split).
    """
    runtime = ShardedRuntime(model, config, runtime_config, POLICY)
    paths, prefixes = [], []
    done = 0
    parent = None
    for split, mode in zip(splits, modes):
        for epoch in trace.epochs()[done:split]:
            runtime.step(epoch)
        done = split
        path = os.path.join(directory, f"epoch_{split:08d}")
        save_checkpoint(runtime, path, mode=mode, parent=parent)
        parent = path
        paths.append(path)
        prefixes.append(list(runtime.sink.events))
    runtime.abort()
    return paths, prefixes


def dirty_blocks(arena):
    delta = arena.delta_snapshot()
    return sorted(delta["dirty_ids"].tolist()), delta["parents_dirty"]


class TestArenaDirtyTracking:
    def test_set_object_and_free_maintain_dirty(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        arena.set_object(1, np.zeros((4, 3)), np.zeros(4, np.int32), np.zeros(4))
        arena.set_object(2, np.ones((4, 3)), np.ones(4, np.int32), np.ones(4))
        assert dirty_blocks(arena) == ([1, 2], False)
        arena.clear_dirty()
        assert dirty_blocks(arena) == ([], False)
        arena.mark_dirty([2])
        assert dirty_blocks(arena) == ([2], False)
        arena.free(2)
        assert dirty_blocks(arena) == ([], False)  # freed objects leave the dirty set

    def test_remap_parents_sets_parents_dirty(self, rng):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        arena.set_object(1, np.zeros((4, 3)), np.zeros(4, np.int32), np.zeros(4))
        arena.clear_dirty()
        arena.remap_parents(np.arange(8), rng)
        # Content dirtiness is separate from the parents-wide flag.
        assert dirty_blocks(arena) == ([], True)

    def test_delta_snapshot_ships_dirty_blocks_only(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        arena.set_object(1, np.zeros((4, 3)), np.zeros(4, np.int32), np.zeros(4))
        arena.set_object(2, np.ones((6, 3)), np.ones(6, np.int32), np.ones(6))
        arena.clear_dirty()
        arena.set_object(2, np.full((6, 3), 2.0), np.zeros(6, np.int32), np.zeros(6))
        delta = arena.delta_snapshot()
        assert list(delta["ids"]) == [1, 2] and list(delta["counts"]) == [4, 6]
        assert list(delta["dirty_ids"]) == [2]
        assert delta["positions"].shape == (6, 3)
        assert delta["clean_parents"] is None and not delta["parents_dirty"]

    def test_delta_snapshot_ships_clean_parents_after_remap(self, rng):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        arena.set_object(1, np.zeros((4, 3)), np.zeros(4, np.int32), np.zeros(4))
        arena.set_object(2, np.ones((6, 3)), np.ones(6, np.int32), np.ones(6))
        arena.clear_dirty()
        arena.mark_dirty([2])
        arena.remap_parents(np.arange(8), rng)
        delta = arena.delta_snapshot()
        assert delta["parents_dirty"]
        # Object 1 is clean: only its (remapped) parent column ships, in
        # the narrowest type that holds the pointers (one byte a row here).
        assert delta["clean_parents"].shape == (4,)
        assert delta["clean_parents"].dtype == np.uint8
        np.testing.assert_array_equal(delta["clean_parents"], arena.parents(1))


class TestCaptureContract:
    """The shard owns the capture protocol: one serial per shard, the mode
    checks, and the refusal to restore an unmaterialized delta."""

    def test_delta_without_baseline_refused(self, small_model, fast_config):
        shard = FilterShard(0, small_model, fast_config)
        with pytest.raises(StateError, match="baseline"):
            shard.snapshot("delta")

    def test_unknown_mode_refused(self, small_model, fast_config):
        shard = FilterShard(0, small_model, fast_config)
        with pytest.raises(StateError, match="mode"):
            shard.snapshot("incremental")

    def test_delta_tree_cannot_be_restored_directly(
        self, small_model, fast_config
    ):
        from repro.streams.records import make_epoch

        shard = FilterShard(0, small_model, fast_config)
        shard.step(make_epoch(0.0, (0.0, 1.0), object_tags=[1], reported_heading=0.0))
        shard.drain()
        assert shard.snapshot()["capture_serial"] == 1
        shard.step(make_epoch(1.0, (0.0, 1.1), object_tags=[1], reported_heading=0.0))
        shard.drain()
        delta = shard.snapshot("delta")
        assert delta["delta"] and delta["parent_capture_serial"] == 1
        assert delta["capture_serial"] == 2
        # One serial per shard: the parts carry none of their own.
        for part in ("engine", "pipeline"):
            assert not {"capture_serial", "parent_capture_serial", "delta"} & set(
                delta[part]
            )
        with pytest.raises(StateError, match="materialize"):
            shard.restore(delta)


class TestDeltaMaterialization:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_property_chain_equals_full_and_uninterrupted(
        self, scenario, tmp_path, seed
    ):
        """Property-based round trip: randomized checkpoint epochs, shard
        counts, compression/compaction toggles, and kill points.  The delta
        chain must materialize tree-identically to full snapshots taken by
        an identical run at the same epochs, and the run resumed from a
        random kill point must complete bitwise-identically to the
        uninterrupted run."""
        model, trace, base_config = scenario
        rng = np.random.default_rng(1000 + seed)
        n_shards = int(rng.choice([1, 2]))
        config = base_config
        if rng.random() < 0.5:  # compression + a tight arena => compaction
            from dataclasses import replace

            config = replace(
                base_config.with_compression(unread_epochs=3),
                arena=ArenaConfig(initial_capacity=128, compaction_threshold=0.1),
            )
        n_epochs = len(trace.epochs())
        splits = sorted(
            rng.choice(np.arange(5, n_epochs - 2), size=3, replace=False).tolist()
        )
        modes = ["full", "delta", "delta"]
        runtime_config = RuntimeConfig(n_shards=n_shards)

        delta_dir = tmp_path / "delta"
        full_dir = tmp_path / "full"
        os.makedirs(delta_dir)
        os.makedirs(full_dir)
        paths, prefixes = write_chain(
            model, trace, config, runtime_config, splits, str(delta_dir), modes
        )
        full_paths, _ = write_chain(
            model, trace, config, runtime_config, splits, str(full_dir),
            ["full"] * len(splits),
        )
        for path, full_path in zip(paths, full_paths):
            materialized = load_checkpoint(path)
            full = load_checkpoint(full_path)
            for ours, ref in zip(materialized.shard_states, full.shard_states):
                diff = tree_equal(ours, ref)
                assert diff is None, f"{os.path.basename(path)} {diff}"
            assert materialized.epochs_processed == full.epochs_processed

        # Kill at a random chain link, restore, and finish the trace.
        kill = int(rng.integers(0, len(paths)))
        reference = ShardedRuntime(model, config, runtime_config, POLICY).run(
            trace.epochs()
        ).events
        runtime, manifest = restore_runtime(paths[kill], model)
        assert manifest.epochs_processed == splits[kill]
        sink = runtime.run(trace.epochs(start=splits[kill]))
        assert_bitwise_equal(prefixes[kill] + sink.events, reference)

    def test_chain_metadata(self, scenario, tmp_path):
        model, trace, config = scenario
        paths, _ = write_chain(
            model, trace, config, RuntimeConfig(n_shards=2), [10, 15, 20],
            str(tmp_path), ["full", "delta", "delta"],
        )
        base = load_checkpoint(paths[0])
        assert base.kind == "full" and base.chain == []
        leaf_manifest = read_checkpoint_header(paths[2])
        assert leaf_manifest["kind"] == "delta"
        assert leaf_manifest["base"] == os.path.basename(paths[0])
        assert leaf_manifest["parent"] == os.path.basename(paths[1])
        assert leaf_manifest["chain_index"] == 2
        leaf = load_checkpoint(paths[2])
        assert leaf.kind == "delta"
        assert leaf.chain == [os.path.basename(p) for p in paths]

    def test_delta_smaller_than_full_when_few_tags_move(self, tmp_path):
        """The headline economics: with a spatial index restricting the
        active set, a delta ships a fraction of a full snapshot's bytes."""
        from repro.geometry.box import Box
        from repro.geometry.shapes import ShelfRegion, ShelfSet
        from repro.models.joint import RFIDWorldModel
        from repro.models.motion import MotionParams
        from repro.models.sensing import SensingNoiseParams
        from repro.models.sensor import SensorParams
        from repro.state import checkpoint_size_bytes
        from repro.streams.records import make_epoch

        n_tags = 300
        length = max(8.0, n_tags * 0.05)
        shelves = ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, length, 0.0)))])
        model = RFIDWorldModel.build(
            shelves,
            shelf_tags={0: np.array([2.0, 1.0, 0.0])},
            sensor_params=SensorParams(a=(4.0, 0.0, -0.9), b=(0.0, -6.0)),
            motion_params=MotionParams(velocity=(0.0, 0.1, 0.0), sigma=(0.01, 0.01, 0.0)),
            sensing_params=SensingNoiseParams(sigma=(0.01, 0.01, 0.0)),
        )
        config = InferenceConfig(
            reader_particles=60, object_particles=60, seed=3
        ).with_index()
        runtime = ShardedRuntime(
            model, config, RuntimeConfig(),
            OutputPolicyConfig(delay_s=1e9, on_scan_complete=False),
        )
        runtime.step(
            make_epoch(0.0, (0.0, 1.0), object_tags=list(range(n_tags)), reported_heading=0.0)
        )
        # Travel away from the population so the index retires it from the
        # active set (objects outside every sensing region stop propagating).
        for t in range(1, 25):
            runtime.step(
                make_epoch(float(t), (0.0, 1.0 + 0.5 * t), reported_heading=0.0)
            )
        base = tmp_path / "base"
        save_checkpoint(runtime, base)
        # A few more epochs touching a handful of tags.
        for t in range(25, 31):
            runtime.step(
                make_epoch(float(t), (0.0, 1.0 + 0.5 * t),
                           object_tags=[t % n_tags], reported_heading=0.0)
            )
        delta = tmp_path / "delta"
        save_checkpoint(runtime, delta, mode="delta", parent=base)
        runtime.abort()
        full_bytes = checkpoint_size_bytes(base)
        delta_bytes = checkpoint_size_bytes(delta)
        assert delta_bytes < full_bytes / 3, (full_bytes, delta_bytes)


class TestUnsteppedLinks:
    """A delta taken with no ``step`` since its parent capture changes no
    row; it ships the reader and selector state in full and materializes
    bitwise to the full capture."""

    def test_unstepped_delta_materializes_like_full(self, scenario):
        model, trace, config = scenario
        runtime = ShardedRuntime(
            model, config.with_index(), RuntimeConfig(n_shards=1), POLICY
        )
        for epoch in trace.epochs()[:8]:
            runtime.step(epoch)
        shard = runtime.shards[0]
        base = shard.snapshot("full")
        delta = shard.snapshot("delta")
        full = shard.snapshot("full")
        runtime.abort()
        for part, name in (("engine", "beliefs"), ("engine", "arena"), ("pipeline", "visits")):
            assert delta[part][name]["dirty_ids"].size == 0, name
        merged = apply_shard_delta(base, delta)
        assert merged["capture_serial"] == delta["capture_serial"] == 2
        # The later full capture differs from the materialized one in its
        # serial only.
        assert tree_equal(merged, {**full, "capture_serial": 2}) is None
        # Materialized arrays are copies, never views into the base.
        name = next(iter(merged["engine"]["reader"]))
        assert not np.shares_memory(
            merged["engine"]["reader"][name], base["engine"]["reader"][name]
        )

    def test_unstepped_chain_restores_bitwise(self, scenario, tmp_path):
        model, trace, config = scenario
        config = config.with_index()
        runtime_config = RuntimeConfig(n_shards=2)
        reference = ShardedRuntime(model, config, runtime_config, POLICY).run(
            trace.epochs()
        ).events
        runtime = ShardedRuntime(model, config, runtime_config, POLICY)
        for epoch in trace.epochs()[:8]:
            runtime.step(epoch)
        prefix = list(runtime.sink.events)
        base_path = str(tmp_path / "base")
        save_checkpoint(runtime, base_path, mode="full")
        # No steps between parent and leaf.
        leaf_path = str(tmp_path / "leaf")
        save_checkpoint(runtime, leaf_path, mode="delta", parent=base_path)
        runtime.abort()
        materialized = load_checkpoint(leaf_path)
        full = load_checkpoint(base_path)
        for ours, ref in zip(materialized.shard_states, full.shard_states):
            # The leaf is the later capture, so only its serial differs.
            assert ours["capture_serial"] == ref["capture_serial"] + 1
            assert tree_equal(ours, {**ref, "capture_serial": ours["capture_serial"]}) is None
        restored, manifest = restore_runtime(leaf_path, model)
        assert manifest.epochs_processed == 8
        sink = restored.run(trace.epochs(start=8))
        assert_bitwise_equal(prefix + sink.events, reference)


class TestDeltaAcrossExecutors:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_chain_restore_bitwise_across_executors(
        self, scenario, tmp_path, executor
    ):
        """A delta chain written under any executor restores (into any
        executor) bitwise-identically to the uninterrupted run."""
        model, trace, config = scenario
        runtime_config = RuntimeConfig(n_shards=2, executor=executor)
        reference = ShardedRuntime(
            model, config, RuntimeConfig(n_shards=2), POLICY
        ).run(trace.epochs()).events
        splits = [12, 18, 24]
        paths, prefixes = write_chain(
            model, trace, config, runtime_config, splits, str(tmp_path),
            ["full", "delta", "delta"],
        )
        runtime, manifest = restore_runtime(
            paths[-1], model, runtime_config=RuntimeConfig(n_shards=2)
        )
        assert manifest.kind == "delta" and manifest.epochs_processed == splits[-1]
        sink = runtime.run(trace.epochs(start=splits[-1]))
        assert_bitwise_equal(prefixes[-1] + sink.events, reference)

    def test_delta_chain_survives_elastic_reshard(self, scenario, tmp_path):
        """Materialized delta state feeds the elastic re-shard path."""
        model, trace, config = scenario
        splits = [12, 20]
        paths, prefixes = write_chain(
            model, trace, config, RuntimeConfig(n_shards=2), splits,
            str(tmp_path), ["full", "delta"],
        )
        reference = ShardedRuntime(
            model, config, RuntimeConfig(n_shards=1), POLICY
        ).run(trace.epochs()).events
        runtime, manifest = restore_runtime(
            paths[-1], model, runtime_config=RuntimeConfig(n_shards=4)
        )
        assert runtime.n_shards == 4
        sink = runtime.run(trace.epochs(start=splits[-1]))
        resumed = prefixes[-1] + sink.events
        assert sorted((e.time, str(e.tag)) for e in resumed) == sorted(
            (e.time, str(e.tag)) for e in reference
        )
        by_key = {(e.time, e.tag): np.asarray(e.position) for e in reference}
        for event in resumed:
            ref = by_key[(event.time, event.tag)]
            assert (
                float(np.hypot(event.position[0] - ref[0], event.position[1] - ref[1]))
                < 0.6
            )


class TestTornChains:
    def test_interloper_capture_breaks_the_chain_at_save(
        self, scenario, tmp_path
    ):
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in trace.epochs()[:10]:
            runtime.step(epoch)
        base = tmp_path / "base"
        save_checkpoint(runtime, base)
        for epoch in trace.epochs()[10:14]:
            runtime.step(epoch)
        # An interloper capture advances the baseline without persisting.
        runtime.checkpoint(tmp_path / "elsewhere")
        with pytest.raises(StateError, match="does not chain"):
            save_checkpoint(runtime, tmp_path / "delta", mode="delta", parent=base)
        runtime.abort()

    def test_one_shard_off_the_chain_is_refused_at_save(self, scenario, tmp_path):
        """The check compares every shard's one serial: a capture of one
        shard alone breaks the chain too."""
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in trace.epochs()[:10]:
            runtime.step(epoch)
        base = save_checkpoint(runtime, tmp_path / "base")
        runtime.step(trace.epochs()[10])
        runtime.shards[1].snapshot("full")
        with pytest.raises(StateError, match="shard 1 delta does not chain"):
            save_checkpoint(runtime, tmp_path / "delta", mode="delta", parent=base)
        assert not os.path.exists(tmp_path / "delta")
        runtime.abort()

    def test_one_shard_off_the_chain_is_refused_at_load(
        self, scenario, tmp_path, checkpoint_files
    ):
        """A delta file whose one shard serial does not chain onto its
        parent's (a sealed, well-formed file — only the meaning is off)
        never materializes."""
        model, trace, config = scenario
        paths, _ = write_chain(
            model, trace, config, RuntimeConfig(n_shards=2), [10, 15],
            str(tmp_path), ["full", "delta"],
        )

        def detach_shard_1(header):
            header["shards"][1]["state"]["parent_capture_serial"] += 1

        checkpoint_files.edit_header(paths[1], detach_shard_1)
        for verify in (True, False):
            with pytest.raises(StateError, match="torn delta chain"):
                load_checkpoint(paths[1], verify=verify)
        with pytest.raises(StateError, match="torn delta chain"):
            restore_runtime(paths[1], model)

    def test_delta_needs_parent_and_same_directory(self, scenario, tmp_path):
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(), POLICY)
        for epoch in trace.epochs()[:8]:
            runtime.step(epoch)
        base_dir = tmp_path / "a"
        os.makedirs(base_dir)
        base = base_dir / "base"
        save_checkpoint(runtime, base)
        with pytest.raises(StateError, match="needs a parent"):
            save_checkpoint(runtime, tmp_path / "a" / "d", mode="delta")
        other = tmp_path / "b"
        os.makedirs(other)
        with pytest.raises(StateError, match="beside its parent"):
            save_checkpoint(runtime, other / "d", mode="delta", parent=base)
        runtime.abort()

    def test_missing_base_fails_loudly(self, scenario, tmp_path):
        model, trace, config = scenario
        paths, _ = write_chain(
            model, trace, config, RuntimeConfig(n_shards=2), [10, 15, 20],
            str(tmp_path), ["full", "delta", "delta"],
        )
        os.unlink(paths[0])
        with pytest.raises(StateError, match="parent"):
            load_checkpoint(paths[2])

    def test_missing_intermediate_link_fails_loudly(self, scenario, tmp_path):
        model, trace, config = scenario
        paths, _ = write_chain(
            model, trace, config, RuntimeConfig(n_shards=2), [10, 15, 20],
            str(tmp_path), ["full", "delta", "delta"],
        )
        os.unlink(paths[1])
        with pytest.raises(StateError, match="parent"):
            load_checkpoint(paths[2])
        # The base itself still loads.
        assert load_checkpoint(paths[0]).epochs_processed == 10

    def test_parent_cycle_detected(self, scenario, tmp_path, checkpoint_files):
        model, trace, config = scenario
        paths, _ = write_chain(
            model, trace, config, RuntimeConfig(), [10, 15],
            str(tmp_path), ["full", "delta"],
        )

        def point_at_itself(header):
            header["parent"] = os.path.basename(paths[1])

        checkpoint_files.edit_header(paths[1], point_at_itself)
        with pytest.raises(StateError, match="cycle"):
            load_checkpoint(paths[1])

    def test_corrupt_delta_shard_detected(self, scenario, tmp_path, checkpoint_files):
        model, trace, config = scenario
        paths, _ = write_chain(
            model, trace, config, RuntimeConfig(), [10, 15],
            str(tmp_path), ["full", "delta"],
        )
        start, end = checkpoint_files.sections(paths[1])["body"]
        checkpoint_files.flip_bit(paths[1], (start + end) // 2)
        with pytest.raises(StateError, match="checksum mismatch"):
            load_checkpoint(paths[1])


class TestQueryOperatorStateAcrossRestore:
    """Pin the ROADMAP "Query-operator state" semantics: window operators,
    the pending tick, the result cache, and per-query emission counters are
    checkpointed in the manifest's ``query_states`` and applied back with
    :func:`apply_query_states`.  A restored ``query`` run resumes standing-
    query answers *exactly* — prefix emissions plus resumed emissions equal
    the uninterrupted run's, and the final operator state is
    tree-identical, even for ticks whose sliding window spans the restore
    boundary."""

    @staticmethod
    def _make_engine():
        from repro.query import (
            ContinuousQuery,
            MultiplexedQueryEngine,
            standing_region_queries,
        )
        from repro.query.relops import GroupBy, count_
        from repro.query.windows import RangeWindow

        engine = MultiplexedQueryEngine()
        engine.register(
            ContinuousQuery(
                RangeWindow(30.0), [GroupBy((), [count_()])], name="rolling_count"
            )
        )
        for query in standing_region_queries(4, ((0.0, 0.0), (60.0, 40.0))):
            engine.register(query)
        return engine

    @staticmethod
    def _emissions(engine):
        return [
            (name, t.time, tuple(sorted(t.items())))
            for name in sorted(engine.outputs)
            for t in engine.outputs[name]
        ]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_windows_resume_exactly_across_restore(
        self, scenario, tmp_path, executor
    ):
        from repro.state import apply_query_states

        model, trace, config = scenario
        runtime_config = RuntimeConfig(n_shards=2, executor=executor)
        epochs = trace.epochs()
        splits, modes = [14, 22], ["full", "delta"]

        # Uninterrupted reference with the engine attached end to end.
        reference = self._make_engine()
        runtime = ShardedRuntime(model, config, runtime_config, POLICY)
        QueryBridge(reference, runtime.bus, runtime=runtime)
        runtime.run(epochs)
        full = self._emissions(reference)
        assert full, "scenario produced no query emissions; trace too short"

        # Interrupted run: checkpoint a full + delta chain mid-stream, then
        # stop.  Prefix emissions are captured before abort() flushes the
        # pending tick — that tick belongs to the resumed run.
        interrupted = self._make_engine()
        runtime = ShardedRuntime(model, config, runtime_config, POLICY)
        QueryBridge(interrupted, runtime.bus, runtime=runtime)
        done, parent, paths = 0, None, []
        for split, mode in zip(splits, modes):
            for epoch in epochs[done:split]:
                runtime.step(epoch)
            done = split
            path = os.path.join(str(tmp_path), f"epoch_{split:08d}")
            save_checkpoint(runtime, path, mode=mode, parent=parent)
            parent = path
            paths.append(path)
        prefix = self._emissions(interrupted)
        runtime.abort()

        # Restore the delta leaf into a fresh engine and resume.
        restored_runtime, manifest = restore_runtime(paths[-1], model)
        resumed = self._make_engine()
        QueryBridge(resumed, restored_runtime.bus, runtime=restored_runtime)
        assert apply_query_states(restored_runtime, manifest) == ["query"]
        restored_runtime.run(epochs[manifest.epochs_processed :])

        # Exact resume: the interrupted prefix plus the resumed tail is the
        # uninterrupted emission stream, and the final operator state
        # (window contents, result cache, tick counters) is tree-identical.
        assert prefix == full[: len(prefix)]
        assert prefix + self._emissions(resumed) == full
        assert (
            tree_equal(resumed.snapshot_state(), reference.snapshot_state())
            is None
        )

    def test_query_state_requires_matching_engine(self, scenario, tmp_path):
        """A checkpoint carrying query state refuses to apply it to a
        runtime that has no engine registered under that name."""
        from repro.state import apply_query_states

        model, trace, config = scenario
        engine = self._make_engine()
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        QueryBridge(engine, runtime.bus, runtime=runtime)
        for epoch in trace.epochs()[:10]:
            runtime.step(epoch)
        path = os.path.join(str(tmp_path), "epoch_00000010")
        save_checkpoint(runtime, path)
        runtime.abort()

        restored_runtime, manifest = restore_runtime(path, model)
        assert "query" in manifest.query_states
        with pytest.raises(StateError, match="no engine with that name"):
            apply_query_states(restored_runtime, manifest)
        restored_runtime.abort()


class TestAdaptiveBudgetCheckpoints:
    """Checkpoints taken while the adaptive budget controller is mid-flight
    — objects parked at intermediate tiers, decay timers pending — must
    restore bitwise under every executor, in full and delta mode."""

    def budget_config(self, base_config):
        return base_config.with_budget(
            tiers=(10, 25),
            decay_after_epochs=3,
            decay_every_epochs=2,
            settle_error_sq_ft=1000.0,
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_mid_decay_chain_restores_bitwise(self, scenario, tmp_path, executor):
        model, trace, base_config = scenario
        config = self.budget_config(base_config)
        runtime_config = RuntimeConfig(n_shards=2, executor=executor)
        reference_runtime = ShardedRuntime(
            model, config, RuntimeConfig(n_shards=2), POLICY
        )
        reference = reference_runtime.run(trace.epochs()).events
        # The run must actually exercise the ladder, or this test proves
        # nothing about mid-decay state.
        assert (
            sum(row.get("budget_decays", 0) for row in reference_runtime.shard_stats())
            > 0
        )
        splits = [12, 18, 24]
        paths, prefixes = write_chain(
            model, trace, config, runtime_config, splits, str(tmp_path),
            ["full", "delta", "delta"],
        )
        runtime, manifest = restore_runtime(
            paths[-1], model, runtime_config=RuntimeConfig(n_shards=2)
        )
        assert manifest.epochs_processed == splits[-1]
        sink = runtime.run(trace.epochs(start=splits[-1]))
        assert_bitwise_equal(prefixes[-1] + sink.events, reference)

    def test_mid_decay_delta_materializes_like_full(self, scenario, tmp_path):
        """Delta captures of parked / mid-ladder / compressed beliefs must
        materialize tree-identically (settled flags, budget epochs, shrunken
        arena blocks and all) to full captures at the same epochs."""
        model, trace, base_config = scenario
        config = self.budget_config(base_config)
        runtime_config = RuntimeConfig(n_shards=2)
        splits = [12, 18, 24]
        delta_dir = tmp_path / "delta"
        full_dir = tmp_path / "full"
        os.makedirs(delta_dir)
        os.makedirs(full_dir)
        paths, _ = write_chain(
            model, trace, config, runtime_config, splits, str(delta_dir),
            ["full", "delta", "delta"],
        )
        full_paths, _ = write_chain(
            model, trace, config, runtime_config, splits, str(full_dir),
            ["full"] * len(splits),
        )
        for path, full_path in zip(paths, full_paths):
            materialized = load_checkpoint(path)
            full = load_checkpoint(full_path)
            for ours, ref in zip(materialized.shard_states, full.shard_states):
                diff = tree_equal(ours, ref)
                assert diff is None, f"{os.path.basename(path)} {diff}"


class TestFloat32ArenaCheckpoints:
    """The float32 arena tier must round-trip checkpoints bitwise — same
    dtype, same bits — in full and delta mode, and resume identically."""

    def float32_config(self, base_config):
        from dataclasses import replace

        return replace(
            base_config, arena=ArenaConfig(initial_capacity=128, dtype="float32")
        )

    def test_float32_chain_materializes_like_full(self, scenario, tmp_path):
        model, trace, base_config = scenario
        config = self.float32_config(base_config)
        runtime_config = RuntimeConfig(n_shards=2)
        splits = [10, 16, 22]
        delta_dir = tmp_path / "delta"
        full_dir = tmp_path / "full"
        os.makedirs(delta_dir)
        os.makedirs(full_dir)
        paths, _ = write_chain(
            model, trace, config, runtime_config, splits, str(delta_dir),
            ["full", "delta", "delta"],
        )
        full_paths, _ = write_chain(
            model, trace, config, runtime_config, splits, str(full_dir),
            ["full"] * len(splits),
        )
        for path, full_path in zip(paths, full_paths):
            materialized = load_checkpoint(path)
            full = load_checkpoint(full_path)
            for ours, ref in zip(materialized.shard_states, full.shard_states):
                # tree_equal is dtype-strict: a float32 arena that silently
                # promoted to float64 anywhere in the capture path fails.
                diff = tree_equal(ours, ref)
                assert diff is None, f"{os.path.basename(path)} {diff}"
            arena = materialized.shard_states[0]["engine"]["arena"]
            assert np.asarray(arena["positions"]).dtype == np.float32
            assert np.asarray(arena["log_weights"]).dtype == np.float32

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_float32_restore_bitwise_across_executors(
        self, scenario, tmp_path, executor
    ):
        model, trace, base_config = scenario
        config = self.float32_config(base_config)
        runtime_config = RuntimeConfig(n_shards=2, executor=executor)
        reference = ShardedRuntime(
            model, config, RuntimeConfig(n_shards=2), POLICY
        ).run(trace.epochs()).events
        splits = [12, 20]
        paths, prefixes = write_chain(
            model, trace, config, runtime_config, splits, str(tmp_path),
            ["full", "delta"],
        )
        runtime, _ = restore_runtime(
            paths[-1], model, runtime_config=RuntimeConfig(n_shards=2)
        )
        sink = runtime.run(trace.epochs(start=splits[-1]))
        assert_bitwise_equal(prefixes[-1] + sink.events, reference)
