"""Unit tests for the durable-state primitives: RNG state through the state
tree split/join, and the snapshot/restore hooks on the arena, region index,
pipeline, and factored engine.

The load-bearing guarantees tested here:

* RNG bit-generator state survives the snapshot format *exactly* — the next
  1000 draws from a restored generator match the original;
* the arena's parent remapping consumes RNG draws independently of the
  slab's hole layout (what makes a compacted-on-write snapshot resume
  bitwise-identically);
* an engine restored mid-run — including after compression freed blocks and
  the slab compacted — continues bitwise-identically to one never stopped.
"""

import io
import json

import numpy as np
import pytest

from repro.config import (
    ArenaConfig,
    InferenceConfig,
)
from repro.errors import InferenceError, StateError
from repro.inference.arena import BeliefArena
from repro.inference.factored import FactoredParticleFilter
from repro.inference.pipeline import CleaningPipeline
from repro.spatial.region_index import SensingRegionIndex
from repro.state import (
    generator_from_state,
    join_state_tree,
    split_state_tree,
)
from repro.state.snapshot import index_arrays, read_indexed_arrays
from repro.streams.sinks import CollectingSink


def through_the_format(tree):
    """``tree`` as a checkpoint (or a CONTROL frame) carries it: skeleton as
    JSON text, arrays as indexed raw bytes, and back."""
    skeleton, arrays = split_state_tree(tree)
    buffers = []
    index, end = index_arrays(arrays, 0, buffers)
    body = io.BytesIO(b"".join(bytes(b) for b in buffers))
    wire = json.loads(json.dumps({"state": skeleton, "arrays": index}))
    read, cursor = read_indexed_arrays(body, wire["arrays"], 0, end, lambda chunk: None)
    assert cursor == end
    return join_state_tree(wire["state"], read)


class TestRngCodec:
    """Bit-generator state needs no codec of its own: it is a state tree."""

    def test_pcg64_round_trip_next_1000_draws_match(self):
        rng = np.random.default_rng(1234)
        rng.normal(size=257)  # advance into a non-trivial state
        captured = rng.bit_generator.state
        assert captured["state"]["state"] > 1 << 64  # 128-bit words, as ints
        restored = generator_from_state(through_the_format(captured))
        assert restored.bit_generator.state == captured
        np.testing.assert_array_equal(
            restored.normal(size=1000), rng.normal(size=1000)
        )
        # And the streams keep agreeing across draw-kind changes.
        np.testing.assert_array_equal(
            restored.integers(0, 1 << 40, size=100),
            rng.integers(0, 1 << 40, size=100),
        )

    def test_mt19937_state_with_array_leaf_round_trips(self):
        rng = np.random.Generator(np.random.MT19937(5))
        rng.random(size=3)
        wire = through_the_format(rng.bit_generator.state)
        assert wire["state"]["key"].dtype == np.uint32
        restored = generator_from_state(wire)
        np.testing.assert_array_equal(restored.random(size=64), rng.random(size=64))

    @pytest.mark.parametrize("family", ["PCG64", "MT19937", "Philox", "SFC64"])
    def test_every_bit_generator_family_rebuilds_an_identical_stream(self, family):
        rng = np.random.Generator(getattr(np.random, family)(2 ** 100 + 17))
        rng.normal(size=33)
        rng.integers(0, 1 << 31, size=5)  # leaves a buffered 32-bit half
        restored = generator_from_state(through_the_format(rng.bit_generator.state))
        assert restored.bit_generator.state["bit_generator"] == family
        np.testing.assert_array_equal(
            restored.integers(0, 1 << 31, size=7), rng.integers(0, 1 << 31, size=7)
        )
        np.testing.assert_array_equal(
            restored.normal(size=500), rng.normal(size=500)
        )

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(StateError):
            generator_from_state({"bit_generator": "NotAGenerator"})

    def test_unserializable_leaf_rejected(self):
        with pytest.raises(StateError):
            split_state_tree({"bit_generator": "PCG64", "state": {"bad": object()}})


class TestStateTreeSplitJoin:
    def test_round_trip(self):
        tree = {
            "a": np.arange(6).reshape(2, 3),
            "nested": {"b": np.ones(4), "scalar": 7, "flag": True, "none": None},
            "list": [np.zeros(2), "text", 3.5],
            "np_scalar": np.int64(9),
        }
        skeleton, arrays = split_state_tree(tree)
        json.dumps(skeleton)  # skeleton must be pure JSON
        joined = join_state_tree(skeleton, arrays)
        np.testing.assert_array_equal(joined["a"], tree["a"])
        np.testing.assert_array_equal(joined["nested"]["b"], tree["nested"]["b"])
        np.testing.assert_array_equal(joined["list"][0], tree["list"][0])
        assert joined["nested"]["scalar"] == 7
        assert joined["nested"]["none"] is None
        assert joined["np_scalar"] == 9 and isinstance(joined["np_scalar"], int)

    def test_missing_array_detected(self):
        skeleton, arrays = split_state_tree({"x": np.ones(3)})
        assert list(arrays) == ["x"]
        with pytest.raises(StateError, match="missing array 'x'"):
            join_state_tree(skeleton, {})

    def test_reserved_key_rejected(self):
        with pytest.raises(StateError):
            split_state_tree({"__array__": "oops"})


def _filled_arena(**config):
    arena = BeliefArena(ArenaConfig(**config)) if config else BeliefArena()
    rng = np.random.default_rng(0)
    for oid, k in ((3, 5), (7, 4), (1, 6)):
        arena.set_object(
            oid,
            rng.normal(size=(k, 3)),
            rng.integers(0, 8, size=k).astype(np.int32),
            rng.normal(size=k),
        )
    return arena


class TestArenaSnapshot:
    def test_round_trip_preserves_blocks(self):
        arena = _filled_arena()
        state = arena.snapshot()
        other = BeliefArena(ArenaConfig(initial_capacity=1))
        other.load_snapshot(state)
        assert sorted(other.object_ids()) == sorted(arena.object_ids())
        for oid in arena.object_ids():
            np.testing.assert_array_equal(other.positions(oid), arena.positions(oid))
            np.testing.assert_array_equal(other.parents(oid), arena.parents(oid))
            np.testing.assert_array_equal(
                other.log_weights(oid), arena.log_weights(oid)
            )
        assert other.free_rows == 0  # restored slab is compacted

    def test_snapshot_compacts_holes_on_write(self):
        arena = _filled_arena()
        arena.free(7, compact_ok=False)
        assert arena.free_rows > 0
        state = arena.snapshot()
        assert int(np.asarray(state["counts"]).sum()) == arena.used_rows
        other = BeliefArena()
        other.load_snapshot(state)
        assert other.used_rows == arena.used_rows and other.free_rows == 0

    def test_bad_snapshots_rejected(self):
        arena = _filled_arena()
        state = arena.snapshot()
        clipped = dict(state, positions=state["positions"][:-1])
        with pytest.raises(InferenceError):
            BeliefArena().load_snapshot(clipped)
        dup = dict(state, ids=np.array([3, 3, 1]))
        with pytest.raises(InferenceError):
            BeliefArena().load_snapshot(dup)

    def test_live_row_mask(self):
        arena = _filled_arena()
        assert arena.live_row_mask().all()
        arena.free(7, compact_ok=False)
        mask = arena.live_row_mask()
        assert mask.sum() == arena.used_rows
        assert mask[arena._slice(3)].all() and mask[arena._slice(1)].all()

    def test_remap_parents_rng_independent_of_hole_layout(self):
        """The same live content with and without holes must consume the
        same RNG draws and produce identical live parents — the property
        that makes compact-on-write checkpoints resume bitwise."""
        with_hole = _filled_arena()
        with_hole.free(7, compact_ok=False)
        compacted = BeliefArena()
        compacted.load_snapshot(with_hole.snapshot())
        mapping = np.array([2, -1, 0, -1, 4, 5, -1, 7])  # several dropped
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        with_hole.remap_parents(mapping, rng_a)
        compacted.remap_parents(mapping, rng_b)
        for oid in (3, 1):
            np.testing.assert_array_equal(
                with_hole.parents(oid), compacted.parents(oid)
            )
        # Equal post-remap RNG states == equal number of draws consumed.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestRegionIndexSnapshot:
    def test_round_trip_preserves_queries_and_order(self):
        from repro.geometry.box import Box

        index = SensingRegionIndex(max_regions=8)
        for i in range(6):
            index.record(Box((i, 0, 0), (i + 1.5, 1, 1)), [i, i + 100])
        state = through_the_format(index.snapshot())  # tables: raw arrays
        other = SensingRegionIndex(max_regions=8)
        other.load_snapshot(state)
        probe = Box((2.2, 0, 0), (3.2, 1, 1))
        assert other.case2_candidates(probe) == index.case2_candidates(probe)
        assert len(other) == len(index)
        other.check_consistent()
        # Recording order survived: the next eviction removes the same
        # (oldest) region in both.
        for idx in (index, other):
            for j in range(6, 10):
                idx.record(Box((j, 0, 0), (j + 1.5, 1, 1)), [j])
        assert index.objects_registered() == other.objects_registered()


class _StubEngine:
    epoch_index = 0

    def __init__(self):
        self.known = []

    def step(self, epoch):
        pass

    def known_objects(self):
        return self.known

    def object_estimate(self, number):
        from repro.inference.estimates import LocationEstimate

        return LocationEstimate(
            mean=np.array([1.0, 2.0, 0.0]), covariance=np.eye(3) * 1e-4, sample_size=4
        )


class TestPipelineSnapshot:
    def test_round_trip_preserves_visits_and_order(self):
        from repro.streams.records import make_epoch

        sink = CollectingSink()
        pipeline = CleaningPipeline(_StubEngine(), sink=sink)
        pipeline.engine.known = [4, 2]
        pipeline.step(make_epoch(0.0, (0, 0, 0), object_tags=[4]))
        pipeline.step(make_epoch(5.0, (0, 0, 0), object_tags=[2]))
        state = pipeline.snapshot_state()
        other = CleaningPipeline(_StubEngine(), sink=CollectingSink())
        other.engine.known = [4, 2]
        other.restore_state(state)
        assert list(other._visits) == list(pipeline._visits)  # insertion order
        for number in pipeline._visits:
            a, b = pipeline._visits[number], other._visits[number]
            assert (a.entered_time, a.last_read_time, a.emitted_this_visit) == (
                b.entered_time,
                b.last_read_time,
                b.emitted_this_visit,
            )
        assert other._emitted_ever == pipeline._emitted_ever
        assert other._last_epoch_time == pipeline._last_epoch_time


@pytest.fixture(scope="module")
def scenario():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    simulator = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=8, n_shelf_tags=3), seed=11)
    )
    return simulator.world_model(), simulator.generate()


class TestEngineSnapshotRestore:
    def _run_split(self, model, trace, config, split):
        """Reference run vs. stop-snapshot-restore-continue run."""
        epochs = trace.epochs()
        reference = FactoredParticleFilter(model, config)
        for epoch in epochs:
            reference.step(epoch)
        original = FactoredParticleFilter(model, config)
        for epoch in epochs[:split]:
            original.step(epoch)
        state = original.snapshot_state()
        resumed = FactoredParticleFilter(model, config)
        resumed.restore_state(state)
        for epoch in epochs[split:]:
            resumed.step(epoch)
        return reference, resumed

    def _assert_bitwise(self, reference, resumed):
        assert resumed.known_objects() == reference.known_objects()
        assert resumed.stats == reference.stats
        for number in reference.known_objects():
            np.testing.assert_array_equal(
                resumed.object_estimate(number).mean,
                reference.object_estimate(number).mean,
            )
            a, b = resumed.belief(number), reference.belief(number)
            assert a.compressed == b.compressed
            if not a.compressed:
                np.testing.assert_array_equal(a.particles, b.particles)
                np.testing.assert_array_equal(a.parents, b.parents)
                np.testing.assert_array_equal(a.log_weights, b.log_weights)
        np.testing.assert_array_equal(
            resumed.reader_estimate()[0], reference.reader_estimate()[0]
        )
        assert (
            resumed._rng.bit_generator.state == reference._rng.bit_generator.state
        )

    def test_restore_continues_bitwise(self, scenario):
        model, trace = scenario
        config = InferenceConfig(reader_particles=50, object_particles=100, seed=7)
        reference, resumed = self._run_split(model, trace, config, split=20)
        self._assert_bitwise(reference, resumed)

    def test_restore_after_compaction_is_bitwise(self, scenario):
        """Compression frees blocks, the tiny arena compacts, and the
        snapshot (compacted on write) must still resume bitwise — the
        arena's hole layout is not part of the semantic state."""
        from dataclasses import replace

        model, trace = scenario
        config = replace(
            InferenceConfig(
                reader_particles=50, object_particles=100, seed=7
            ).with_compression(unread_epochs=3),
            arena=ArenaConfig(initial_capacity=128, compaction_threshold=0.1),
        )
        epochs = trace.epochs()
        split = int(len(epochs) * 0.7)
        probe = FactoredParticleFilter(model, config)
        for epoch in epochs[:split]:
            probe.step(epoch)
        assert probe.arena.stats["compactions"] > 0, "scenario must compact"
        assert probe.stats["compressions"] > 0, "scenario must compress"
        reference, resumed = self._run_split(model, trace, config, split=split)
        self._assert_bitwise(reference, resumed)
        assert resumed.arena.stats["compactions"] == reference.arena.stats["compactions"]

    def test_restore_with_spatial_index_is_bitwise(self, scenario):
        model, trace = scenario
        config = InferenceConfig(
            reader_particles=50, object_particles=100, seed=7
        ).with_index()
        reference, resumed = self._run_split(model, trace, config, split=25)
        self._assert_bitwise(reference, resumed)
        assert len(resumed._selector.index) == len(reference._selector.index)

    def test_wrong_engine_kind_rejected(self, scenario):
        model, trace = scenario
        engine = FactoredParticleFilter(model, InferenceConfig())
        with pytest.raises(StateError):
            engine.restore_state({"engine": "naive"})
