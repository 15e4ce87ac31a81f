"""Tests for the contiguous belief arena (storage layer of the factored
filter): slot allocation, holes and compaction, growth, views, and the
cross-object gather/scatter machinery."""

import numpy as np
import pytest

from repro.config import ArenaConfig
from repro.errors import ConfigurationError, InferenceError
from repro.inference.arena import ROW_BYTES, BeliefArena, segment_gather_indices


def fill(arena, object_id, k, value):
    arena.set_object(
        object_id,
        np.full((k, 3), float(value)),
        np.full(k, int(value), dtype=np.int32),
        np.full(k, float(value)),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ArenaConfig(initial_capacity=0)
        with pytest.raises(ConfigurationError):
            ArenaConfig(growth_factor=1.0)
        with pytest.raises(ConfigurationError):
            ArenaConfig(compaction_threshold=0.0)


class TestAllocation:
    def test_roundtrip(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        fill(arena, 7, 10, 3)
        assert 7 in arena and len(arena) == 1
        assert arena.count(7) == 10
        assert arena.positions(7).shape == (10, 3)
        assert (arena.positions(7) == 3.0).all()
        assert (arena.parents(7) == 3).all()
        assert (arena.log_weights(7) == 3.0).all()

    def test_views_write_through(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        fill(arena, 1, 8, 0)
        arena.log_weights(1)[:] = -1.5
        assert (arena.log_weights(1) == -1.5).all()

    def test_missing_object_raises(self):
        arena = BeliefArena()
        with pytest.raises(InferenceError):
            arena.positions(42)

    def test_same_size_reallocation_reuses_slot(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        fill(arena, 1, 8, 1)
        fill(arena, 2, 8, 2)
        end_before = arena.used_rows
        fill(arena, 1, 8, 9)  # same size: must not move or leak
        assert arena.used_rows == end_before
        assert (arena.positions(1) == 9.0).all()
        assert (arena.positions(2) == 2.0).all()

    def test_tail_free_reclaims_instantly(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        fill(arena, 1, 8, 1)
        fill(arena, 2, 8, 2)
        arena.free(2)
        assert arena.free_rows == 0
        assert arena.used_rows == 8

    def test_memory_bytes_counts_live_rows_only(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=256))
        fill(arena, 1, 10, 1)
        fill(arena, 2, 10, 2)
        fill(arena, 3, 10, 3)
        arena.free(2, compact_ok=False)
        assert arena.memory_bytes() == 20 * ROW_BYTES


class TestGrowthAndCompaction:
    def test_growth_preserves_contents(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=8, growth_factor=2.0))
        for i in range(6):
            fill(arena, i, 5, i)
        assert arena.stats["grows"] >= 1
        assert arena.capacity >= 30
        for i in range(6):
            assert (arena.positions(i) == float(i)).all()
            assert (arena.parents(i) == i).all()

    def test_compaction_squeezes_holes_and_preserves_blocks(self):
        arena = BeliefArena(
            ArenaConfig(initial_capacity=256, compaction_threshold=1.0)
        )
        for i in range(8):
            fill(arena, i, 8, i)
        for i in (1, 3, 5):
            arena.free(i, compact_ok=False)
        assert arena.free_rows == 24
        arena.compact()
        assert arena.free_rows == 0
        assert arena.used_rows == 40
        for i in (0, 2, 4, 6, 7):
            assert (arena.positions(i) == float(i)).all()
            assert (arena.log_weights(i) == float(i)).all()

    def test_free_triggers_compaction_at_threshold(self):
        arena = BeliefArena(
            ArenaConfig(initial_capacity=256, compaction_threshold=0.25)
        )
        for i in range(8):
            fill(arena, i, 8, i)
        arena.free(0)  # hole fraction 8/64 = 0.125 < 0.25: no compaction
        assert arena.stats["compactions"] == 0
        arena.free(1)  # 16/64 = 0.25 >= 0.25: compacts
        assert arena.stats["compactions"] == 1
        assert arena.free_rows == 0

    def test_compaction_instead_of_growth_when_holes_suffice(self):
        arena = BeliefArena(
            ArenaConfig(initial_capacity=32, compaction_threshold=1.0)
        )
        fill(arena, 1, 16, 1)
        fill(arena, 2, 8, 2)
        arena.free(1, compact_ok=False)  # 16-row hole at the front
        fill(arena, 3, 20, 3)  # needs compaction, not growth
        assert arena.stats["grows"] == 0
        assert arena.stats["compactions"] == 1
        assert (arena.positions(2) == 2.0).all()
        assert (arena.positions(3) == 3.0).all()


class TestBatching:
    def test_segment_gather_indices(self):
        starts = np.array([4, 0, 10])
        lengths = np.array([2, 3, 1])
        idx, batch_starts = segment_gather_indices(starts, lengths)
        assert idx.tolist() == [4, 5, 0, 1, 2, 10]
        assert batch_starts.tolist() == [0, 2, 5]

    def test_gather_scatter_roundtrip(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        for i in range(4):
            fill(arena, i, 4 + i, i)
        ids = [2, 0, 3]
        pos, par, lw, rows, batch_starts, lengths = arena.gather(ids)
        assert lengths.tolist() == [6, 4, 7]
        assert batch_starts.tolist() == [0, 6, 10]
        assert (pos[:6] == 2.0).all() and (pos[6:10] == 0.0).all()
        pos += 100.0
        lw[:] = -7.0
        arena.scatter(rows, positions=pos, log_weights=lw)
        assert (arena.positions(2) == 102.0).all()
        assert (arena.positions(0) == 100.0).all()
        assert (arena.log_weights(3) == -7.0).all()
        assert (arena.positions(1) == 1.0).all()  # untouched object

    def test_empty_gather(self):
        arena = BeliefArena()
        pos, par, lw, rows, batch_starts, lengths = arena.gather([])
        assert pos.shape == (0, 3) and rows.size == 0 and lengths.size == 0

    def test_remap_parents(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        arena.set_object(
            0,
            np.zeros((6, 3)),
            np.array([0, 1, 2, 0, 1, 2], dtype=np.int32),
            np.zeros(6),
        )
        mapping = np.array([2, -1, 0])  # reader 1 dropped
        arena.remap_parents(mapping, np.random.default_rng(0))
        parents = arena.parents(0)
        assert parents[0] == 2 and parents[2] == 0
        assert 0 <= parents[1] < 3  # dropped parent re-pointed at a survivor
        assert (parents >= 0).all() and (parents < 3).all()


class TestSharedSlab:
    """There is no shared-memory backing: every arena is private numpy
    arrays, so nothing it allocates outlives its process."""

    def test_private_arena_has_no_segment(self, monkeypatch):
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise AssertionError("the arena allocated shared memory")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        arena = BeliefArena(ArenaConfig(initial_capacity=8))
        fill(arena, 1, 6, 2)
        fill(arena, 2, 20, 5)  # forces a grow
        assert arena.stats["grows"] >= 1
        for oid, value in ((1, 2.0), (2, 5.0)):
            for column in (
                arena.positions(oid),
                arena.parents(oid),
                arena.log_weights(oid),
            ):
                # A view of an array that owns its (heap) memory.
                assert isinstance(column.base, np.ndarray)
                assert column.base.base is None
                assert (column == value).all()


class TestGatherPlanCache:
    """The memoized active-rows index behind skip-propagation: reused while
    the layout and id list are stable, rebuilt the moment either changes."""

    def test_plan_reused_for_stable_layout(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        fill(arena, 1, 4, 1)
        fill(arena, 2, 6, 2)
        plan = arena.plan((1, 2))
        assert arena.plan((1, 2)) is plan
        # In-place content updates (same block size) keep the layout.
        fill(arena, 1, 4, 9)
        assert arena.plan((1, 2)) is plan

    def test_plan_invalidated_by_id_list_change(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        fill(arena, 1, 4, 1)
        fill(arena, 2, 6, 2)
        plan = arena.plan((1, 2))
        other = arena.plan((1,))
        assert other is not plan
        assert other[2].tolist() == [4]

    def test_plan_invalidated_by_layout_change(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        fill(arena, 1, 4, 1)
        fill(arena, 2, 6, 2)
        plan = arena.plan((1, 2))
        fill(arena, 3, 5, 3)  # allocation bumps the layout serial
        rebuilt = arena.plan((1, 2))
        assert rebuilt is not plan
        np.testing.assert_array_equal(rebuilt[0], plan[0])
        arena.free(3)
        assert arena.plan((1, 2)) is not rebuilt

    def test_gather_matches_plan(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64))
        fill(arena, 5, 3, 5)
        fill(arena, 7, 2, 7)
        idx, starts, lengths = arena.plan((5, 7))
        positions, _, _, idx2, starts2, lengths2 = arena.gather((5, 7))
        np.testing.assert_array_equal(idx, idx2)
        np.testing.assert_array_equal(starts, starts2)
        np.testing.assert_array_equal(lengths, lengths2)
        np.testing.assert_array_equal(positions[:3], np.full((3, 3), 5.0))


class TestFloat32Tier:
    def test_float32_storage_dtypes(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64, dtype="float32"))
        fill(arena, 1, 4, 1)
        assert arena.dtype == np.float32
        assert arena.positions(1).dtype == np.float32
        assert arena.log_weights(1).dtype == np.float32
        assert arena.parents(1).dtype == np.int32  # parents stay int32

    def test_float32_memory_is_smaller(self):
        f64 = BeliefArena(ArenaConfig(initial_capacity=64))
        f32 = BeliefArena(ArenaConfig(initial_capacity=64, dtype="float32"))
        fill(f64, 1, 10, 1)
        fill(f32, 1, 10, 1)
        # 3 floats + 1 float + int32 parent per row: 36 -> 20 bytes.
        assert f64.memory_bytes() == 10 * 36
        assert f32.memory_bytes() == 10 * 20

    def test_float32_snapshot_round_trip_preserves_dtype(self):
        arena = BeliefArena(ArenaConfig(initial_capacity=64, dtype="float32"))
        fill(arena, 1, 4, 1)
        state = arena.snapshot()
        assert state["positions"].dtype == np.float32
        restored = BeliefArena(ArenaConfig(initial_capacity=64, dtype="float32"))
        restored.load_snapshot(state)
        np.testing.assert_array_equal(restored.positions(1), arena.positions(1))
        assert restored.positions(1).dtype == np.float32

    def test_dtype_validation(self):
        with pytest.raises(ConfigurationError):
            ArenaConfig(dtype="float16")
