"""Multiplexed standing-query serving: dedup, incremental parity, caching,
checkpointed operator state, and zero-copy read views.

The multiplexer's contract is *byte-identical single-query semantics* at
near-flat marginal cost per additional standing query.  Parity tests
compare every output tuple (time + values, in emission order) against the
stock :class:`QueryEngine` over the same stream; the perf claims live in
the ``query_serving`` experiment of ``benchmarks/fidelity.py``.
"""

import numpy as np
import pytest

from repro.errors import QueryError, StateError
from repro.query import (
    ContinuousQuery,
    MultiplexedQueryEngine,
    QueryEngine,
    fire_code_query,
    location_update_query,
    queries_from_spec,
    standing_region_queries,
)
from repro.query.relops import GroupBy, Project, RegionSelect, Select, count_
from repro.query.stream_ops import Dstream, Istream, Rstream
from repro.query.tuples import StreamTuple
from repro.query.windows import (
    NowWindow,
    PartitionRowsWindow,
    RangeWindow,
    UnboundedWindow,
)


def tup(t, **values):
    return StreamTuple(t, values)


def random_stream(n_ticks=30, n_tags=12, seed=0):
    """Tag positions random-walking over a 20x20 floor, several per tick."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 20.0, size=(n_tags, 2))
    ticks = []
    for k in range(n_ticks):
        time = float(k)
        moving = rng.choice(n_tags, size=rng.integers(1, n_tags // 2 + 1), replace=False)
        batch = []
        for i in moving:
            pos[i] = np.clip(pos[i] + rng.normal(0.0, 1.5, 2), 0.0, 20.0)
            batch.append(
                tup(
                    time,
                    tag_id=f"object:{i}",
                    x=float(pos[i][0]),
                    y=float(pos[i][1]),
                    z=0.0,
                )
            )
        ticks.append((time, batch))
    return ticks


def feed(engine, ticks):
    for _, batch in ticks:
        for t in batch:
            engine.push(t)
    engine.finish()
    return engine


def outputs_of(engine):
    return {
        name: [(t.time, tuple(sorted(t.items()))) for t in tuples]
        for name, tuples in engine.outputs.items()
    }


def standard_queries(n_regions=25):
    queries = [location_update_query(), fire_code_query(lambda _: 90.0, 200.0, 5.0)]
    queries += standing_region_queries(n_regions, ((0.0, 0.0), (20.0, 20.0)))
    return queries


def tree_equal(a, b, path=""):
    """First differing path between two state trees (None if equal);
    compares dict key order, sequence contents, and leaf values."""
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
    if type(a) is not type(b) and not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, np.ndarray):
        if not np.array_equal(a, b):
            return f"{path}: arrays differ"
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


class TestWindowDedup:
    def test_identical_windows_share_one_operator(self):
        engine = MultiplexedQueryEngine()
        for q in standing_region_queries(10, ((0.0, 0.0), (20.0, 20.0))):
            engine.register(q)
        stats = engine.stats()
        assert stats["shared_windows"] == 1
        assert stats["windows_deduped"] == 9

    def test_signature_distinguishes_parameters(self):
        engine = MultiplexedQueryEngine()
        engine.register(ContinuousQuery(RangeWindow(30.0), name="a"))
        engine.register(ContinuousQuery(RangeWindow(30.0), name="b"))
        engine.register(ContinuousQuery(RangeWindow(20.0), name="c"))
        engine.register(ContinuousQuery(NowWindow(), name="d"))
        engine.register(ContinuousQuery(UnboundedWindow(), name="e"))
        engine.register(
            ContinuousQuery(PartitionRowsWindow(("tag_id",), 1), name="f")
        )
        engine.register(
            ContinuousQuery(PartitionRowsWindow(("tag_id",), 2), name="g")
        )
        # a+b share; c, d, e, f, g are all structurally distinct.
        assert engine.stats()["shared_windows"] == 6
        assert engine.stats()["windows_deduped"] == 1

    def test_window_subclass_never_shared(self):
        class CustomWindow(RangeWindow):
            pass

        assert CustomWindow(30.0).signature() is None
        engine = MultiplexedQueryEngine()
        engine.register(ContinuousQuery(CustomWindow(30.0), name="a"))
        engine.register(ContinuousQuery(CustomWindow(30.0), name="b"))
        assert engine.stats()["shared_windows"] == 2
        assert engine.stats()["windows_deduped"] == 0

    def test_late_registration_gets_fresh_window(self):
        """A query registered mid-stream must not adopt another query's
        window history — stock semantics: its window starts empty and fills
        from the tick pending at registration onward."""
        ticks = random_stream(n_ticks=12, seed=3)

        def shape(name):
            return ContinuousQuery(
                PartitionRowsWindow(("tag_id",), 1),
                [RegionSelect((0.0, 0.0), (20.0, 20.0)), Project("tag_id", "x", "y")],
                Istream(),
                name=name,
            )

        engines = (MultiplexedQueryEngine(), QueryEngine())
        for engine in engines:
            engine.register(shape("early"))
            for _, batch in ticks[:6]:
                for t in batch:
                    engine.push(t)
            engine.register(shape("late"))
            for _, batch in ticks[6:]:
                for t in batch:
                    engine.push(t)
            engine.finish()
        mux, stock = engines
        assert mux.stats()["shared_windows"] == 2  # no history adoption
        assert outputs_of(mux) == outputs_of(stock)
        # And the late query really did miss the early ticks.
        late_times = {time for time, _ in outputs_of(mux)["late"]}
        early_times = {time for time, _ in outputs_of(mux)["early"]}
        assert min(late_times) > min(early_times)


class TestIncrementalParity:
    """Incremental change-list serving vs the stock full re-scan path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_standard_query_mix_byte_identical(self, seed):
        ticks = random_stream(n_ticks=30, seed=seed)
        naive = QueryEngine()
        mux = MultiplexedQueryEngine()
        for q in standard_queries():
            naive.register(q)
        for q in standard_queries():
            mux.register(q)
        feed(naive, ticks)
        feed(mux, ticks)
        assert outputs_of(mux) == outputs_of(naive)
        stats = mux.stats()
        assert stats["windows_deduped"] >= 24
        assert stats["emissions_suppressed"] > 0

    @pytest.mark.parametrize(
        "streamer_cls", [Istream, Rstream, Dstream]
    )
    def test_every_streamer_parity(self, streamer_cls):
        def build():
            return [
                ContinuousQuery(
                    PartitionRowsWindow(("tag_id",), 1),
                    [RegionSelect((5.0, 5.0), (15.0, 15.0)), Project("tag_id", "x", "y")],
                    streamer_cls(),
                    name="q_region",
                ),
                ContinuousQuery(
                    RangeWindow(8.0),
                    [GroupBy((), [count_()])],
                    streamer_cls(),
                    name="q_agg",
                ),
                ContinuousQuery(
                    NowWindow(),
                    [Select(lambda t: t["x"] > 10.0)],
                    streamer_cls(),
                    name="q_now",
                ),
            ]

        ticks = random_stream(n_ticks=25, seed=7)
        naive = QueryEngine()
        mux = MultiplexedQueryEngine()
        for q in build():
            naive.register(q)
        for q in build():
            mux.register(q)
        feed(naive, ticks)
        feed(mux, ticks)
        assert outputs_of(mux) == outputs_of(naive)

    def test_region_grid_pass_matches_linear_filter(self):
        """Grid-indexed candidates (sorted by first-seen rank) reproduce the
        relation-scan order restricted to the region."""
        ticks = random_stream(n_ticks=20, n_tags=20, seed=11)
        mux_grid = MultiplexedQueryEngine(grid_cell=2.0)
        mux_linear = MultiplexedQueryEngine(max_region_cells=0)  # grid disabled
        for engine in (mux_grid, mux_linear):
            for q in standing_region_queries(16, ((0.0, 0.0), (20.0, 20.0))):
                engine.register(q)
            feed(engine, ticks)
        assert outputs_of(mux_grid) == outputs_of(mux_linear)
        assert mux_grid.stats()["grid_lookups"] > 0
        assert mux_linear.stats()["grid_lookups"] == 0


class TestResultCaching:
    def test_duplicate_queries_answered_from_cache(self):
        """Same-shape queries under different names share one plan key; the
        post-operator relation computes once per window version."""
        ticks = random_stream(n_ticks=15, seed=5)
        engine = MultiplexedQueryEngine()
        ops = [GroupBy((), [count_()])]
        for name in ("a", "b", "c"):
            engine.register(
                ContinuousQuery(RangeWindow(8.0), list(ops), Rstream(), name=name)
            )
        feed(engine, ticks)
        stats = engine.stats()
        assert stats["cache_hits"] > 0
        # Duplicates answered from cache: hits >= 2x misses is the shape
        # (first query misses, the other two hit, per changed tick).
        assert stats["cache_hits"] >= 2 * stats["cache_misses"] - 2
        assert (
            outputs_of(engine)["a"]
            == outputs_of(engine)["b"]
            == outputs_of(engine)["c"]
        )

    def test_cache_invalidated_when_window_changes(self):
        engine = MultiplexedQueryEngine()
        for name in ("a", "b"):
            engine.register(
                ContinuousQuery(
                    PartitionRowsWindow(("tag_id",), 1),
                    [],
                    Rstream(),
                    name=name,
                )
            )
        engine.push(tup(0.0, tag_id="x", x=1.0, y=1.0, z=0.0))
        engine.push(tup(1.0, tag_id="x", x=2.0, y=1.0, z=0.0))
        engine.push(tup(2.0, tag_id="x", x=3.0, y=1.0, z=0.0))
        engine.finish()
        # Every tick changes the window; outputs must track the change, not
        # replay a stale cached relation.
        assert [t["x"] for t in engine.outputs["a"]] == [1.0, 2.0, 3.0]
        assert [t["x"] for t in engine.outputs["b"]] == [1.0, 2.0, 3.0]

    def test_unchanged_window_emits_nothing_without_rescan(self):
        engine = MultiplexedQueryEngine()
        for q in standing_region_queries(9, ((0.0, 0.0), (20.0, 20.0))):
            engine.register(q)
        engine.push(tup(0.0, tag_id="x", x=1.0, y=1.0, z=0.0))
        # Tick 1 moves nothing into any other region: 8 of 9 watchers must
        # be suppressed without touching their plans.
        engine.push(tup(1.0, tag_id="x", x=1.1, y=1.0, z=0.0))
        engine.push(tup(2.0, tag_id="x", x=1.2, y=1.0, z=0.0))
        engine.finish()
        assert engine.emissions_suppressed >= 16

    def test_impure_operator_subclass_disables_caching(self):
        """A Select subclass could do anything in process(); it must be
        served by the general path every tick."""

        calls = []

        class CountingSelect(Select):
            def process(self, time, tuples):
                calls.append(time)
                return super().process(time, tuples)

        engine = MultiplexedQueryEngine()
        engine.register(
            ContinuousQuery(
                NowWindow(),
                [CountingSelect(lambda t: True)],
                Rstream(),
                name="impure",
            )
        )
        engine.push(tup(0.0, v=1))
        engine.push(tup(1.0, v=2))
        engine.push(tup(2.0, v=3))
        engine.finish()
        assert calls == [0.0, 1.0, 2.0]


class TestRegionSelect:
    def test_contains_half_open(self):
        region = RegionSelect((0.0, 0.0), (10.0, 10.0))
        assert region.contains(tup(0.0, x=0.0, y=0.0))
        assert not region.contains(tup(0.0, x=10.0, y=5.0))
        assert region.region_key() == ("region", ("x", "y"), (0.0, 0.0), (10.0, 10.0))

    def test_degenerate_region_rejected(self):
        with pytest.raises(QueryError):
            RegionSelect((0.0, 0.0), (0.0, 10.0))
        with pytest.raises(QueryError):
            RegionSelect((0.0,), (10.0, 10.0))


class TestQueryBuilders:
    def test_standing_region_queries_tile_bounds(self):
        queries = standing_region_queries(7, ((0.0, 0.0), (10.0, 10.0)))
        assert len(queries) == 7
        assert len({q.name for q in queries}) == 7

    def test_queries_from_spec(self):
        queries = queries_from_spec(
            [
                {"kind": "region", "name": "dock", "lo": [0, 0], "hi": [10, 5]},
                {"kind": "location_updates", "name": "moves"},
            ]
        )
        assert [q.name for q in queries] == ["dock", "moves"]
        with pytest.raises(QueryError, match="unknown standing-query kind"):
            queries_from_spec([{"kind": "nope"}])


class TestOperatorStateCapture:
    """Snapshot/restore of the multiplexer's operator state: a restored
    engine resumes answers exactly (same emissions, same final state)."""

    @pytest.mark.parametrize("engine_cls", [QueryEngine, MultiplexedQueryEngine])
    def test_exact_resume_mid_tick(self, engine_cls):
        ticks = random_stream(n_ticks=30, seed=13)
        reference = engine_cls()
        resumable = engine_cls()
        for q in standard_queries(n_regions=9):
            reference.register(q)
        for q in standard_queries(n_regions=9):
            resumable.register(q)

        cut_tick, cut_mid = 18, 2  # split inside tick 18's batch
        fed = 0
        state = None
        for k, (_, batch) in enumerate(ticks):
            for j, t in enumerate(batch):
                reference.push(t)
                if state is None:
                    resumable.push(t)
                    if k == cut_tick and j == min(cut_mid, len(batch) - 1):
                        state = resumable.snapshot_state()
                        pre_outputs = outputs_of(resumable)
        reference.finish()

        restored = engine_cls()
        for q in standard_queries(n_regions=9):
            restored.register(q)
        restored.restore_state(state)
        replayed = False
        for k, (_, batch) in enumerate(ticks):
            for j, t in enumerate(batch):
                if not replayed:
                    if k == cut_tick and j == min(cut_mid, len(batch) - 1):
                        replayed = True
                    continue
                restored.push(t)
        restored.finish()

        # Pre-cut emissions plus the restored engine's are the full run's.
        combined = {
            name: pre_outputs.get(name, []) + rows
            for name, rows in outputs_of(restored).items()
        }
        assert combined == outputs_of(reference)
        # Final operator state is bitwise-equal (structurally: same key
        # order, same leaves; pickle bytes differ only by memoized object
        # identity, which is not semantic).
        diff = tree_equal(restored.snapshot_state(), reference.snapshot_state())
        assert diff is None, diff

    def test_restore_rejects_query_name_mismatch(self):
        engine = MultiplexedQueryEngine()
        engine.register(ContinuousQuery(NowWindow(), name="a"))
        state = engine.snapshot_state()
        other = MultiplexedQueryEngine()
        other.register(ContinuousQuery(NowWindow(), name="b"))
        with pytest.raises(StateError, match="registered queries differ"):
            other.restore_state(state)

    def test_restore_rejects_wrong_engine_kind(self):
        plain = QueryEngine()
        plain.register(ContinuousQuery(NowWindow(), name="a"))
        mux = MultiplexedQueryEngine()
        mux.register(ContinuousQuery(NowWindow(), name="a"))
        with pytest.raises(StateError, match="multiplexed"):
            mux.restore_state(plain.snapshot_state())

    def test_restore_rejects_grouping_mismatch(self):
        def shared_pair():
            engine = MultiplexedQueryEngine()
            engine.register(ContinuousQuery(RangeWindow(10.0), name="a"))
            engine.register(ContinuousQuery(RangeWindow(10.0), name="b"))
            return engine

        state = shared_pair().snapshot_state()
        split = MultiplexedQueryEngine()
        split.register(ContinuousQuery(RangeWindow(10.0), name="a"))
        split.push(tup(0.0, v=1))
        split.push(tup(1.0, v=2))  # flush advances the tick counter:
        split.register(ContinuousQuery(RangeWindow(10.0), name="b"))  # fresh window
        with pytest.raises(StateError, match="share one window|window group"):
            split.restore_state(state)

