"""A tick costs what changed: incremental Istream and changed-cell dispatch.

Three contracts of :class:`MultiplexedQueryEngine`'s Istream paths:

* **parity** — over every window type, with duplicate values and
  multiplicities, emissions (values, field order, times, *order*) equal
  ``Istream.process`` over the materialised relation, also across a
  ``snapshot_state`` -> ``restore_state`` hop and from a literal snapshot
  tree holding what the commit before the keyed relation existed captured;
* **bounded work** — a tick that changes one tuple constructs and keys a
  constant number of tuples, whatever the relation's size;
* **dispatch** — a tick visits the plans watching a changed cell plus the
  plans that must see every tick, and the counters come out as if every plan
  had been visited.
"""

import json

from hypothesis import given, settings, strategies as st

import repro.query.stream_ops as stream_ops
from repro.query import (
    ContinuousQuery,
    MultiplexedQueryEngine,
    QueryEngine,
    location_update_query,
    standing_region_queries,
)
from repro.query.relops import Extend, Project, RegionSelect, Select
from repro.query.stream_ops import Istream, Rstream
from repro.query.tuples import StreamTuple
from repro.query.windows import (
    NowWindow,
    PartitionRowsWindow,
    RangeWindow,
    UnboundedWindow,
)

# ---------------------------------------------------------------------------
# (a) parity with Istream.process
# ---------------------------------------------------------------------------

WINDOWS = {
    "now": NowWindow,
    "range1": lambda: RangeWindow(1.0),
    "range3": lambda: RangeWindow(3.0),
    "unbounded": UnboundedWindow,
    "rows1": lambda: PartitionRowsWindow(("k",), rows=1),
    "rows2": lambda: PartitionRowsWindow(("k",), rows=2),
    "rows3": lambda: PartitionRowsWindow(("k",), rows=3),
}


def _parity(t):
    return t["v"] % 2


def _not_one(t):
    return t["v"] != 1


def _left(t):
    return t["x"] < 2.0


#: Operator chains, all tuple-local.  Projecting the partition key away makes
#: equal values sit in different partitions; the small value domain below
#: makes them frequent.
CHAINS = {
    "identity": lambda: [],
    "project_v": lambda: [Project("v")],
    "project_kv": lambda: [Project("k", "v")],
    "select": lambda: [Select(_not_one)],
    "select_project": lambda: [Select(_left), Project("v")],
    "project_select": lambda: [Project("v", "x"), Select(_not_one)],
    "extend_project": lambda: [Extend(parity=_parity), Project("parity")],
    "region_project": lambda: [RegionSelect((0.0, 0.0), (2.0, 2.0)), Project("v")],
    "region_select_extend": lambda: [
        RegionSelect((0.0, 0.0), (3.0, 2.0)),
        Select(_not_one),
        Extend(parity=_parity),
        Project("parity", "y"),
    ],
}

rows = st.tuples(
    st.sampled_from("abcd"),
    st.sampled_from([0.5, 1.5, 2.5]),
    st.sampled_from([0.5, 1.5, 2.5]),
    st.integers(0, 2),
)
#: A tick is (time step, rows); step 0 never happens (ticks are distinct
#: times), steps > 1 let range windows expire several ticks' rows at once.
ticks_strategy = st.lists(
    st.tuples(st.integers(1, 4), st.lists(rows, min_size=0, max_size=5)),
    min_size=1,
    max_size=14,
)


def make_query(window, chain):
    return ContinuousQuery(WINDOWS[window](), CHAINS[chain](), Istream(), name="q")


def make_ticks(spec):
    time = 0.0
    out = []
    for step, batch in spec:
        time += step
        out.append(
            (time, [StreamTuple(time, {"k": k, "x": x, "y": y, "v": v}) for k, x, y, v in batch])
        )
    return out


def emitted(tuples):
    return [(t.time, tuple(t.items())) for t in tuples]


def oracle_emissions(window, chain, ticks):
    """``Istream.process`` over the materialised post-operator relation."""
    query = make_query(window, chain)
    return [emitted(query.push(time, batch)) for time, batch in ticks]


def drive(engine, ticks):
    """Feed whole ticks (empty ones too); one emission list per tick."""
    out = []
    for time, batch in ticks:
        before = len(engine.outputs["q"])
        for tup in batch:
            engine.push(tup)
        engine.advance_to(time) if not batch else engine.finish()
        out.append(emitted(engine.outputs["q"][before:]))
    return out


def multiplexed(window, chain):
    engine = MultiplexedQueryEngine()
    engine.register(make_query(window, chain))
    assert engine._plans["q"].kind in ("linear_istream", "region_istream")
    return engine


class TestIstreamParity:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(WINDOWS)), st.sampled_from(sorted(CHAINS)), ticks_strategy)
    def test_emissions_equal_full_relation_istream(self, window, chain, spec):
        ticks = make_ticks(spec)
        assert drive(multiplexed(window, chain), ticks) == oracle_emissions(window, chain, ticks)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(WINDOWS)),
        st.sampled_from(sorted(CHAINS)),
        ticks_strategy,
        st.integers(0, 14),
    )
    def test_parity_survives_snapshot_restore(self, window, chain, spec, cut):
        ticks = make_ticks(spec)
        cut = min(cut, len(ticks))
        first = multiplexed(window, chain)
        got = drive(first, ticks[:cut])
        resumed = multiplexed(window, chain)
        resumed.restore_state(first.snapshot_state())
        got += drive(resumed, ticks[cut:])
        assert got == oracle_emissions(window, chain, ticks)

    def test_region_plan_uses_the_grid_path(self):
        engine = multiplexed("rows1", "region_project")
        assert engine._plans["q"].kind == "region_istream"
        assert multiplexed("rows2", "region_project")._plans["q"].kind == "linear_istream"

    def test_older_equal_tuple_fixes_the_emitted_position(self):
        """Partition b gains a second v=1; stock emits the *first* v=1 of the
        relation scan — partition a's older tuple — so it sorts before the
        v=2 admitted into partition a earlier in the same tick."""
        ticks = make_ticks(
            [
                (1, [("a", 0.5, 0.5, 1), ("b", 0.5, 0.5, 0)]),
                (1, [("a", 2.5, 2.5, 2), ("b", 1.5, 1.5, 1)]),
            ]
        )
        got = drive(multiplexed("rows2", "project_v"), ticks)
        assert got == oracle_emissions("rows2", "project_v", ticks)
        assert got[1] == [(2.0, (("v", 1),)), (2.0, (("v", 2),))]

    def test_custom_window_subclass_keeps_the_full_relation_path(self):
        class Reversed(UnboundedWindow):
            def relation(self):
                return list(reversed(self._buffer))

        ticks = make_ticks([(1, [("a", 0.5, 0.5, 1), ("b", 0.5, 0.5, 2)]), (1, [("c", 0.5, 0.5, 0)])])
        engine = MultiplexedQueryEngine()
        engine.register(ContinuousQuery(Reversed(), [Project("v")], Istream(), name="q"))
        assert engine._plans["q"].kind == "general"
        oracle = ContinuousQuery(Reversed(), [Project("v")], Istream(), name="q")
        assert drive(engine, ticks) == [emitted(oracle.push(t, b)) for t, b in ticks]


# The ``snapshot_state()`` of a fixed stream, mid-tick: two ticks served, the
# third pending.  Tuple for tuple and count for count what the commit before
# the keyed relation existed (fc9b4eb) captured, in the plain state-tree
# encoding checkpoints carry since format version 3.
def T(time, k, x, y, v):
    return StreamTuple(time, {"k": k, "x": x, "y": y, "v": v})


def E(time, k, x, y, v):
    return [time, {"k": k, "x": x, "y": y, "v": v}]


PARENT_TICKS = [
    [("a", 0.5, 0.5, 1), ("b", 1.5, 0.5, 1), ("c", 2.5, 2.5, 2)],
    [("b", 0.5, 1.5, 2), ("a", 0.5, 0.5, 1)],
    [("c", 1.5, 1.5, 1), ("d", 0.5, 0.5, 2), ("a", 2.5, 0.5, 1)],
]
LATER_TICKS = [
    [("b", 0.5, 0.5, 1), ("d", 2.5, 2.5, 2)],
    [("a", 0.5, 1.5, 2), ("c", 1.5, 0.5, 2), ("e", 1.5, 1.5, 1)],
    [("e", 2.5, 2.5, 1), ("b", 1.5, 1.5, 2)],
]


def plan_run(names, previous, subset_version):
    return {
        "queries": names,
        "state": {
            "streamer": {"streamer": "istream", "previous": previous},
            "downstream": None,
            "subset_version": subset_version,
            "last_version": -1,
        },
    }


PARENT_SNAPSHOT = {
    "engine": "query-multiplexed",
    "ticks": 2,
    "pending_time": 2.0,
    "pending": [E(2.0, "c", 1.5, 1.5, 1), E(2.0, "d", 0.5, 0.5, 2), E(2.0, "a", 2.5, 0.5, 1)],
    "windows": [
        {
            "state": {
                "window": "partition",
                "keys": ["k"],
                "rows": 2,
                "partitions": [
                    [E(0.0, "a", 0.5, 0.5, 1), E(1.0, "a", 0.5, 0.5, 1)],
                    [E(0.0, "b", 1.5, 0.5, 1), E(1.0, "b", 0.5, 1.5, 2)],
                    [E(0.0, "c", 2.5, 2.5, 2)],
                ],
            },
            "version": 2,
            "ticks": 2,
            "plans": [plan_run(["dups"], [[{"v": 1}, 3], [{"v": 2}, 2]], 0)],
        },
        {
            "state": {
                "window": "partition",
                "keys": ["k"],
                "rows": 1,
                "partitions": [
                    [E(1.0, "a", 0.5, 0.5, 1)],
                    [E(1.0, "b", 0.5, 1.5, 2)],
                    [E(0.0, "c", 2.5, 2.5, 2)],
                ],
            },
            "version": 2,
            "ticks": 2,
            "plans": [plan_run(["region"], [[{"v": 1}, 1], [{"v": 2}, 1]], 2)],
        },
    ],
}


def parent_queries():
    return [
        ContinuousQuery(PartitionRowsWindow(("k",), rows=2), [Project("v")], Istream(), name="dups"),
        ContinuousQuery(
            PartitionRowsWindow(("k",), rows=1),
            [RegionSelect((0.0, 0.0), (2.0, 2.0)), Project("v")],
            Istream(),
            name="region",
        ),
    ]


def as_stream(batches, first_tick=0):
    return [
        T(float(first_tick + i), *row) for i, batch in enumerate(batches) for row in batch
    ]


class TestRestoreFromParentSnapshot:
    def test_resumes_exactly_where_the_uninterrupted_run_goes(self):
        stock = QueryEngine()
        for query in parent_queries():
            stock.register(query)
        stock.push_many(as_stream(PARENT_TICKS + LATER_TICKS))
        stock.finish()

        resumed = MultiplexedQueryEngine()
        for query in parent_queries():
            resumed.register(query)
        resumed.restore_state(PARENT_SNAPSHOT)
        resumed.push_many(as_stream(LATER_TICKS, first_tick=len(PARENT_TICKS)))
        resumed.finish()

        for name in ("dups", "region"):
            expected = [row for row in emitted(stock.outputs[name]) if row[0] >= 2.0]
            assert expected and emitted(resumed.outputs[name]) == expected

    def test_snapshot_is_what_the_parent_would_have_written(self):
        """The keyed relation is derived state: the same stream leaves the
        same snapshot tree (same keys, same dict orders) as before it
        existed."""
        engine = MultiplexedQueryEngine()
        for query in parent_queries():
            engine.register(query)
        engine.push_many(as_stream(PARENT_TICKS))
        state = engine.snapshot_state()
        assert state == PARENT_SNAPSHOT  # lists throughout: order included
        json.dumps(state, allow_nan=False)  # and nothing but JSON in it


# ---------------------------------------------------------------------------
# (b) work per tick does not grow with the relation
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def location(time, tag, x):
    return StreamTuple(time, {"tag_id": f"object:{tag}", "x": x, "y": 0.0, "z": 0.0})


class TestWorkPerTick:
    def work_per_tick(self, monkeypatch, n_partitions, n_ticks=20):
        engine = MultiplexedQueryEngine()
        engine.register(location_update_query())
        for tag in range(n_partitions):
            engine.push(location(0.0, tag, float(tag)))
        engine.finish()
        assert len(engine.outputs["location_updates"]) == n_partitions
        movers = [location(float(k), (k * 37) % n_partitions, -float(k)) for k in range(1, n_ticks + 1)]
        with monkeypatch.context() as patch:
            constructed = count_calls(patch, StreamTuple, "__init__")
            keyed = count_calls(patch, stream_ops, "_value_key")
            for tup in movers:
                engine.push(tup)
            engine.finish()
        assert len(engine.outputs["location_updates"]) == n_partitions + n_ticks
        return constructed[0] / n_ticks, keyed[0] / n_ticks

    def test_constant_in_relation_size(self, monkeypatch):
        small = self.work_per_tick(monkeypatch, 200)
        large = self.work_per_tick(monkeypatch, 20_000)
        assert small == large
        # Project the admitted and the evicted tuple, stamp the emission;
        # key the admitted and the evicted tuple.
        assert small == (3.0, 2.0)


# ---------------------------------------------------------------------------
# (c) changed-cell dispatch
# ---------------------------------------------------------------------------

BOUNDS = ((0.0, 0.0), (32.0, 32.0))
STATS_TIMING = ("serve_seconds", "serve_s_per_tick")


def fanout_engine(n=1000):
    engine = MultiplexedQueryEngine()
    engine.register(location_update_query())
    for query in standing_region_queries(n, BOUNDS):
        engine.register(query)
    return engine


def visit_every_plan(engine):
    """Turn changed-cell dispatch off: every plan is served every tick and
    finds out for itself that its cells did not change."""
    engine._every_tick = list(engine._plans.values())
    for shared in engine._windows.values():
        for grid in shared.grids.values():
            grid.watchers.clear()
    return engine


def mover_stream(n_ticks=40):
    """Twenty parked tags, one of which hops between two cells."""
    stream = [
        StreamTuple(0.0, {"tag_id": f"object:{i}", "x": 1.5 * i + 0.25, "y": 1.25 * i + 0.5, "z": 0.0})
        for i in range(20)
    ]
    for k in range(1, n_ticks + 1):
        x, y = (10.5, 3.5) if k % 2 else (17.5, 21.5)
        stream.append(StreamTuple(float(k), {"tag_id": "object:7", "x": x, "y": y, "z": 0.0}))
    return stream


def comparable(stats):
    return {k: v for k, v in stats.items() if k not in STATS_TIMING}


class TestChangedCellDispatch:
    def test_serves_only_plans_watching_a_changed_cell(self):
        engine = fanout_engine()
        grid = next(iter(next(iter(engine._windows.values())).grids.values()))
        served = []
        serve = engine._serve

        def recording(plan, time):
            served.append((engine._ticks, grid.changed_cells.copy(), plan.name))
            return serve(plan, time)

        engine._serve = recording
        engine.push_many(mover_stream())
        engine.finish()

        by_tick = {}
        for tick, cells, name in served:
            by_tick.setdefault(tick, (cells, []))[1].append(name)
        assert len(by_tick) == 41
        registered = list(engine._plans)
        for tick, (cells, names) in by_tick.items():
            if tick == 1:
                continue  # the tick that places all twenty tags
            assert len(cells) == 2
            watching = {p.name for cell in cells for p in grid.watchers.get(cell, ())}
            assert set(names) == watching | {"location_updates"}
            assert len(names) <= 1 + sum(len(grid.watchers.get(c, ())) for c in cells) < 20
            assert names == sorted(names, key=registered.index)

    def test_stats_and_outputs_equal_visiting_every_plan(self):
        dispatched = fanout_engine()
        exhaustive = visit_every_plan(fanout_engine())
        calls = [0]
        serve = exhaustive._serve

        def counting(plan, time):
            calls[0] += 1
            return serve(plan, time)

        exhaustive._serve = counting
        for engine in (dispatched, exhaustive):
            engine.push_many(mover_stream())
            engine.finish()
        assert calls[0] == 41 * 1001
        assert comparable(dispatched.stats()) == comparable(exhaustive.stats())
        assert dispatched.stats()["emissions_suppressed"] > 40 * 990
        assert {n: emitted(o) for n, o in dispatched.outputs.items()} == {
            n: emitted(o) for n, o in exhaustive.outputs.items()
        }

    def test_emissions_keep_registration_order_across_plans(self):
        """Callback order is observable (one sink, many queries)."""
        logs = []
        for engine in (fanout_engine(), visit_every_plan(fanout_engine())):
            log = []
            for name in engine._plans:
                engine.add_sink(name, lambda tup, name=name: log.append((name, tup.time)))
            engine.push_many(mover_stream(12))
            engine.finish()
            logs.append(log)
        assert logs[0] == logs[1] and len(logs[0]) > 24

    def test_plan_with_a_downstream_is_pushed_every_tick(self):
        """A region watch feeding a nested query: the outer range window
        slides (and its Rstream re-emits) on ticks that change nothing in
        the region."""

        def nested():
            inner = ContinuousQuery(
                PartitionRowsWindow(("tag_id",), rows=1),
                [RegionSelect((0.0, 0.0), (4.0, 4.0)), Project("tag_id", "x", "y")],
                Istream(),
                name="watch",
            )
            return inner.then(ContinuousQuery(RangeWindow(3.0), [], Rstream(), name="recent"))

        stream = [StreamTuple(0.0, {"tag_id": "t", "x": 1.0, "y": 1.0})] + [
            StreamTuple(float(k), {"tag_id": "far", "x": 20.0 + k, "y": 20.0}) for k in range(1, 8)
        ]
        engines = []
        for engine in (QueryEngine(), MultiplexedQueryEngine()):
            engine.register(nested())
            engine.push_many(stream)
            engine.finish()
            engines.append(engine)
        stock, mux = engines
        assert mux._plans["watch"].kind == "region_istream"
        assert mux._plans["watch"] in mux._every_tick
        assert emitted(mux.outputs["watch"]) == emitted(stock.outputs["watch"])
        assert [t.time for t in mux.outputs["watch"]] == [0.0, 1.0, 2.0]
