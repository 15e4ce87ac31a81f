"""Multiplexed standing-query serving.

The stock :class:`~repro.query.engine.QueryEngine` is single-consumer: every
registered query owns its own window and re-scans its whole windowed relation
each tick, so N standing queries cost O(N x window) per tick.  This module
serves thousands of concurrent standing queries at near-flat marginal cost:

* **Shared incremental windows** — structurally-identical windows (same
  type + parameters, registered against the same input stream epoch) are
  deduplicated into one shared operator that is maintained *incrementally*:
  each tick produces a change-list (added/removed) instead of a full
  relation re-scan, and per-query predicates/projections run over the
  change-list only.
* **Incremental Istream** — a query made of tuple-local operators and an
  ``Istream`` (the location-update shape) keeps its post-operator relation
  *keyed by value* (:class:`~repro.query.stream_ops.KeyedRelation`), updated
  from the change-list alone.  A tick that admits *k* tuples into an
  *n*-tuple relation runs the operators and the value keying on those *k*
  (+ evicted) tuples and sorts at most *k* emitted positions; nothing on
  this path reads the whole relation.  The keyed relation is derived state:
  it is rebuilt from the window on registration and after a restore, and is
  not part of ``snapshot_state``.
* **Grid-indexed region pass, changed-cell dispatch** — queries whose first
  operator is a :class:`~repro.query.relops.RegionSelect` over a
  ``[Partition By k Rows 1]`` window subscribe to the cells of a shared grid
  index.  A tick visits only the plans subscribed to a cell that changed
  (plus the plans that must see every tick: non-region plans and plans
  feeding a nested query), in registration order; the unvisited plans'
  ``emissions_suppressed`` are added up, not discovered one by one.
* **Per-query result caching** — on the whole-relation paths (aggregates,
  ``Rstream``) the post-operator relation is memoized per plan signature and
  shared-window version, so duplicate queries are answered from cache and
  unchanged windows emit nothing (``emissions_suppressed``).
* **Checkpointed operator state** — ``snapshot_state``/``restore_state``
  capture shared-window + per-query streamer state so a restored server
  resumes answers exactly (see :mod:`repro.state.checkpoint`).

Single-query semantics are byte-identical to the stock engine; this is pinned
by the parity tests in ``tests/test_query_multiplexer.py`` and the
``query_serving`` parity check of ``benchmarks/fidelity.py``.
"""

from __future__ import annotations

import math
from operator import attrgetter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import QueryError, StateError
from .engine import ContinuousQuery, QueryEngine, _check_same_queries
from .relops import (
    Extend,
    GroupBy,
    Having,
    OrderBy,
    Project,
    RegionSelect,
    Select,
)
from .stream_ops import Dstream, Istream, KeyedRelation, Position, Rstream
from .tuples import StreamTuple, decode_tuples, encode_tuples, expect_tags
from .windows import (
    NowWindow,
    PartitionRowsWindow,
    RangeWindow,
    UnboundedWindow,
    Window,
)

#: Operators known to be pure per-tick functions of the relation (exact
#: types only — subclasses may override ``process`` arbitrarily, so they
#: disqualify a plan from caching/skipping, never from correctness).
_PURE_OPS = (Select, RegionSelect, Project, Extend, GroupBy, Having, OrderBy)
#: Pure *and* tuple-local (map/filter): safe to evaluate over change-lists.
_TUPLE_LOCAL_OPS = (Select, RegionSelect, Project, Extend)
#: Windows whose relation is scanned in arrival order and evicts oldest-first
#: (exact types).  ``PartitionRowsWindow`` does the same *within* each
#: partition, partitions in first-seen order.
_ARRIVAL_ORDERED = (NowWindow, RangeWindow, UnboundedWindow)


def _op_key(op) -> Tuple:
    """Structural identity of one operator for plan dedup.

    Structurally-declared operators (RegionSelect, Project, GroupBy, ...)
    dedup by value; closure-carrying ones (Select, Extend, Having) dedup by
    callable identity — duplicate queries built from shared callables still
    share a plan.
    """
    t = type(op)
    if t is RegionSelect:
        return op.region_key()
    if t is Project:
        return ("project", op.names)
    if t is Extend:
        return ("extend", tuple((n, id(fn)) for n, fn in op.computed.items()))
    if t is GroupBy:
        return (
            "groupby",
            op.keys,
            tuple((a.name, a.attribute, a.kind) for a in op.aggregates),
        )
    if t is Having:
        return ("having", id(op.predicate))
    if t is Select:
        return ("select", id(op.predicate))
    if t is OrderBy:
        return ("orderby", op.names, op.descending)
    return ("op", t.__name__, id(op))


def _delta_image(ops: Sequence, time: float, tuples: List[StreamTuple], marks: List):
    """Run tuple-local operators over a change-list.

    ``marks`` rides along (one per tuple) so every surviving tuple keeps the
    relation position it was admitted at / evicted from.
    """
    for op in ops:
        if not tuples:
            break
        if isinstance(op, Select):
            kept = [i for i, t in enumerate(tuples) if op.predicate(t)]
            if len(kept) != len(tuples):
                tuples = [tuples[i] for i in kept]
                marks = [marks[i] for i in kept]
        else:
            tuples = op.process(time, tuples)
    return tuples, marks


class _GridIndex:
    """Spatial grid over a ``[Partition By k Rows 1]`` shared window.

    Maps cell -> {partition key -> current tuple}.  Candidate lookups return
    tuples sorted by the partition's first-seen rank, which for rows=1
    windows *is* the relation scan order restricted to the region — so the
    incremental Istream path reproduces stock emission order exactly.
    """

    def __init__(self, window: PartitionRowsWindow, attrs: Tuple[str, str], cell: float):
        self.window = window
        self.attrs = attrs
        self.cell = float(cell)
        self._cells: Dict[Tuple[int, int], Dict[Tuple, StreamTuple]] = {}
        self._where: Dict[Tuple, Tuple[int, int]] = {}
        self.changed_cells: Set[Tuple[int, int]] = set()
        #: cell -> plans served only on ticks that change one of their cells.
        self.watchers: Dict[Tuple[int, int], List["_Plan"]] = {}

    def cell_of(self, tup: StreamTuple) -> Tuple[int, int]:
        return tuple(
            int(math.floor(float(tup[a]) / self.cell)) for a in self.attrs
        )

    def update(self, added: Sequence[StreamTuple]) -> None:
        for tup in added:
            key = self.window.partition_key(tup)
            new_cell = self.cell_of(tup)
            old_cell = self._where.get(key)
            if old_cell is not None:
                if old_cell != new_cell:
                    self._cells[old_cell].pop(key, None)
                self.changed_cells.add(old_cell)
            self._where[key] = new_cell
            self._cells.setdefault(new_cell, {})[key] = tup
            self.changed_cells.add(new_cell)

    def watch(self, plan: "_Plan") -> None:
        for cell in plan.cells:
            self.watchers.setdefault(cell, []).append(plan)

    def rebuild(self) -> None:
        """Re-derive the index from the window's current partitions
        (used after a checkpoint restore)."""
        self._cells.clear()
        self._where.clear()
        self.changed_cells.clear()
        for key, rows in self.window._partitions.items():
            for tup in rows:
                cell = self.cell_of(tup)
                self._where[key] = cell
                self._cells.setdefault(cell, {})[key] = tup

    def cells_for(self, region: RegionSelect) -> List[Tuple[int, int]]:
        ranges = []
        for lo, hi in zip(region.lo, region.hi):
            ranges.append(
                range(int(math.floor(lo / self.cell)), int(math.ceil(hi / self.cell)) + 1)
            )
        return [(ix, iy) for ix in ranges[0] for iy in ranges[1]]

    def candidates(self, region: RegionSelect, cells: Sequence[Tuple[int, int]]) -> List[StreamTuple]:
        """In-region tuples in relation scan order."""
        seq = self.window.partition_seq
        found: List[Tuple[int, StreamTuple]] = []
        for cell in cells:
            bucket = self._cells.get(cell)
            if bucket:
                for key, tup in bucket.items():
                    if region.contains(tup):
                        found.append((seq(key), tup))
        found.sort(key=lambda pair: pair[0])
        return [tup for _, tup in found]


class _SharedWindow:
    """One shared window instance plus its incremental bookkeeping."""

    def __init__(self, window: Window, key: Tuple):
        self.window = window
        self.key = key
        self.incremental = hasattr(window, "ingest")
        self.partitioned = type(window) is PartitionRowsWindow
        #: The relation's scan order is known (see ``_ARRIVAL_ORDERED``), so
        #: the change-list can carry relation positions.
        self.ordered = self.partitioned or type(window) in _ARRIVAL_ORDERED
        self.version = 0
        self.ticks = 0
        self.added: List[StreamTuple] = []
        self.removed: List[StreamTuple] = []
        #: Relation position of each ``added`` tuple / position group of each
        #: ``removed`` one (ordered windows only).
        self.added_at: List[Position] = []
        self.removed_from: List[int] = []
        self._arrivals = 0
        self.grids: Dict[Tuple[str, str], _GridIndex] = {}
        self._relation: Optional[List[StreamTuple]] = None
        self._relation_version = -1

    def begin_tick(self, time: float, batch: Sequence[StreamTuple]) -> None:
        self.ticks += 1
        if self.incremental:
            self.added, self.removed = self.window.ingest(time, batch)
            if self.ordered:
                group_of = self.group_of
                first = self._arrivals
                self._arrivals += len(self.added)
                self.added_at = [
                    (group_of(t), first + i) for i, t in enumerate(self.added)
                ]
                self.removed_from = [group_of(t) for t in self.removed]
            if self.added or self.removed:
                self.version += 1
                self._relation = None
                for grid in self.grids.values():
                    grid.update(self.added)
        else:
            # Opaque custom window: no change-list, conservatively treat
            # every tick as a new version (correct, just uncached).
            self._relation = list(self.window.push(time, batch))
            self.version += 1
            self._relation_version = self.version

    def end_tick(self) -> None:
        for grid in self.grids.values():
            grid.changed_cells.clear()

    def group_of(self, tup: StreamTuple) -> int:
        """Position group of a tuple: its partition's first-seen rank (0 in
        the arrival-ordered windows)."""
        if self.partitioned:
            return self.window.partition_seq(self.window.partition_key(tup))
        return 0

    def placed_relation(self) -> List[Tuple[Position, StreamTuple]]:
        """The current relation with a position per tuple.  Arrivals are
        numbered from 0 as they are ingested; the tuples already present
        count backwards from -1, so they sort before every later arrival
        whenever this is (re)derived."""
        relation = self.window.relation()
        n = len(relation)
        return [((self.group_of(t), i - n), t) for i, t in enumerate(relation)]

    def relation(self) -> List[StreamTuple]:
        if self._relation is None or self._relation_version != self.version:
            self._relation = self.window.relation()
            self._relation_version = self.version
        return self._relation

    def grid_for(self, attrs: Tuple[str, str], cell: float) -> _GridIndex:
        grid = self.grids.get(attrs)
        if grid is None:
            grid = _GridIndex(self.window, attrs, cell)
            grid.rebuild()
            self.grids[attrs] = grid
        return grid

    def invalidate_caches(self) -> None:
        self._relation = None
        self._relation_version = -1
        for grid in self.grids.values():
            grid.rebuild()


class _Plan:
    """Per-query serving plan over a shared window."""

    __slots__ = (
        "name",
        "query",
        "shared",
        "ops",
        "streamer",
        "kind",
        "plan_key",
        "cacheable",
        "region",
        "rest_ops",
        "cells",
        "cell_set",
        "grid",
        "subset_version",
        "last_version",
        "keyed",
        "order",
    )

    def __init__(self, query: ContinuousQuery, shared: _SharedWindow):
        self.name = query.name
        self.query = query
        self.shared = shared
        self.ops = list(query.operators)
        self.streamer = query.streamer
        self.kind = "general"
        self.cacheable = all(type(op) in _PURE_OPS for op in self.ops)
        self.plan_key = (
            shared.key,
            tuple(_op_key(op) for op in self.ops),
            type(self.streamer).__name__,
        )
        self.region: Optional[RegionSelect] = None
        self.rest_ops: List = []
        self.cells: List[Tuple[int, int]] = []
        self.cell_set: Set[Tuple[int, int]] = set()
        self.grid: Optional[_GridIndex] = None
        self.subset_version = 0
        self.last_version = -1
        #: Post-operator relation keyed by value (the Istream-delta kinds).
        self.keyed: Optional[KeyedRelation] = None
        #: Registration rank: ticks serve plans in this order.
        self.order = 0


class MultiplexedQueryEngine(QueryEngine):
    """Drop-in :class:`QueryEngine` that multiplexes standing queries over
    shared incremental window operators.

    Parameters
    ----------
    grid_cell:
        Cell size (same units as tuple coordinates) of the region index.
    max_region_cells:
        Regions covering more cells than this fall back to the linear
        change-list path instead of subscribing to the grid.
    """

    def __init__(self, grid_cell: float = 1.0, max_region_cells: int = 4096):
        super().__init__()
        if grid_cell <= 0:
            raise QueryError(f"grid cell must be positive, got {grid_cell}")
        self.grid_cell = float(grid_cell)
        self.max_region_cells = int(max_region_cells)
        self._windows: Dict[Tuple, _SharedWindow] = {}
        self._plans: Dict[str, _Plan] = {}
        #: Plans served every tick, in registration order; the others
        #: (region-Istream plans with no nested query) are reached through
        #: their grid's ``watchers`` when a cell changes.
        self._every_tick: List[_Plan] = []
        self._postop_cache: Dict[Tuple, Tuple[int, List[StreamTuple]]] = {}
        #: This tick's region lookups; ``None`` marks one that was counted
        #: (``grid_lookups``) by a plan that did not need the tuples.
        self._candidates_memo: Dict[Tuple, Optional[List[StreamTuple]]] = {}
        #: plan signature -> shared-window version its relation was last
        #: looked up at by an emitting Istream-delta plan (cache accounting).
        self._lookup_version: Dict[Tuple, int] = {}
        self.windows_deduped = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.emissions_suppressed = 0
        self.grid_lookups = 0
        self.serve_seconds = 0.0
        #: Ticks served while the runtime was degraded (a shard mid-recovery
        #: or just replayed) — flagged by the serving layer via
        #: :meth:`note_degraded`.  The answers themselves are exact (recovery
        #: replay is deterministic); the counter announces that they arrived
        #: through a recovery, for staleness-aware consumers.
        self.degraded_ticks = 0

    def note_degraded(self) -> None:
        """Count one tick that was produced through a shard recovery."""
        self.degraded_ticks += 1

    # Registration --------------------------------------------------------
    def register(
        self,
        query: ContinuousQuery,
        callback: Optional[Callable[[StreamTuple], None]] = None,
    ) -> None:
        """Register a standing query.  A nested query must already be
        attached (``query.then(...)``): whether a plan has to be served on
        every tick is decided here."""
        super().register(query, callback)
        plan = self._build_plan(query)
        plan.order = len(self._plans)
        self._plans[query.name] = plan
        if plan.kind == "region_istream" and query._downstream is None:
            plan.grid.watch(plan)
        else:
            self._every_tick.append(plan)

    def _build_plan(self, query: ContinuousQuery) -> _Plan:
        sig = query.window.signature()
        if sig is None:
            # Custom window subclass: never shared, served via full pushes.
            key: Tuple = ("opaque", query.name)
            shared = _SharedWindow(query.window, key)
            self._windows[key] = shared
        else:
            # Queries registered at different stream positions must not
            # adopt a window that already holds history (stock semantics:
            # a fresh window starts empty) — key by registration tick.
            key = (sig, self._ticks)
            shared = self._windows.get(key)
            if shared is None:
                shared = _SharedWindow(query.window, key)
                self._windows[key] = shared
            else:
                self.windows_deduped += 1
        plan = _Plan(query, shared)
        self._classify(plan)
        return plan

    def _classify(self, plan: _Plan) -> None:
        ops = plan.ops
        streamer_t = type(plan.streamer)
        window = plan.shared.window
        if not plan.cacheable or not plan.shared.incremental:
            return
        tuple_local = all(type(op) in _TUPLE_LOCAL_OPS for op in ops)
        if (
            ops
            and type(ops[0]) is RegionSelect
            and len(ops[0].attrs) == 2
            and tuple_local
            and isinstance(window, PartitionRowsWindow)
            and type(window) is PartitionRowsWindow
            and window.rows == 1
            and streamer_t in (Istream, Rstream)
        ):
            region = ops[0]
            grid = plan.shared.grid_for(region.attrs, self.grid_cell)
            cells = grid.cells_for(region)
            if len(cells) <= self.max_region_cells:
                plan.region = region
                plan.rest_ops = ops[1:]
                plan.grid = grid
                plan.cells = cells
                plan.cell_set = set(cells)
                if streamer_t is Istream:
                    plan.kind = "region_istream"
                    plan.keyed = self._keyed_relation(plan)
                else:
                    plan.kind = "region_rstream"
                return
        if tuple_local and streamer_t is Istream and plan.shared.ordered:
            plan.kind = "linear_istream"
            plan.keyed = self._keyed_relation(plan)

    @staticmethod
    def _keyed_relation(plan: _Plan) -> KeyedRelation:
        """Derive a plan's keyed post-operator relation from its window —
        for a region plan through the grid, so that (re)deriving a thousand
        watchers reads each one's cells, not the whole window each time.
        (Tuple-local operators ignore the tick time.)"""
        shared = plan.shared
        if plan.grid is not None:
            # rows=1: the partition rank alone is the relation position.
            found = plan.grid.candidates(plan.region, plan.cells)
            positions = [(shared.group_of(t), -1) for t in found]
            tuples, positions = _delta_image(plan.rest_ops, 0.0, found, positions)
        else:
            placed = shared.placed_relation()
            tuples, positions = _delta_image(
                plan.ops, 0.0, [t for _, t in placed], [at for at, _ in placed]
            )
        return KeyedRelation(zip(positions, tuples))

    # Serving -------------------------------------------------------------
    def _flush_tick(self) -> None:
        if self._pending_time is None:
            return
        start = perf_counter()
        batch = self._pending
        time = self._pending_time
        self._pending = []
        self._pending_time = None
        self._ticks += 1
        for shared in self._windows.values():
            shared.begin_tick(time, batch)
        self._candidates_memo.clear()
        due = self._every_tick
        touched: Set[_Plan] = set()
        for shared in self._windows.values():
            for grid in shared.grids.values():
                for cell in grid.changed_cells:
                    touched.update(grid.watchers.get(cell, ()))
        if touched:
            due = sorted([*due, *touched], key=attrgetter("order"))
        # A watcher none of whose cells changed has nothing to emit.
        watchers = len(self._plans) - len(self._every_tick)
        self.emissions_suppressed += watchers - len(touched)
        for plan in due:
            name = plan.name
            out = self._serve(plan, time)
            if plan.query._downstream is not None:
                out = plan.query._downstream.push(time, out)
            self.outputs[name].extend(out)
            for callback in self._sinks[name]:
                for tup in out:
                    callback(tup)
        for shared in self._windows.values():
            shared.end_tick()
        self.serve_seconds += perf_counter() - start

    def _serve(self, plan: _Plan, time: float) -> List[StreamTuple]:
        kind = plan.kind
        if kind == "region_istream":
            return self._serve_region_istream(plan, time)
        if kind == "region_rstream":
            return self._serve_region_rstream(plan, time)
        if kind == "linear_istream":
            return self._serve_linear_istream(plan, time)
        return self._serve_general(plan, time)

    def _region_changed(self, plan: _Plan) -> bool:
        return not plan.cell_set.isdisjoint(plan.grid.changed_cells)

    def _region_memo_key(self, plan: _Plan) -> Tuple:
        return (plan.shared.key, plan.region.region_key())

    def _region_candidates(self, plan: _Plan) -> List[StreamTuple]:
        memo_key = self._region_memo_key(plan)
        found = self._candidates_memo.get(memo_key)
        if found is None:
            if memo_key not in self._candidates_memo:
                self.grid_lookups += 1
            found = plan.grid.candidates(plan.region, plan.cells)
            self._candidates_memo[memo_key] = found
        return found

    def _apply_rest_ops(self, plan: _Plan, time: float, rel: List[StreamTuple]) -> List[StreamTuple]:
        for op in plan.rest_ops:
            rel = op.process(time, rel)
        return rel

    def _istream_delta(self, plan: _Plan, time: float) -> List[StreamTuple]:
        """Serve an Istream plan from the shared window's change-list."""
        shared = plan.shared
        added, added_at = _delta_image(plan.ops, time, shared.added, shared.added_at)
        removed, removed_from = _delta_image(
            plan.ops, time, shared.removed, shared.removed_from
        )
        return plan.streamer.process_delta(
            time, plan.keyed, zip(added_at, added), zip(removed_from, removed)
        )

    def _serve_region_istream(self, plan: _Plan, time: float) -> List[StreamTuple]:
        if not self._region_changed(plan):
            self.emissions_suppressed += 1
            return []
        plan.subset_version += 1
        out = self._istream_delta(plan, time)
        if out:
            # Emitting used to take one grid lookup of the region per tick,
            # shared with every plan watching the same region; the counter
            # keeps that meaning.
            memo_key = self._region_memo_key(plan)
            if memo_key not in self._candidates_memo:
                self.grid_lookups += 1
                self._candidates_memo[memo_key] = None
        return out

    def _serve_region_rstream(self, plan: _Plan, time: float) -> List[StreamTuple]:
        if self._region_changed(plan):
            plan.subset_version += 1
        entry = self._postop_cache.get(plan.plan_key)
        if entry is not None and entry[0] == plan.subset_version:
            self.cache_hits += 1
            post = entry[1]
        else:
            self.cache_misses += 1
            post = self._apply_rest_ops(plan, time, self._region_candidates(plan))
            self._postop_cache[plan.plan_key] = (plan.subset_version, post)
        return [t.extended(time=time) for t in post]

    def _serve_linear_istream(self, plan: _Plan, time: float) -> List[StreamTuple]:
        shared = plan.shared
        if not shared.added and not shared.removed:
            self.emissions_suppressed += 1
            return []
        out = self._istream_delta(plan, time)
        if out:
            # Emitting used to look the post-operator relation up by plan
            # signature and window version: a miss for the first plan, a hit
            # for its duplicates.  The counters keep that meaning.
            if self._lookup_version.get(plan.plan_key) == shared.version:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
                self._lookup_version[plan.plan_key] = shared.version
        return out

    def _serve_general(self, plan: _Plan, time: float) -> List[StreamTuple]:
        shared = plan.shared
        unchanged = (
            plan.cacheable
            and shared.incremental
            and plan.last_version == shared.version
        )
        plan.last_version = shared.version
        streamer_t = type(plan.streamer)
        if unchanged and streamer_t in (Istream, Dstream):
            # Relation provably unchanged: I/Dstream emit nothing and their
            # previous-tick state is already equal to the current relation.
            self.emissions_suppressed += 1
            return []
        entry = self._postop_cache.get(plan.plan_key) if plan.cacheable else None
        if entry is not None and entry[0] == shared.version:
            self.cache_hits += 1
            post = entry[1]
        else:
            if plan.cacheable:
                self.cache_misses += 1
            post = shared.relation()
            for op in plan.ops:
                post = op.process(time, post)
            if plan.cacheable:
                self._postop_cache[plan.plan_key] = (shared.version, post)
        return plan.streamer.process(time, post)

    # Stats ---------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        cache_total = self.cache_hits + self.cache_misses
        return {
            "queries": len(self._queries),
            "ticks": self._ticks,
            "shared_windows": len(self._windows),
            "windows_deduped": self.windows_deduped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (self.cache_hits / cache_total) if cache_total else 0.0,
            "emissions_suppressed": self.emissions_suppressed,
            "grid_lookups": self.grid_lookups,
            "serve_seconds": self.serve_seconds,
            "serve_s_per_tick": (self.serve_seconds / self._ticks) if self._ticks else 0.0,
            "degraded_ticks": self.degraded_ticks,
        }

    # State capture -------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Shared windows in creation order, each with the plans it serves
        in registration order, as *runs*: consecutive plans whose state is
        equal share one record (of a thousand region watchers most are), so
        the tree grows with what plans hold, not with how many there are."""
        runs: Dict[int, List[dict]] = {id(s): [] for s in self._windows.values()}
        for name, plan in self._plans.items():
            downstream = plan.query._downstream
            try:
                record = {
                    "streamer": plan.streamer.snapshot_state(),
                    "downstream": (
                        downstream.snapshot_state() if downstream is not None else None
                    ),
                    "subset_version": plan.subset_version,
                    "last_version": plan.last_version,
                }
            except StateError as exc:
                raise StateError(f"query {name!r}: {exc}") from exc
            served = runs[id(plan.shared)]
            if served and served[-1]["state"] == record:
                served[-1]["queries"].append(name)
            else:
                served.append({"queries": [name], "state": record})
        return {
            "engine": "query-multiplexed",
            "ticks": self._ticks,
            "pending_time": self._pending_time,
            "pending": encode_tuples(self._pending),
            "windows": [
                {
                    "state": shared.window.snapshot_state(),
                    "version": shared.version,
                    "ticks": shared.ticks,
                    "plans": runs[id(shared)],
                }
                for shared in self._windows.values()
            ],
        }

    def restore_state(self, state: dict) -> None:
        expect_tags(state, engine="query-multiplexed")
        groups = [
            [name for run in record["plans"] for name in run["queries"]]
            for record in state["windows"]
        ]
        _check_same_queries([n for group in groups for n in group], self._plans)
        for record, group in zip(state["windows"], groups):
            shared = self._plans[group[0]].shared
            served = [n for n, plan in self._plans.items() if plan.shared is shared]
            if sorted(served) != sorted(group):
                raise StateError(
                    f"window group mismatch: snapshot {group}, engine {served}"
                )
            shared.window.restore_state(record["state"])
            shared.version = record["version"]
            shared.ticks = record["ticks"]
            shared.added = []
            shared.removed = []
            shared.invalidate_caches()
            for run in record["plans"]:
                saved = run["state"]
                for plan in map(self._plans.__getitem__, run["queries"]):
                    plan.streamer.restore_state(saved["streamer"])
                    downstream = plan.query._downstream
                    if (saved["downstream"] is None) != (downstream is None):
                        raise StateError(
                            f"query {plan.name!r} downstream differs from the snapshot"
                        )
                    if downstream is not None:
                        downstream.restore_state(saved["downstream"])
                    plan.subset_version = saved["subset_version"]
                    plan.last_version = saved["last_version"]
                    if plan.keyed is not None:
                        plan.keyed = self._keyed_relation(plan)
        self._postop_cache.clear()
        self._candidates_memo.clear()
        self._lookup_version.clear()
        self._ticks = state.get("ticks", 0)
        self._pending_time = state["pending_time"]
        self._pending = decode_tuples(state["pending"])


# ---------------------------------------------------------------------------
# Standing-query builders (CLI / bench / CI fan-out)
# ---------------------------------------------------------------------------


def standing_region_queries(
    n: int,
    bounds: Tuple[Tuple[float, float], Tuple[float, float]],
    name_prefix: str = "region",
) -> List[ContinuousQuery]:
    """Build ``n`` region-watch standing queries tiling ``bounds``.

    Each query is the location-update shape restricted to a region: newest
    row per tag, in-region filter, project id+position, Istream (emit only
    on change).  Deterministic: same n/bounds -> same queries.
    """
    if n < 1:
        raise QueryError(f"need at least one standing query, got {n}")
    (x0, y0), (x1, y1) = bounds
    if not (x1 > x0 and y1 > y0):
        raise QueryError(f"degenerate bounds {bounds!r}")
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))
    queries = []
    for i in range(n):
        r, c = divmod(i, cols)
        lo = (x0 + (x1 - x0) * c / cols, y0 + (y1 - y0) * r / rows)
        hi = (x0 + (x1 - x0) * (c + 1) / cols, y0 + (y1 - y0) * (r + 1) / rows)
        queries.append(
            ContinuousQuery(
                PartitionRowsWindow(("tag_id",), rows=1),
                [RegionSelect(lo, hi), Project("tag_id", "x", "y", "z")],
                Istream(),
                name=f"{name_prefix}_{i:04d}",
            )
        )
    return queries


def queries_from_spec(specs: Sequence[dict]) -> List[ContinuousQuery]:
    """Build standing queries from a JSON-friendly spec list.

    Supported kinds::

        {"kind": "region", "name": "dock", "lo": [0, 0], "hi": [10, 5]}
        {"kind": "location_updates", "name": "all_moves"}
    """
    from .queries import location_update_query

    queries: List[ContinuousQuery] = []
    for i, spec in enumerate(specs):
        kind = spec.get("kind")
        name = spec.get("name", f"q_{i:04d}")
        if kind == "region":
            queries.append(
                ContinuousQuery(
                    PartitionRowsWindow(("tag_id",), rows=1),
                    [
                        RegionSelect(spec["lo"], spec["hi"], tuple(spec.get("attrs", ("x", "y")))),
                        Project("tag_id", "x", "y", "z"),
                    ],
                    Istream(),
                    name=name,
                )
            )
        elif kind == "location_updates":
            query = location_update_query()
            query.name = name
            queries.append(query)
        else:
            raise QueryError(f"unknown standing-query kind {kind!r} in spec {i}")
    return queries
