"""The continuous-query executor.

A :class:`ContinuousQuery` is window -> relational operators -> stream
operator.  :class:`QueryEngine` drives one or more queries over a stream of
timestamped tuples, batching arrivals into ticks by timestamp (CQL's
logical-clock semantics: all tuples with equal timestamps are visible to the
same tick).

Queries compose: the fire-code example is a nested query, expressed here by
feeding one query's output stream into another query via ``then``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import QueryError, StateError
from .relops import RelOp
from .stream_ops import Rstream, StreamOp
from .tuples import StreamTuple, decode_tuples, encode_tuples, expect_tags
from .windows import Window


class ContinuousQuery:
    """One CQL-style query plan."""

    def __init__(
        self,
        window: Window,
        operators: Sequence[RelOp] = (),
        streamer: Optional[StreamOp] = None,
        name: str = "query",
    ):
        self.window = window
        self.operators = list(operators)
        self.streamer: StreamOp = streamer if streamer is not None else Rstream()
        self.name = name
        self._downstream: Optional["ContinuousQuery"] = None

    def then(self, downstream: "ContinuousQuery") -> "ContinuousQuery":
        """Pipe this query's output stream into another query (nesting).

        Returns ``self`` so pipelines read top-down.
        """
        if self._downstream is not None:
            raise QueryError(f"query {self.name!r} already has a downstream")
        self._downstream = downstream
        return self

    def push(self, time: float, batch: Sequence[StreamTuple]) -> List[StreamTuple]:
        """Feed one tick; returns the final output batch (after nesting)."""
        relation = self.window.push(time, batch)
        for op in self.operators:
            relation = op.process(time, relation)
        out = self.streamer.process(time, relation)
        if self._downstream is not None:
            return self._downstream.push(time, out)
        return out

    def snapshot_state(self) -> dict:
        """Capture window + streamer (and nested downstream) state.

        Relational operators are pure per-tick functions and carry no state.
        The returned tree is a plain state tree (see :mod:`.tuples`); a
        tuple value it cannot hold is a :class:`StateError` naming this
        query and the attribute.
        """
        try:
            return {
                "name": self.name,
                "window": self.window.snapshot_state(),
                "streamer": self.streamer.snapshot_state(),
                "downstream": (
                    self._downstream.snapshot_state()
                    if self._downstream is not None
                    else None
                ),
            }
        except StateError as exc:
            raise StateError(f"query {self.name!r}: {exc}") from exc

    def restore_state(self, state: dict) -> None:
        expect_tags(state, name=self.name)
        if (state.get("downstream") is None) != (self._downstream is None):
            raise StateError(
                f"query {self.name!r} downstream shape differs from the snapshot"
            )
        self.window.restore_state(state["window"])
        self.streamer.restore_state(state["streamer"])
        if self._downstream is not None:
            self._downstream.restore_state(state["downstream"])


class QueryEngine:
    """Runs queries over a tuple stream, grouping arrivals into ticks."""

    def __init__(self) -> None:
        self._queries: Dict[str, ContinuousQuery] = {}
        self._sinks: Dict[str, List[Callable[[StreamTuple], None]]] = {}
        self._pending: List[StreamTuple] = []
        self._pending_time: Optional[float] = None
        self._ticks = 0
        self.outputs: Dict[str, List[StreamTuple]] = {}

    def register(
        self,
        query: ContinuousQuery,
        callback: Optional[Callable[[StreamTuple], None]] = None,
    ) -> None:
        if query.name in self._queries:
            raise QueryError(f"duplicate query name {query.name!r}")
        self._queries[query.name] = query
        self.outputs[query.name] = []
        self._sinks[query.name] = [callback] if callback else []

    def add_sink(self, name: str, callback: Callable[[StreamTuple], None]) -> None:
        """Attach another per-output callback to an already-registered query.

        Lets late consumers (e.g. the runtime's bus bridge) tap into queries
        registered before they existed, without re-registering the plan.
        """
        if name not in self._queries:
            raise QueryError(
                f"unknown query {name!r}; registered: {sorted(self._queries)}"
            )
        self._sinks[name].append(callback)

    def push(self, tup: StreamTuple) -> None:
        """Feed one tuple; tuples must arrive in non-decreasing time order."""
        if self._pending_time is None:
            self._pending_time = tup.time
        if tup.time < self._pending_time:
            raise QueryError(
                f"tuple time went backwards: {tup.time} < {self._pending_time}"
            )
        if tup.time > self._pending_time:
            self._flush_tick()
            self._pending_time = tup.time
        self._pending.append(tup)

    def push_many(self, tuples: Iterable[StreamTuple]) -> None:
        for tup in tuples:
            self.push(tup)

    def advance_to(self, time: float) -> None:
        """Process an empty tick at ``time`` (windows slide, Dstreams fire)."""
        if self._pending_time is not None and time < self._pending_time:
            raise QueryError("cannot advance backwards")
        self._flush_tick()
        self._pending_time = time
        self._flush_tick()

    def finish(self) -> None:
        """Flush the final tick."""
        self._flush_tick()

    def _flush_tick(self) -> None:
        if self._pending_time is None:
            return
        batch = self._pending
        time = self._pending_time
        self._pending = []
        self._pending_time = None
        self._ticks += 1
        for name, query in self._queries.items():
            out = query.push(time, batch)
            self.outputs[name].extend(out)
            for callback in self._sinks[name]:
                for tup in out:
                    callback(tup)

    # State capture -------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {"queries": len(self._queries), "ticks": self._ticks}

    def snapshot_state(self) -> dict:
        """Capture every registered query's operator state plus the
        un-flushed pending tick (periodic checkpoints fire mid-accumulation).

        ``outputs`` is deliberately not captured: emissions already happened
        and were delivered; a restored engine starts with empty output logs
        and produces the exact same emissions from the restore point on.
        """
        return {
            "engine": "query",
            "ticks": self._ticks,
            "pending_time": self._pending_time,
            "pending": encode_tuples(self._pending),
            "queries": {
                name: q.snapshot_state() for name, q in self._queries.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        expect_tags(state, engine="query")
        saved = state["queries"]
        _check_same_queries(saved, self._queries)
        for name, query in self._queries.items():
            query.restore_state(saved[name])
        self._ticks = state.get("ticks", 0)
        self._pending_time = state["pending_time"]
        self._pending = decode_tuples(state["pending"])


def _check_same_queries(saved, registered) -> None:
    if set(saved) != set(registered):
        missing = sorted(set(saved) - set(registered))
        extra = sorted(set(registered) - set(saved))
        raise StateError(
            "registered queries differ from the snapshot "
            f"(missing: {missing}, unexpected: {extra}); register the "
            "same standing queries before restoring"
        )
