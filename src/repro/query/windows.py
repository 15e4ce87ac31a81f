"""Window operators: stream -> time-varying relation.

CQL's bracketed window specifications, as used by the paper's queries:

* ``[Now]`` — the tuples arriving at the current tick only;
* ``[Range N seconds]`` — tuples with timestamp in ``(t - N, t]``;
* ``[Partition By k1,k2 Rows N]`` — per partition, the most recent N rows;
  the location-update query uses ``[Partition By tag_id Row 1]``.

A window is a stateful object: ``push(time, batch)`` ingests the tick's new
tuples and returns the relation contents at that tick (a list of tuples).

Windows also expose an incremental surface used by the multiplexer
(:mod:`repro.query.multiplexer`):

* ``ingest(time, batch) -> (added, removed)`` applies the tick and returns
  the change-list instead of the full relation;
* ``relation()`` materializes the current relation (same content and order
  ``push`` would have returned);
* ``signature()`` is a structural identity (type + parameters) for window
  dedup — ``None`` means "not shareable" (custom subclasses);
* ``snapshot_state()`` / ``restore_state(state)`` capture the window for
  checkpointing as a plain state tree (tuples through
  :func:`~repro.query.tuples.encode_tuples`).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError, StateError
from .tuples import (
    StreamTuple,
    decode_tuples,
    decode_value,
    encode_tuples,
    encode_value,
    expect_tags,
)

ChangeList = Tuple[List[StreamTuple], List[StreamTuple]]


class Window:
    """Interface: push a tick's batch, get the current relation.  The stock
    windows implement ``ingest`` + ``relation``; a custom one may override
    ``push`` alone (it is then served through full pushes)."""

    def push(self, time: float, batch: Sequence[StreamTuple]) -> List[StreamTuple]:
        self.ingest(time, batch)
        return self.relation()

    def signature(self) -> Optional[Tuple]:
        """Structural identity for dedup; ``None`` = never share."""
        return None

    def snapshot_state(self) -> dict:
        raise StateError(
            f"window {type(self).__name__} does not support state capture"
        )


class NowWindow(Window):
    """``[Now]``: the relation is exactly this tick's arrivals."""

    def __init__(self) -> None:
        self._current: List[StreamTuple] = []

    def ingest(self, time: float, batch: Sequence[StreamTuple]) -> ChangeList:
        removed = self._current
        self._current = list(batch)
        return list(self._current), removed

    def relation(self) -> List[StreamTuple]:
        return list(self._current)

    def signature(self) -> Optional[Tuple]:
        if type(self) is not NowWindow:
            return None
        return ("now",)

    def snapshot_state(self) -> dict:
        return {"window": "now", "current": encode_tuples(self._current)}

    def restore_state(self, state: dict) -> None:
        expect_tags(state, window="now")
        self._current = decode_tuples(state["current"])


class RangeWindow(Window):
    """``[Range N seconds]``: sliding time window.

    Ticks must be pushed in non-decreasing time order.
    """

    def __init__(self, range_s: float):
        if range_s <= 0:
            raise QueryError(f"window range must be positive, got {range_s}")
        self.range_s = float(range_s)
        self._buffer: Deque[StreamTuple] = deque()
        self._last_time = -float("inf")

    def ingest(self, time: float, batch: Sequence[StreamTuple]) -> ChangeList:
        if time < self._last_time:
            raise QueryError(
                f"ticks must be time-ordered: {time} < {self._last_time}"
            )
        self._last_time = time
        self._buffer.extend(batch)
        cutoff = time - self.range_s
        removed: List[StreamTuple] = []
        while self._buffer and self._buffer[0].time <= cutoff:
            removed.append(self._buffer.popleft())
        return list(batch), removed

    def relation(self) -> List[StreamTuple]:
        return list(self._buffer)

    def signature(self) -> Optional[Tuple]:
        if type(self) is not RangeWindow:
            return None
        return ("range", self.range_s)

    def snapshot_state(self) -> dict:
        return {
            "window": "range",
            "range_s": self.range_s,
            "buffer": encode_tuples(self._buffer),
            "last_time": encode_value(self._last_time),
        }

    def restore_state(self, state: dict) -> None:
        expect_tags(state, window="range", range_s=self.range_s)
        self._buffer = deque(decode_tuples(state["buffer"]))
        self._last_time = float(decode_value(state["last_time"]))


class UnboundedWindow(Window):
    """``[Unbounded]``: everything seen so far (used by tests/examples)."""

    def __init__(self) -> None:
        self._buffer: List[StreamTuple] = []

    def ingest(self, time: float, batch: Sequence[StreamTuple]) -> ChangeList:
        self._buffer.extend(batch)
        return list(batch), []

    def relation(self) -> List[StreamTuple]:
        return list(self._buffer)

    def signature(self) -> Optional[Tuple]:
        if type(self) is not UnboundedWindow:
            return None
        return ("unbounded",)

    def snapshot_state(self) -> dict:
        return {"window": "unbounded", "buffer": encode_tuples(self._buffer)}

    def restore_state(self, state: dict) -> None:
        expect_tags(state, window="unbounded")
        self._buffer = decode_tuples(state["buffer"])


class PartitionRowsWindow(Window):
    """``[Partition By keys Rows N]``: most recent N rows per partition.

    Relation order is deterministic: partitions in first-seen order, rows
    oldest-to-newest within a partition.  ``partition_seq`` exposes the
    first-seen rank of a partition key (stable: partitions never vanish),
    which the multiplexer's spatial index uses to reproduce relation order
    from an index lookup.
    """

    def __init__(self, keys: Sequence[str], rows: int = 1):
        if not keys:
            raise QueryError("partition window needs at least one key")
        if rows < 1:
            raise QueryError(f"rows must be >= 1, got {rows}")
        self.keys = tuple(keys)
        self.rows = int(rows)
        self._partitions: "OrderedDict[Tuple, Deque[StreamTuple]]" = OrderedDict()
        self._seq: Dict[Tuple, int] = {}

    def partition_key(self, tup: StreamTuple) -> Tuple:
        return tuple(tup[k] for k in self.keys)

    def partition_seq(self, key: Tuple) -> int:
        return self._seq[key]

    def ingest(self, time: float, batch: Sequence[StreamTuple]) -> ChangeList:
        removed: List[StreamTuple] = []
        for tup in batch:
            key = self.partition_key(tup)
            rows = self._partitions.get(key)
            if rows is None:
                self._seq[key] = len(self._seq)
                rows = deque(maxlen=self.rows)
                self._partitions[key] = rows
            elif len(rows) == self.rows:
                removed.append(rows[0])
            rows.append(tup)
        return list(batch), removed

    def relation(self) -> List[StreamTuple]:
        out: List[StreamTuple] = []
        for rows in self._partitions.values():
            out.extend(rows)
        return out

    def signature(self) -> Optional[Tuple]:
        if type(self) is not PartitionRowsWindow:
            return None
        return ("partition", self.keys, self.rows)

    def snapshot_state(self) -> dict:
        return {
            "window": "partition",
            "keys": list(self.keys),
            "rows": self.rows,
            # First-seen order; a partition's key is read off its rows.
            "partitions": [encode_tuples(dq) for dq in self._partitions.values()],
        }

    def restore_state(self, state: dict) -> None:
        expect_tags(state, window="partition", keys=list(self.keys), rows=self.rows)
        partitions = map(decode_tuples, state["partitions"])
        self._partitions = OrderedDict(
            (self.partition_key(rows[0]), deque(rows, maxlen=self.rows))
            for rows in partitions
        )
        self._seq = {key: i for i, key in enumerate(self._partitions)}
