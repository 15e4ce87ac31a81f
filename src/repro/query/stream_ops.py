"""Relation-to-stream operators: Istream, Rstream, Dstream (CQL).

* ``Istream`` emits tuples that *entered* the relation since the previous
  tick — this is what makes the location-update query report only changes;
* ``Rstream`` emits the whole relation every tick;
* ``Dstream`` emits tuples that *left* the relation.

Differencing is by tuple value with multiplicity (a bag difference), ignoring
timestamps: the location-update query must treat "same tag, same location,
newer timestamp" as unchanged.

``Istream`` has two evaluation methods with identical output.
:meth:`Istream.process` takes the whole relation each tick (the stock
engine's method, and the oracle the parity tests compare against).
:meth:`Istream.process_delta` takes only the tick's change-list plus a
:class:`KeyedRelation` — the relation indexed by value, each value's
occurrences kept in relation order — and costs O(change-list), however
large the relation: the multiplexer's location-update path.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import StateError
from .tuples import (
    StreamTuple,
    decode_tuples,
    decode_value,
    encode_attributes,
    encode_tuples,
    expect_tags,
)


def _value_key(t: StreamTuple) -> Tuple:
    """Timestamp-free value identity used for relation differencing."""
    return tuple(sorted(t.items()))


#: Where a tuple sits in its relation's scan order: ``(group, arrival)``,
#: compared lexicographically.  ``group`` is the partition's first-seen rank
#: for a ``[Partition By]`` window and 0 for the arrival-ordered windows;
#: within a group the oldest tuple is always the first to leave.
Position = Tuple[int, int]


class KeyedRelation:
    """A relation indexed by tuple value, for :meth:`Istream.process_delta`.

    Maps each value key to its occurrences ``(position, tuple)`` sorted by
    relation position (positions are unique, so tuples are never compared),
    so "the first *g* tuples with this value in a scan of the relation" —
    what :meth:`Istream.process` emits — is a slice.
    """

    __slots__ = ("_occurrences",)

    def __init__(self, relation: Iterable[Tuple[Position, StreamTuple]] = ()):
        self._occurrences: Dict[Tuple, List[Tuple[Position, StreamTuple]]] = {}
        for position, tup in relation:
            self.add(position, tup)

    def add(self, position: Position, tup: StreamTuple) -> Tuple:
        """Insert ``tup`` at ``position``; returns its value key."""
        key = _value_key(tup)
        insort(self._occurrences.setdefault(key, []), (position, tup))
        return key

    def remove(self, group: int, tup: StreamTuple) -> Tuple:
        """Drop the oldest occurrence of ``tup``'s value in ``group`` (the
        one a window evicts); returns the value key."""
        key = _value_key(tup)
        rows = self._occurrences[key]
        del rows[bisect_left(rows, ((group,),))]
        if not rows:
            del self._occurrences[key]
        return key

    def first(self, key: Tuple, count: int) -> List[Tuple[Position, StreamTuple]]:
        """The ``count`` earliest occurrences of ``key`` in relation order."""
        return self._occurrences[key][:count]


class StreamOp:
    """Interface: turn the tick's relation into an output batch."""

    def process(self, time: float, relation: Sequence[StreamTuple]) -> List[StreamTuple]:
        raise NotImplementedError

    def snapshot_state(self) -> dict:
        raise StateError(
            f"stream operator {type(self).__name__} does not support state capture"
        )


class Rstream(StreamOp):
    """Emit the full relation at every tick."""

    def process(self, time: float, relation: Sequence[StreamTuple]) -> List[StreamTuple]:
        return [t.extended(time=time) for t in relation]

    def snapshot_state(self) -> dict:
        return {"streamer": "rstream"}

    def restore_state(self, state: dict) -> None:
        expect_tags(state, streamer="rstream")


class Istream(StreamOp):
    """Emit tuples added to the relation since the previous tick."""

    def __init__(self) -> None:
        self._previous: Counter = Counter()

    def process(self, time: float, relation: Sequence[StreamTuple]) -> List[StreamTuple]:
        current = Counter(_value_key(t) for t in relation)
        added = current - self._previous
        self._previous = current
        out: List[StreamTuple] = []
        remaining = dict(added)
        for t in relation:
            key = _value_key(t)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                out.append(t.extended(time=time))
        return out

    def process_delta(
        self,
        time: float,
        relation: KeyedRelation,
        added: Iterable[Tuple[Position, StreamTuple]],
        removed: Iterable[Tuple[int, StreamTuple]],
    ) -> List[StreamTuple]:
        """Incremental equivalent of :meth:`process`.

        ``added`` (with relation positions) and ``removed`` (with position
        groups) are the relation's change-list for this tick, post any
        per-tuple operators; ``relation`` is the keyed relation as of the
        previous tick and is brought up to date here.  A value whose count
        rose by *g* emits its first *g* occurrences — which may be older
        tuples sitting earlier in the relation than the ones just admitted —
        and the emitted positions are sorted to reproduce the relation-scan
        emission order of :meth:`process`.
        """
        added_keys = Counter(relation.add(at, t) for at, t in added)
        removed_keys = Counter(relation.remove(group, t) for group, t in removed)
        previous = self._previous
        for key, count in added_keys.items():
            previous[key] += count
        for key, count in removed_keys.items():
            left = previous[key] - count
            if left > 0:
                previous[key] = left
            else:
                del previous[key]
        emitted: List[Tuple[Position, StreamTuple]] = []
        for key, count in added_keys.items():
            gain = count - removed_keys.get(key, 0)
            if gain > 0:
                emitted.extend(relation.first(key, gain))
        emitted.sort(key=itemgetter(0))
        return [t.extended(time=time) for _, t in emitted]

    def snapshot_state(self) -> dict:
        # The value-key Counter as an ordered [attributes, count] list.
        previous = [[encode_attributes(key), n] for key, n in self._previous.items()]
        return {"streamer": "istream", "previous": previous}

    def restore_state(self, state: dict) -> None:
        expect_tags(state, streamer="istream")
        self._previous = Counter()
        for key, count in state["previous"]:
            key = tuple(sorted((k, decode_value(v)) for k, v in key.items()))
            self._previous[key] = int(count)


class Dstream(StreamOp):
    """Emit tuples removed from the relation since the previous tick."""

    def __init__(self) -> None:
        self._previous: Counter = Counter()
        self._previous_tuples: List[StreamTuple] = []

    def process(self, time: float, relation: Sequence[StreamTuple]) -> List[StreamTuple]:
        current = Counter(_value_key(t) for t in relation)
        removed = self._previous - current
        out: List[StreamTuple] = []
        remaining = dict(removed)
        for t in self._previous_tuples:
            key = _value_key(t)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                out.append(t.extended(time=time))
        self._previous = current
        self._previous_tuples = list(relation)
        return out

    def snapshot_state(self) -> dict:
        tuples = encode_tuples(self._previous_tuples)  # ``_previous`` counts them
        return {"streamer": "dstream", "previous_tuples": tuples}

    def restore_state(self, state: dict) -> None:
        expect_tags(state, streamer="dstream")
        self._previous_tuples = decode_tuples(state["previous_tuples"])
        self._previous = Counter(_value_key(t) for t in self._previous_tuples)
