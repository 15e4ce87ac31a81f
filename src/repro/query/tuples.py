"""Stream tuples for the CQL-lite engine.

The paper's Section II-B motivates the cleaned event stream with two CQL
queries; this package implements enough of CQL's stream-relational model to
run them (and queries like them) over our location events:

* a **stream** is a sequence of timestamped tuples;
* a **window** turns a stream into a time-varying *relation* (a bag of tuples
  per tick);
* relational operators transform relations;
* ``Istream`` / ``Rstream`` / ``Dstream`` turn relations back into streams.

Tuples are immutable mappings plus a timestamp.  Equality/hashing is by value
(needed by Istream's relation differencing).

Operator state is checkpointed as a plain state tree (:mod:`repro.state
.snapshot`), so tuple values have a small tagged encoding here: ``None`` /
bool / int / str / finite float stand for themselves (numpy scalars for the
Python scalar they equal); ``["float", "nan"]``, ``["tuple", [...]]`` and
``["frozenset", [...]]`` (in a canonical order: the bytes must not depend on
``PYTHONHASHSEED``) cover the rest.  Anything else is a :class:`StateError`
when the state is captured.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from ..errors import QueryError, StateError
from ..streams.records import LocationEvent


class StreamTuple(Mapping[str, Any]):
    """An immutable, hashable, timestamped tuple of named values."""

    __slots__ = ("_time", "_values", "_key")

    def __init__(self, time: float, values: Mapping[str, Any]):
        self._time = float(time)
        self._values: Dict[str, Any] = dict(values)
        try:
            self._key = (self._time, frozenset(self._values.items()))
        except TypeError as exc:
            raise QueryError(
                f"tuple values must be hashable, got {self._values!r}"
            ) from exc

    # Mapping interface -------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise QueryError(
                f"no attribute {key!r}; tuple has {sorted(self._values)}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # Extras -------------------------------------------------------------
    @property
    def time(self) -> float:
        return self._time

    def extended(self, time: float = None, **extra: Any) -> "StreamTuple":
        """Copy with added/overridden attributes (and optionally new time)."""
        values = dict(self._values)
        values.update(extra)
        return StreamTuple(self._time if time is None else time, values)

    def project(self, *names: str) -> "StreamTuple":
        return StreamTuple(self._time, {n: self[n] for n in names})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamTuple):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"StreamTuple(t={self._time}, {inner})"


# ---------------------------------------------------------------------------
# State-tree encoding of tuples and the values they hold
# ---------------------------------------------------------------------------
_SELF_ENCODED = (type(None), bool, int, str)


def encode_value(value: Any) -> Any:
    """Plain-tree form of one tuple value (see the module docstring)."""
    if isinstance(value, np.generic):
        value = value.item()
    kind = type(value)
    if kind in _SELF_ENCODED:
        return value
    if kind is float:
        return value if math.isfinite(value) else ["float", repr(value)]
    if kind is tuple:
        return ["tuple", [encode_value(v) for v in value]]
    if kind is frozenset:
        return ["frozenset", sorted(map(encode_value, value), key=json.dumps)]
    raise StateError(f"a {kind.__name__}, which a checkpoint cannot encode")


def decode_value(node: Any) -> Any:
    """Inverse of :func:`encode_value`; anything else is a ``StateError``."""
    kind = type(node)
    if kind in _SELF_ENCODED or kind is float:
        return node
    if kind is list and len(node) == 2:
        tag, payload = node
        if tag == "float" and payload in ("nan", "inf", "-inf"):
            return float(payload)
        if tag in ("tuple", "frozenset") and type(payload) is list:
            members = map(decode_value, payload)
            return tuple(members) if tag == "tuple" else frozenset(members)
    raise StateError(f"not an encoded tuple value: {node!r:.80}")


def encode_attributes(items: Iterable[Tuple[str, Any]]) -> Dict[str, Any]:
    """``{attribute: encoded value}``, naming the attribute that cannot be."""
    encoded = dict(items)
    for name, value in encoded.items():
        kind = type(value)
        if kind not in _SELF_ENCODED and not (kind is float and math.isfinite(value)):
            try:
                encoded[name] = encode_value(value)
            except StateError as exc:
                raise StateError(f"attribute {name!r} holds {exc}") from None
    if not all(type(name) is str for name in encoded):
        raise StateError(f"attribute names {list(encoded)} are not all strings")
    return encoded


def encode_tuples(tuples: Iterable[StreamTuple]) -> List[list]:
    return [[encode_value(t._time), encode_attributes(t._values)] for t in tuples]


def decode_tuples(nodes: Any) -> List[StreamTuple]:
    return [
        StreamTuple(decode_value(t), {k: decode_value(v) for k, v in attrs.items()})
        for t, attrs in nodes
    ]


def expect_tags(state: Any, **tags: Any) -> None:
    """Refuse a state tree captured from a differently-shaped operator."""
    found = {key: state.get(key) for key in tags}
    if found != tags:
        raise StateError(f"state mismatch: expected {tags}, got {found}")


def tuple_from_event(event: LocationEvent) -> StreamTuple:
    """Adapt a cleaned location event into the query engine's tuple form."""
    x, y, z = event.position
    return StreamTuple(
        event.time,
        {
            "tag_id": str(event.tag),
            "x": x,
            "y": y,
            "z": z,
        },
    )
