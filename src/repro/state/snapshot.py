"""State-tree serialization primitives for the durable-state subsystem.

A *state tree* is what the snapshot hooks on the live objects return
(:meth:`FactoredParticleFilter.snapshot_state`,
:meth:`CleaningPipeline.snapshot_state`, …): a nested structure of dicts and
lists whose leaves are numpy arrays, numbers, strings, booleans, or ``None``.
This module splits such a tree into

* a JSON-able skeleton in which every array leaf is replaced by an
  ``{"__array__": <key>}`` placeholder, and
* a flat ``{key: ndarray}`` mapping, which :func:`index_arrays` lays out as
  raw bytes behind a ``{key: [dtype, shape, offset, nbytes]}`` index and
  :func:`read_indexed_arrays` reads back, trusting nothing in that index,

and joins them back on load.  Keeping the split generic means the engines
describe *what* their state is while this layer owns *how* it is persisted —
new engine fields serialize without touching the format code.

A :class:`numpy.random.Generator` bit-generator state is such a tree as it
stands, for every bit-generator family: Python ints of any size (PCG64
carries 128-bit words) are JSON numbers, numpy integers become ints, and
word pools (MT19937's key, Philox's counter) are ordinary array leaves.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..errors import StateError

#: Placeholder key marking an extracted array leaf in the JSON skeleton.
ARRAY_MARKER = "__array__"


# ---------------------------------------------------------------------------
# RNG bit-generator state
# ---------------------------------------------------------------------------
def generator_from_state(state: dict) -> np.random.Generator:
    """Rebuild a :class:`numpy.random.Generator` from a captured state dict.

    The bit-generator class is looked up by the name recorded in the state
    itself, so PCG64 checkpoints restore as PCG64 even if numpy's default
    changes between versions.
    """
    name = state.get("bit_generator")
    try:
        cls = getattr(np.random, str(name))
    except AttributeError:
        raise StateError(f"unknown bit generator {name!r} in RNG state") from None
    bit_generator = cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


# ---------------------------------------------------------------------------
# State-tree split / join
# ---------------------------------------------------------------------------
def split_state_tree(tree: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Extract every ndarray leaf out of a state tree.

    Returns the JSON-able skeleton plus a flat ``{path_key: array}`` dict;
    path keys join the tree path with ``/`` (``"engine/arena/positions"``).
    """
    arrays: Dict[str, np.ndarray] = {}
    # Plain scalars are most of a skeleton (region object lists, counters):
    # containers pass them through without a call or a path string each,
    # and are themselves — most of what is left — told first.
    plain = (int, float, str, bool, type(None))

    def walk(node: Any, path: str) -> Any:
        if isinstance(node, dict):
            if ARRAY_MARKER in node:
                raise StateError(f"state tree at {path!r} uses the reserved key")
            return {
                str(k): v
                if type(v) in plain
                else walk(v, f"{path}/{k}" if path else str(k))
                for k, v in node.items()
            }
        if isinstance(node, (list, tuple)):
            return [
                v if type(v) in plain else walk(v, f"{path}/{i}")
                for i, v in enumerate(node)
            ]
        if isinstance(node, np.ndarray):
            arrays[path] = node
            return {ARRAY_MARKER: path}
        if isinstance(node, np.generic):
            node = node.item()
        if isinstance(node, plain):
            return node
        raise StateError(
            f"cannot serialize state leaf of type {type(node)!r} at {path!r}"
        )

    return walk(tree, ""), arrays


def join_state_tree(skeleton: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`split_state_tree`: re-inject arrays by path key."""

    def walk(node: Any) -> Any:
        if isinstance(node, dict):
            if set(node) == {ARRAY_MARKER}:
                key = node[ARRAY_MARKER]
                try:
                    return arrays[key]
                except KeyError:
                    raise StateError(
                        f"checkpoint is missing array {key!r}"
                    ) from None
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return walk(skeleton)


# ---------------------------------------------------------------------------
# Raw array layout: {key: ndarray} <-> index + contiguous bytes
# ---------------------------------------------------------------------------
def index_arrays(
    arrays: Dict[str, np.ndarray], cursor: int, buffers: List[np.ndarray]
) -> Tuple[Dict[str, list], int]:
    """Lay ``arrays`` out back to back from byte offset ``cursor``.

    Appends each non-empty array to ``buffers`` as a flat byte *view* (no
    copy unless it was not contiguous) and returns ``({key: [dtype, shape,
    offset, nbytes]}, cursor after the last array)``.
    """
    index: Dict[str, list] = {}
    for key, array in arrays.items():
        if array.dtype.hasobject or array.dtype.names:
            raise StateError(f"cannot persist array {key!r} of dtype {array.dtype}")
        index[key] = [array.dtype.str, list(array.shape), cursor, array.nbytes]
        if array.nbytes:
            buffers.append(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
            cursor += array.nbytes
    return index, cursor


def read_indexed_arrays(
    fp, index: Dict[str, list], cursor: int, limit: int, update: Callable
) -> Tuple[Dict[str, np.ndarray], int]:
    """Inverse of :func:`index_arrays`, reading from ``fp``'s position.

    The index comes from outside the program: entries must tile the body in
    order from ``cursor`` and end within ``limit``, and each is checked
    *before* its array is allocated; arrays are then read straight into
    their final buffers, each handed to ``update`` (the running digest).
    Raises ``TypeError``/``ValueError``/``OverflowError`` on a bad entry.
    """
    arrays: Dict[str, np.ndarray] = {}
    for key, entry in index.items():
        dtype_str, shape, offset, nbytes = entry
        if not isinstance(dtype_str, str) or type(nbytes) is not int:
            raise TypeError(f"array {key!r}: expected [str, list, int, int]")
        dtype = np.dtype(dtype_str)
        shape = tuple(int(n) for n in shape)
        if (
            dtype.names is not None
            or dtype.hasobject
            or any(n < 0 for n in shape)
            or math.prod(shape) * dtype.itemsize != nbytes
            or offset != cursor
            or cursor + nbytes > limit
        ):
            raise ValueError(
                f"array {key!r} entry {entry!r} does not fit the "
                f"{limit}-byte body at offset {cursor}"
            )
        arrays[key] = array = np.empty(shape, dtype)
        if nbytes:
            buffer = array.reshape(-1).view(np.uint8)
            if fp.readinto(buffer) != nbytes:
                raise ValueError(f"file ends inside array {key!r}")
            update(buffer)
            cursor += nbytes
    return arrays, cursor
