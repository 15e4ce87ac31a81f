"""Per-object state tables: the one shape all per-object durable state has.

A *table* is a dict of arrays.  ``ids`` (int64) names the objects it
describes, in an order that is load-bearing — the insertion order of the
dict the rows were captured from; every other entry is a column:

* a **row table** (belief metadata, visit bookkeeping) has one row per id;
* a **block table** (the arena's particle blocks) also has ``counts``:
  object ``ids[i]`` owns ``counts[i]`` consecutive rows of every column.

What the columns are is the business of whoever captures and restores the
table; only this module interprets ``ids`` and ``counts``.  Objects' beliefs
are independent given the reader, so a delta overlay and a re-shard both
move whole objects, and both are one :func:`select` over a stack of tables.
Tables come from files and workers, so every defect is a ``StateError``.

A delta capture of a table is one :func:`dirty_cut`: its full layout plus
the rows of the objects that changed since the previous capture.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, List, Sequence

import numpy as np

from ..errors import StateError

Table = Dict[str, np.ndarray]


def columns(table: Table) -> List[str]:
    """Column names, in the table's own order."""
    return [name for name in table if name not in ("ids", "counts")]


def _integers(values, what: str) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1 or array.dtype.kind not in "iu":
        raise StateError(f"{what} are not a flat integer array")
    return array.astype(np.int64)


def _layout(table: Table, what: str, unique: bool = False):
    """``(ids, counts or None)``, every column's length checked against them."""
    ids = _integers(table.get("ids"), f"{what} ids")
    if unique and np.unique(ids).size != ids.size:
        raise StateError(f"{what} names an object twice")
    counts, rows = None, ids.size
    if "counts" in table:
        counts = _integers(table["counts"], f"{what} counts")
        if counts.size != ids.size or (counts < 0).any():
            raise StateError(f"{what} counts are negative or do not match its ids")
        rows = int(counts.sum())
    for name in columns(table):
        if np.ndim(table[name]) == 0 or len(table[name]) != rows:
            raise StateError(f"{what} column {name!r} does not hold {rows} rows")
    return ids, counts


def dirty_cut(
    layout: Table, dirty: Container[int], rows: Callable[[List[int]], Table]
) -> Table:
    """The delta form of a table: its full ``layout`` (``ids`` — whose order
    is load-bearing and whose absences are the deletions — and, for a block
    table, every block's ``counts``), then ``dirty_ids`` (the ids of
    ``layout`` in ``dirty``, in layout order) and the columns of the table
    ``rows`` reports for exactly those ids."""
    table = rows([n for n in layout["ids"].tolist() if n in dirty])
    return {
        **layout,
        "dirty_ids": table["ids"],
        **{name: table[name] for name in columns(table)},
    }


def check(table: Table, what: str) -> None:
    """Refuse a table that names an object twice (a restore would silently
    keep one) or whose columns disagree with ``ids`` / ``counts``."""
    _layout(table, what, unique=True)


def select(tables: Sequence[Table], ids, what: str) -> Table:
    """The rows (blocks) of ``ids``, in that order, as a new table.

    ``tables`` (one schema) read as one stack; an id's first occurrence wins,
    so ``select([dirty, base], order)`` is an overlay and ``select(shards,
    ids)`` a gather.  One Python pass resolves ids; rows move with one fancy
    index a column, blocks with one copy straight out of their own source.
    """
    if any(set(table) != set(tables[0]) for table in tables):
        raise StateError(f"{what} tables disagree on their columns")
    layouts = [_layout(table, what) for table in tables]
    wanted = _integers(ids, f"{what} selection")
    have = np.concatenate([ids for ids, _ in layouts])
    row_of = dict(zip(have[::-1].tolist(), range(have.size - 1, -1, -1)))
    try:
        rows = np.array([row_of[n] for n in wanted.tolist()], dtype=np.int64)
    except KeyError as exc:
        raise StateError(f"{what} holds no object {exc.args[0]}") from None
    out = {"ids": wanted}
    stacks = {
        name: [np.asarray(table[name]) for table in tables]
        for name in columns(tables[0])
    }
    if layouts[0][1] is None:  # row tables are small: index the stacked column
        out.update((name, np.concatenate(col)[rows]) for name, col in stacks.items())
        return out
    sizes = np.concatenate([counts for _, counts in layouts])
    starts = np.concatenate([np.cumsum(counts) - counts for _, counts in layouts])
    source = np.repeat(np.arange(len(tables)), [ids.size for ids, _ in layouts])
    out["counts"] = sizes[rows]
    ends = starts[rows] + sizes[rows]
    blocks = list(zip(source[rows].tolist(), starts[rows].tolist(), ends.tolist()))
    for name, stack in stacks.items():
        out[name] = np.concatenate(
            [stack[0][:0], *(stack[k][start:end] for k, start, end in blocks)]
        )
    return out
