"""Contiguous belief arena: one structure-of-arrays slab for all particles.

The seed implementation stored each object's particles in its own trio of
small numpy arrays, so the filter's hot loop ran one Python iteration (and a
dozen tiny numpy kernels) per active object per epoch.  At thousands of tags
the cost is dominated by interpreter and dispatch overhead, not math.

:class:`BeliefArena` replaces the per-object arrays with one contiguous
structure-of-arrays —

* ``positions``   — ``(capacity, 3)`` float location hypotheses,
* ``parents``     — ``(capacity,)``  int32 pointers into reader particles,
* ``log_weights`` — ``(capacity,)``  float per-particle log factors,

The float columns are stored at ``ArenaConfig.dtype`` — float64 by default,
or float32 to halve the slab's footprint and memory bandwidth (arithmetic
downstream still runs in float64; only the stored representation rounds).

— plus a slot table mapping each object id to a contiguous ``[start, start +
count)`` block.  Per-object access stays zero-copy (numpy views into the
slab), while cross-object kernels (propagation, likelihood scoring,
per-segment normalization / ESS via ``np.add.reduceat``) run once over the
whole active set.  Estimates (:mod:`.estimates`) and compression
(:mod:`.compression`) consume the same views, so nothing downstream copies.

Allocation is a bump allocator over the slab with deferred reclamation:
freeing a slot (belief compressed, or re-allocated at a different size)
leaves a hole that is squeezed out by :meth:`compact` once holes exceed
``ArenaConfig.compaction_threshold`` of the occupied prefix, or earlier if an
allocation would otherwise force a grow.  Growing multiplies capacity by
``ArenaConfig.growth_factor``.

**View lifetime**: views returned by :meth:`positions` / :meth:`parents` /
:meth:`log_weights` are invalidated by any call that can move memory
(:meth:`allocate`, :meth:`set_object`, :meth:`free`, :meth:`compact`) —
re-fetch them afterwards.  The filter's epoch loop therefore does all
allocation up front, then runs its batched kernels on gathered copies and
scatters the results back.

**Dirty tracking**: the arena records which object blocks were mutated
since the last :meth:`clear_dirty` (``set_object`` and the batched
gather/scatter kernels mark; ``remap_parents`` raises a parents-wide flag
instead, since a reader resample rewrites every live row's pointer).  The
durable-state subsystem's *differential checkpoints* read this via
:meth:`delta_snapshot` to ship changed blocks only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ArenaConfig
from ..errors import InferenceError

#: Accounting bytes per occupied row at the default float64 storage dtype:
#: 3 float64 coordinates, one int32 parent pointer, one float64 log weight
#: (the Section V-D memory metric).  Dtype-aware accounting uses
#: :func:`row_bytes`.
ROW_BYTES = 3 * 8 + 4 + 8


def row_bytes(itemsize: int = 8) -> int:
    """Accounting bytes per occupied row: 3 floats + 1 int32 + 1 float."""
    return 3 * itemsize + 4 + itemsize


def segment_gather_indices(
    starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices that gather segments ``[starts_i, starts_i + lengths_i)``
    into one contiguous batch, plus each segment's offset within the batch.

    The returned ``batch_starts`` is exactly the ``indices`` argument that
    ``np.add.reduceat`` / ``np.maximum.reduceat`` need to reduce the gathered
    batch per segment.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    batch_starts = np.add.accumulate(lengths) - lengths
    idx = (starts - batch_starts).repeat(lengths)
    idx += np.arange(idx.size, dtype=np.int64)
    return idx, batch_starts


class BeliefArena:
    """Slot-allocated SoA storage for every uncompressed object belief."""

    def __init__(self, config: ArenaConfig = ArenaConfig()):
        self._config = config
        self._dtype = np.dtype(config.dtype)
        capacity = int(config.initial_capacity)
        self._positions, self._parents, self._log_weights = self._alloc(capacity)
        #: object id -> (start, count); blocks never overlap.
        self._slots: Dict[int, Tuple[int, int]] = {}
        self._end = 0  # bump pointer: rows at >= _end are virgin
        self._free_rows = 0  # rows in holes below _end
        self.stats: Dict[str, int] = {"grows": 0, "compactions": 0}
        #: Differential-checkpoint bookkeeping (``repro.state``): objects
        #: whose block *content* changed since the last :meth:`clear_dirty`,
        #: plus a flag raised by :meth:`remap_parents` meaning every live
        #: block's parent column changed (a reader resample touches all
        #: rows, not just the active set's).
        self._dirty: set = set()
        self._parents_dirty = False
        #: Layout serial: bumped whenever the slot table or row addressing
        #: changes, so cached gather plans know when they went stale.
        self._layout_serial = 0
        self._plan_cache: Optional[Tuple[int, tuple, tuple]] = None

    def _alloc(self, capacity: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Allocate zeroed ``(positions, parents, log_weights)`` columns."""
        return (
            np.zeros((capacity, 3), dtype=self._dtype),
            np.zeros(capacity, dtype=np.int32),
            np.zeros(capacity, dtype=self._dtype),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._positions.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the float columns (positions, log_weights)."""
        return self._dtype

    @property
    def used_rows(self) -> int:
        """Rows currently owned by live slots (excludes holes)."""
        return self._end - self._free_rows

    @property
    def free_rows(self) -> int:
        """Reclaimable rows sitting in holes below the bump pointer."""
        return self._free_rows

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def count(self, object_id: int) -> int:
        return self._slots[object_id][1]

    def memory_bytes(self) -> int:
        """Bytes attributable to live particle rows (itemsize per float, 4
        per parent pointer) — holes and slack capacity are not charged,
        matching the seed's per-belief accounting."""
        return self.used_rows * row_bytes(self._dtype.itemsize)

    # ------------------------------------------------------------------
    # Per-object views (zero-copy; invalidated by allocate/free/compact)
    # ------------------------------------------------------------------
    def _slice(self, object_id: int) -> slice:
        try:
            start, count = self._slots[object_id]
        except KeyError:
            raise InferenceError(f"no arena slot for object {object_id}") from None
        return slice(start, start + count)

    def positions(self, object_id: int) -> np.ndarray:
        return self._positions[self._slice(object_id)]

    def parents(self, object_id: int) -> np.ndarray:
        return self._parents[self._slice(object_id)]

    def log_weights(self, object_id: int) -> np.ndarray:
        return self._log_weights[self._slice(object_id)]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, object_id: int, count: int) -> None:
        """Claim a ``count``-row block for ``object_id`` (contents undefined).

        An existing same-size slot is reused in place; a different-size slot
        is freed and re-claimed at the bump pointer.
        """
        if count < 1:
            raise InferenceError("cannot allocate an empty belief block")
        existing = self._slots.get(object_id)
        if existing is not None:
            if existing[1] == count:
                return
            self.free(object_id, compact_ok=False)
        if self._end + count > self.capacity:
            self._make_room(count)
        self._slots[object_id] = (self._end, count)
        self._end += count
        self._layout_serial += 1

    def set_object(
        self,
        object_id: int,
        positions: np.ndarray,
        parents: np.ndarray,
        log_weights: np.ndarray,
    ) -> None:
        """Allocate (or reuse) a slot and write a full particle block."""
        k = positions.shape[0]
        if parents.shape[0] != k or log_weights.shape[0] != k:
            raise InferenceError(
                f"inconsistent block sizes {positions.shape[0]}/"
                f"{parents.shape[0]}/{log_weights.shape[0]}"
            )
        self.allocate(object_id, k)
        block = self._slice(object_id)
        self._positions[block] = positions
        self._parents[block] = parents
        self._log_weights[block] = log_weights
        self._dirty.add(object_id)

    def free(self, object_id: int, compact_ok: bool = True) -> None:
        """Release an object's block, leaving a hole for later compaction."""
        self._dirty.discard(object_id)
        start, count = self._slots.pop(object_id)
        self._layout_serial += 1
        if start + count == self._end:
            self._end -= count  # tail block: reclaim instantly
        else:
            self._free_rows += count
        if (
            compact_ok
            and self._free_rows
            and self._free_rows >= self._config.compaction_threshold * self._end
        ):
            self.compact()

    def _make_room(self, count: int) -> None:
        """Ensure ``count`` rows fit at the bump pointer: compact if that is
        enough, otherwise grow the slab."""
        if self.used_rows + count <= self.capacity and self._free_rows:
            self.compact()
        while self._end + count > self.capacity:
            self._grow(self.used_rows + count)

    def _grow(self, minimum_rows: int) -> None:
        new_capacity = max(
            int(np.ceil(self.capacity * self._config.growth_factor)),
            minimum_rows,
            1,
        )
        positions, parents, log_weights = self._alloc(new_capacity)
        positions[: self._end] = self._positions[: self._end]
        parents[: self._end] = self._parents[: self._end]
        log_weights[: self._end] = self._log_weights[: self._end]
        self._positions, self._parents, self._log_weights = (
            positions,
            parents,
            log_weights,
        )
        self.stats["grows"] += 1

    def compact(self) -> None:
        """Squeeze holes out of the occupied prefix, preserving block order.

        Blocks only ever move toward lower addresses, so the in-place copies
        below never overwrite a block that has not been moved yet.
        """
        write = 0
        for object_id, (start, count) in sorted(
            self._slots.items(), key=lambda item: item[1][0]
        ):
            if start != write:
                self._positions[write : write + count] = self._positions[
                    start : start + count
                ]
                self._parents[write : write + count] = self._parents[
                    start : start + count
                ]
                self._log_weights[write : write + count] = self._log_weights[
                    start : start + count
                ]
                self._slots[object_id] = (write, count)
            write += count
        self._end = write
        self._free_rows = 0
        self._layout_serial += 1
        self.stats["compactions"] += 1

    # ------------------------------------------------------------------
    # Cross-object batching
    # ------------------------------------------------------------------
    def segments(self, object_ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Arena ``(starts, lengths)`` for an ordered list of objects."""
        slots = self._slots
        table = np.array([slots[oid] for oid in object_ids], dtype=np.int64)
        return tuple(table.reshape(-1, 2).T.copy())

    def plan(
        self, object_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Active-rows index: ``(row_indices, batch_starts, lengths)`` for an
        ordered object list, cached across epochs.

        Building a gather plan walks the slot table once per object in
        Python; with skip-propagation the active set is stable for long
        stretches, so the plan is memoized and reused until either the
        requested id list or the arena layout (any allocate / free / compact
        / snapshot load) changes.  Callers must treat the returned arrays as
        read-only.
        """
        key = tuple(object_ids)
        cached = self._plan_cache
        if cached is not None and cached[0] == self._layout_serial and cached[1] == key:
            return cached[2]
        starts, lengths = self.segments(key)
        idx, batch_starts = segment_gather_indices(starts, lengths)
        plan = (idx, batch_starts, lengths)
        self._plan_cache = (self._layout_serial, key, plan)
        return plan

    def gather(
        self, object_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copy the objects' blocks into one contiguous batch.

        Returns ``(positions, parents, log_weights, row_indices,
        batch_starts, lengths)``; mutate the copies freely, then push them
        back with :meth:`scatter(row_indices, ...) <scatter>`.
        ``batch_starts`` are the per-segment offsets inside the batch (the
        ``reduceat`` boundaries).
        """
        idx, batch_starts, lengths = self.plan(object_ids)
        return (
            self._positions.take(idx, axis=0),
            self._parents.take(idx),
            self._log_weights.take(idx),
            idx,
            batch_starts,
            lengths,
        )

    def read_blocks(
        self, object_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only gather: ``(positions, log_weights, batch_starts,
        lengths)`` of the objects' blocks as one contiguous batch.

        Unlike :meth:`gather` this does not go through :meth:`plan`, so a
        side query over a different id list (the per-epoch re-detection
        pass) leaves the main batch's cached plan in place.
        """
        starts, lengths = self.segments(object_ids)
        idx, batch_starts = segment_gather_indices(starts, lengths)
        return self._positions.take(idx, axis=0), self._log_weights.take(idx), batch_starts, lengths

    def scatter(
        self,
        row_indices: np.ndarray,
        positions: np.ndarray = None,
        parents: np.ndarray = None,
        log_weights: np.ndarray = None,
    ) -> None:
        """Write gathered (and possibly updated) batch arrays back."""
        if positions is not None:
            self._positions[row_indices] = positions
        if parents is not None:
            self._parents[row_indices] = parents
        if log_weights is not None:
            self._log_weights[row_indices] = log_weights

    def live_row_mask(self) -> np.ndarray:
        """Boolean mask over ``[0, _end)``: True for rows owned by a slot.

        With no holes this is all-True; holes left by :meth:`free` are False
        until the next :meth:`compact`.
        """
        mask = np.zeros(self._end, dtype=bool)
        if self._free_rows == 0:
            mask[:] = True
            return mask
        for start, count in self._slots.values():
            mask[start : start + count] = True
        return mask

    def remap_parents(self, old_to_new: np.ndarray, rng: np.random.Generator) -> None:
        """Rewrite every parent pointer through an ancestor map after a
        reader resample; pointers at dropped readers (map value < 0) are
        re-pointed at a random survivor.

        Only *live* rows consume random draws: rows sitting in holes are
        remapped to a placeholder instead.  Hole contents are overwritten
        before any future use, so skipping them is harmless — and it makes
        the RNG stream independent of the slab's hole layout, which is what
        lets a compacted-on-write checkpoint resume bitwise-identically to
        an uninterrupted run.
        """
        j = old_to_new.shape[0]
        rows = self._parents[: self._end]
        remapped = old_to_new.take(rows)
        dropped = remapped < 0
        if self._free_rows:
            dropped &= self.live_row_mask()
        n_dropped = int(np.add.reduce(dropped))
        if n_dropped:
            remapped[dropped] = rng.integers(0, j, size=n_dropped)
        # Holes may still hold a negative placeholder; clamp so the column
        # stays a valid index array (the values are dead either way).
        np.maximum(remapped, 0, out=remapped)
        self._parents[: self._end] = remapped
        self._parents_dirty = True

    def object_ids(self) -> List[int]:
        return list(self._slots)

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-state subsystem, ``repro.state``)
    # ------------------------------------------------------------------
    def _ordered_slots(self) -> list:
        """``(id, (start, count))`` pairs in slot-start order.

        This ordering is the serialization contract shared by
        :meth:`snapshot` and :meth:`delta_snapshot` — a materialized
        base+delta state is only byte-identical to a full snapshot because
        both emit blocks in exactly this order.
        """
        return sorted(self._slots.items(), key=lambda item: item[1][0])

    @staticmethod
    def _block_rows(slots: list) -> Tuple[np.ndarray, np.ndarray]:
        """``(counts, slab row indices)`` gathering the blocks of a subset of
        :meth:`_ordered_slots` back to back — the one block gather every
        capture (all blocks, dirty blocks, clean blocks' parents) goes through."""
        n = len(slots)
        starts = np.fromiter((slot[0] for _, slot in slots), dtype=np.int64, count=n)
        counts = np.fromiter((slot[1] for _, slot in slots), dtype=np.int64, count=n)
        return counts, segment_gather_indices(starts, counts)[0]

    @staticmethod
    def _slot_ids(slots: list) -> np.ndarray:
        return np.fromiter((oid for oid, _ in slots), dtype=np.int64, count=len(slots))

    def _table(self, slots: list) -> Dict[str, np.ndarray]:
        """The block table (``repro.state.tables``) of a subset of
        :meth:`_ordered_slots`, its blocks copied back to back."""
        counts, rows = self._block_rows(slots)
        return {
            "ids": self._slot_ids(slots),
            "counts": counts,
            "positions": self._positions[rows],
            "parents": self._parents[rows],
            "log_weights": self._log_weights[rows],
        }

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Copy the live slab content, compacted on write.

        Blocks are emitted in slot-start order (the same order
        :meth:`compact` preserves), concatenated into contiguous arrays;
        holes and slack capacity are not serialized.  The arena itself is
        not mutated.
        """
        return self._table(self._ordered_slots())

    def load_snapshot(self, state: Dict[str, np.ndarray]) -> None:
        """Replace the arena content with a :meth:`snapshot`'s blocks.

        The restored slab is fully compacted (blocks packed in snapshot
        order, no holes); capacity grows as needed but is never shrunk.
        Counter stats (grows/compactions) are preserved by the caller, not
        here — loading resets them to zero like a fresh arena.
        """
        ids = np.asarray(state["ids"], dtype=np.int64)
        counts = np.asarray(state["counts"], dtype=np.int64)
        total = int(counts.sum())
        if (
            np.asarray(state["positions"]).shape[0] != total
            or np.asarray(state["parents"]).shape[0] != total
            or np.asarray(state["log_weights"]).shape[0] != total
        ):
            raise InferenceError(
                "arena snapshot is inconsistent: block rows do not match counts"
            )
        if counts.size and int(counts.min()) < 1:
            raise InferenceError("arena snapshot contains an empty block")
        if np.unique(ids).size != ids.size:
            raise InferenceError("arena snapshot contains duplicate object ids")
        self._slots = {}
        self._end = 0
        self._free_rows = 0
        self.stats = {"grows": 0, "compactions": 0}
        if total > self.capacity:
            self._grow(total)
            self.stats["grows"] = 0  # sizing to fit a snapshot is not churn
        self._positions[:total] = state["positions"]
        self._parents[:total] = state["parents"]
        self._log_weights[:total] = state["log_weights"]
        offset = 0
        for oid, count in zip(ids, counts):
            self._slots[int(oid)] = (offset, int(count))
            offset += int(count)
        self._end = total
        self._layout_serial += 1
        # A restored arena starts a fresh delta baseline: nothing is dirty
        # relative to the tree it was restored from.
        self.clear_dirty()

    # ------------------------------------------------------------------
    # Differential snapshots (``repro.state`` delta checkpoints)
    # ------------------------------------------------------------------
    def mark_dirty(self, object_ids: Iterable[int]) -> None:
        """Record that these objects' blocks were mutated via gather/scatter.

        :meth:`scatter` writes raw row indices and cannot attribute them to
        objects cheaply, so the batched epoch kernels (``inference.factored``)
        mark the gathered object set explicitly after scattering back.
        """
        self._dirty.update(object_ids)

    def clear_dirty(self) -> None:
        """Reset the dirty baseline (after a snapshot capture)."""
        self._dirty.clear()
        self._parents_dirty = False

    def delta_snapshot(self) -> Dict[str, object]:
        """Changed blocks since :meth:`clear_dirty`, plus the slot order.

        A :func:`~repro.state.tables.dirty_cut` of the block table: the
        full ``ids``/``counts`` arrays (slot-start order, exactly what
        :meth:`snapshot` would emit) always ship — they are tiny and they
        carry the block *order* and the deletions, so a materialized
        base+delta state is byte-identical to a full snapshot.  Column data
        ships only for dirty blocks; when a reader resample remapped every
        parent pointer (``parents_dirty``), the clean blocks' parent columns
        ship too (``clean_parents``, concatenated in slot order), narrowed to
        the smallest integer type that holds every pointer — one byte a row
        for up to 256 reader particles, instead of the full 36.
        """
        from ..state.tables import dirty_cut

        ordered = self._ordered_slots()
        layout = {
            "ids": self._slot_ids(ordered),
            "counts": np.fromiter(
                (slot[1] for _, slot in ordered), dtype=np.int64, count=len(ordered)
            ),
        }
        state: Dict[str, object] = dirty_cut(
            layout,
            self._dirty,
            lambda ids: self._table([(oid, self._slots[oid]) for oid in ids]),
        )
        state["parents_dirty"] = bool(self._parents_dirty)
        state["clean_parents"] = None
        if self._parents_dirty:
            clean = [item for item in ordered if item[0] not in self._dirty]
            parents = self._parents[self._block_rows(clean)[1]]
            widest = int(parents.max()) if parents.size else 0
            state["clean_parents"] = parents.astype(np.min_scalar_type(widest))
        return state
