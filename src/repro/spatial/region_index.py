"""The sensing-region index of Section IV-C (Fig. 4b/4c).

One table of past sensing regions in recording order: each region's id, its
bounding box, and the objects that had particle mass inside the box when it
was recorded.  The paper keeps the boxes in "a simplified R*-tree"; ours
never holds more than ``max_regions`` boxes, so a probe is one vectorised
overlap test over contiguous bounds.

At each epoch the filter builds the bounding box of the current sensing
region and probes the index; the union of object ids attached to overlapping
past regions is exactly the paper's **Case 2** set ("not read at t but read
before near the current location").  Together with the objects read this
epoch (**Case 1**) these are the only objects processed.

Regions can expire: once the reader has moved on, very old regions no longer
affect which objects *could* have particles near the current location (the
objects' particles were recorded there, and objects rarely move).  The paper
does not describe pruning, but without it the index grows without bound over
multi-scan streams, so we expose an optional ``max_regions`` budget that
evicts the oldest regions (a pure performance knob — evicted objects are
simply re-registered the next time they are read).

A snapshot is two :mod:`repro.state.tables` tables: ``regions`` (a row per
region id: ``lo`` / ``hi``) and ``attached`` (a block per object id: the
``regions`` it is attached to), so a re-shard moves an object's attachments
with the same ``select`` that moves its belief.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import GeometryError, StateError
from ..geometry.box import Box


class SensingRegionIndex:
    """Past sensing-region boxes, in recording order, with their objects."""

    def __init__(self, max_regions: Optional[int] = None):
        if max_regions is not None and max_regions < 1:
            raise GeometryError("max_regions must be positive")
        self._max_regions = max_regions
        self._next_id = 0
        # Live regions in recording order: their ids, and their bounds
        # column-major as (lo, -hi) so that one ``<=`` against a probe's
        # (hi, -lo) tests both sides of the overlap on every axis.
        self._ids = np.empty(0, dtype=np.int64)
        self._bounds = np.empty((6, 0))
        #: region id -> attached object ids, in recording order.
        self._objects: Dict[int, Set[int]] = {}
        #: object id -> ids of the regions it is attached to: the inverse of
        #: ``_objects``, so detaching an object touches its own regions only.
        self._regions_of: Dict[int, Set[int]] = {}

    def __len__(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def record(self, box: Box, object_ids: Iterable[int]) -> int:
        """Record a sensing region and the objects with particles inside it.

        Returns the internal region id (useful for tests).  Regions with no
        attached objects are still recorded — a later reading of a new object
        in the same place attaches through a subsequent record, but an empty
        region also (correctly) yields no Case-2 candidates.
        """
        region_id = self._next_id
        self._next_id += 1
        self._ids = np.append(self._ids, region_id)
        column = np.array((*box.lo, *(-v for v in box.hi)))
        self._bounds = np.concatenate((self._bounds, column[:, None]), axis=1)
        self._objects[region_id] = set()
        self._attach(region_id, object_ids)
        if self._max_regions is not None and len(self._objects) > self._max_regions:
            self._evict_oldest()
        return region_id

    def attach(self, region_id: int, object_ids: Iterable[int]) -> bool:
        """Attach more objects to an existing region.

        Returns ``True`` when the region's object set actually grew —
        re-attaching already-attached objects is a no-op, and callers
        tracking snapshot dirtiness rely on that distinction.
        """
        if region_id not in self._objects:
            raise GeometryError(f"unknown region id {region_id}")
        return self._attach(region_id, object_ids)

    def _attach(self, region_id: int, object_ids: Iterable[int]) -> bool:
        ids = self._objects[region_id]
        before = len(ids)
        for object_id in object_ids:
            object_id = int(object_id)
            if object_id not in ids:
                ids.add(object_id)
                self._regions_of.setdefault(object_id, set()).add(region_id)
        return len(ids) > before

    def contains_region(self, region_id: int) -> bool:
        """Whether a region id is still live (not evicted)."""
        return region_id in self._objects

    def _evict_oldest(self) -> None:
        region_id = int(self._ids[0])
        self._ids, self._bounds = self._ids[1:], self._bounds[:, 1:]
        for object_id in self._objects.pop(region_id):
            attached = self._regions_of[object_id]
            attached.discard(region_id)
            if not attached:
                del self._regions_of[object_id]

    def remove_object(self, object_id: int) -> bool:
        """Detach an object from every region (e.g. after it moved far away,
        its old particle locations are no longer meaningful).  Returns
        ``True`` when the object was attached anywhere."""
        object_id = int(object_id)
        attached = self._regions_of.pop(object_id, ())
        for region_id in attached:
            self._objects[region_id].discard(object_id)
        return bool(attached)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _hits(self, box: Box) -> np.ndarray:
        """Rows of the regions whose boxes overlap ``box``."""
        probe = np.array((*box.hi, *(-v for v in box.lo)))
        return (self._bounds <= probe[:, None]).all(axis=0).nonzero()[0]

    def case2_candidates(self, current_box: Box) -> Set[int]:
        """Objects read before near the current sensing region.

        The union of object sets attached to every recorded region whose
        bounding box overlaps ``current_box``.
        """
        out: Set[int] = set()
        for region_id in self._ids[self._hits(current_box)].tolist():
            out.update(self._objects[region_id])
        return out

    def overlapping_regions(self, box: Box) -> List[Tuple[Box, FrozenSet[int]]]:
        """All recorded ``(box, object-ids)`` pairs overlapping ``box``, in
        recording order."""
        out = []
        for row in self._hits(box).tolist():
            lo, neg_hi = self._bounds[:3, row].tolist(), self._bounds[3:, row].tolist()
            region = Box(tuple(lo), tuple(-v for v in neg_hi))
            out.append((region, frozenset(self._objects[int(self._ids[row])])))
        return out

    def objects_registered(self) -> Set[int]:
        """Every object id attached to at least one region."""
        return set(self._regions_of)

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-state subsystem, ``repro.state``)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The ``regions`` and ``attached`` tables plus the id counter.
        Objects and each object's region ids are sorted: attachment is a
        set, so the tables are canonical whatever order built it."""
        objects = sorted(self._regions_of)
        attached = [sorted(self._regions_of[n]) for n in objects]
        return {
            "next_id": int(self._next_id),
            "regions": {
                "ids": self._ids.copy(),
                "lo": self._bounds[:3].T.copy(),
                "hi": -self._bounds[3:].T.copy(),
            },
            "attached": {
                "ids": np.array(objects, dtype=np.int64),
                "counts": np.array([len(r) for r in attached], dtype=np.int64),
                "regions": np.array([r for rs in attached for r in rs], dtype=np.int64),
            },
        }

    def load_snapshot(self, state: Dict[str, object]) -> None:
        """Replace the index content with a :meth:`snapshot`'s tables,
        preserving recording order (which drives ``max_regions`` eviction)
        and the original region ids.  A snapshot :func:`check_snapshot`
        refuses raises ``StateError`` and leaves the index as it was."""
        check_snapshot(state)
        regions, attached = state["regions"], state["attached"]
        self._ids = np.array(regions["ids"], dtype=np.int64)
        lo, hi = np.asarray(regions["lo"], float), np.asarray(regions["hi"], float)
        self._bounds = np.concatenate((lo.T, -hi.T))
        self._objects = {region_id: set() for region_id in self._ids.tolist()}
        self._regions_of = {}
        objects = np.repeat(attached["ids"], attached["counts"]).tolist()
        for object_id, region_id in zip(objects, np.asarray(attached["regions"]).tolist()):
            self._objects[region_id].add(object_id)
            self._regions_of.setdefault(object_id, set()).add(region_id)
        self._next_id = int(state["next_id"])
        while self._max_regions is not None and len(self._objects) > self._max_regions:
            self._evict_oldest()

    def check_consistent(self) -> None:
        """Test hook: the table, the region map and its inverse agree."""
        assert self._ids.tolist() == list(self._objects), "table out of step with the map"
        inverse: Dict[int, Set[int]] = {}
        for region_id, ids in self._objects.items():
            for object_id in ids:
                inverse.setdefault(object_id, set()).add(region_id)
        assert inverse == self._regions_of, "object -> regions map out of step"


def check_snapshot(state: Dict[str, object], what: str = "region index") -> None:
    """Refuse, as ``StateError``, a snapshot a restore would misread: a bad
    table layout (:func:`~repro.state.tables.check`), bounds that are not
    finite ``(R, 3)`` boxes with ``lo <= hi`` (a NaN box overlaps nothing,
    silently dropping its objects from Case 2), an attachment to a region
    the table lacks, or a ``next_id`` not past every region id."""
    from ..state.tables import check  # repro.state imports the runtime

    try:
        regions, attached = state["regions"], state["attached"]
        check(regions, f"{what} regions table")
        check(attached, f"{what} attached table")
        ids, next_id = np.asarray(regions["ids"]), int(state["next_id"])
        lo, hi = np.asarray(regions["lo"], float), np.asarray(regions["hi"], float)
        linked = np.asarray(attached["regions"])
        if "counts" not in attached:  # a block table: one block per object
            raise KeyError("counts")
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise StateError(f"malformed {what} snapshot: {exc!r}") from None
    if lo.shape != (ids.size, 3) or hi.shape != (ids.size, 3):
        raise StateError(f"{what} region bounds are not {ids.size} boxes of 3-D corners")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo <= hi).all()):
        raise StateError(f"{what} holds a region whose bounds are not finite with lo <= hi")
    if linked.dtype.kind not in "iu" or not np.isin(linked, ids).all():
        raise StateError(f"{what} attaches an object to a region it does not hold")
    if ids.size and next_id <= int(ids.max()):
        raise StateError(f"{what} id counter is behind its live region ids")
