"""The sensing-region index of Section IV-C (Fig. 4b/4c).

The index has two components, mirroring the paper:

1. a map from each recorded sensing-region bounding box to the set of objects
   that had at least one particle inside that box when it was recorded, and
2. a simplified R*-tree over those bounding boxes.

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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import GeometryError
from ..geometry.box import Box
from .rtree import RStarTree


class SensingRegionIndex:
    """Index from past sensing-region boxes to object-id sets."""

    def __init__(self, max_regions: Optional[int] = None, max_entries: int = 16):
        if max_regions is not None and max_regions < 1:
            raise GeometryError("max_regions must be positive")
        self._tree = RStarTree(max_entries=max_entries)
        self._regions: "OrderedDict[int, Tuple[Box, Set[int]]]" = OrderedDict()
        #: object id -> ids of the regions it is attached to: the inverse of
        #: ``_regions`` (derived, not snapshotted), so detaching an object
        #: touches its own regions instead of scanning all of them.
        self._regions_of: Dict[int, Set[int]] = {}
        self._next_id = 0
        self._max_regions = max_regions
        self._max_entries = max_entries

    def __len__(self) -> int:
        return len(self._regions)

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
        ids = set(int(i) for i in object_ids)
        region_id = self._next_id
        self._next_id += 1
        self._add_region(region_id, box, ids)
        if self._max_regions is not None:
            while len(self._regions) > self._max_regions:
                self._evict_oldest()
        return region_id

    def _add_region(self, region_id: int, box: Box, ids: Set[int]) -> None:
        self._regions[region_id] = (box, ids)
        self._tree.insert(box, region_id)
        for object_id in ids:
            self._regions_of.setdefault(object_id, set()).add(region_id)

    def attach(self, region_id: int, object_ids: Iterable[int]) -> bool:
        """Attach more objects to an existing region.

        Returns ``True`` when the region's object set actually grew —
        re-attaching already-attached objects is a no-op, and callers
        tracking snapshot dirtiness rely on that distinction.
        """
        if region_id not in self._regions:
            raise GeometryError(f"unknown region id {region_id}")
        ids = self._regions[region_id][1]
        grew = False
        for object_id in object_ids:
            object_id = int(object_id)
            if object_id not in ids:
                ids.add(object_id)
                self._regions_of.setdefault(object_id, set()).add(region_id)
                grew = True
        return grew

    def contains_region(self, region_id: int) -> bool:
        """Whether a region id is still live (not evicted)."""
        return region_id in self._regions

    def _evict_oldest(self) -> None:
        region_id, (box, ids) = next(iter(self._regions.items()))
        del self._regions[region_id]
        self._tree.delete(box, lambda value: value == region_id)
        for object_id in ids:
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
            self._regions[region_id][1].discard(object_id)
        return bool(attached)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def case2_candidates(self, current_box: Box) -> Set[int]:
        """Objects read before near the current sensing region.

        The union of object sets attached to every recorded region whose
        bounding box overlaps ``current_box``.
        """
        out: Set[int] = set()
        for region_id in self._tree.search(current_box):
            _, ids = self._regions[region_id]
            out.update(ids)
        return out

    def overlapping_regions(self, box: Box) -> List[Tuple[Box, FrozenSet[int]]]:
        """All recorded ``(box, object-ids)`` pairs overlapping ``box``."""
        out = []
        for region_id in self._tree.search(box):
            rbox, ids = self._regions[region_id]
            out.append((rbox, frozenset(ids)))
        return out

    def objects_registered(self) -> Set[int]:
        """Every object id attached to at least one region."""
        return set(self._regions_of)

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-state subsystem, ``repro.state``)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Serializable content: regions in recording order plus the id
        counter.  The R*-tree itself is not serialized — it is a derived
        structure and is rebuilt by re-inserting the regions, which yields
        identical *query semantics* (overlap search is exact set semantics
        regardless of tree shape)."""
        regions = [
            {
                "id": int(region_id),
                "lo": [float(v) for v in box.lo],
                "hi": [float(v) for v in box.hi],
                "objects": sorted(int(i) for i in ids),
            }
            for region_id, (box, ids) in self._regions.items()
        ]
        return {"next_id": int(self._next_id), "regions": regions}

    def load_snapshot(self, state: Dict[str, object]) -> None:
        """Replace the index content with a :meth:`snapshot`'s regions,
        preserving recording order (which drives ``max_regions`` eviction)
        and the original region ids."""
        self._tree = RStarTree(max_entries=self._max_entries)
        self._regions = OrderedDict()
        self._regions_of = {}
        for rec in state["regions"]:  # type: ignore[index]
            box = Box(tuple(rec["lo"]), tuple(rec["hi"]))
            self._add_region(int(rec["id"]), box, set(int(i) for i in rec["objects"]))
        self._next_id = int(state["next_id"])
        if self._regions and self._next_id <= max(self._regions):
            raise GeometryError("region snapshot id counter behind live ids")
        if self._max_regions is not None:
            while len(self._regions) > self._max_regions:
                self._evict_oldest()

    def check_consistent(self) -> None:
        """Test hook: tree and map must describe the same regions."""
        tree_ids = sorted(value for _, value in self._tree.items())
        map_ids = sorted(self._regions.keys())
        assert tree_ids == map_ids, f"tree ids {tree_ids} != map ids {map_ids}"
        self._tree.check_invariants()
        inverse: Dict[int, Set[int]] = {}
        for region_id, (_, ids) in self._regions.items():
            for object_id in ids:
                inverse.setdefault(object_id, set()).add(region_id)
        assert inverse == self._regions_of, "object -> regions map out of step"
