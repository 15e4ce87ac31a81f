"""Active-set selection via spatial indexing (Section IV-C, Fig. 4).

Each epoch, objects fall into four cases by (distance to reader) x (read?):

* **Case 1** — read at t: always processed, wherever the reader thinks it is.
* **Case 2** — not read at t, but read before near the current location:
  processed, so the filter can *down-weight* particles close to the reader
  (negative evidence).
* **Case 3** — near the reader but never read from here: invisible to
  inference (RFID sensing is the only observation channel); no belief exists
  for a never-read object, nothing to process.
* **Case 4** — far away and not read: its read probability is rounded to
  zero, skipping the weighting work entirely.

:class:`ActiveSetSelector` implements the Case-2 machinery with the
:class:`~repro.spatial.region_index.SensingRegionIndex` (one table of past
sensing-region bounding boxes, probed with a vectorised overlap test; the
paper uses a simplified R*-tree).  With the index disabled it
degrades to "every known object is active", which is the plain factored
filter's behaviour and the baseline the paper's Fig 5(i)/(j) compares
against.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Set

import numpy as np

from ..config import SpatialIndexConfig
from ..errors import StateError
from ..geometry.box import Box
from ..geometry.cone import Cone
from ..spatial.region_index import SensingRegionIndex


class ActiveSetSelector:
    """Chooses which objects the filter processes each epoch."""

    def __init__(self, config: SpatialIndexConfig):
        self._config = config
        self._index: Optional[SensingRegionIndex] = None
        self._last_center: Optional[np.ndarray] = None
        self._last_region_id: Optional[int] = None
        if config.enabled:
            self._index = SensingRegionIndex(max_regions=config.max_regions)

    @property
    def enabled(self) -> bool:
        return self._index is not None

    @property
    def index(self) -> Optional[SensingRegionIndex]:
        return self._index

    # ------------------------------------------------------------------
    def sensing_box(self, sensing_cone: Cone) -> Box:
        """Padded bounding box of the current sensing region."""
        return sensing_cone.bounding_box().expanded(self._config.box_padding_ft)

    def select(
        self,
        read_now: Set[int],
        known_objects: Collection[int],
        current_box: Optional[Box],
    ) -> Set[int]:
        """The active set: Case 1 union Case 2.

        ``read_now`` are the object tag numbers read this epoch (Case 1).
        With the index disabled, every known object is active.  Objects in
        ``read_now`` are active whether or not they are near — "if an object
        is read at time t, no matter how far it is from the reader, it should
        be processed".
        """
        if self._index is None:
            return set(read_now) | set(known_objects)
        if current_box is None:
            return set(read_now)
        # Membership tests against the caller's own collection (a dict view
        # or a set in the filter): the cost follows the Case-2 candidates
        # near the reader, never the known population.
        active = set(read_now)
        active.update(
            {n for n in self._index.case2_candidates(current_box) if n in known_objects}
        )
        return active

    def record_region(
        self, current_box: Optional[Box], attached_ids: Iterable[int]
    ) -> None:
        """Record this epoch's sensing region with its attached objects.

        The caller decides attachment (Fig 4(b): objects with particles
        inside the box).  The filter attaches by *weight mass* rather than
        the paper's literal "at least one particle": the object-movement
        model teleports a thin trickle of particles uniformly over the
        shelves, and a single stray particle would otherwise keep an object
        attached to every region the reader ever visits, defeating the
        index.

        Regions are spatially quantized (``record_spacing_ft``): while the
        reader stays near the last recorded region, this epoch's objects
        attach to that region instead of inserting a near-duplicate box.
        """
        if self._index is None or current_box is None:
            return
        center = current_box.center
        if (
            self._last_region_id is not None
            and self._last_center is not None
            and self._index.contains_region(self._last_region_id)
            and float(np.linalg.norm(center[:2] - self._last_center[:2]))
            < self._config.record_spacing_ft
        ):
            self._index.attach(self._last_region_id, attached_ids)
            return
        # Pad by the spacing so the quantized region still covers the
        # interim epochs' true sensing boxes.
        box = current_box.expanded(self._config.record_spacing_ft / 2.0)
        self._last_region_id = self._index.record(box, attached_ids)
        self._last_center = center

    def forget_object(self, object_id: int) -> None:
        """Detach an object everywhere (it was reset far from its past)."""
        if self._index is not None:
            self._index.remove_object(object_id)

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-state subsystem, ``repro.state``)
    # ------------------------------------------------------------------
    def snapshot(self) -> Optional[dict]:
        """The index's ``regions`` / ``attached`` tables and id counter plus
        the last recorded region, or ``None`` when the index is disabled."""
        if self._index is None:
            return None
        last, center = self._last_region_id, self._last_center
        return {
            **self._index.snapshot(),
            "last_region_id": None if last is None else int(last),
            "last_center": None if center is None else [float(v) for v in center],
        }

    def load_snapshot(self, state: Optional[dict]) -> None:
        if (self._index is None) != (state is None):
            raise StateError(
                "the snapshot's selector state and this configuration disagree "
                "on whether the spatial index is enabled"
            )
        if state is None:
            return
        self._index.load_snapshot(state)
        last, center = state["last_region_id"], state["last_center"]
        self._last_region_id = None if last is None else int(last)
        self._last_center = None if center is None else np.asarray(center, dtype=float)
