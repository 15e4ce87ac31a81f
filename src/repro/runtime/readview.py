"""Snapshot-isolated, zero-copy belief reads for the query layer.

A :class:`RuntimeReadView` is an epoch-stamped window onto every shard's
belief arena, one ``shard.arena_view()`` per shard, closed with the view:

* **in-process shards** (the serial executor) — per-object accessors
  return numpy slices straight into the shard's
  :class:`~repro.inference.arena.BeliefArena` slab, and closing releases
  nothing (:class:`~repro.runtime.shard.LiveArenaView`);
* **worker shards** —
  :meth:`~repro.runtime.workers.ShardWorkerProxy.arena_view` is a
  parent-side attachment of a local (``process``) worker's shared-memory
  slab, or the blocks of a ``remote`` worker fetched once over its link.

Only the remote fetch copies particle data.  The view is stamped with
``runtime.epochs_processed`` at creation: workers only mutate their slabs
while serving a step, so between steps every read is a consistent snapshot
of the same epoch.  Accessing a view after the runtime has advanced raises
:class:`~repro.errors.StateError` — callers (the query multiplexer's
``belief_mean``) re-fetch a fresh view instead of silently reading torn
state.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import InferenceError, StateError


class RuntimeReadView:
    """Epoch-stamped zero-copy read access to every shard's beliefs."""

    def __init__(self, runtime):
        self._runtime = runtime
        #: The stream offset this view is a snapshot of.
        self.epoch = int(runtime.epochs_processed)
        self._closed = False
        self._views: List[Optional[object]] = []
        try:
            for shard in runtime.shards:
                self._views.append(shard.arena_view())
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    @property
    def valid(self) -> bool:
        """True while the runtime has not advanced past this view's epoch."""
        return not self._closed and self._runtime.epochs_processed == self.epoch

    def _view_for(self, number: int):
        if self._closed:
            raise StateError("read view is closed")
        if self._runtime.epochs_processed != self.epoch:
            raise StateError(
                f"stale read view: taken at epoch {self.epoch}, runtime is at "
                f"{self._runtime.epochs_processed}; re-fetch via read_view()"
            )
        view = self._views[self._runtime.router.shard_of(number)]
        if view is None:
            raise InferenceError(
                f"shard owning object {number} has no belief arena "
                "(engine does not expose particle blocks)"
            )
        return view

    # Zero-copy accessors ----------------------------------------------
    def positions(self, number: int) -> np.ndarray:
        """(n, 3) particle positions — a view into the owning shard's slab."""
        return self._view_for(number).positions(number)

    def log_weights(self, number: int) -> np.ndarray:
        return self._view_for(number).log_weights(number)

    def parents(self, number: int) -> np.ndarray:
        return self._view_for(number).parents(number)

    def mean(self, number: int) -> np.ndarray:
        """Weighted mean position, computed from the zero-copy views."""
        positions = self.positions(number)
        log_w = self.log_weights(number)
        shifted = np.exp(log_w - log_w.max())
        total = shifted.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise InferenceError(f"degenerate belief weights for object {number}")
        return (positions * (shifted / total)[:, None]).sum(axis=0)

    def object_ids(self) -> List[int]:
        """Sorted union of every shard's arena-resident objects."""
        if self._closed:
            raise StateError("read view is closed")
        ids: set = set()
        for view in self._views:
            if view is not None:
                ids.update(view.object_ids())
        return sorted(ids)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release attached shared-memory segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for view in self._views:
            if view is not None:
                view.close()
        self._views = []
