"""The cleaning pipeline: raw epochs in, clean location events out.

Section II-A: "our system outputs an event for an object only at particular
points: for example, within x seconds after an object was read, upon
completion of a shelf scan, or upon completion of a full area scan."  The
evaluation (Section V-A) uses the first policy with x = 60 s; the pipeline
implements that, plus end-of-scan emission and an optional movement-triggered
re-emission.

The pipeline wraps any engine exposing the common interface
(``step(epoch)``, ``known_objects()``, ``object_estimate(number)``) —
factored or naive — and pushes :class:`~repro.streams.records.LocationEvent`
objects into an :class:`~repro.streams.sinks.EventSink`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Protocol, Set

import numpy as np

from ..config import OutputPolicyConfig
from ..streams.records import Epoch, TagId
from ..streams.sinks import CollectingSink, EventSink
from .estimates import LocationEstimate


class InferenceEngine(Protocol):
    """Structural interface shared by the naive and factored filters."""

    def step(self, epoch: Epoch) -> None: ...

    def known_objects(self): ...

    def object_estimate(self, object_number: int) -> LocationEstimate: ...

    @property
    def epoch_index(self) -> int: ...


@dataclass
class _VisitState:
    """Per-object bookkeeping for the output policy."""

    entered_time: float  # when the object (re-)entered scope
    last_read_time: float
    emitted_this_visit: bool
    last_emitted_position: Optional[np.ndarray]


class CleaningPipeline:
    """Drives an inference engine over epochs and emits location events."""

    #: An object re-enters scope (starting a new visit and re-arming the
    #: delayed event) if it is read after being unread this many seconds.
    VISIT_GAP_S = 30.0

    def __init__(
        self,
        engine: InferenceEngine,
        policy: OutputPolicyConfig = OutputPolicyConfig(),
        sink: Optional[EventSink] = None,
    ):
        self.engine = engine
        self.policy = policy
        self.sink: EventSink = sink if sink is not None else CollectingSink()
        self._visits: Dict[int, _VisitState] = {}
        #: Objects that have emitted at least once — a tombstone that
        #: outlives visit pruning, so ``finish()`` never re-reports a pruned
        #: (already-emitted) object.  A set of ints: O(objects), not
        #: O(particles), so it does not reintroduce the memory leak that
        #: pruning removes.
        self._emitted_ever: Set[int] = set()
        self._last_epoch_time: Optional[float] = None
        #: Differential-checkpoint bookkeeping: visits touched since the
        #: last snapshot capture.
        self._dirty_visits: Set[int] = set()

    # ------------------------------------------------------------------
    def step(self, epoch: Epoch) -> None:
        """Process one epoch: run inference, then apply the output policy."""
        self.engine.step(epoch)
        self._last_epoch_time = epoch.time
        now = epoch.time

        # Overdue emissions first: if epochs are sparse (reader paused), a
        # visit whose delay elapsed during the silence must emit before a
        # re-read of the same tag re-arms it as a fresh visit.
        self._emission_pass(now)

        # Tag-number order: the frozenset iterates in a PYTHONHASHSEED-
        # dependent order, and ``_visits`` insertion order is the order of
        # same-epoch emissions.
        for number in sorted(tag.number for tag in epoch.object_tags):
            self._dirty_visits.add(number)
            state = self._visits.get(number)
            if state is None or now - state.last_read_time > self.VISIT_GAP_S:
                self._visits[number] = _VisitState(
                    entered_time=now,
                    last_read_time=now,
                    emitted_this_visit=False,
                    last_emitted_position=(
                        state.last_emitted_position if state else None
                    ),
                )
            else:
                state.last_read_time = now

        self._emission_pass(now)
        self._prune_visits(now)

    def _emission_pass(self, now: float) -> None:
        for number, state in self._visits.items():
            if state.emitted_this_visit:
                if self.policy.movement_threshold_ft is not None:
                    self._maybe_emit_movement(number, state, now)
                continue
            if now - state.entered_time >= self.policy.delay_s:
                self._emit(number, now)
                state.emitted_this_visit = True

    def _prune_visits(self, now: float) -> None:
        """Drop visit bookkeeping for long-unread objects.

        Without pruning ``_visits`` grows with every object ever read and the
        per-epoch emission pass scans all of them — a memory *and* time leak
        on unbounded streams.  Only emitted visits are pruned (a pending
        delayed event is never lost), and the horizon never undercuts
        ``VISIT_GAP_S``, so re-entry semantics are unchanged — a pruned
        object simply re-enters as a fresh visit on its next read.

        Movement-triggered re-emission (``movement_threshold_ft``) keeps
        every emitted visit semantically live — pruning one would silently
        cancel its future movement events — so pruning is disabled entirely
        while that policy is active.
        """
        horizon = self.policy.visit_retention_s
        if horizon is None or self.policy.movement_threshold_ft is not None:
            return
        horizon = max(horizon, self.VISIT_GAP_S)
        stale = [
            number
            for number, state in self._visits.items()
            if state.emitted_this_visit and now - state.last_read_time > horizon
        ]
        for number in stale:
            del self._visits[number]

    def finish(self) -> None:
        """End of trace: emit pending objects (scan-complete policy)."""
        if self._last_epoch_time is None:
            self.sink.close()
            return
        now = self._last_epoch_time
        if self.policy.on_scan_complete:
            for number in self.engine.known_objects():
                state = self._visits.get(number)
                if state is None:
                    # No live visit: emit only if the object was never
                    # reported at all (a pruned visit already emitted).
                    if number not in self._emitted_ever:
                        self._emit(number, now)
                elif not state.emitted_this_visit:
                    self._emit(number, now)
                    state.emitted_this_visit = True
        self.sink.close()

    def run(self, epochs: Iterable[Epoch]) -> EventSink:
        """Convenience: process every epoch then finish."""
        for epoch in epochs:
            self.step(epoch)
        self.finish()
        return self.sink

    # ------------------------------------------------------------------
    def _emit(self, number: int, now: float) -> None:
        estimate = self.engine.object_estimate(number)
        event = estimate.to_event(now, TagId.object(number))
        self.sink.emit(event)
        self._emitted_ever.add(number)
        self._dirty_visits.add(number)
        state = self._visits.get(number)
        if state is not None:
            state.last_emitted_position = estimate.mean.copy()

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-state subsystem, ``repro.state``)
    # ------------------------------------------------------------------
    def _visit_rows(self, numbers) -> dict:
        """Visit-state arrays for an ordered subset of visit ids."""
        v = len(numbers)
        ids = np.empty(v, dtype=np.int64)
        entered = np.empty(v, dtype=float)
        last_read = np.empty(v, dtype=float)
        emitted = np.zeros(v, dtype=bool)
        has_pos = np.zeros(v, dtype=bool)
        pos = np.zeros((v, 3), dtype=float)
        for i, number in enumerate(numbers):
            state = self._visits[number]
            ids[i] = number
            entered[i] = state.entered_time
            last_read[i] = state.last_read_time
            emitted[i] = state.emitted_this_visit
            if state.last_emitted_position is not None:
                has_pos[i] = True
                pos[i] = state.last_emitted_position
        return {
            "ids": ids,
            "entered": entered,
            "last_read": last_read,
            "emitted": emitted,
            "has_pos": has_pos,
            "pos": pos,
        }

    def snapshot_state(self, delta: bool = False) -> dict:
        """Capture the output-policy bookkeeping — full, or changes only.

        Visits are recorded in dict insertion order: the emission pass
        iterates ``_visits``, so with a single shard (no cross-shard merge
        sort) the order of same-epoch events depends on it.  With ``delta``
        the visit table is a :func:`~repro.state.tables.dirty_cut`: the
        full id order (which carries ordering and the prune deletions) but
        rows only for visits touched since the previous capture.
        """
        from ..state.tables import dirty_cut

        state = {
            "emitted_ever": np.asarray(sorted(self._emitted_ever), dtype=np.int64),
            "last_epoch_time": (
                None if self._last_epoch_time is None else float(self._last_epoch_time)
            ),
        }
        if delta:
            order = np.fromiter(self._visits, dtype=np.int64, count=len(self._visits))
            state["visits"] = dirty_cut(
                {"ids": order}, self._dirty_visits, self._visit_rows
            )
        else:
            state["visits"] = self._visit_rows(list(self._visits))
        self._dirty_visits.clear()
        return state

    def restore_state(self, state: dict) -> None:
        visits = state["visits"]
        has_pos = np.asarray(visits["has_pos"], dtype=bool)
        pos = np.asarray(visits["pos"], dtype=float)
        self._visits = {}
        for i, number in enumerate(np.asarray(visits["ids"], dtype=np.int64)):
            self._visits[int(number)] = _VisitState(
                entered_time=float(visits["entered"][i]),
                last_read_time=float(visits["last_read"][i]),
                emitted_this_visit=bool(visits["emitted"][i]),
                last_emitted_position=pos[i].copy() if has_pos[i] else None,
            )
        self._emitted_ever = {int(n) for n in np.asarray(state["emitted_ever"])}
        last_time = state["last_epoch_time"]
        self._last_epoch_time = None if last_time is None else float(last_time)
        self._dirty_visits.clear()

    def _maybe_emit_movement(self, number: int, state: _VisitState, now: float) -> None:
        threshold = self.policy.movement_threshold_ft
        assert threshold is not None
        estimate = self.engine.object_estimate(number)
        if state.last_emitted_position is None:
            return
        moved = float(np.linalg.norm(estimate.mean - state.last_emitted_position))
        if moved >= threshold:
            self.sink.emit(estimate.to_event(now, TagId.object(number)))
            state.last_emitted_position = estimate.mean.copy()
            self._dirty_visits.add(number)
