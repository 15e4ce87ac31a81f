"""One filter shard: a factored particle filter + cleaning pipeline + buffer.

A shard is the unit of horizontal scale: it owns a partition of the object
tags and runs the full single-engine stack over them — its own
:class:`~repro.inference.factored.FactoredParticleFilter` (own arena, own
RNG stream), its own :class:`~repro.inference.pipeline.CleaningPipeline`
with its own visit bookkeeping.  Only the factored filter shards: the
paper's Eq. 5 makes object beliefs independent given the reader belief,
which is what lets objects split across shards exactly.  Nothing is shared
between shards except the read-only world model, which is why the runtime
can step them in any order or concurrently.

Events emitted during a step land in a private buffer that the runtime
drains after all shards have advanced, so the cross-shard merge happens in
one place (:class:`~repro.runtime.runtime.ShardedRuntime`) with the full
epoch's output in hand.

The runtime speaks one split-phase surface to every shard — send a request
(``step_async`` / ``finish_async`` / ``snapshot_async``), then collect its
reply (``collect_events`` / ``collect_snapshot``), plus ``close`` — whether
the shard lives here or behind a worker link
(:class:`~repro.runtime.workers.ShardWorkerProxy`).  Here a request runs at
once, through ``step`` / ``finish`` / ``snapshot`` by name, and the collect
hands back what it left behind.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import CHECKPOINT_MODES, InferenceConfig, OutputPolicyConfig
from ..errors import StateError
from ..inference.factored import FactoredParticleFilter
from ..inference.pipeline import CleaningPipeline
from ..models.joint import RFIDWorldModel
from ..streams.records import Epoch, LocationEvent
from ..streams.sinks import CollectingSink


class FilterShard:
    """One partition's filter, pipeline, and drainable event buffer.

    Every executor builds its shards here: the serial runtime in-process,
    a worker process from its boot document.
    """

    def __init__(
        self,
        index: int,
        model: RFIDWorldModel,
        config: InferenceConfig,
        policy: OutputPolicyConfig = OutputPolicyConfig(),
        initial_heading: float = 0.0,
    ):
        self.index = index
        self.engine = FactoredParticleFilter(
            model, config, initial_heading=initial_heading
        )
        self._buffer = CollectingSink()
        self.pipeline = CleaningPipeline(self.engine, policy, self._buffer)
        self._snapshot: Optional[dict] = None
        #: Serial of this shard's latest capture (zero: never captured).  A
        #: delta records its parent's, so the checkpoint layer can prove (at
        #: save and at load) that it chains onto the capture it claims to.
        self._capture_serial = 0

    def step(self, epoch: Epoch) -> None:
        self.pipeline.step(epoch)

    def finish(self) -> None:
        self.pipeline.finish()

    # The split-phase surface (see the module docstring).
    def step_async(self, epoch: Epoch) -> None:
        self.step(epoch)

    def finish_async(self) -> None:
        self.finish()

    def collect_events(self) -> List[LocationEvent]:
        return self.drain()

    def snapshot_async(self, mode: str = "full") -> None:
        self._snapshot = self.snapshot(mode)

    def collect_snapshot(self) -> dict:
        state, self._snapshot = self._snapshot, None
        return state

    def close(self, force: bool = False) -> None:
        """Nothing to release: the engine's arena lives as long as the shard."""

    # Engine queries, exposed at the shard boundary so callers (the runtime,
    # the state layer) never reach into ``.engine`` — ShardWorkerProxy
    # implements this same surface over the worker link.
    def known_objects(self) -> List[int]:
        return self.engine.known_objects()

    def object_estimate(self, number: int):
        return self.engine.object_estimate(number)

    def drain(self) -> List[LocationEvent]:
        """Take (and clear) the events buffered since the last drain."""
        buffered = self._buffer.events
        if not buffered:
            return []
        self._buffer.events = []
        return buffered

    def stats(self) -> Dict[str, float]:
        """Per-shard diagnostics for the harness and benchmarks, as floats:
        arena fields plus every counter in the engine's ``stats`` and its
        ``tier_summary()``."""
        engine = self.engine
        arena = engine.arena
        row = {
            "shard": self.index,
            "objects": len(engine.known_objects()),
            "active_count": engine.active_count,
            "arena_used_rows": arena.used_rows,
            "arena_capacity": arena.capacity,
            "arena_grows": arena.stats.get("grows", 0),
            "arena_compactions": arena.stats.get("compactions", 0),
            "arena_memory_bytes": arena.memory_bytes(),
            "belief_memory_bytes": engine.belief_memory_bytes(),
            **engine.stats,
            **engine.tier_summary(),
        }
        return {key: float(value) for key, value in row.items()}

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-state subsystem, ``repro.state``)
    # ------------------------------------------------------------------
    def snapshot(self, mode: str = "full") -> dict:
        """Capture the shard's mutable state (engine + pipeline).

        ``mode="delta"`` captures only the changes since the previous
        capture (of either mode) — the differential-checkpoint path
        (``repro.state.delta``).  Every capture advances ``capture_serial``
        — first, so a capture that fails half-way still breaks the chain —
        and a delta also records ``parent_capture_serial``.

        Checkpoints are taken at epoch boundaries *after* the runtime drained
        the event buffer; a non-empty buffer means events would be lost, so
        it is an error, not a silent drop.
        """
        if mode not in CHECKPOINT_MODES:
            raise StateError(f"unknown snapshot mode {mode!r}")
        if mode == "delta" and self._capture_serial == 0:
            raise StateError(
                "cannot capture a delta snapshot: no baseline capture exists"
            )
        if self._buffer.events:
            raise StateError(
                f"shard {self.index} has {len(self._buffer.events)} undrained "
                "events; checkpoint only at epoch boundaries after a merge"
            )
        parent = self._capture_serial
        self._capture_serial += 1
        delta = mode == "delta"
        state: dict = {"capture_serial": self._capture_serial}
        if delta:
            state.update(delta=True, parent_capture_serial=parent)
        state["engine"] = self.engine.snapshot_state(delta)
        state["pipeline"] = self.pipeline.snapshot_state(delta)
        return state

    def restore(self, state: dict) -> None:
        """Apply a full (or materialized) capture; the shard continues its
        capture numbering, so a delta can chain onto the restored tree."""
        if state.get("delta"):
            raise StateError(
                "cannot restore from a delta capture directly; materialize "
                "it against its base first (repro.state.delta)"
            )
        self.engine.restore_state(state["engine"])
        self.pipeline.restore_state(state["pipeline"])
        self._capture_serial = int(state.get("capture_serial", 0))
