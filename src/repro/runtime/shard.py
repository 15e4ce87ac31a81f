"""One filter shard: an independent engine + cleaning pipeline + buffer.

A shard is the unit of horizontal scale: it owns a partition of the object
tags and runs the full single-engine stack over them — its own particle
filter (own arena, own RNG stream), its own
:class:`~repro.inference.pipeline.CleaningPipeline` with its own visit
bookkeeping.  Nothing is shared between shards except the read-only world
model, which is why the runtime can step them in any order or concurrently.

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

from ..config import OutputPolicyConfig
from ..errors import StateError
from ..inference.pipeline import CleaningPipeline, InferenceEngine, engine_counters
from ..streams.records import Epoch, LocationEvent
from ..streams.sinks import CollectingSink


class FilterShard:
    """One partition's engine, pipeline, and drainable event buffer."""

    def __init__(
        self,
        index: int,
        engine: InferenceEngine,
        policy: OutputPolicyConfig = OutputPolicyConfig(),
    ):
        self.index = index
        self.engine = engine
        self._buffer = CollectingSink()
        self.pipeline = CleaningPipeline(engine, policy, self._buffer)
        self._snapshot: Optional[Dict[str, dict]] = None

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

    def collect_snapshot(self) -> Dict[str, dict]:
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
        """Per-shard diagnostics for the harness and benchmarks.

        Arena fields appear only for engines that expose an arena (the
        factored filter); every engine counter rides along
        (:func:`~repro.inference.pipeline.engine_counters`).
        """
        engine = self.engine
        row: Dict[str, float] = {
            "shard": float(self.index),
            "objects": float(len(engine.known_objects())),
        }
        active = getattr(engine, "active_count", None)
        if active is not None:
            row["active_count"] = float(active)
        arena = getattr(engine, "arena", None)
        if arena is not None:
            row["arena_used_rows"] = float(arena.used_rows)
            row["arena_capacity"] = float(arena.capacity)
            row["arena_grows"] = float(arena.stats.get("grows", 0))
            row["arena_compactions"] = float(arena.stats.get("compactions", 0))
            row["arena_memory_bytes"] = float(arena.memory_bytes())
        memory = getattr(engine, "belief_memory_bytes", None)
        if callable(memory):
            row["belief_memory_bytes"] = float(memory())
        row.update(engine_counters(engine))
        return row

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-state subsystem, ``repro.state``)
    # ------------------------------------------------------------------
    def snapshot(self, mode: str = "full") -> Dict[str, dict]:
        """Capture the shard's mutable state (engine + pipeline).

        ``mode="delta"`` captures only the changes since the previous
        capture — the differential-checkpoint path (``repro.state``); it
        requires an engine whose ``snapshot_state`` accepts a mode.

        Checkpoints are taken at epoch boundaries *after* the runtime drained
        the event buffer; a non-empty buffer means events would be lost, so
        it is an error, not a silent drop.
        """
        capture = getattr(self.engine, "snapshot_state", None)
        if not callable(capture):
            raise StateError(
                f"engine {type(self.engine).__name__} does not support "
                "state capture (no snapshot_state method)"
            )
        if self._buffer.events:
            raise StateError(
                f"shard {self.index} has {len(self._buffer.events)} undrained "
                "events; checkpoint only at epoch boundaries after a merge"
            )
        if mode == "full":
            engine_state = capture()
        else:
            try:
                engine_state = capture(mode=mode)
            except TypeError:
                raise StateError(
                    f"engine {type(self.engine).__name__} does not support "
                    f"{mode!r} state capture"
                ) from None
        return {
            "engine": engine_state,
            "pipeline": self.pipeline.snapshot_state(mode=mode),
        }

    def restore(self, state: Dict[str, dict]) -> None:
        apply = getattr(self.engine, "restore_state", None)
        if not callable(apply):
            raise StateError(
                f"engine {type(self.engine).__name__} does not support "
                "state restore (no restore_state method)"
            )
        apply(state["engine"])
        self.pipeline.restore_state(state["pipeline"])
