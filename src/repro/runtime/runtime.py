"""The sharded streaming runtime: epochs in, a merged event bus out.

:class:`ShardedRuntime` scales the paper's single-engine pipeline
horizontally.  The object-tag population is hash-partitioned across N
independent :class:`~repro.runtime.shard.FilterShard`s — each one a complete
particle filter + belief arena + cleaning pipeline with its own RNG stream
derived deterministically from the root seed.  Per epoch the runtime:

1. **routes** — splits the epoch's object-tag reads by shard ownership
   while broadcasting the reader pose and shelf-tag reads to every shard
   (:class:`~repro.runtime.router.EpochRouter`);
2. **steps** — sends every shard its sub-epoch, then collects every
   shard's events.  A shard is an in-process
   :class:`~repro.runtime.shard.FilterShard` (the serial executor: each
   request runs at once) or a :class:`~repro.runtime.workers.ShardWorkerProxy`
   for a persistent worker *process* (local or behind ``repro
   shard-host``; all workers step concurrently, belief state stays in
   each worker's private arena).  Both speak one split-phase surface, so
   the executor is read once, where shards (and the supervisor) are built;
3. **merges** — streams every shard's emitted events onto the
   :class:`~repro.runtime.bus.EventBus` via a ``(time, tag)``-keyed k-way
   merge of the per-shard (already time-ordered) event lists.

Factorization makes this exact, not approximate: the paper's Eq. 5 already
treats object beliefs as conditionally independent given the reader belief,
so partitioning objects across filters only *duplicates the reader belief*
per shard (each shard tracks the reader from the same broadcast evidence)
instead of sharing one copy — the per-object posteriors are unchanged.
"Distributed Inference and Query Processing for RFID Tracking and
Monitoring" (Cao et al.) builds its cluster runtime on the same observation.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional

from ..config import InferenceConfig, OutputPolicyConfig, RuntimeConfig
from ..errors import InferenceError, StateError, WorkerError
from ..faults import fault_point
from ..inference.estimates import LocationEstimate
from ..models.joint import RFIDWorldModel
from ..streams.records import Epoch, LocationEvent
from ..streams.sinks import CollectingSink, EventSink
from .bus import EventBus
from .partition import shard_seed
from .router import EpochRouter
from .shard import FilterShard
from .workers import ShardWorkerProxy


class ShardedRuntime:
    """Partitioned inference over one epoch stream, merged onto a bus.

    Parameters
    ----------
    model:
        The shared (read-only) world model every shard inverts.
    config:
        Per-shard inference knobs; ``config.seed`` is the *root* seed from
        which each shard's independent seed is derived.
    runtime:
        Shard count and executor.
    policy:
        Output policy applied by every shard's cleaning pipeline.
    sink:
        Convenience subscriber for the merged stream (default: a
        :class:`CollectingSink`); ``run()`` returns it.  Additional
        consumers subscribe to :attr:`bus` directly.
    bus:
        Bring-your-own bus (e.g. one that query bridges already subscribed
        to); a fresh one is created by default.
    initial_heading:
        Prior reader heading of every shard's filter.
    """

    def __init__(
        self,
        model: RFIDWorldModel,
        config: InferenceConfig = InferenceConfig(),
        runtime: RuntimeConfig = RuntimeConfig(),
        policy: OutputPolicyConfig = OutputPolicyConfig(),
        sink: Optional[EventSink] = None,
        bus: Optional[EventBus] = None,
        initial_heading: float = 0.0,
    ):
        self.model = model
        self.config = config
        self.runtime_config = runtime
        self.policy = policy
        self.initial_heading = float(initial_heading)
        self.router = EpochRouter(runtime.n_shards)
        self.bus = bus if bus is not None else EventBus()
        self.sink: EventSink = sink if sink is not None else CollectingSink()
        self.bus.subscribe_sink(self.sink)
        self.shards: List = []
        try:
            for index in range(runtime.n_shards):
                self.shards.append(self._new_shard(index))
        except BaseException:
            for shard in self.shards:
                shard.close(force=True)
            raise
        #: Self-healing layer (``repro.runtime.supervisor``): present only
        #: when RuntimeConfig.supervisor is set AND the shards are workers
        #: — in-process shards cannot crash independently.
        self._supervisor = None
        if runtime.supervisor is not None and runtime.executor != "serial":
            from .supervisor import ShardSupervisor  # deferred: no cycle

            self._supervisor = ShardSupervisor(self, runtime.supervisor)
        self._finished = False
        #: Epochs processed — also the stream offset recorded in checkpoints
        #: (resume seeks the epoch source to this index).
        self.epochs_processed = 0
        #: Stream timestamps of the last periodic checkpoint (armed at the
        #: first epoch) and of the epoch whose one is due but not yet written.
        self._last_checkpoint_time: Optional[float] = None
        self._checkpoint_due: Optional[float] = None
        #: Delta-chain bookkeeping for periodic checkpoints: the in-memory
        #: :class:`~repro.state.ChainHead` of every periodic checkpoint this
        #: runtime wrote and rotation has not deleted, by file name — what
        #: the next delta and the rotation need, without re-reading files —
        #: and the newest of them (the next delta's parent).  ``None`` forces
        #: the next periodic checkpoint to be a full rebase — the state at
        #: construction or restore has no persisted parent.
        self._chain_heads: Dict[str, object] = {}
        self._chain_head = None
        #: Query engines serving this runtime's output stream, by name.
        #: Attached engines join every checkpoint (full and delta) so a
        #: restored server resumes standing-query answers exactly.
        self.query_engines: Dict[str, object] = {}
        #: Optional zero-argument callable returning a JSON-serializable
        #: dict; when set, :func:`repro.state.save_checkpoint` records its
        #: return value under ``manifest["extras"]`` in the same coordinated
        #: cut as the shard state.  The ingest service uses this to persist
        #: its exactly-once offsets (consumed source sequence numbers, sink
        #: delivery offsets) alongside every checkpoint.
        self.manifest_extras: Optional[Callable[[], dict]] = None
        #: ``epochs_processed`` at the last periodic checkpoint (None before
        #: the first) — lets a serving layer report checkpoint lag.
        self.last_checkpoint_epoch: Optional[int] = None
        #: ``time.monotonic()`` at the last periodic checkpoint (None before
        #: the first) — the serve STATS ``checkpoint_lag_s`` gauge.
        self.last_checkpoint_walltime: Optional[float] = None
        #: Re-entrancy latch for abort(): a second abort arriving while the
        #: first is mid-teardown (e.g. a repeated signal) becomes a no-op
        #: instead of double-closing executors or the bus.
        self._aborting = False
        #: Live-migration counters (:meth:`reshard`), surfaced in the serve
        #: STATS document's ``resharding`` block.
        self.reshards_total = 0
        self.last_reshard_ms: Optional[float] = None
        self.migrated_objects_total = 0

    def _new_shard(self, index: int):
        """Build shard ``index`` of the current layout from the
        construction-time recipe — at construction, on a live reshard, and
        when the supervisor respawns a dead or hung worker.

        Determinism lives in the re-seeded config, so every executor's
        shard is byte-identical to the serial one, and a respawned worker
        restored from a checkpoint to the one it replaces.
        ``executor="serial"`` builds an in-process :class:`FilterShard`;
        ``"process"`` forks a local worker; ``"remote"`` connects to
        ``shard_hosts[index % len]`` (a reconnect boots a fresh worker
        there, so a remote respawn heals exactly like a local one).
        """
        config = replace(
            self.config,
            seed=shard_seed(self.config.seed, index, self.runtime_config.n_shards),
        )
        executor = self.runtime_config.executor
        if executor == "serial":
            return FilterShard(
                index, self.model, config, self.policy, self.initial_heading
            )
        supervisor = self.runtime_config.supervisor
        timing = (
            {}
            if supervisor is None
            else dict(
                op_timeout_s=supervisor.op_timeout_s,
                heartbeat_interval_s=supervisor.heartbeat_interval_s,
                heartbeat_grace_s=supervisor.heartbeat_grace_s,
            )
        )
        hosts = self.runtime_config.shard_hosts
        return ShardWorkerProxy(
            index,
            self.model,
            config,
            self.policy,
            endpoint=hosts[index % len(hosts)] if executor == "remote" else None,
            initial_heading=self.initial_heading,
            **timing,
        )

    @property
    def supervisor(self):
        """The shard supervisor, or None (unsupervised / non-process)."""
        return self._supervisor

    def supervisor_stats(self) -> Optional[Dict[str, object]]:
        """Recovery counters for serving layers (None when unsupervised)."""
        return None if self._supervisor is None else self._supervisor.stats()

    def attach_query_engine(self, name: str, engine) -> None:
        """Register a query engine for coordinated checkpointing.

        The engine must expose ``snapshot_state``/``restore_state`` (both
        :class:`~repro.query.engine.QueryEngine` and
        :class:`~repro.query.multiplexer.MultiplexedQueryEngine` do).
        Checkpoints taken by this runtime then include the engine's operator
        state under ``name``; on restore, rebuild the same queries and apply
        ``manifest.query_states[name]``.
        """
        if name in self.query_engines:
            raise StateError(f"query engine {name!r} already attached")
        if not hasattr(engine, "snapshot_state"):
            raise StateError(
                f"query engine {name!r} does not support state capture"
            )
        self.query_engines[name] = engine

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def known_objects(self) -> List[int]:
        """Sorted union of every shard's known objects."""
        known: set = set()
        for shard in self.shards:
            known.update(shard.known_objects())
        return sorted(known)

    def object_estimate(self, number: int) -> LocationEstimate:
        """Delegate to the shard that owns the tag."""
        shard = self.shards[self.router.shard_of(number)]
        return shard.object_estimate(number)

    def shard_stats(self) -> List[Dict[str, float]]:
        return [shard.stats() for shard in self.shards]

    def shard_totals(
        self, rows: Optional[List[Dict[str, float]]] = None
    ) -> Dict[str, float]:
        """Every per-shard stats key summed across shards (the ``shard``
        index excepted); ``rows`` defaults to a fresh :meth:`shard_stats`."""
        totals: Dict[str, float] = {}
        for row in self.shard_stats() if rows is None else rows:
            for key, value in row.items():
                if key != "shard":
                    totals[key] = totals.get(key, 0.0) + float(value)
        return totals

    # ------------------------------------------------------------------
    def step(self, epoch: Epoch) -> None:
        """Route one epoch to every shard, then merge onto the bus.

        Every shard receives its sub-epoch before any reply is collected,
        so worker shards compute concurrently.  A worker that dies or hangs
        is handed, with its sub-epoch, to the supervisor, whose replayed
        events stand in for the lost reply; unsupervised, the error
        propagates.  Writes no checkpoint; stepping past a periodic one
        this made due without :meth:`checkpoint_if_due` raises
        :class:`StateError`."""
        if self._finished:
            raise InferenceError("runtime already finished")
        if self._checkpoint_due is not None:
            raise StateError("call checkpoint_if_due() after every step()")
        sub_epochs = self.router.split(epoch)
        failed: Dict[int, WorkerError] = {}
        for index, shard in enumerate(self.shards):
            try:
                shard.step_async(sub_epochs[index])
            except WorkerError as exc:
                if self._supervisor is None:
                    raise
                failed[index] = exc
        per_shard: List[List[LocationEvent]] = []
        for index, shard in enumerate(self.shards):
            try:
                per_shard.append([] if index in failed else shard.collect_events())
            except WorkerError as exc:
                if self._supervisor is None:
                    raise
                failed[index] = exc
                per_shard.append([])
        if self._supervisor is not None:
            for index in sorted(failed):
                per_shard[index] = self._supervisor.recover(
                    index, failed[index], sub_epochs[index]
                )
            self._supervisor.record(epoch)
        self.epochs_processed += 1
        self._merge(per_shard)
        every = self.runtime_config.checkpoint_every_s
        if every is not None and self._last_checkpoint_time is None:
            self._last_checkpoint_time = epoch.time
        elif every is not None and epoch.time - self._last_checkpoint_time >= every:
            self._checkpoint_due = epoch.time

    # ------------------------------------------------------------------
    # Durability (``repro.state``)
    # ------------------------------------------------------------------
    def checkpoint(self, path, mode: str = "full", parent=None) -> None:
        """Write a coordinated snapshot of every shard to ``path``.

        All shards have been advanced through the same epoch and drained
        (``step`` merges before returning), so the snapshot is a consistent
        cut of the whole pipeline: arena slabs, RNG streams, reader beliefs,
        visit bookkeeping, and the stream offset.  ``mode="delta"`` writes a
        differential checkpoint chained to ``parent`` (see
        :func:`repro.state.save_checkpoint`); explicit checkpoints default
        to full — the periodic path manages delta chains itself.  Note that
        *any* checkpoint advances the shards' capture baseline, so an
        explicit checkpoint mid-run rebases the periodic delta chain (the
        next periodic checkpoint detects the break and writes a full one).
        """
        from ..state.checkpoint import save_checkpoint  # deferred: no cycle

        if self._finished:
            raise StateError("cannot checkpoint a finished runtime")
        save_checkpoint(self, path, mode=mode, parent=parent)
        if self._supervisor is not None:
            self._supervisor.note_checkpoint(path)

    def checkpoint_if_due(self) -> Optional[str]:
        """The one periodic trigger: write the checkpoint the last ``step()``
        made due, returning its path (else ``None``).  Whoever owns the
        epoch's output calls it after every ``step()`` — ``run()`` at once,
        the ingest service once the emission log is flushed and delivered."""
        due = self._checkpoint_due
        return None if due is None else self.write_periodic_checkpoint(due)

    def write_periodic_checkpoint(self, stream_time: Optional[float] = None) -> str:
        """Write the next ``epoch_<n>`` checkpoint into ``checkpoint_dir`` now.

        The forced flavour of the periodic path — same delta-chain
        bookkeeping, ``LATEST`` pointer, and rotation — exposed so the
        ingest service's SIGTERM drain can persist a final coordinated cut
        regardless of cadence.  Must not be called from a raw (asynchronous)
        signal handler: the service defers signals to the event loop so the
        write never interrupts a ``step()`` mid-epoch.  Returns the
        checkpoint path.
        """
        from ..state.checkpoint import (
            rotate_checkpoints,
            save_checkpoint,
            write_latest_pointer,
        )

        if self._finished:
            raise StateError("cannot checkpoint a finished runtime")
        config = self.runtime_config
        directory = config.checkpoint_dir
        if directory is None:
            raise StateError(
                "periodic checkpointing needs runtime_config.checkpoint_dir"
            )
        name = f"epoch_{self.epochs_processed:08d}"
        target = os.path.join(directory, name)
        if os.path.exists(target):
            # A run resumed from an older periodic checkpoint re-crosses the
            # epochs of a newer one; our own deterministic names are safe to
            # replace (explicit `checkpoint()` targets still refuse).
            os.unlink(target)
            if self._chain_heads.pop(name, None) is self._chain_head:
                self._chain_head = None  # the chain head just vanished
        for attempt in (0, 1):
            head = self._chain_head
            delta = (
                config.checkpoint_mode == "delta"
                and head is not None
                and head.header.get("chain_index", 0) + 1 < config.checkpoint_full_every
                and os.path.isfile(head.path)
            )
            try:
                if delta:
                    try:
                        head = save_checkpoint(self, target, mode="delta", parent=head)
                    except StateError:
                        # The chain no longer holds (an explicit checkpoint
                        # or a direct snapshot advanced the capture baseline,
                        # the parent was tampered with, …).  The capture that
                        # just failed still moved the baseline, so rebase: a
                        # full checkpoint is always valid.
                        delta = False
                if not delta:
                    head = save_checkpoint(self, target)
                break
            except WorkerError as exc:
                # A worker died while shipping its snapshot.  Supervised
                # runtimes recover the shard (respawn + restore + journal
                # replay) and retry the save once — the retry's delta
                # capture fails the chain-serial check and rebases full,
                # so the written checkpoint is always complete.
                if self._supervisor is None or attempt:
                    raise
                self._supervisor.recover_dead_shards(exc)
        self._chain_head = self._chain_heads[name] = head
        # The checkpoint is durable (file fsync, rename, directory fsync);
        # only now move the pointer.
        write_latest_pointer(directory, name)
        fault_point("checkpoint.durable")
        rotate_checkpoints(directory, config.checkpoint_keep, self._chain_heads)
        if stream_time is not None:
            self._last_checkpoint_time = stream_time
            self._checkpoint_due = None
        self.last_checkpoint_epoch = self.epochs_processed
        self.last_checkpoint_walltime = time.monotonic()
        if self._supervisor is not None:
            self._supervisor.note_checkpoint(target)
        return target

    # ------------------------------------------------------------------
    # Live re-sharding
    # ------------------------------------------------------------------
    def reshard(self, n_shards: int) -> None:
        """Migrate to a new shard layout at the current epoch boundary, live.

        Snapshot every running shard (pipelined for worker executors),
        repartition the state trees through the same elastic N→M path a
        stop-the-world restore uses (:func:`repro.state.restore
        .reshard_states` — arena blocks, visit bookkeeping, migrated
        spatial-index regions), build the new shard set, and swap it in.
        The runtime never stops: the caller simply invokes this between
        two ``step`` calls, so from the stream's point of view the layout
        changes between epochs.  Post-migration output is byte-identical
        to checkpointing here and restoring into the new layout.

        Supervised runtimes get a fresh recovery baseline: with a
        ``checkpoint_dir`` configured a full checkpoint is written
        immediately after the swap (pre-reshard checkpoints cannot restore
        the new layout); without one, recovery escalates loudly until the
        next checkpoint lands (see :meth:`ShardSupervisor.note_reshard`).
        """
        from ..state.checkpoint import collect_shard_snapshots  # deferred: no cycle
        from ..state.restore import reshard_states

        if self._finished:
            raise StateError("cannot reshard a finished runtime")
        if n_shards < 1:
            raise StateError("n_shards must be >= 1")
        if n_shards == self.n_shards:
            return
        started = time.monotonic()
        # 1. Coordinated full snapshot of the running shards.
        old_states = collect_shard_snapshots(self.shards, "full")
        # 2. Repartition onto the new layout.
        new_router = EpochRouter(n_shards)
        new_states = reshard_states(
            old_states,
            new_router,
            n_shards,
            self.config.seed,
            self.config.spatial_index.enabled,
            self.epochs_processed,
        )
        migrated = sum(
            1
            for state in old_states
            for number in state["engine"]["beliefs"]["ids"]
            if new_router.shard_of(int(number)) != self.router.shard_of(int(number))
        )
        # 3. Build + restore the new shard set; only then swap and retire
        # the old one (a failure mid-build leaves the runtime untouched).
        old_config, old_router = self.runtime_config, self.router
        old_shards = self.shards
        self.runtime_config = replace(old_config, n_shards=n_shards)
        self.router = new_router
        new_shards: List = []
        try:
            for index in range(n_shards):
                new_shards.append(self._new_shard(index))
            for shard, state in zip(new_shards, new_states):
                shard.restore(state)
        except BaseException:
            for shard in new_shards:
                shard.close(force=True)
            self.runtime_config, self.router = old_config, old_router
            raise
        self.shards = new_shards
        for shard in old_shards:
            shard.close()
        # 4. Bookkeeping: the old delta chain describes the old layout.
        self._chain_head = None
        self.reshards_total += 1
        self.migrated_objects_total += migrated
        self.last_reshard_ms = (time.monotonic() - started) * 1000.0
        if self._supervisor is not None:
            self._supervisor.note_reshard()
        if self.runtime_config.checkpoint_dir is not None:
            self.write_periodic_checkpoint()

    def finish(self) -> None:
        """Flush every shard's pending events and close the bus.

        The runtime stays queryable afterwards: in-process shards outlive
        the run, and a worker proxy caches its answers before it retires."""
        if self._finished:
            return
        for shard in self.shards:
            shard.finish_async()
        per_shard = [shard.collect_events() for shard in self.shards]
        self._merge(per_shard)
        self._finished = True
        self._release_executors()
        self.bus.close()

    def abort(self) -> None:
        """Tear down without flushing shard output.

        Releases the worker processes, if any (stopped gracefully,
        escalating to terminate if unresponsive), and closes the bus (close
        hooks run, so bridged query engines and bus-owned sinks still see
        end-of-stream) but does NOT emit the shards' pending events — the stream failed,
        and publishing a scan-complete flush after an error would present a
        partial epoch as a finished scan.  Idempotent and re-entrant: a
        second call — even one arriving while the first is mid-teardown,
        as a repeated SIGTERM can produce — is a no-op; ``finish()`` after
        ``abort()`` is a no-op.
        """
        if self._finished or self._aborting:
            return
        self._aborting = True
        try:
            self._finished = True
            self._release_executors()
            self.bus.close()
        finally:
            self._aborting = False

    def _release_executors(self) -> None:
        for shard in self.shards:
            shard.close()

    def run(self, epochs: Iterable[Epoch]) -> EventSink:
        """Convenience: process every epoch then finish; returns the sink.

        Each ``step()`` is followed by :meth:`checkpoint_if_due`.  On error
        the runtime is aborted (workers released, bus closed) before the
        exception propagates, so a failed run does not leak worker processes
        or leave subscribers waiting for a close.
        """
        try:
            for epoch in epochs:
                self.step(epoch)
                self.checkpoint_if_due()
            self.finish()
        except BaseException:
            self.abort()
            raise
        return self.sink

    # ------------------------------------------------------------------
    @staticmethod
    def _merge_key(event: LocationEvent):
        return (event.time, event.tag.number)

    def _merge(self, per_shard: List[List[LocationEvent]]) -> None:
        """Publish per-shard event lists as one time-ordered stream.

        Each shard's pipeline emits in nondecreasing time order, so a k-way
        ``heapq.merge`` keyed on ``(time, tag)`` yields a globally
        time-ordered stream without re-sorting the whole drained batch every
        epoch (the previous global ``sort`` was O(total log total) even when
        one shard emitted everything).  The tag tie-break keeps cross-shard
        order at equal timestamps deterministic regardless of shard count or
        executor; when at most one shard emitted there is nothing to
        interleave, so its batch is published as-is.
        """
        emitted = [events for events in per_shard if events]
        if not emitted:
            return
        if len(emitted) == 1:
            self.bus.publish_many(emitted[0])
        else:
            self.bus.publish_many(heapq.merge(*emitted, key=self._merge_key))
