"""The long-lived ingest service: sockets in, exactly-once emissions out.

:class:`ReproService` strings the serve-layer pieces into one asyncio
process around the synchronous inference stack::

    clients ──> framing ──> watermark ──> ShardedRuntime ──> queries ──> sink
              (protocol)   (+ ingest           │                          │
                            credit gates)      └── periodic checkpoints ──┘
                                                   (manifest extras carry
                                                    ingest + sink offsets)

Everything runs on the event loop thread.  Socket readers buffer frames into
the :class:`~repro.serve.watermark.WatermarkAligner` and wake the *pump*
task; the pump pulls watermark-complete epochs and drives each one
through **step → flush the log (fsync under ``fsync``) → deliver →
periodic checkpoint** (``runtime.checkpoint_if_due()``).  An epoch never
interleaves with another, so each checkpoint is a coordinated cut of the
entire pipeline — shard state, query-operator state, consumed source
sequence numbers, and delivery-sink offsets all describe the same epoch —
and it is written only after the epoch's lines are on disk and delivered:
durability work stays off the emission path.

Crash contract (``kill -9`` at any point):

* every data frame is either below a source's checkpointed sequence number
  (the client is told to skip it on reconnect) or above it (the client
  resends it and the aligner routes it into a post-checkpoint epoch);
* every emission offset is either below the checkpointed ``next_offset``
  (already durable in the emission log) or regenerated deterministically by
  the resumed run, where the delivery sink verifies replayed prefixes
  against the log instead of re-appending — the final log is byte-identical
  to an uninterrupted run's.

Signal contract: SIGTERM/SIGINT request a *drain* — handled on the event
loop (never inside a step): finish the epochs already released by the
watermark, write a final coordinated checkpoint, flush and close the sink,
abort the runtime without flushing the pending tick (that tick belongs to
the resumed run), and exit 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time as _time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..config import (
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    ServeConfig,
)
from ..errors import ReproError, ServeError, StateError
from ..faults import fault_point
from ..query import (
    MultiplexedQueryEngine,
    location_update_query,
    standing_region_queries,
)
from ..runtime import QueryBridge, ShardedRuntime
from ..state import apply_query_states, latest_checkpoint, restore_runtime
from . import protocol
from .ingest import IngestController
from .protocol import Frame, FrameDecoder
from .sink import DeliverySink
from .watermark import WatermarkAligner

#: Default floor bounds for ``--standing-queries`` fan-out.  A service sees
#: no trace up front, so the tiling is fixed — and it must be: the resumed
#: run has to register byte-identical queries for operator-state restore.
STANDING_BOUNDS = ((0.0, 0.0), (50.0, 50.0))

_READ_CHUNK = 1 << 16
#: Recent appended (offset, line) pairs kept in memory so subscriber
#: delivery avoids re-reading the log file; laggards fall back to replay().
_TAIL_KEEP = 4096


def _json_scalar(value: Any) -> Any:
    """Coerce a tuple field to something JSON-stable: the one emission-row
    encoder (``repro query --emissions`` writes its rows with it too)."""
    try:
        return json.dumps(value) and value
    except TypeError:
        return float(value) if hasattr(value, "__float__") else str(value)


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


class _Subscriber:
    __slots__ = ("writer", "sent")

    def __init__(self, writer: asyncio.StreamWriter, sent: int):
        self.writer = writer
        #: Highest emission offset written to this subscriber.
        self.sent = sent


class ReproService:
    """One ingest service instance: build, ``asyncio.run(service.run())``.

    Parameters
    ----------
    model:
        The world model every shard inverts.  Derive it deterministically
        (e.g. ``repro.cli._default_model`` over the calibration trace) — a
        resumed service must rebuild the byte-identical model.
    inference / runtime / policy / serve:
        The config quartet.  ``runtime.checkpoint_dir`` +
        ``checkpoint_every_s`` arm periodic mid-stream checkpoints;
        ``serve`` holds the protocol/backpressure knobs.
    socket_path:
        Unix socket to listen on (removed and re-bound at start).
    emissions_path:
        The durable emission log (created, or recovered on restart).
    standing_queries:
        Fan out N standing region-watch queries over the fixed
        :data:`STANDING_BOUNDS` tiling in addition to ``location_updates``.
    resume:
        Resume from ``runtime.checkpoint_dir``'s LATEST checkpoint when one
        exists (fresh start otherwise).
    exit_on_end:
        Stop once every source has sent ``SOURCE_END`` and the final flush
        is delivered (the CI smoke path).  Long-lived deployments may keep
        serving stats; the drain signal still stops the service.
    """

    def __init__(
        self,
        model,
        inference: InferenceConfig = InferenceConfig(),
        runtime: RuntimeConfig = RuntimeConfig(),
        policy: OutputPolicyConfig = OutputPolicyConfig(),
        serve: ServeConfig = ServeConfig(),
        socket_path: str = "repro.sock",
        emissions_path: str = "emissions.jsonl",
        standing_queries: int = 0,
        resume: bool = False,
        exit_on_end: bool = True,
    ):
        self.model = model
        self.inference = inference
        self.runtime_config = runtime
        self.policy = policy
        self.serve = serve
        self.socket_path = socket_path
        self.emissions_path = emissions_path
        self.standing_queries = int(standing_queries)
        self.resume = bool(resume)
        self.exit_on_end = bool(exit_on_end)

        self.runtime: Optional[ShardedRuntime] = None
        self.engine: Optional[MultiplexedQueryEngine] = None
        self.aligner: Optional[WatermarkAligner] = None
        self.ingest = IngestController(serve)
        self.sink: Optional[DeliverySink] = None
        self.resumed_from: Optional[str] = None

        self._wake = asyncio.Event()
        self._drain_requested = False
        self._stream_done = False
        self._suppress_emissions = False
        self._stopped = asyncio.Event()
        self._source_writers: Dict[str, asyncio.StreamWriter] = {}
        self._subscribers: Set[_Subscriber] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._tail: Deque[Tuple[int, bytes]] = deque(maxlen=_TAIL_KEEP)
        self._extras_snapshot: Dict[str, Any] = {}
        self._latencies: Deque[float] = deque(maxlen=4096)
        self._epochs_this_run = 0
        #: True while a supervised step runs off-loop in a worker thread;
        #: guards the worker link from concurrent stats() traffic.
        self._step_running = False
        #: Offsets emitted during an epoch whose step recovered a shard —
        #: their EMIT frames carry the degraded flag until acked.
        self._degraded_offsets: Set[int] = set()
        #: Pending live re-shard target (applied by the pump at the next
        #: epoch boundary) and the last failed attempt's message.
        self._reshard_requested: Optional[int] = None
        self._reshard_error: Optional[str] = None
        self._shard_stats_cache: List[Dict[str, float]] = []
        self._t0 = _time.perf_counter()
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Construction / resume
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Build (or restore) the runtime, queries, sink, and aligner."""
        manifest = None
        checkpoint = None
        if self.resume and self.runtime_config.checkpoint_dir is not None:
            checkpoint = latest_checkpoint(self.runtime_config.checkpoint_dir)
        if checkpoint is not None:
            self.runtime, manifest = restore_runtime(
                checkpoint, self.model, runtime_config=self.runtime_config
            )
            self.resumed_from = checkpoint
        else:
            self.runtime = ShardedRuntime(
                self.model, self.inference, self.runtime_config, self.policy
            )
        self.engine = MultiplexedQueryEngine()
        self._register_queries()
        QueryBridge(self.engine, self.runtime.bus, runtime=self.runtime, name="serve")
        if manifest is not None:
            apply_query_states(self.runtime, manifest)

        extras = (manifest.extras.get("serve", {}) if manifest is not None else {})
        sink_extras = extras.get("sink", {})
        self.sink = DeliverySink(self.emissions_path, fsync=self.serve.fsync)
        # A fresh (or checkpoint-less) start replays from offset 0: whatever
        # an earlier crashed run logged is verified, not re-appended.
        self.sink.prime(
            int(sink_extras.get("next_offset", 0)),
            int(sink_extras.get("acked_offset", -1)),
        )
        self.sink.on_deliver = self._on_deliver
        self.aligner = WatermarkAligner(
            epoch_length=self.serve.epoch_length,
            origin=extras.get("origin"),
            start_epoch_index=int(extras.get("next_epoch_index", 0)),
            resume_seqs=extras.get("source_seqs"),
            emit_empty=True,
        )
        self._extras_snapshot = {
            "origin": extras.get("origin"),
            "next_epoch_index": int(extras.get("next_epoch_index", 0)),
            "source_seqs": dict(extras.get("source_seqs", {})),
        }
        self.runtime.manifest_extras = self._manifest_extras

    def _register_queries(self) -> None:
        queries = [location_update_query()]
        if self.standing_queries:
            queries.extend(
                standing_region_queries(self.standing_queries, STANDING_BOUNDS)
            )
        for query in queries:
            self.engine.register(
                query,
                callback=lambda tup, name=query.name: self._emit_tuple(name, tup),
            )

    def _manifest_extras(self) -> dict:
        """Captured by ``save_checkpoint`` right after the epoch being
        persisted — the pump refreshed the snapshot for exactly this epoch,
        and the sink offsets include the epoch's emissions, already flushed
        and delivered (``acked_offset`` may include acks that arrived during
        delivery; ``prime`` takes the max)."""
        return {
            "serve": {
                **self._extras_snapshot,
                "sink": {
                    "next_offset": self.sink.next_offset,
                    "acked_offset": self.sink.acked_offset,
                },
            }
        }

    # ------------------------------------------------------------------
    # Emission path
    # ------------------------------------------------------------------
    def _emit_tuple(self, query_name: str, tup) -> None:
        if self._suppress_emissions:
            # Drain-time abort flushes the engine's pending tick; those
            # emissions belong to the resumed run (its checkpointed engine
            # state still holds the tick) — logging them here would double
            # them after resume.
            return
        row = {k: _json_scalar(v) for k, v in sorted(tup.items())}
        self.sink.emit({"query": query_name, "time": tup.time, "row": row})

    def _on_deliver(self, offset: int, line: bytes) -> None:
        self._tail.append((offset, line))

    async def _deliver(self) -> None:
        """Push newly appended log lines to every subscriber.

        The per-subscriber ``drain()`` is the slow-consumer backpressure
        seam: a stalled subscriber stalls the pump, the aligner's buffers
        fill, and the ingest controller pauses the sources.
        """
        top = self.sink.logged - 1
        for sub in list(self._subscribers):
            if sub.sent >= top:
                continue
            try:
                start = sub.sent + 1
                if self._tail and self._tail[0][0] <= start:
                    lines = [(o, line) for o, line in self._tail if o >= start]
                else:  # subscriber is behind the in-memory tail
                    lines = self.sink.replay(sub.sent)
                for offset, line in lines:
                    sub.writer.write(
                        protocol.encode_emit(
                            offset, line, degraded=offset in self._degraded_offsets
                        )
                    )
                    sub.sent = offset
                await sub.writer.drain()
            except (ConnectionError, RuntimeError):
                self._subscribers.discard(sub)

    async def _call(self, fn, *args, off_loop: bool = False):
        """Run one runtime call; supervised (or ``off_loop``), in a thread.

        A supervised step or checkpoint can stall for seconds of shard
        recovery, a re-shard always does: the loop keeps taking frames and
        answering STATS (kept off the worker link by ``_step_running``)
        while the pump awaits the call, so epochs never interleave."""
        if not off_loop and self.runtime.supervisor is None:
            return fn(*args)
        self._step_running = True
        try:
            return await asyncio.to_thread(fn, *args)
        finally:
            self._step_running = False

    async def _step(self, epoch) -> None:
        supervisor = self.runtime.supervisor
        logged_before = self.sink.logged
        degraded_before = 0 if supervisor is None else supervisor.degraded_epochs
        await self._call(self.runtime.step, epoch)
        if supervisor is not None and supervisor.degraded_epochs > degraded_before:
            # The epoch's emissions were computed through a restored shard:
            # the line bytes are still exact (replay is deterministic), but
            # subscribers see the freshness flag until they ack past it.
            self.engine.note_degraded()
            self._degraded_offsets.update(range(logged_before, self.sink.logged))

    async def _maybe_reshard(self) -> None:
        """Apply a queued live re-shard at an epoch boundary, off the loop.

        Ingest keeps flowing the whole time: sources keep buffering into
        the aligner, only the epoch pump waits.  A failed attempt leaves the
        runtime serving at the old layout (the runtime rolls back
        internally) and surfaces the error in stats.
        """
        n = self._reshard_requested
        if n is None or self._stream_done:
            return
        self._reshard_requested = None
        try:
            await self._call(self.runtime.reshard, n, off_loop=True)
            self._reshard_error = None
        except ReproError as exc:
            self._reshard_error = str(exc)

    # ------------------------------------------------------------------
    # The pump: watermark-released epochs -> runtime -> sink -> credits
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._drain_requested:
                await self._do_drain()
                return
            await self._maybe_reshard()
            for aligned in self.aligner.poll():
                self._extras_snapshot = {
                    "origin": self.aligner.origin,
                    "next_epoch_index": aligned.index + 1,
                    "source_seqs": dict(aligned.source_seqs),
                }
                await self._step(aligned.epoch)
                self._epochs_this_run += 1
                self.sink.flush()
                await self._deliver()
                self._latencies.append(_time.perf_counter() - aligned.stamp)
                # Only now are the offsets a checkpoint records on disk.
                await self._call(self.runtime.checkpoint_if_due)
                self._grant_credits()
                self._update_pause()
                if self._drain_requested:
                    break
                await self._maybe_reshard()
            self._grant_credits()
            self._update_pause()
            self._release_pause_if_drained()
            if self._drain_requested:
                await self._do_drain()
                return
            if self.aligner.finished and not self._stream_done:
                await self._finish_stream()
                if self.exit_on_end:
                    self._shutdown()
                    return

    def _grant_credits(self) -> None:
        for name, consumed in self.aligner.take_consumed().items():
            grant = self.ingest.on_consumed(name, consumed)
            if grant:
                self._send_to_source(name, protocol.encode_credit(grant))

    def _update_pause(self) -> None:
        change = self.ingest.note_buffered(self.aligner.total_buffered())
        if change is None:
            return
        self._broadcast(protocol.encode_pause() if change else protocol.encode_resume())
        if change is False:
            self._grant_withheld()

    def _broadcast(self, frame: bytes) -> None:
        for writer in self._source_writers.values():
            try:
                writer.write(frame)
            except (ConnectionError, RuntimeError):
                continue

    def _release_pause_if_drained(self) -> None:
        """End of a pump pass: if nothing releasable remains, a standing
        pause can never clear on its own — the watermark needs new frames
        to advance, which the pause forbids.  Resume the sources and hand
        out any credit the pause withheld; the high-water brake re-arms on
        the next burst.  While releasable work *does* remain (frames can
        arrive during the pass's awaits), the pause stands so the backlog
        keeps draining toward ``pause_low_water``."""
        if self.aligner.has_releasable():
            return
        if not self.ingest.force_resume():
            return
        self._broadcast(protocol.encode_resume())
        self._grant_withheld()

    def _grant_withheld(self) -> None:
        """Offer every connected source its accumulated refill.

        Consumption during a pause (and grant batching) leaves refills
        parked in the gates; a resume must push them out, because a client
        at zero credit generates no further events to trigger a grant."""
        for name in list(self._source_writers):
            grant = self.ingest.on_consumed(name, 0)
            if grant:
                self._send_to_source(name, protocol.encode_credit(grant))

    def _send_to_source(self, name: str, frame: bytes) -> None:
        writer = self._source_writers.get(name)
        if writer is None:
            return
        try:
            writer.write(frame)
        except (ConnectionError, RuntimeError):
            self._source_writers.pop(name, None)

    async def _finish_stream(self) -> None:
        """Every source ended: flush the pipeline end-to-end, once.

        ``runtime.finish()`` closes the bus, which flushes the query
        engine's final tick — those emissions are part of the stream on
        both uninterrupted and resumed runs (both end through SOURCE_END),
        so they are logged, unlike the drain path's.
        """
        self._stream_done = True
        self.runtime.finish()
        self.sink.flush()
        await self._deliver()
        self.sink.close()

    async def _do_drain(self) -> None:
        """SIGTERM/SIGINT: persist a final cut and stop without losing
        anything — the resumed run continues exactly here."""
        if not self._stream_done:
            if self.runtime_config.checkpoint_dir is not None:
                try:
                    self.runtime.write_periodic_checkpoint()
                except StateError:
                    pass  # e.g. nothing processed yet and dir unwritable
            self._suppress_emissions = True
            self.runtime.abort()
        self.sink.close()
        self._shutdown()

    def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, RuntimeError):
                pass
        self._stopped.set()

    def request_drain(self) -> None:
        """Deferred-signal entry point: runs on the event loop, so it never
        lands mid-``step`` — it only flags the pump."""
        self._drain_requested = True
        self._wake.set()

    def request_reshard(self, n_shards: int) -> None:
        """Queue a live shard-layout change (``RESHARD`` frame / embedder
        API).  The pump applies it at the next epoch boundary without
        stopping ingest; progress and failures show up under the stats
        document's ``resharding`` block."""
        n = int(n_shards)
        if n < 1:
            raise ServeError(f"cannot re-shard to {n} shards")
        self._reshard_requested = n
        self._wake.set()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder(self.serve.max_frame_bytes)
        state: Dict[str, Any] = {"role": None, "name": None, "sub": None}
        self._writers.add(writer)
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                for frame in decoder.feed_frames(chunk):
                    await self._dispatch(frame, state, writer)
        except ReproError as exc:
            # Not just ServeError: client input also reaches StreamError
            # (backwards-in-time record) and StateError (ack beyond the
            # log); every library fault earns an ERROR frame, not an
            # unhandled task exception.
            try:
                writer.write(protocol.encode_error(str(exc)))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            name = state["name"]
            if name is not None and self._source_writers.get(name) is writer:
                # The aligner keeps the source registered: a disconnect
                # without SOURCE_END holds the watermark until the client
                # reconnects and resends — the exactly-once choice.
                del self._source_writers[name]
            if state["sub"] is not None:
                self._subscribers.discard(state["sub"])
            self._writers.discard(writer)
            try:
                writer.close()
            except (ConnectionError, RuntimeError):
                pass

    async def _dispatch(
        self, frame: Frame, state: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        fault_point("serve.frame")
        kind = frame.kind
        if kind == protocol.HELLO:
            await self._handle_hello(frame.data, state, writer)
            return
        role = state["role"]
        if kind in (protocol.READING, protocol.REPORT):
            if role != "source":
                raise ServeError(f"{frame.name} frame outside a source session")
            name = state["name"]
            buffered = self.aligner.push(name, frame.seq, frame.data)
            self.ingest.on_frame(name, buffered)
            if buffered:
                self._wake.set()
                self._update_pause()
            # A buffered frame may have spent the client's last credit while
            # a refill sat parked (batched, or withheld by a past pause), and
            # a starved client emits no further events: offer now.  A deduped
            # frame's spent credit returns the same way, so the client's
            # window view stays in lockstep with the gate's.
            grant = self.ingest.on_consumed(name, 0)
            if grant:
                writer.write(protocol.encode_credit(grant))
            return
        if kind == protocol.SOURCE_END:
            if role != "source":
                raise ServeError("SOURCE_END outside a source session")
            name = state["name"]
            self.aligner.end_source(name)
            self.ingest.retire(name)
            # Leave the broadcast set BEFORE signing off: the client may
            # close as soon as END_ACK lands, and a later PAUSE/CREDIT
            # write into its closed socket would poison this connection's
            # reader, discarding any frames still buffered unread.
            if self._source_writers.get(name) is writer:
                del self._source_writers[name]
            writer.write(protocol.encode_end_ack())
            self._wake.set()
            return
        if kind == protocol.ACK:
            if role != "subscribe":
                raise ServeError("ACK outside a subscriber session")
            self.sink.ack(frame.data)
            if self._degraded_offsets:
                acked = int(frame.data)
                self._degraded_offsets = {
                    o for o in self._degraded_offsets if o > acked
                }
            return
        if kind == protocol.STATS:
            writer.write(protocol.encode_stats_reply(self.stats()))
            await writer.drain()
            return
        if kind == protocol.RESHARD:
            if role != "stats":
                raise ServeError("RESHARD outside a control (stats) session")
            self.request_reshard(int(frame.data.get("n_shards", 0)))
            writer.write(
                protocol.encode_reshard_ack(int(frame.data["n_shards"]))
            )
            await writer.drain()
            return
        if kind == protocol.ERROR:
            return  # a client reporting its own demise; nothing to do
        raise ServeError(f"unexpected {frame.name} frame from a client")

    async def _handle_hello(
        self, doc: Dict[str, Any], state: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        if state["role"] is not None:
            raise ServeError("second HELLO on one connection")
        role = doc.get("role")
        if role == "source":
            name = doc.get("source")
            if not name or not isinstance(name, str):
                raise ServeError("source HELLO needs a source name")
            resume_seq = self.aligner.register(name)
            try:
                credit = self.ingest.admit(name)
            except ServeError:
                # Roll the registration back: a rejected source must not
                # stay in the aligner, where its -inf frontier would pin
                # the low watermark and stall every admitted stream.
                self.aligner.unregister(name)
                raise
            state["role"] = "source"
            state["name"] = name
            self._source_writers[name] = writer
            writer.write(
                protocol.encode_hello_ack(
                    resume_seq=resume_seq,
                    credit=credit,
                    paused=self.ingest.paused,
                    epoch_length=self.serve.epoch_length,
                )
            )
            await writer.drain()
            return
        if role == "subscribe":
            from_offset = int(doc.get("from_offset", 0))
            sub = _Subscriber(writer, sent=from_offset - 1)
            state["role"] = "subscribe"
            state["sub"] = sub
            self._subscribers.add(sub)
            writer.write(
                protocol.encode_hello_ack(next_offset=self.sink.next_offset)
            )
            await writer.drain()
            await self._deliver()
            return
        if role == "stats":
            state["role"] = "stats"
            writer.write(protocol.encode_hello_ack())
            await writer.drain()
            return
        raise ServeError(f"unknown HELLO role {role!r}")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``/metrics``-style snapshot served over STATS frames."""
        uptime = max(_time.perf_counter() - self._t0, 1e-9)
        latencies = sorted(self._latencies)
        if not self._step_running:
            # Never interleave stats traffic with a step's link protocol;
            # mid-step (or mid-recovery) requests serve the stale rows.
            try:
                self._shard_stats_cache = self.runtime.shard_stats()
            except ReproError:
                pass
        shard_rows = self._shard_stats_cache
        shard_totals = self.runtime.shard_totals(shard_rows)
        last_ck = self.runtime.last_checkpoint_epoch
        ck_wall = self.runtime.last_checkpoint_walltime
        return {
            "uptime_s": uptime,
            "epochs_processed": self.runtime.epochs_processed,
            "epochs_per_s": self._epochs_this_run / uptime,
            "frame_to_emission_p50_s": _percentile(latencies, 0.50),
            "frame_to_emission_p99_s": _percentile(latencies, 0.99),
            "aligner": self.aligner.stats(),
            "ingest": self.ingest.stats(),
            "sink": self.sink.stats(),
            "multiplexer": self.engine.stats(),
            "checkpoint": {
                "last_epoch": last_ck,
                "lag_epochs": (
                    self.runtime.epochs_processed - last_ck
                    if last_ck is not None
                    else self.runtime.epochs_processed
                ),
                "lag_s": (
                    _time.monotonic() - ck_wall if ck_wall is not None else None
                ),
            },
            "shards": {"count": len(shard_rows), **shard_totals},
            "arena_bytes": shard_totals.get("arena_memory_bytes", 0.0),
            "resharding": {
                "n_shards": self.runtime.n_shards,
                "reshards_total": self.runtime.reshards_total,
                "last_reshard_ms": self.runtime.last_reshard_ms,
                "migrated_objects_total": self.runtime.migrated_objects_total,
                "pending": self._reshard_requested,
                "last_error": self._reshard_error,
            },
            "supervisor": self.runtime.supervisor_stats(),
            "degraded_offsets_pending": len(self._degraded_offsets),
            "resumed_from": self.resumed_from,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def run_async(self, ready: Optional[asyncio.Event] = None) -> int:
        """Serve until end-of-stream (``exit_on_end``) or a drain signal."""
        if self.runtime is None:
            self.build()
        if os.path.exists(self.socket_path):
            # A dead instance's stale socket would fail the bind — but an
            # unconditional unlink would silently steal a *live* instance's
            # clients.  Probe first: only a refused connect proves the
            # listener is gone and the path safe to reclaim.
            try:
                _, probe = await asyncio.open_unix_connection(self.socket_path)
            except (ConnectionRefusedError, FileNotFoundError):
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
            else:
                probe.close()
                raise ServeError(
                    f"another service is already listening on "
                    f"{self.socket_path}"
                )
        loop = asyncio.get_running_loop()
        installed: List[int] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix loop or nested loop: signals stay default
        self._server = await asyncio.start_unix_server(
            self._handle_conn, path=self.socket_path
        )
        if ready is not None:
            ready.set()
        pump = asyncio.create_task(self._pump())
        try:
            await pump
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            self._shutdown()
            self._server.close()
            await self._server.wait_closed()
        return 0

    def run(self) -> int:
        return asyncio.run(self.run_async())
