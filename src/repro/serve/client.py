"""Reference clients for the ingest service: replay, tail, stats.

These are the other half of the protocol contract and double as the test
and benchmark drivers:

* :class:`ReplaySource` streams a stored trace's readings and reports into
  the service as one or more sources, honoring credit windows and
  PAUSE/RESUME, resuming from the server's ``resume_seq`` after a crash on
  either side — rerunning the same replay against a restarted service is
  idempotent.
* :class:`EmissionTail` subscribes to the emission log, appends each EMIT
  line to a local file (offset-gap checked), and acknowledges delivery —
  the downstream half of the exactly-once pipeline.
* :func:`fetch_stats` grabs one metrics snapshot.

Every client is a small asyncio object with a sync ``run()`` wrapper, so
CLI verbs and threads can drive them without owning an event loop.

Liveness: no client blocks forever on a dead service.  Connects take a
bounded retry budget with capped exponential backoff and raise the typed
:class:`~repro.errors.ClientConnectError` when it runs out; the tail's
``reconnect`` budget layers a resume loop on top, so ``repro tail``
survives a service bounce — it recomputes its resume offset from the
output file and picks up exactly where the last full line left off.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ClientConnectError, ServeError
from ..faults import fault_point
from ..streams.records import ReaderLocationReport, TagReading
from ..streams.sources import Trace
from . import protocol
from .protocol import Frame, FrameDecoder

Record = Union[TagReading, ReaderLocationReport]

_READ_CHUNK = 1 << 16
#: Connect retry backoff: base * 2**attempt, capped.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0


def _backoff_delay(attempt: int) -> float:
    return min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2.0 ** attempt))


def split_trace(trace: Trace, n_sources: int) -> List[List[Record]]:
    """Partition a trace into ``n_sources`` per-source record streams.

    Readings round-robin across sources in time order; reader-pose reports
    all ride on source 0 (one physical reader).  Each source's stream stays
    internally time-ordered — the aligner's per-source contract — while the
    inter-source interleaving exercises the watermark.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    streams: List[List[Record]] = [[] for _ in range(n_sources)]
    readings = sorted(trace.readings, key=lambda r: r.time)
    for i, reading in enumerate(readings):
        streams[i % n_sources].append(reading)
    reports = sorted(trace.reports, key=lambda r: r.time)
    merged0 = sorted(
        streams[0] + list(reports), key=lambda r: (r.time, isinstance(r, TagReading))
    )
    streams[0] = merged0
    return streams


class _Connection:
    """One framed client connection with a background frame reader."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self._pending: asyncio.Queue = asyncio.Queue()

    async def next_frame(self) -> Optional[Frame]:
        """The next decoded frame, or None at EOF."""
        while self._pending.empty():
            chunk = await self.reader.read(_READ_CHUNK)
            if not chunk:
                return None
            for frame in self.decoder.feed_frames(chunk):
                self._pending.put_nowait(frame)
        return self._pending.get_nowait()

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def _connect(socket_path: str, retries: int = 0) -> _Connection:
    """Open a framed connection, retrying refused/missing sockets.

    ``retries`` extra attempts with capped exponential backoff; exhausting
    them raises :class:`ClientConnectError` (never an indefinite wait).
    """
    attempt = 0
    while True:
        try:
            fault_point("client.connect")
            reader, writer = await asyncio.open_unix_connection(socket_path)
            return _Connection(reader, writer)
        except OSError as exc:  # ConnectionRefused, FileNotFound, EIO, ...
            if attempt >= retries:
                raise ClientConnectError(
                    f"cannot reach the service at {socket_path} after "
                    f"{attempt + 1} attempt(s): {exc}"
                ) from exc
            await asyncio.sleep(_backoff_delay(attempt))
            attempt += 1


class _SourceSession:
    """One source's credit-gated sender."""

    def __init__(
        self,
        socket_path: str,
        name: str,
        records: Sequence[Record],
        connect_retries: int = 0,
    ):
        self.socket_path = socket_path
        self.name = name
        self.records = list(records)
        self.connect_retries = int(connect_retries)
        self.sent = 0
        self.deduped_by_server = 0
        self.pauses_seen = 0

    async def run(
        self, rate: float = 0.0, started: Optional[asyncio.Barrier] = None
    ) -> None:
        try:
            await self._run(rate, started)
        except ConnectionError as exc:
            # A dying server (drain, kill) resets mid-write; surface it the
            # same way as a closed read so callers handle one error type.
            if started is not None:
                await started.abort()
            raise ServeError(
                f"source {self.name!r} lost the server: {exc}"
            ) from exc
        except BaseException:
            # Break the start barrier so sibling sessions don't wait on a
            # session that will never arrive.
            if started is not None:
                await started.abort()
            raise

    async def _run(self, rate: float, started: Optional[asyncio.Barrier]) -> None:
        conn = await _connect(self.socket_path, retries=self.connect_retries)
        try:
            conn.writer.write(protocol.encode_hello("source", source=self.name))
            await conn.writer.drain()
            frame = await conn.next_frame()
            if frame is None or frame.kind == protocol.ERROR:
                message = frame.data.get("error") if frame else "connection closed"
                raise ServeError(f"source {self.name!r} rejected: {message}")
            if frame.kind != protocol.HELLO_ACK:
                raise ServeError(f"expected HELLO_ACK, got {frame.name}")
            if started is not None:
                # Hold data until every sibling session is registered: a
                # source whose HELLO lands after the watermark already
                # passed its data cannot be merged (the server rejects it).
                try:
                    await started.wait()
                except asyncio.BrokenBarrierError:
                    raise ServeError(
                        f"source {self.name!r} aborted: a sibling session "
                        "failed before streaming began"
                    ) from None
            resume_seq = int(frame.data.get("resume_seq", 0))
            credit = int(frame.data.get("credit", 0))
            paused = bool(frame.data.get("paused", False))
            self.deduped_by_server = min(resume_seq, len(self.records))
            pacing = (1.0 / rate) if rate > 0 else 0.0
            for index in range(resume_seq, len(self.records)):
                while True:
                    while credit <= 0 or paused:
                        frame = await conn.next_frame()
                        if frame is None:
                            raise ServeError(
                                f"server closed while source {self.name!r} "
                                "waited for credit"
                            )
                        credit, paused = self._flow(frame, credit, paused)
                    # Fold in piled-up flow-control frames without blocking;
                    # one may have re-paused us, so re-check the gates.
                    while not conn._pending.empty():
                        credit, paused = self._flow(
                            conn._pending.get_nowait(), credit, paused
                        )
                    if credit > 0 and not paused:
                        break
                record = self.records[index]
                seq = index + 1
                if isinstance(record, TagReading):
                    conn.writer.write(protocol.encode_reading(seq, record))
                else:
                    conn.writer.write(protocol.encode_report(seq, record))
                credit -= 1
                self.sent += 1
                if pacing:
                    await conn.writer.drain()
                    await asyncio.sleep(pacing)
                elif self.sent % 256 == 0:
                    await conn.writer.drain()
            conn.writer.write(protocol.encode_source_end())
            await conn.writer.drain()
            # Hold the socket open until the server signs off (END_ACK or
            # EOF).  Closing earlier races the server's PAUSE/CREDIT
            # broadcasts: a write into our closed socket poisons the
            # server's reader and discards our still-unread frames.
            while True:
                frame = await conn.next_frame()
                if frame is None or frame.kind == protocol.END_ACK:
                    break
                self._flow(frame, 0, False)  # count pauses; ERROR raises
        finally:
            await conn.close()

    def _flow(self, frame: Frame, credit: int, paused: bool) -> Tuple[int, bool]:
        if frame.kind == protocol.CREDIT:
            return credit + int(frame.data), paused
        if frame.kind == protocol.PAUSE:
            self.pauses_seen += 1
            return credit, True
        if frame.kind == protocol.RESUME:
            return credit, False
        if frame.kind == protocol.ERROR:
            raise ServeError(f"server error: {frame.data.get('error')}")
        raise ServeError(f"unexpected {frame.name} frame in a source session")


class ReplaySource:
    """Stream a trace into the service as ``n_sources`` concurrent sources.

    ``rate`` is per-source records/second (0 floods as fast as credit
    allows).  ``run()`` returns per-source counters; rerunning after a
    server restart resumes from each source's acknowledged sequence.
    """

    def __init__(
        self,
        socket_path: str,
        trace: Trace,
        n_sources: int = 1,
        rate: float = 0.0,
        source_prefix: str = "src",
        connect_retries: int = 0,
    ):
        self.socket_path = socket_path
        self.rate = float(rate)
        self.sessions = [
            _SourceSession(
                socket_path,
                f"{source_prefix}{i}",
                records,
                connect_retries=connect_retries,
            )
            for i, records in enumerate(split_trace(trace, n_sources))
        ]

    async def run_async(self) -> Dict[str, Dict[str, int]]:
        # All sessions complete their HELLO before any sends data: without
        # the barrier one source can flood far enough that the watermark
        # passes a slower sibling's data before its registration lands.
        barrier = (
            asyncio.Barrier(len(self.sessions)) if len(self.sessions) > 1 else None
        )
        await asyncio.gather(
            *(session.run(rate=self.rate, started=barrier) for session in self.sessions)
        )
        return self.report()

    def report(self) -> Dict[str, Dict[str, int]]:
        return {
            session.name: {
                "records": len(session.records),
                "sent": session.sent,
                "skipped_as_acked": session.deduped_by_server,
                "pauses_seen": session.pauses_seen,
            }
            for session in self.sessions
        }

    def run(self) -> Dict[str, Dict[str, int]]:
        return asyncio.run(self.run_async())


class EmissionTail:
    """Subscribe to the emission stream and append it to a local file.

    Resumes from the line count of the existing output file, so restarting
    the tail (or the server) never duplicates a line; offsets are checked
    to be gapless.  ``ack_every`` batches ACKs.

    ``reconnect`` arms a resume-with-backoff loop: after the server closes
    (or refuses) the connection, the tail retries up to ``reconnect``
    consecutive times, recomputing its resume offset from the output file
    each round — a service bounce mid-stream costs nothing but latency.
    Any delivered line refills the budget; with the budget spent the tail
    returns what it has (or raises :class:`ClientConnectError` if it never
    received anything).  ``reconnect=0`` keeps the one-shot behaviour.
    """

    def __init__(
        self,
        socket_path: str,
        out_path: str,
        ack_every: int = 16,
        reconnect: int = 0,
        connect_retries: int = 0,
    ):
        self.socket_path = socket_path
        self.out_path = out_path
        self.ack_every = max(1, int(ack_every))
        self.reconnect = max(0, int(reconnect))
        self.connect_retries = int(connect_retries)
        self.received = 0
        self.reconnects_used = 0
        #: Subscriptions the server has acknowledged so far (one per service
        #: lifetime the tail actually reached, plus any mid-stream resets).
        self.sessions = 0
        #: True while any received EMIT frame carried the degraded flag
        #: without a fresh one clearing it — surfaced by the CLI verb.
        self.last_degraded = False
        self.degraded_seen = 0

    def _existing_lines(self) -> int:
        if not os.path.exists(self.out_path):
            return 0
        with open(self.out_path, "rb") as fp:
            data = fp.read()
        if data and not data.endswith(b"\n"):
            # Drop a torn tail (the tail process itself may have been
            # killed mid-write); the server resends from the last full line.
            last = data.rfind(b"\n")
            with open(self.out_path, "ab") as out:
                out.truncate(last + 1)
            data = data[: last + 1]
        return data.count(b"\n")

    async def run_async(self) -> int:
        attempt = 0
        while True:
            received_before = self.received
            try:
                await self._session()
            except (ClientConnectError, ConnectionError):
                # Refused connect, handshake EOF, or a mid-stream reset:
                # all the same bounce — resume from the file, with backoff.
                if attempt >= self.reconnect:
                    if self.received:
                        return self.received  # stream over, file is complete
                    raise
            else:
                if self.received > received_before:
                    attempt = 0  # progress refills the bounce budget
                if attempt >= self.reconnect:
                    return self.received
            await asyncio.sleep(_backoff_delay(attempt))
            attempt += 1
            self.reconnects_used += 1

    async def _session(self) -> None:
        """One subscribe session: connect, resume from the file, drain."""
        from_offset = self._existing_lines()
        conn = await _connect(self.socket_path, retries=self.connect_retries)
        next_expected = from_offset
        try:
            conn.writer.write(
                protocol.encode_hello("subscribe", from_offset=from_offset)
            )
            await conn.writer.drain()
            frame = await conn.next_frame()
            if frame is None:
                # A bouncing server looks like connect-then-EOF; let the
                # resume loop treat it exactly like a refused connect.
                raise ClientConnectError(
                    "server closed during subscribe handshake"
                )
            if frame.kind == protocol.ERROR:
                raise ServeError(f"subscribe rejected: {frame.data.get('error')}")
            if frame.kind != protocol.HELLO_ACK:
                raise ServeError(f"expected HELLO_ACK, got {frame.name}")
            self.sessions += 1
            with open(self.out_path, "ab") as out:
                while True:
                    frame = await conn.next_frame()
                    if frame is None:
                        break
                    if frame.kind == protocol.ERROR:
                        raise ServeError(
                            f"server error: {frame.data.get('error')}"
                        )
                    if frame.kind != protocol.EMIT:
                        raise ServeError(
                            f"unexpected {frame.name} frame in a subscription"
                        )
                    offset = int(frame.data)
                    if offset != next_expected:
                        raise ServeError(
                            f"emission gap: expected offset {next_expected}, "
                            f"got {offset}"
                        )
                    self.last_degraded = frame.degraded
                    if frame.degraded:
                        self.degraded_seen += 1
                    out.write(frame.line + b"\n")
                    next_expected = offset + 1
                    self.received += 1
                    if self.received % self.ack_every == 0:
                        out.flush()
                        conn.writer.write(protocol.encode_ack(offset))
                        await conn.writer.drain()
                out.flush()
                if next_expected > from_offset:
                    try:
                        conn.writer.write(protocol.encode_ack(next_expected - 1))
                        await conn.writer.drain()
                    except (ConnectionError, RuntimeError):
                        pass  # server already gone; the file has the lines
        finally:
            await conn.close()

    def run(self) -> int:
        return asyncio.run(self.run_async())


async def fetch_stats_async(
    socket_path: str, connect_retries: int = 0
) -> Dict[str, Any]:
    """One STATS round trip; returns the service's metrics document."""
    conn = await _connect(socket_path, retries=connect_retries)
    try:
        conn.writer.write(protocol.encode_hello("stats"))
        conn.writer.write(protocol.encode_stats_request())
        await conn.writer.drain()
        while True:
            frame = await conn.next_frame()
            if frame is None:
                raise ServeError("server closed before STATS_REPLY")
            if frame.kind == protocol.ERROR:
                raise ServeError(f"stats rejected: {frame.data.get('error')}")
            if frame.kind == protocol.HELLO_ACK:
                continue
            if frame.kind != protocol.STATS_REPLY:
                raise ServeError(f"expected STATS_REPLY, got {frame.name}")
            return frame.data
    finally:
        await conn.close()


def fetch_stats(socket_path: str, connect_retries: int = 0) -> Dict[str, Any]:
    return asyncio.run(fetch_stats_async(socket_path, connect_retries))


async def request_reshard_async(
    socket_path: str, n_shards: int, connect_retries: int = 0
) -> Dict[str, Any]:
    """Queue a live re-shard on a running service; returns the ack payload.

    The migration itself happens at the service's next epoch boundary —
    poll ``fetch_stats`` (``resharding.n_shards`` / ``pending``) to watch
    it land.
    """
    conn = await _connect(socket_path, retries=connect_retries)
    try:
        conn.writer.write(protocol.encode_hello("stats"))
        conn.writer.write(protocol.encode_reshard(n_shards))
        await conn.writer.drain()
        while True:
            frame = await conn.next_frame()
            if frame is None:
                raise ServeError("server closed before RESHARD_ACK")
            if frame.kind == protocol.ERROR:
                raise ServeError(f"reshard rejected: {frame.data.get('error')}")
            if frame.kind == protocol.HELLO_ACK:
                continue
            if frame.kind != protocol.RESHARD_ACK:
                raise ServeError(f"expected RESHARD_ACK, got {frame.name}")
            return frame.data
    finally:
        await conn.close()


def request_reshard(
    socket_path: str, n_shards: int, connect_retries: int = 0
) -> Dict[str, Any]:
    return asyncio.run(request_reshard_async(socket_path, n_shards, connect_retries))
