"""The load generator: 2 source connections + 1 subscriber, one asyncio thread.

Drives a running ``repro serve`` child over its unix socket in one of two
modes, over frames encoded *before* the timed window opens:

* **flood** (closed loop, ``rate_eps=None``): each source sends as fast as
  its credit window allows — ``ReplaySource(rate=0)`` semantics, so the
  achieved rate is the sustainable rate;
* **paced** (open loop): stream second ``s`` is written at wall
  ``t0 + s / rate_eps`` regardless of how the server is doing; how late each
  second actually went out is recorded.

The subscriber has ``EmissionTail`` semantics (gap-checked offsets, batched
ACKs) and stamps every emission line with its receive time.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.serve import protocol
from repro.serve.client import split_trace
from repro.serve.protocol import FrameDecoder
from repro.streams.records import TagReading
from repro.streams.sources import Trace

_READ_CHUNK = 1 << 16
_FLOOD_BATCH = 256  # frames per write+drain, as ReplaySource
_ACK_EVERY = 16  # as EmissionTail
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: A timed epoll wait overshoots by up to a kernel tick (~4 ms here), so the
#: last stretch before a due time is spent yielding to the loop instead (the
#: generator has a core of its own); that keeps send lateness well under one
#: inter-epoch gap.
_SPIN_S = 0.006


class LoadError(RuntimeError):
    """The run cannot produce a valid measurement (server died, ERROR frame)."""


@dataclass
class SourcePlan:
    """One source's pre-encoded stream."""

    name: str
    frames: List[bytes]
    #: Stream second of each frame (non-decreasing).
    second: np.ndarray
    #: ``first[s]``: index of the first frame at or after second ``s``.
    first: np.ndarray


def encode_sources(trace: Trace, n_sources: int = 2) -> List[SourcePlan]:
    n_seconds = int(max(r.time for r in trace.reports) // trace.epoch_length) + 1
    plans = []
    for i, records in enumerate(split_trace(trace, n_sources)):
        frames = [
            protocol.encode_reading(seq, rec)
            if isinstance(rec, TagReading)
            else protocol.encode_report(seq, rec)
            for seq, rec in enumerate(records, start=1)
        ]
        second = np.array([int(r.time // trace.epoch_length) for r in records], dtype=np.int64)
        first = np.searchsorted(second, np.arange(n_seconds + 1), side="left")
        plans.append(SourcePlan(f"src{i}", frames, second, first))
    return plans


def closing_second(plans: List[SourcePlan], n_seconds: int) -> np.ndarray:
    """``c[k]``: the stream second whose arrival lets the watermark release
    epoch ``k`` — every source must have sent a record at or after ``k + 1``
    (a source with none left releases it with SOURCE_END, sent as second
    ``n_seconds``)."""
    close = np.zeros(n_seconds, dtype=np.int64)
    for plan in plans:
        nxt = plan.first[1 : n_seconds + 1]  # first frame at or after k + 1
        sec = np.where(nxt < len(plan.second), plan.second[np.minimum(nxt, len(plan.second) - 1)], n_seconds)
        close = np.maximum(close, sec)
    return close


@dataclass
class PassResult:
    setup_s: float = 0.0
    t0: float = 0.0
    t_end: float = 0.0
    cpu_at_t0_s: float = 0.0
    records_sent: int = 0
    records_total: int = 0
    errors: List[str] = field(default_factory=list)
    lines: List[bytes] = field(default_factory=list)
    recv_t: List[float] = field(default_factory=list)
    #: Paced pass: (actual − due) send time of each stream second, seconds.
    late_s: List[float] = field(default_factory=list)
    stats: Optional[Dict[str, Any]] = None

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t0


class _Conn:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()

    async def frames(self):
        """Decoded frames of the next chunk; None at EOF.

        A server that exits with our last ACK unread resets the socket (or
        breaks the pipe under our next write) instead of closing it
        cleanly; all of these end the stream.
        """
        try:
            chunk = await self.reader.read(_READ_CHUNK)
        except ConnectionError:
            return None
        if not chunk:
            return None
        return self.decoder.feed_frames(chunk)

    async def expect(self, kind: int) -> protocol.Frame:
        """Handshake helper: the next frame must be ``kind``."""
        frames = await self.frames()
        if not frames:
            raise LoadError("server closed during a handshake")
        frame = frames[0]
        if frame.kind == protocol.ERROR:
            raise LoadError(f"server refused: {frame.data.get('error')}")
        if frame.kind != kind or len(frames) != 1:
            raise LoadError(f"unexpected {frame.name} frame in a handshake")
        return frame

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def _connect_when_bound(socket_path: str, alive: Callable[[], bool]) -> _Conn:
    """Poll for the server's socket (it binds last, after its build)."""
    while True:
        if os.path.exists(socket_path):
            try:
                return _Conn(*await asyncio.open_unix_connection(socket_path))
            except (ConnectionRefusedError, FileNotFoundError):
                pass
        if not alive():
            raise LoadError("server exited before binding its socket")
        await asyncio.sleep(0.001)


def _child_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


class _Source:
    """One credit-gated sender plus the reader that tracks its flow state."""

    def __init__(self, conn: _Conn, plan: SourcePlan, credit: int, paused: bool):
        self.conn = conn
        self.plan = plan
        self.credit = credit
        self.paused = paused
        self.sent = 0
        self.end_ack_t: Optional[float] = None
        self.error: Optional[str] = None
        self.eof = False
        self.wake = asyncio.Event()

    async def read_loop(self) -> None:
        while True:
            frames = await self.conn.frames()
            if frames is None:
                break
            for frame in frames:
                if frame.kind == protocol.CREDIT:
                    self.credit += int(frame.data)
                elif frame.kind == protocol.PAUSE:
                    self.paused = True
                elif frame.kind == protocol.RESUME:
                    self.paused = False
                elif frame.kind == protocol.END_ACK:
                    self.end_ack_t = perf_counter()
                elif frame.kind == protocol.ERROR:
                    self.error = str(frame.data.get("error"))
                else:
                    self.error = f"unexpected {frame.name} frame in a source session"
            self.wake.set()
        self.eof = True
        self.wake.set()

    async def _may_send(self) -> None:
        while self.credit <= 0 or self.paused:
            if self.eof or self.error:
                raise LoadError(
                    f"source {self.plan.name}: {self.error or 'server closed mid-stream'}"
                )
            self.wake.clear()
            await self.wake.wait()

    async def send(
        self,
        t0: float,
        rate_eps: Optional[float],
        n_seconds: int,
        late_s: Optional[List[float]],
        before_end: Optional[Callable[[], Any]],
    ) -> None:
        frames, second, first = self.plan.frames, self.plan.second, self.plan.first
        writer = self.conn.writer
        i, n = 0, len(frames)
        noted = -1  # last stream second whose lateness was recorded
        while i < n:
            await self._may_send()
            if rate_eps:
                s = int(second[i])
                due = t0 + s / rate_eps
                now = perf_counter()
                if now < due:
                    await asyncio.sleep(max(0.0, due - now - _SPIN_S))
                    continue  # flow state may have changed while asleep
                if s != noted and late_s is not None:
                    late_s.append(now - due)
                    noted = s
                j = min(int(first[s + 1]), i + self.credit)
            else:
                j = min(n, i + self.credit, i + _FLOOD_BATCH)
            writer.write(b"".join(frames[i:j]))
            self.credit -= j - i
            self.sent += j - i
            i = j
            await writer.drain()
        if rate_eps:  # SOURCE_END stands in for the arrival of second n_seconds
            due = t0 + n_seconds / rate_eps
            while perf_counter() < due:
                await asyncio.sleep(max(0.0, due - perf_counter() - _SPIN_S))
        if before_end is not None:
            await before_end()
        writer.write(protocol.encode_source_end())
        await writer.drain()
        while self.end_ack_t is None and not self.eof and not self.error:
            self.wake.clear()
            await self.wake.wait()


async def _subscribe(conn: _Conn, result: PassResult) -> None:
    expected = 0
    while True:
        frames = await conn.frames()
        if frames is None:
            return
        now = perf_counter()
        for frame in frames:
            if frame.kind == protocol.ERROR:
                result.errors.append(f"subscriber: {frame.data.get('error')}")
            elif frame.kind != protocol.EMIT:
                result.errors.append(f"subscriber: unexpected {frame.name} frame")
            else:
                if int(frame.data) != expected:
                    result.errors.append(
                        f"emission gap: expected offset {expected}, got {frame.data}"
                    )
                result.lines.append(frame.line)
                result.recv_t.append(now)
                expected = int(frame.data) + 1
                if expected % _ACK_EVERY == 0:
                    conn.writer.write(protocol.encode_ack(expected - 1))


async def _stats_when_processed(socket_path: str, epochs: int) -> Dict[str, Any]:
    """Poll STATS until ``epochs`` epochs are processed; returns that doc."""
    conn = _Conn(*await asyncio.open_unix_connection(socket_path))
    try:
        conn.writer.write(protocol.encode_hello("stats"))
        await conn.expect(protocol.HELLO_ACK)
        while True:
            conn.writer.write(protocol.encode_stats_request())
            doc = (await conn.expect(protocol.STATS_REPLY)).data
            if doc["epochs_processed"] >= epochs:
                return doc
            await asyncio.sleep(0.02)
    finally:
        await conn.close()


async def drive(
    socket_path: str,
    plans: List[SourcePlan],
    n_seconds: int,
    rate_eps: Optional[float],
    t_spawn: float,
    pid: int,
    alive: Callable[[], bool],
    want_stats: bool = False,
) -> PassResult:
    """One pass over the trace against an already-spawned server child.

    ``want_stats`` fetches one STATS document just before the stream ends:
    source 0 (which carries a report for every second, so its frontier is
    the watermark once its sibling ended) withholds SOURCE_END until the
    server reports every epoch but the last as processed.
    """
    result = PassResult(records_total=sum(len(p.frames) for p in plans))
    sub = await _connect_when_bound(socket_path, alive)
    conns = [sub]
    tasks: List[asyncio.Task] = []
    try:
        sub.writer.write(protocol.encode_hello("subscribe", from_offset=0))
        await sub.expect(protocol.HELLO_ACK)
        result.setup_s = perf_counter() - t_spawn
        tasks.append(asyncio.create_task(_subscribe(sub, result)))

        sources: List[_Source] = []
        for plan in plans:  # every HELLO lands before any source sends data
            conn = _Conn(*await asyncio.open_unix_connection(socket_path))
            conns.append(conn)
            conn.writer.write(protocol.encode_hello("source", source=plan.name))
            ack = (await conn.expect(protocol.HELLO_ACK)).data
            sources.append(
                _Source(conn, plan, int(ack.get("credit", 0)), bool(ack.get("paused", False)))
            )
        tasks.extend(asyncio.create_task(s.read_loop()) for s in sources)

        async def fetch_stats() -> None:
            result.stats = await _stats_when_processed(socket_path, n_seconds - 1)

        late = result.late_s if rate_eps else None
        result.cpu_at_t0_s = _child_cpu_s(pid)
        result.t0 = perf_counter()
        await asyncio.gather(
            *(
                s.send(
                    result.t0,
                    rate_eps,
                    n_seconds,
                    late if i == 0 else None,
                    fetch_stats if (want_stats and i == 0) else None,
                )
                for i, s in enumerate(sources)
            )
        )
        await tasks[0]  # subscriber reads until the server closes
        for s in sources:
            result.records_sent += s.sent
            if s.error:
                result.errors.append(f"{s.plan.name}: {s.error}")
            elif s.end_ack_t is None:
                result.errors.append(f"{s.plan.name}: no END_ACK")
        acks = [s.end_ack_t for s in sources if s.end_ack_t is not None]
        result.t_end = max(acks + result.recv_t[-1:] + [result.t0])
        return result
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for conn in conns:
            await conn.close()
