"""The shard-worker link: framed bytes over one stream socket.

Every worker executor speaks this link — ``process`` over a
``socket.socketpair()`` to a forked child, ``remote`` over TCP to a
``repro shard-host`` — so there is one codec, one connection class and one
proxy (:class:`~repro.runtime.workers.ShardWorkerProxy`).  Frames are the
package-wide ``u32 length | u8 kind | payload`` shape split by
:mod:`repro.wire`; the link defines four kinds:

* ``STEP`` / ``EVENTS`` — the two frames exchanged every epoch — pack
  fixed-width fields with :mod:`struct`.  Floats cross as IEEE-754 f64, so
  a worker's emissions are **bit-identical** wherever it runs.
* ``CONTROL`` — boot, snapshot/restore, stats, final summaries, ``ok`` /
  ``error`` replies — carries an op name plus a *state tree*: the JSON
  skeleton + indexed raw arrays that :mod:`repro.state.snapshot` produces
  for checkpoint files, behind a CRC-32.  Trees that survive a checkpoint
  survive the link bitwise, and nothing a peer sends is ever executed: a
  frame is JSON plus raw array bytes, each index entry checked against the
  payload before its array is allocated.
* ``HB`` — an empty heartbeat frame, so the parent's deadline-bounded
  receive loop distinguishes a dead link from a slow reply.

Every decode failure leaves :func:`decode_payload` as
:class:`~repro.errors.WorkerError`: to the supervisor a corrupt link is a
dead worker, never a stray exception.

The shard host (:class:`ShardHostServer`) accepts a connection, forks a
worker **holding the accepted socket**, closes its own copy and reaps the
child when it exits; the long-lived host process parses no peer bytes.
"""

from __future__ import annotations

import io
import json
import os
import select
import socket
import struct
import threading
import time as _time
import zlib
from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from ..errors import StateError, WorkerError
from ..streams.records import LocationEvent, LocationStatistics, TagId
from ..wire import FrameSplitter, pack_frame

# Frame kinds (u8 on the wire).
T_CONTROL = 1  # op name + state tree: boot, snapshot/restore, stats, ok/error
T_STEP = 2  # struct-packed step request (the parent→worker hot path)
T_EVENTS = 3  # struct-packed events reply (the worker→parent hot path)
T_HB = 4  # empty heartbeat frame

_FRAME_NAMES = {T_CONTROL: "CONTROL", T_STEP: "STEP", T_EVENTS: "EVENTS", T_HB: "HB"}

#: time f64 | x y z f64 | flags u8 | heading f64 | n_obj u32 | n_shelf u32
#: (flags bit 0: position present; bit 1: heading present — handheld
#: readers report neither, positioning dropouts report no position)
_STEP_HEAD = struct.Struct("!ddddBdII")
_STEP_HAS_POSITION = 0x01
_STEP_HAS_HEADING = 0x02
#: event count u32
_EVENTS_HEAD = struct.Struct("!I")
#: time f64 | tag number u32 | x y z f64 | has_stats u8
_EVENT_FIXED = struct.Struct("!dIdddB")
#: covariance 9×f64 (row-major) | confidence radius f64 | sample size u32
_EVENT_STATS = struct.Struct("!9ddI")
#: CRC-32 of everything after it u32 | JSON header bytes u32
_CONTROL_HEAD = struct.Struct("!II")

#: Frame-size guard.  Control frames carry whole checkpoint state trees
#: (arena blocks included), so the ceiling is per-message memory, not a
#: protocol limit.
MAX_MESSAGE_BYTES = 1 << 30

#: Frame-size guard until a worker has decoded a valid boot frame: boot
#: documents are kilobytes, and an unauthenticated peer must not be able to
#: make a fresh worker buffer a state-tree-sized frame.
PRE_BOOT_MAX_BYTES = 1 << 20

#: Deadline for the TCP connect + boot of one remote shard — and for a
#: fresh worker to receive its boot frame before it drops the link.
CONNECT_TIMEOUT_S = 10.0


#: What decoding corrupt bytes can raise (struct, JSON, dtypes, index checks).
_MALFORMED = (
    WorkerError, StateError, struct.error, ValueError, TypeError, KeyError, OverflowError
)


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (validated by RuntimeConfig)."""
    host, _, port = str(endpoint).rpartition(":")
    return host, int(port)


# ---------------------------------------------------------------------------
# Message codec: worker-protocol tuples <-> frame payloads
# ---------------------------------------------------------------------------
def _encode_step(message: tuple) -> bytes:
    _, time, position, heading, object_numbers, shelf_numbers = message
    x, y, z = (0.0, 0.0, 0.0) if position is None else (
        float(v) for v in position
    )
    flags = (0 if position is None else _STEP_HAS_POSITION) | (
        0 if heading is None else _STEP_HAS_HEADING
    )
    objects = [int(n) for n in object_numbers]
    shelves = [int(n) for n in shelf_numbers]
    head = _STEP_HEAD.pack(
        float(time),
        x,
        y,
        z,
        flags,
        0.0 if heading is None else float(heading),
        len(objects),
        len(shelves),
    )
    return head + struct.pack(f"!{len(objects) + len(shelves)}I", *objects, *shelves)


def _decode_step(payload: bytes) -> tuple:
    time, x, y, z, flags, heading, n_obj, n_shelf = _STEP_HEAD.unpack_from(
        payload, 0
    )
    if _STEP_HEAD.size + 4 * (n_obj + n_shelf) != len(payload):
        raise WorkerError(
            f"header claims {n_obj}+{n_shelf} tags in a {len(payload)}-byte frame"
        )
    numbers = struct.unpack_from(f"!{n_obj + n_shelf}I", payload, _STEP_HEAD.size)
    return (
        "step",
        time,
        (x, y, z) if flags & _STEP_HAS_POSITION else None,
        heading if flags & _STEP_HAS_HEADING else None,
        list(numbers[:n_obj]),
        list(numbers[n_obj:]),
    )


def _encode_events(message: tuple) -> bytes:
    _, events = message
    parts = [_EVENTS_HEAD.pack(len(events))]
    for event in events:
        x, y, z = (float(v) for v in event.position)
        stats = event.statistics
        parts.append(
            _EVENT_FIXED.pack(
                float(event.time), event.tag.number, x, y, z, 0 if stats is None else 1
            )
        )
        if stats is not None:
            flat = np.asarray(stats.covariance, dtype=np.float64).reshape(9)
            parts.append(
                _EVENT_STATS.pack(
                    *flat.tolist(),
                    float(stats.confidence_radius),
                    int(stats.sample_size),
                )
            )
    return b"".join(parts)


def _decode_events(payload: bytes) -> tuple:
    (count,) = _EVENTS_HEAD.unpack_from(payload, 0)
    offset = _EVENTS_HEAD.size
    if count * _EVENT_FIXED.size > len(payload) - offset:
        raise WorkerError(
            f"header claims {count} events in a {len(payload)}-byte frame"
        )
    events: List[LocationEvent] = []
    for _ in range(count):
        time, number, x, y, z, has_stats = _EVENT_FIXED.unpack_from(payload, offset)
        offset += _EVENT_FIXED.size
        statistics = None
        if has_stats:
            values = _EVENT_STATS.unpack_from(payload, offset)
            offset += _EVENT_STATS.size
            # LocationStatistics.covariance is a flat row-major 9-tuple.
            statistics = LocationStatistics(values[:9], values[9], values[10])
        events.append(
            LocationEvent(
                time, TagId.object(number), np.array((x, y, z)), statistics
            )
        )
    if offset != len(payload):
        raise WorkerError(f"{len(payload) - offset} bytes after the last event")
    return ("events", events)


def _encode_control(message: tuple) -> bytes:
    from ..state.snapshot import index_arrays, split_state_tree  # deferred: no cycle

    skeleton, arrays = split_state_tree(list(message[1:]))
    buffers: list = []
    index, _ = index_arrays(arrays, 0, buffers)
    header = json.dumps(
        {"op": message[0], "args": skeleton, "arrays": index}, separators=(",", ":")
    ).encode()
    checked = [struct.pack("!I", len(header)), header, *buffers]
    crc = 0
    for part in checked:
        crc = zlib.crc32(part, crc)
    return b"".join([struct.pack("!I", crc), *checked])


def _decode_control(payload: bytes) -> tuple:
    from ..state.snapshot import join_state_tree, read_indexed_arrays

    crc, header_bytes = _CONTROL_HEAD.unpack_from(payload, 0)
    if zlib.crc32(memoryview(payload)[4:]) != crc:
        raise WorkerError("checksum mismatch")
    body_at = _CONTROL_HEAD.size + header_bytes
    if body_at > len(payload):
        raise WorkerError(
            f"{header_bytes}-byte header overruns its {len(payload)}-byte frame"
        )
    header = json.loads(payload[_CONTROL_HEAD.size : body_at])
    op, args, index = header["op"], header["args"], header["arrays"]
    if not (isinstance(op, str) and isinstance(args, list) and isinstance(index, dict)):
        raise WorkerError("header members have the wrong types")
    body = io.BytesIO(payload)
    body.seek(body_at)
    body_bytes = len(payload) - body_at
    arrays, end = read_indexed_arrays(body, index, 0, body_bytes, lambda _: None)
    if end != body_bytes:
        raise WorkerError(f"{body_bytes - end} bytes after the last array")
    return (op, *join_state_tree(args, arrays))


def encode_message(message: tuple) -> bytes:
    """One worker-protocol tuple → one length-prefixed frame."""
    op = message[0]
    if op == "hb":
        return pack_frame(T_HB)
    if op == "step":
        return pack_frame(T_STEP, _encode_step(message))
    if op == "events":
        return pack_frame(T_EVENTS, _encode_events(message))
    return pack_frame(T_CONTROL, _encode_control(message))


def decode_payload(kind: int, payload: bytes) -> tuple:
    """One frame's ``(kind, payload)`` → the worker-protocol tuple.

    The one site where link bytes become values: every way a payload can
    be malformed leaves here as :class:`WorkerError`.
    """
    try:
        if kind == T_HB and not payload:
            return ("hb",)
        if kind == T_STEP:
            return _decode_step(payload)
        if kind == T_EVENTS:
            return _decode_events(payload)
        if kind == T_CONTROL:
            return _decode_control(payload)
        raise WorkerError("unknown kind or stray payload")
    except _MALFORMED as exc:
        raise WorkerError(
            f"malformed {_FRAME_NAMES.get(kind, f'type {kind}')} frame: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# FramedConnection: whole protocol tuples over one stream socket
# ---------------------------------------------------------------------------
class FramedConnection:
    """Blocking-socket message connection: ``send`` / ``recv`` / ``poll``.

    Carries whole worker-protocol tuples over any stream socket (a
    socketpair end, a TCP connection).  A clean peer close surfaces as
    :class:`EOFError` from ``recv``; a frame that cannot be split or
    decoded raises :class:`WorkerError` and poisons the connection — after
    framing desynchronizes nothing that follows can be trusted.

    ``bytes_sent`` / ``bytes_received`` count framed wire bytes per link;
    proxies surface them in shard stats (and so in the serve STATS document).
    """

    def __init__(self, sock: socket.socket, max_message_bytes: int = MAX_MESSAGE_BYTES):
        sock.setblocking(True)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # a socketpair end: nothing to tune
            pass
        self._sock = sock
        self._splitter = FrameSplitter(max_message_bytes, WorkerError)
        self._frames: deque = deque()
        self._eof = False
        self._closed = False
        self._send_lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0

    def raise_limit(self, max_message_bytes: int) -> None:
        """Accept frames up to ``max_message_bytes`` from here on."""
        self._splitter.max_frame_bytes = int(max_message_bytes)

    # -- sending -------------------------------------------------------
    def send(self, message: tuple) -> None:
        data = encode_message(message)
        with self._send_lock:
            if self._closed:
                raise BrokenPipeError("connection closed")
            self._sock.sendall(data)
            self.bytes_sent += len(data)

    # -- receiving -----------------------------------------------------
    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """True when ``recv`` would not block (a frame — or EOF — is ready)."""
        if self._frames or self._eof or self._closed:
            return True  # (closed: recv will raise promptly)
        deadline = None if timeout is None else _time.monotonic() + timeout
        while True:
            remaining = (
                None if deadline is None else max(0.0, deadline - _time.monotonic())
            )
            readable, _, _ = select.select([self._sock], [], [], remaining)
            if not readable:
                return False
            try:
                chunk = self._sock.recv(1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                self._eof = True
                return True
            self.bytes_received += len(chunk)
            self._splitter.feed(chunk)
            try:
                for kind, payload in self._splitter.frames():
                    self._frames.append(decode_payload(kind, payload))
            except WorkerError:
                self._eof = True
                raise
            if self._frames:
                return True
            if deadline is not None and _time.monotonic() >= deadline:
                return False

    def recv(self) -> tuple:
        while not self._frames:
            if self._eof or self._closed:
                raise EOFError("connection closed by peer")
            self.poll(None)
        return self._frames.popleft()

    @property
    def alive(self) -> bool:
        return not (self._eof or self._closed)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            # Shut down, not just close: the peer sees EOF even while a
            # forked sibling holds an inherited copy of this socket.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass


# ---------------------------------------------------------------------------
# Host side: the shard-host server
# ---------------------------------------------------------------------------
class ShardHostServer:
    """A TCP worker pool: one forked shard worker per accepted connection.

    ``repro shard-host`` wraps :meth:`serve_forever`; tests run it on a
    thread with ``port=0`` and read :attr:`address`.  The server holds no
    shard state of its own — all determinism lives in the booted config —
    so killing and restarting a shard host is exactly a worker death to
    the connected runtime's supervisor.  It reads nothing from its peers:
    each accepted socket goes straight to a forked
    :func:`~repro.runtime.workers._worker_main`, which serves the link until
    its peer closes it (and exits on its own if the host is killed).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(64)
        #: The bound (host, port) — read this after ``port=0``.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._workers: list = []
        # Self-pipe: shutdown() writes a byte so the accept loop's select
        # wakes immediately instead of riding out its timeout slice.
        self._wake_r, self._wake_w = socket.socketpair()
        self._serve_thread: Optional[threading.Thread] = None
        self._done = threading.Event()
        self._done.set()  # not serving yet

    @property
    def port(self) -> int:
        return self.address[1]

    def serve_forever(self) -> None:
        """Accept connections and fork workers until :meth:`shutdown`."""
        from .workers import _worker_main, worker_context  # deferred: no cycle

        context = worker_context()
        wake = (self._wake_r, self._wake_w)
        self._serve_thread = threading.current_thread()
        self._done.clear()
        try:
            while not self._stopping.is_set():
                # Reap exited workers (is_alive() waits on the child).
                self._workers = [w for w in self._workers if w.is_alive()]
                try:
                    readable, _, _ = select.select(
                        [self._listener, self._wake_r], [], [], 0.25
                    )
                except OSError:
                    break
                if self._wake_r in readable or self._stopping.is_set():
                    break
                if not readable:
                    continue
                try:
                    sock, _peer = self._listener.accept()
                except OSError:
                    break
                # The child closes the listening side.
                worker = context.Process(
                    target=_worker_main,
                    args=(sock, os.getpid(), (self._listener, *wake)),
                    name="repro-host-worker",
                    daemon=True,
                )
                worker.start()
                sock.close()  # the worker holds the link now
                self._workers.append(worker)
        finally:
            # Close from the loop thread so the kernel socket is truly gone
            # (a close racing a concurrent select keeps the LISTEN entry
            # alive until the select returns — rebinding the port would
            # fail) before shutdown() returns to a waiting caller.
            for sock in (self._listener, *wake):
                sock.close()
            self._done.set()

    def shutdown(self, wait_s: float = 5.0) -> None:
        """Stop accepting and kill every live worker (their links go EOF).

        Waits up to ``wait_s`` for the accept loop to exit so the listening
        port is genuinely free on return (safe to rebind immediately).  The
        wait is skipped when called from the serving thread itself — e.g.
        from a signal handler interrupting :meth:`serve_forever`.
        """
        self._stopping.set()
        try:
            self._wake_w.send(b"x")
        except OSError:  # pragma: no cover
            pass
        if threading.current_thread() is not self._serve_thread:
            self._done.wait(wait_s)
        self._listener.close()
        if self._done.is_set():  # not (or no longer) serving: nobody selects on these
            self._wake_r.close()
            self._wake_w.close()
        workers, self._workers = self._workers, []
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(wait_s)
            if worker.is_alive():  # pragma: no cover - stuck in a syscall
                worker.kill()
                worker.join(wait_s)
