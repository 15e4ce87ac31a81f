"""Wire protocol of the ingest service: length-prefixed binary frames.

Every frame is ``u32 length (big-endian) | u8 type | payload``; the length
covers the type byte plus the payload.  Hot-path frames (readings, reports,
credits, emissions, acks) pack fixed-width fields with :mod:`struct`; control
frames (hello, stats, errors) carry UTF-8 JSON — they are rare, and JSON
keeps the handshake extensible without a version dance.

The decoder is sans-IO: feed it byte chunks from any transport (an asyncio
``StreamReader``, a blocking socket, a test buffer) and iterate complete
frames.  Both the service and the replay/subscriber clients share it, so
framing bugs cannot disagree across the two ends.

Flow-control frames (the backpressure contract):

* ``CREDIT n`` — the server grants the source permission to send ``n`` more
  reading/report frames.  Initial credit arrives in ``HELLO_ACK``; sending
  beyond the granted window is a protocol violation (``ERROR`` + close).
* ``PAUSE`` / ``RESUME`` — a global brake on top of per-source credit: when
  the service's total buffered frames cross the configured high water mark
  every source is paused even if it has credit left, and resumed once the
  backlog drains below the low water mark.
* ``END_ACK`` — the server's sign-off after consuming ``SOURCE_END``.  A
  source must keep its connection open until it arrives (or EOF): closing
  earlier races the server's broadcast writes, and a write into the closed
  socket poisons the server's stream reader, discarding any of the
  source's frames still buffered unread.

Exactly-once hooks:

* data frames carry a per-source ``seq`` (1-based, strictly +1); the
  ``HELLO_ACK`` returns the highest sequence the server has already consumed
  into a checkpointed epoch, so a reconnecting client skips what survived.
* ``EMIT`` frames carry the emission's log offset; subscribers ``ACK``
  offsets back, and the acked offset rides inside the next checkpoint.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ServeError
from ..streams.records import ReaderLocationReport, TagId, TagKind, TagReading
from ..wire import FrameSplitter, pack_frame

# Frame type codes (u8 on the wire).
HELLO = 1  # json: {role, source, kind?, last_seq?, from_offset?}
HELLO_ACK = 2  # json: {resume_seq?, credit?, epoch_origin?, next_offset?}
READING = 3  # packed: seq u64, time f64, tag kind u8, tag number u32
REPORT = 4  # packed: seq u64, time f64, x/y/z f64, has_heading u8, heading f64
SOURCE_END = 5  # empty: the source's stream is complete (scan finished)
CREDIT = 6  # packed: u32 additional frames the source may send
PAUSE = 7  # empty
RESUME = 8  # empty
EMIT = 9  # packed u64 offset + u8 flags (bit 0: degraded) + raw log line
ACK = 10  # packed: u64 highest delivered offset (inclusive)
STATS = 11  # empty: request a stats snapshot
STATS_REPLY = 12  # json: the service's metrics document
ERROR = 13  # json: {error}
END_ACK = 14  # empty: the server consumed the stream through SOURCE_END
RESHARD = 15  # json: {n_shards} — request a live shard-layout change
RESHARD_ACK = 16  # json: {queued, n_shards} — the request is scheduled

FRAME_NAMES = {
    HELLO: "HELLO",
    HELLO_ACK: "HELLO_ACK",
    READING: "READING",
    REPORT: "REPORT",
    SOURCE_END: "SOURCE_END",
    CREDIT: "CREDIT",
    PAUSE: "PAUSE",
    RESUME: "RESUME",
    EMIT: "EMIT",
    ACK: "ACK",
    STATS: "STATS",
    STATS_REPLY: "STATS_REPLY",
    ERROR: "ERROR",
    END_ACK: "END_ACK",
    RESHARD: "RESHARD",
    RESHARD_ACK: "RESHARD_ACK",
}

_READING = struct.Struct("!QdBI")
_REPORT = struct.Struct("!QddddBd")
_CREDIT = struct.Struct("!I")
_OFFSET = struct.Struct("!Q")
_EMIT_HEAD = struct.Struct("!QB")

#: EMIT flags (u8 on the wire).  Bit 0 marks an emission computed while the
#: runtime was recovering a shard — the line bytes are still authoritative
#: (and identical to a fault-free run), the flag only describes freshness.
EMIT_FLAG_DEGRADED = 0x01

#: Tag kinds on the wire (u8) — stable codes, not enum ordinals.
_TAG_KIND_CODE = {TagKind.OBJECT: 0, TagKind.SHELF: 1}
_TAG_KIND_FROM_CODE = {0: TagKind.OBJECT, 1: TagKind.SHELF}

#: Default frame-size guard; the service overrides from its ServeConfig.
MAX_FRAME_BYTES = 1 << 20


@dataclass(frozen=True)
class Frame:
    """One decoded frame: the type code plus a payload-specific value.

    ``data`` is a dict for JSON frames, a :class:`TagReading` /
    :class:`ReaderLocationReport` (with ``seq``) for data frames, an int for
    CREDIT/ACK/EMIT offsets, ``None`` for empty frames; EMIT also carries
    the raw log line in ``line`` and its freshness flag in ``degraded``.
    """

    kind: int
    data: Any = None
    seq: int = 0
    line: Optional[bytes] = None
    degraded: bool = False

    @property
    def name(self) -> str:
        return FRAME_NAMES.get(self.kind, f"type {self.kind}")


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------
def _wrap_json(kind: int, doc: Dict[str, Any]) -> bytes:
    return pack_frame(kind, json.dumps(doc, sort_keys=True).encode())


def encode_hello(
    role: str,
    source: Optional[str] = None,
    last_seq: Optional[int] = None,
    from_offset: Optional[int] = None,
) -> bytes:
    """Handshake: ``role`` is ``"source"``, ``"subscribe"`` or ``"stats"``."""
    doc: Dict[str, Any] = {"role": role}
    if source is not None:
        doc["source"] = source
    if last_seq is not None:
        doc["last_seq"] = int(last_seq)
    if from_offset is not None:
        doc["from_offset"] = int(from_offset)
    return _wrap_json(HELLO, doc)


def encode_hello_ack(**fields: Any) -> bytes:
    return _wrap_json(HELLO_ACK, fields)


def encode_reading(seq: int, reading: TagReading) -> bytes:
    return pack_frame(
        READING,
        _READING.pack(
            seq,
            reading.time,
            _TAG_KIND_CODE[reading.tag.kind],
            reading.tag.number,
        ),
    )


def encode_report(seq: int, report: ReaderLocationReport) -> bytes:
    x, y, z = report.position
    has_heading = report.heading is not None
    return pack_frame(
        REPORT,
        _REPORT.pack(
            seq,
            report.time,
            x,
            y,
            z,
            1 if has_heading else 0,
            report.heading if has_heading else 0.0,
        ),
    )


def encode_source_end() -> bytes:
    return pack_frame(SOURCE_END)


def encode_end_ack() -> bytes:
    return pack_frame(END_ACK)


def encode_credit(n: int) -> bytes:
    return pack_frame(CREDIT, _CREDIT.pack(n))


def encode_pause() -> bytes:
    return pack_frame(PAUSE)


def encode_resume() -> bytes:
    return pack_frame(RESUME)


def encode_emit(offset: int, line: bytes, degraded: bool = False) -> bytes:
    flags = EMIT_FLAG_DEGRADED if degraded else 0
    return pack_frame(EMIT, _EMIT_HEAD.pack(offset, flags) + line)


def encode_ack(offset: int) -> bytes:
    return pack_frame(ACK, _OFFSET.pack(offset))


def encode_stats_request() -> bytes:
    return pack_frame(STATS)


def encode_stats_reply(stats: Dict[str, Any]) -> bytes:
    return _wrap_json(STATS_REPLY, stats)


def encode_error(message: str) -> bytes:
    return _wrap_json(ERROR, {"error": str(message)})


def encode_reshard(n_shards: int) -> bytes:
    return _wrap_json(RESHARD, {"n_shards": int(n_shards)})


def encode_reshard_ack(n_shards: int) -> bytes:
    return _wrap_json(RESHARD_ACK, {"queued": True, "n_shards": int(n_shards)})


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------
def _decode_payload(kind: int, payload: bytes) -> Frame:
    try:
        if kind == READING:
            seq, time, kind_code, number = _READING.unpack(payload)
            tag_kind = _TAG_KIND_FROM_CODE.get(kind_code)
            if tag_kind is None:
                raise ServeError(f"unknown tag kind code {kind_code}")
            return Frame(READING, TagReading(time, TagId(tag_kind, number)), seq=seq)
        if kind == REPORT:
            seq, time, x, y, z, has_heading, heading = _REPORT.unpack(payload)
            report = ReaderLocationReport(
                time, (x, y, z), heading if has_heading else None
            )
            return Frame(REPORT, report, seq=seq)
        if kind == CREDIT:
            return Frame(CREDIT, _CREDIT.unpack(payload)[0])
        if kind in (ACK,):
            return Frame(kind, _OFFSET.unpack(payload)[0])
        if kind == EMIT:
            offset, flags = _EMIT_HEAD.unpack(payload[: _EMIT_HEAD.size])
            return Frame(
                EMIT,
                offset,
                line=payload[_EMIT_HEAD.size :],
                degraded=bool(flags & EMIT_FLAG_DEGRADED),
            )
        if kind in (SOURCE_END, END_ACK, PAUSE, RESUME, STATS):
            if payload:
                raise ServeError(f"{FRAME_NAMES[kind]} frame carries a payload")
            return Frame(kind)
        if kind in (HELLO, HELLO_ACK, STATS_REPLY, ERROR, RESHARD, RESHARD_ACK):
            doc = json.loads(payload.decode())
            if not isinstance(doc, dict):
                raise ServeError(f"{FRAME_NAMES[kind]} payload is not an object")
            return Frame(kind, doc)
    except ServeError:
        raise
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(
            f"malformed {FRAME_NAMES.get(kind, kind)} frame: {exc}"
        ) from exc
    raise ServeError(f"unknown frame type {kind}")


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte-chunk transport.

    ``feed`` buffers bytes; ``frames()`` yields every complete frame and
    leaves a partial tail buffered for the next feed.  Oversized or
    malformed frames raise :class:`ServeError` — the connection is beyond
    recovery once framing desynchronizes, so the caller should close it.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self._splitter = FrameSplitter(max_frame_bytes, ServeError)

    def feed(self, chunk: bytes) -> None:
        self._splitter.feed(chunk)

    def frames(self) -> Iterator[Frame]:
        for kind, payload in self._splitter.frames():
            yield _decode_payload(kind, payload)

    def feed_frames(self, chunk: bytes) -> List[Frame]:
        """Convenience: feed one chunk and collect its completed frames."""
        self.feed(chunk)
        return list(self.frames())

    @property
    def buffered(self) -> int:
        return self._splitter.buffered


def decode_frames(data: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> List[Frame]:
    """Decode a complete byte string; trailing partial frames are an error."""
    decoder = FrameDecoder(max_frame_bytes)
    out = decoder.feed_frames(data)
    if decoder.buffered:
        raise ServeError(f"{decoder.buffered} trailing bytes after the last frame")
    return out
