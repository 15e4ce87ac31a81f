"""Sans-IO length-prefixed framing: ``u32 length (big-endian) | u8 kind | payload``.

The length covers the kind byte plus the payload.  Both wires in this
package use this shape — the ingest service's protocol
(:mod:`repro.serve.protocol`) and the shard-worker link
(:mod:`repro.runtime.transport`) — and both split their byte streams here:
one length-prefix loop, one zero-length check, one size limit.  What a
``(kind, payload)`` pair *means* stays with each layer, as does the error
type a framing violation raises (``ServeError`` / ``WorkerError``): the
splitter is handed that type at construction.
"""

from __future__ import annotations

import struct
from typing import Iterator, Tuple, Type

_LEN = struct.Struct("!I")


def pack_frame(kind: int, payload: bytes = b"") -> bytes:
    """One ``(kind, payload)`` pair as a length-prefixed frame."""
    return _LEN.pack(len(payload) + 1) + bytes((kind,)) + payload


class FrameSplitter:
    """Incremental splitter over an arbitrary byte-chunk transport.

    ``feed`` buffers bytes; ``frames()`` yields every complete ``(kind,
    payload)`` pair and leaves a partial tail buffered for the next feed.
    A zero-length or oversized frame raises ``error`` — framing has
    desynchronized, so the caller should drop the connection.  The limit is
    checked when the length prefix arrives, before any payload is buffered
    beyond what the transport already delivered; ``max_frame_bytes`` may be
    reassigned between frames (the worker link raises it after boot).
    """

    def __init__(self, max_frame_bytes: int, error: Type[Exception]):
        self.max_frame_bytes = int(max_frame_bytes)
        self._error = error
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._buffer.extend(chunk)

    def frames(self) -> Iterator[Tuple[int, bytes]]:
        buffer = self._buffer
        while True:
            if len(buffer) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(buffer)
            if length < 1:
                raise self._error("zero-length frame")
            if length > self.max_frame_bytes:
                raise self._error(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            end = _LEN.size + length
            if len(buffer) < end:
                return
            kind = buffer[_LEN.size]
            payload = bytes(buffer[_LEN.size + 1 : end])
            del buffer[:end]
            yield kind, payload

    @property
    def buffered(self) -> int:
        """Bytes held back as a partial frame."""
        return len(self._buffer)
