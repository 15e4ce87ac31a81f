"""Framing tests: ``repro.wire`` itself, then the same cases through each user.

One splitter owns the ``u32 length | u8 kind | payload`` loop; the ingest
protocol's :class:`FrameDecoder` and the worker link's
:class:`FramedConnection` both feed through it, each raising its own
layer's error type.  Every framing case therefore runs three times: against
the splitter, and against each of the two layers' public surface.
"""

import socket
import struct

import pytest

from repro.errors import ServeError, WorkerError
from repro.runtime.transport import FramedConnection, encode_message
from repro.serve import protocol
from repro.serve.protocol import FrameDecoder
from repro.wire import FrameSplitter, pack_frame

LIMIT = 1 << 12


class WireUser:
    """The bare splitter (told to raise ValueError)."""

    error = ValueError
    frames = [pack_frame(7, b"abc"), pack_frame(9)]

    def __init__(self):
        self.splitter = FrameSplitter(LIMIT, ValueError)

    def feed(self, data):
        self.splitter.feed(data)
        return [kind for kind, _ in self.splitter.frames()]

    @property
    def buffered(self):
        return self.splitter.buffered

    def close(self):
        pass


class ServeUser:
    """The ingest protocol's decoder."""

    error = ServeError
    frames = [protocol.encode_credit(5), protocol.encode_pause()]

    def __init__(self):
        self.decoder = FrameDecoder(LIMIT)

    def feed(self, data):
        return [frame.kind for frame in self.decoder.feed_frames(data)]

    @property
    def buffered(self):
        return self.decoder.buffered

    def close(self):
        pass


class LinkUser:
    """The worker link's connection, fed through a socketpair."""

    error = WorkerError
    frames = [
        encode_message(("step", 1.0, None, None, [3, 1], [2])),
        encode_message(("hb",)),
    ]

    def __init__(self):
        ours, self.peer = socket.socketpair()
        self.conn = FramedConnection(ours, LIMIT)

    def feed(self, data):
        self.peer.sendall(data)
        ops = []
        while self.conn.poll(0.0):
            ops.append(self.conn.recv()[0])
        return ops

    @property
    def buffered(self):
        return self.conn._splitter.buffered

    def close(self):
        self.conn.close()
        self.peer.close()


@pytest.fixture(params=[WireUser, ServeUser, LinkUser], ids=["wire", "serve", "link"])
def user(request):
    user = request.param()
    yield user
    user.close()


class TestFraming:
    def test_byte_at_a_time(self, user):
        data = b"".join(user.frames)
        seen = []
        for i in range(len(data)):
            seen.extend(user.feed(data[i : i + 1]))
        assert len(seen) == 2
        assert user.buffered == 0

    def test_many_frames_one_chunk(self, user):
        assert len(user.feed(b"".join(user.frames * 20))) == 40

    def test_trailing_partial_stays_buffered_then_completes(self, user):
        first, second = user.frames
        assert len(user.feed(first + second[:3])) == 1
        assert user.buffered == 3
        assert len(user.feed(second[3:])) == 1
        assert user.buffered == 0

    def test_zero_length_frame(self, user):
        with pytest.raises(user.error, match="zero-length"):
            user.feed(struct.pack("!I", 0))

    def test_oversize_frame_rejected_from_its_prefix_alone(self, user):
        """The limit applies to the announced length: no payload byte has
        to arrive (or be buffered) before the frame is refused."""
        with pytest.raises(user.error, match="exceeds"):
            user.feed(struct.pack("!I", LIMIT + 1))

    def test_frame_at_the_limit_is_accepted(self):
        splitter = FrameSplitter(LIMIT, ValueError)
        splitter.feed(pack_frame(1, b"x" * (LIMIT - 1)))
        ((kind, payload),) = splitter.frames()
        assert kind == 1 and len(payload) == LIMIT - 1


class TestSplitter:
    def test_pack_frame_layout(self):
        assert pack_frame(5, b"ab") == b"\x00\x00\x00\x03\x05ab"
        assert pack_frame(5) == b"\x00\x00\x00\x01\x05"

    def test_limit_can_be_raised_between_frames(self):
        splitter = FrameSplitter(4, ValueError)
        big = pack_frame(1, b"x" * 10)
        splitter.feed(pack_frame(2, b"abc"))
        assert [kind for kind, _ in splitter.frames()] == [2]
        splitter.max_frame_bytes = 64
        splitter.feed(big)
        assert [len(payload) for _, payload in splitter.frames()] == [10]

    def test_a_poisoned_link_stays_dead(self):
        """After a framing error nothing more is trusted: the connection
        reports not-alive and ``recv`` reports EOF."""
        ours, peer = socket.socketpair()
        conn = FramedConnection(ours, LIMIT)
        peer.sendall(struct.pack("!I", 0) + encode_message(("hb",)))
        with pytest.raises(WorkerError):
            conn.poll(1.0)
        assert not conn.alive
        with pytest.raises(EOFError):
            conn.recv()
        conn.close()
        peer.close()
