"""Worker-link tests: the codec, the shared scenario set bound to the
``remote`` link (localhost TCP), hostile peers, and live re-sharding.

The contracts under test:

* the remote executor at an equal shard count is **byte-identical** to the
  serial executor — the wire codec (struct-packed step/events frames, state
  trees as JSON skeleton + raw arrays) is an exact encoding;
* every way a frame can be malformed surfaces as :class:`WorkerError` with
  the proxy marked dead, so a corrupt link is a dead worker: the supervisor
  respawns it and the output stays byte-identical;
* a fresh worker is bounded in size and time until it has decoded a valid
  boot frame, and never outlives the process that forked it;
* a dead shard host heals exactly like a dead local worker: the supervisor
  respawns the proxy (reconnecting to a fresh host on the same endpoint),
  restores from the checkpoint, replays the journal;
* a live re-shard (``ShardedRuntime.reshard``) migrates a running N-shard
  layout to M shards at an epoch boundary and continues **bitwise-identical
  to a stop-the-world checkpoint → re-sharded restore** at the same epoch —
  including the spatial-index region sets, which ride along with their
  objects.
"""

import json
import math
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from worker_links import (
    POLICY,
    assert_same_events as assert_events_equal,
    check_belief_reads,
    check_checkpoint_kill_restore,
    check_counters,
    check_cross_executor_restore,
    check_no_shared_memory,
    check_parity,
    check_queries,
    serial_events,
    shard_host,
    worker_link,
)

from repro.config import InferenceConfig, RuntimeConfig, SupervisorConfig
from repro.errors import InferenceError, WorkerError
from repro.inference.factored import FactoredParticleFilter
from repro.runtime import ShardedRuntime, ShardWorkerProxy, transport
from repro.runtime.transport import (
    T_CONTROL,
    T_EVENTS,
    T_HB,
    T_STEP,
    FramedConnection,
    ShardHostServer,
    decode_payload,
    encode_message,
    parse_endpoint,
)
from repro.state import reshard_states, restore_runtime
from repro.streams.records import LocationEvent, LocationStatistics, TagId, make_epoch
from repro.wire import FrameSplitter, pack_frame


@pytest.fixture(scope="module")
def scenario():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    simulator = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=6, n_shelf_tags=3), seed=11)
    )
    trace = simulator.generate()
    config = InferenceConfig(reader_particles=50, object_particles=100, seed=7)
    return simulator.world_model(), trace, config


def remote_config(server, n_shards, supervisor=None, **extra):
    port = server if isinstance(server, int) else server.port
    return RuntimeConfig(
        n_shards=n_shards,
        executor="remote",
        shard_hosts=(f"127.0.0.1:{port}",),
        supervisor=supervisor,
        **extra,
    )


def sealed_control(header: bytes, body: bytes = b"", header_bytes=None) -> bytes:
    """A CONTROL frame whose checksum is right, whatever its content (and
    whatever header length it claims)."""
    claimed = len(header) if header_bytes is None else header_bytes
    checked = struct.pack("!I", claimed) + header + body
    return pack_frame(T_CONTROL, struct.pack("!I", zlib.crc32(checked)) + checked)


def decode_frame(frame: bytes) -> tuple:
    return decode_payload(frame[4], frame[5:])


class TestWireCodec:
    def test_step_frame_roundtrip_is_exact(self):
        message = (
            "step",
            12.5,
            (1.25, -3.5, 0.0),
            0.7853981633974483,
            [3, 1, 4, 1, 5],
            [9, 2, 6],
        )
        frame = encode_message(message)
        kind, payload = frame[4], frame[5:]
        decoded = decode_payload(kind, payload)
        assert decoded[0] == "step"
        assert decoded[1] == message[1]
        assert decoded[2] == message[2]
        assert decoded[3] == message[3]
        assert list(decoded[4]) == message[4]
        assert list(decoded[5]) == message[5]

    def test_step_frame_dropout_epoch(self):
        """Handheld readers / positioning dropouts: no position, no
        heading — both must round-trip as None, not as the origin."""
        frame = encode_message(("step", 1.0, None, None, [], []))
        decoded = decode_payload(frame[4], frame[5:])
        assert decoded[2] is None and decoded[3] is None
        assert decoded[4] == [] and decoded[5] == []

    def test_events_frame_preserves_flat_covariance(self):
        """LocationStatistics.covariance is a flat row-major 9-tuple in the
        pipeline; the frame must reproduce exactly that shape."""
        covariance = tuple(float(v) for v in range(9))
        events = [
            LocationEvent(
                30.0,
                TagId.object(4),
                np.array([1.0, 2.0, 3.0]),
                LocationStatistics(covariance, 0.25, 17),
            ),
            LocationEvent(31.0, TagId.object(5), np.zeros(3)),
        ]
        op, decoded = decode_frame(encode_message(("events", events)))
        assert op == "events"
        first, second = decoded
        assert first.time == 30.0 and first.tag == TagId.object(4)
        np.testing.assert_array_equal(first.position, events[0].position)
        assert first.statistics == events[0].statistics
        assert first.statistics.covariance == covariance
        assert second.statistics is None
        assert decode_frame(encode_message(("events", []))) == ("events", [])

    def test_events_frame_is_a_row_count_then_rows(self):
        """EVENTS is ``u32 count | rows``: nothing rides beside the events,
        so a statistics-free row costs exactly its fixed-width record."""
        event = LocationEvent(1.0, TagId.object(1), np.zeros(3))
        empty = encode_message(("events", []))
        one = encode_message(("events", [event]))
        assert empty[5:] == struct.pack("!I", 0)
        assert one[5:9] == struct.pack("!I", 1)
        assert len(one) - len(empty) == struct.calcsize("!dIdddB")

    def test_parse_endpoint(self):
        assert parse_endpoint("10.0.0.7:9200") == ("10.0.0.7", 9200)

    def test_control_frame_carries_int_keyed_replies_as_arrays(self):
        """State trees stringify dict keys, so int-keyed replies cross as
        parallel arrays; everything else comes back as it went in."""
        reply = {
            "known": [3, 5],
            "means": np.arange(6.0).reshape(2, 3),
            "stats": {"objects": 2.0, "ratio": float("nan")},
            "nothing": None,
        }
        op, decoded = decode_frame(encode_message(("ok", reply)))
        assert op == "ok" and decoded["known"] == [3, 5]
        np.testing.assert_array_equal(decoded["means"], reply["means"])
        assert decoded["means"].dtype == np.float64
        assert math.isnan(decoded["stats"]["ratio"]) and decoded["nothing"] is None
        assert decode_frame(encode_message(("stop",))) == ("stop",)
        assert decode_frame(encode_message(("error", "StateError", "x"))) == (
            "error",
            "StateError",
            "x",
        )


# ---------------------------------------------------------------------------
# Malformed frames: every decode failure is a WorkerError
# ---------------------------------------------------------------------------
def _truncated_step():
    frame = encode_message(("step", 1.0, None, None, [1, 2, 3], [4]))
    return pack_frame(T_STEP, frame[5:-2])


def _events_with_trailing_bytes():
    event = LocationEvent(1.0, TagId.object(1), np.zeros(3))
    return pack_frame(T_EVENTS, encode_message(("events", [event]))[5:] + b"\0")


def _control_with_flipped_bit():
    frame = bytearray(encode_message(("ok", {"a": np.arange(4.0)})))
    frame[-3] ^= 0x10
    return bytes(frame)


MALFORMED_FRAMES = {
    # struct.error at the parent commit
    "events-lying-row-count": pack_frame(T_EVENTS, struct.pack("!I", 1000)),
    # _pickle.UnpicklingError at the parent commit
    "control-garbage": pack_frame(T_CONTROL, b"\x80\x04garbage, not a state tree"),
    "events-trailing-bytes": _events_with_trailing_bytes(),
    # An EVENTS frame in the old layout (u16 advert length + JSON segment
    # advert after the row count): the advert is now trailing bytes.
    "events-bad-segment-advert": pack_frame(
        T_EVENTS, struct.pack("!IH", 0, 4) + b"[1,2"
    ),
    "step-truncated-vectors": _truncated_step(),
    "step-short-header": pack_frame(T_STEP, b"\0" * 7),
    "unknown-kind": pack_frame(99, b"payload"),
    "heartbeat-with-payload": pack_frame(T_HB, b"x"),
    "zero-length": struct.pack("!I", 0),
    "oversize-length": struct.pack("!I", transport.MAX_MESSAGE_BYTES + 1),
    "control-flipped-bit": _control_with_flipped_bit(),
    "control-header-overrun": sealed_control(b"{}", header_bytes=500),
    "control-header-not-json": sealed_control(b"\xff\xfe not json"),
    "control-header-wrong-types": sealed_control(b'{"op":1,"args":{},"arrays":[]}'),
    "control-header-missing-members": sealed_control(b'{"op":"ok"}'),
    # Checked against the payload length before allocation: this index
    # asks for 8 GB the frame does not hold.
    "control-array-outside-payload": sealed_control(
        json.dumps(
            {
                "op": "ok",
                "args": [{"__array__": "/0"}],
                "arrays": {"/0": ["<f8", [1_000_000_000], 0, 8_000_000_000]},
            }
        ).encode()
    ),
    "control-array-bad-dtype": sealed_control(
        json.dumps(
            {"op": "ok", "args": [], "arrays": {"/0": ["no-such-dtype", [1], 0, 8]}}
        ).encode(),
        b"\0" * 8,
    ),
    "control-array-object-dtype": sealed_control(
        json.dumps(
            {"op": "ok", "args": [], "arrays": {"/0": ["|O", [1], 0, 8]}}
        ).encode(),
        b"\0" * 8,
    ),
    "control-placeholder-without-array": sealed_control(
        json.dumps({"op": "ok", "args": [{"__array__": "/0"}], "arrays": {}}).encode()
    ),
    "control-bytes-after-last-array": sealed_control(
        json.dumps({"op": "ok", "args": [], "arrays": {}}).encode(), b"stray"
    ),
}


@contextmanager
def fake_shard_host(misbehave):
    """A TCP peer that boots like a worker, then runs ``misbehave(conn,
    sock)`` — the hostile or broken remote end of a worker link."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)

    def serve():
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return
            conn = FramedConnection(sock)
            try:
                assert conn.recv()[0] == "boot"
                conn.send(("ready",))
                misbehave(conn, sock)
            except (EOFError, OSError, WorkerError):
                pass
            finally:
                conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        listener.close()
        thread.join(5.0)


class TestMalformedFrames:
    @pytest.mark.parametrize("name", sorted(MALFORMED_FRAMES))
    def test_every_decode_failure_is_a_worker_error(self, name):
        """A fake peer on a socketpair sends one bad frame: the connection
        raises WorkerError — never struct.error, a JSON error, a numpy
        error — and is dead afterwards."""
        ours, peer = socket.socketpair()
        conn = FramedConnection(ours)
        peer.sendall(encode_message(("hb",)))
        assert conn.recv() == ("hb",)
        peer.sendall(MALFORMED_FRAMES[name])
        with pytest.raises(WorkerError):
            conn.recv()
        assert not conn.alive
        peer.close()
        conn.close()

    @pytest.mark.parametrize("name", ["events-lying-row-count", "control-garbage"])
    def test_malformed_reply_marks_the_proxy_dead(self, scenario, name):
        """What the supervisor keys on: the proxy raises WorkerError *and*
        reports not-alive, so the shard is respawned instead of the run
        aborting on a stray exception type with a live-looking proxy."""
        model, trace, config = scenario

        def misbehave(conn, sock):
            conn.recv()  # the step request
            sock.sendall(MALFORMED_FRAMES[name])
            conn.poll(5.0)  # hold the link open until the proxy hangs up

        with fake_shard_host(misbehave) as port:
            proxy = ShardWorkerProxy(
                0, model, config, POLICY, endpoint=f"127.0.0.1:{port}"
            )
            try:
                assert proxy.is_alive()
                proxy.step_async(make_epoch(0.0, object_tags=[1]))
                with pytest.raises(WorkerError, match="malformed"):
                    proxy.collect_events()
                assert not proxy.is_alive()
                with pytest.raises(WorkerError, match="not running"):
                    proxy.step_async(make_epoch(1.0, object_tags=[1]))
            finally:
                proxy.close(force=True)

    def test_unsupervised_run_aborts_cleanly_on_a_corrupt_link(self, scenario):
        model, trace, config = scenario
        with shard_host() as server, corrupting_relay(server.port, nth=3) as relay:
            runtime = ShardedRuntime(model, config, remote_config(relay.port, 2), POLICY)
            with pytest.raises(WorkerError, match="malformed"):
                runtime.run(trace.epochs())
            assert runtime.bus.closed
            assert not any(proxy.is_alive() for proxy in runtime.shards)


# ---------------------------------------------------------------------------
# The control codec: state trees cross bitwise, damage never goes unnoticed
# ---------------------------------------------------------------------------
ARENA_DTYPES = ("<f8", "<f4", "<i4", "<i8", "<u8", "|b1", "|u1")
_keys = st.text(
    st.characters(blacklist_characters="/", blacklist_categories=("Cs",)), max_size=6
).filter(lambda key: key != "__array__")
_arrays = st.sampled_from(ARENA_DTYPES).flatmap(
    lambda dtype: hnp.arrays(
        np.dtype(dtype), hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
    )
)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**130), 2**130)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    | _arrays
)
state_trees = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_keys, children, max_size=4),
    max_leaves=12,
)


def trees_equal(a, b) -> bool:
    """Bit-exact tree equality (floats by sign and value, NaN == NaN)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(trees_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(trees_equal, a, b))
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


class TestControlCodecProperty:
    @settings(max_examples=150, deadline=None)
    @given(tree=state_trees, damage=st.data())
    def test_roundtrip_is_bit_exact_and_damage_is_loud(self, tree, damage):
        frame = encode_message(("restore", tree))
        op, decoded = decode_frame(frame)
        assert op == "restore" and trees_equal(decoded, tree)

        payload = bytearray(frame[5:])
        if damage.draw(st.booleans(), label="truncate"):
            cut = damage.draw(st.integers(0, len(payload) - 1), label="cut")
            damaged = bytes(payload[:cut])
        else:
            bit = damage.draw(st.integers(0, len(payload) * 8 - 1), label="bit")
            payload[bit // 8] ^= 1 << (bit % 8)
            damaged = bytes(payload)
        try:
            survived = decode_payload(T_CONTROL, damaged)
        except WorkerError:
            return
        assert survived[0] == "restore" and trees_equal(survived[1], tree)

    def test_snapshot_tree_survives_the_codec_bitwise(self, scenario):
        """The real thing: a shard's full and delta snapshot trees."""
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=1), POLICY)
        epochs = trace.epochs()
        for epoch in epochs[:20]:
            runtime.step(epoch)
        from repro.state.snapshot import split_state_tree

        for mode in ("full", "delta"):
            tree = runtime.shards[0].snapshot(mode)
            _, decoded = decode_frame(encode_message(("ok", tree)))
            want_skeleton, want_arrays = split_state_tree(tree)
            got_skeleton, got_arrays = split_state_tree(decoded)
            assert json.dumps(got_skeleton) == json.dumps(want_skeleton)
            assert list(got_arrays) == list(want_arrays)
            for key, array in want_arrays.items():
                assert trees_equal(got_arrays[key], array), key
            for epoch in epochs[20:25]:
                runtime.step(epoch)
        runtime.abort()


# ---------------------------------------------------------------------------
# A link that damages bytes in flight
# ---------------------------------------------------------------------------
class CorruptingRelay:
    """TCP relay to a real shard host that corrupts one frame, once.

    The ``nth`` EVENTS frame flowing worker → runtime on the *first*
    connection gets its kind byte overwritten; every later connection (the
    supervisor's respawn) passes through clean.
    """

    def __init__(self, upstream_port, nth):
        self.upstream_port = upstream_port
        self.nth = nth
        self.corrupted = 0
        self.connections = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            upstream = socket.create_connection(("127.0.0.1", self.upstream_port))
            first = self.connections == 0
            self.connections += 1
            for args in ((client, upstream, False), (upstream, client, first)):
                threading.Thread(target=self._pump, args=args, daemon=True).start()

    def _pump(self, source, sink, corrupt):
        splitter = FrameSplitter(transport.MAX_MESSAGE_BYTES, ValueError)
        seen = 0
        try:
            while True:
                chunk = source.recv(1 << 16)
                if not chunk:
                    break
                if not corrupt:
                    sink.sendall(chunk)
                    continue
                splitter.feed(chunk)
                for kind, payload in splitter.frames():
                    if kind == T_EVENTS:
                        seen += 1
                        if seen == self.nth:
                            kind = 0x63
                            self.corrupted += 1
                    sink.sendall(pack_frame(kind, payload))
        except OSError:
            pass
        finally:
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # ends the opposite pump
                except OSError:
                    pass
                sock.close()

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self._listener.close()
        self._thread.join(5.0)


@contextmanager
def corrupting_relay(upstream_port, nth):
    relay = CorruptingRelay(upstream_port, nth)
    try:
        yield relay
    finally:
        relay.close()


# ---------------------------------------------------------------------------
# The shared scenario set over the remote link
# ---------------------------------------------------------------------------
class TestRemoteParity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_remote_executor_bitwise_vs_serial(self, scenario, n_shards):
        check_parity(scenario, "remote", n_shards)

    def test_single_shard_remote_matches_unsharded_root_seed(self, scenario):
        check_parity(scenario, "remote", 1)

    def test_remote_belief_fetch_matches_local_arena(self, scenario):
        check_belief_reads(scenario, "remote")

    def test_remote_stats_report_wire_bytes(self, scenario):
        check_queries(scenario, "remote")

    def test_remote_counters_match_serial(self, scenario):
        check_counters(scenario, "remote")

    def test_remote_workers_allocate_no_shared_memory(self, scenario, monkeypatch):
        check_no_shared_memory(scenario, "remote", monkeypatch)

    def test_unreachable_host_raises_worker_error(self, scenario):
        model, trace, config = scenario
        server = ShardHostServer()
        port = server.port
        server.shutdown()  # nothing listens here any more
        config_remote = RuntimeConfig(
            n_shards=2, executor="remote", shard_hosts=(f"127.0.0.1:{port}",)
        )
        with pytest.raises(WorkerError, match="cannot reach shard host"):
            ShardedRuntime(model, config, config_remote, POLICY)

    def test_remote_worker_reports_its_engine_exception(self, scenario, monkeypatch):
        """An engine failure in a remote worker crosses the link by name,
        and the run leaves no live worker and a closed bus behind."""
        model, trace, config = scenario

        def blow_up(self, epoch):
            raise RuntimeError("engine blew up")

        # Patched before the host forks its workers: they inherit it.
        monkeypatch.setattr(FactoredParticleFilter, "step", blow_up)
        with worker_link("remote") as runtime_config:
            runtime = ShardedRuntime(model, config, runtime_config(2), POLICY)
            with pytest.raises(InferenceError, match="RuntimeError: engine blew up"):
                runtime.run(trace.epochs())
        assert not any(proxy.is_alive() for proxy in runtime.shards)
        assert runtime.bus.closed


class TestRemoteDurability:
    def test_checkpoint_kill_restore_is_bitwise(self, scenario, tmp_path):
        check_checkpoint_kill_restore(scenario, "remote", tmp_path)

    @pytest.mark.parametrize("mode", ["full", "delta"])
    @pytest.mark.parametrize(
        "source,target", [("process", "remote"), ("remote", "process")]
    )
    def test_checkpoints_cross_between_the_two_links(
        self, scenario, tmp_path, source, target, mode
    ):
        """Written under one worker executor, restored under the other —
        a full checkpoint and a delta chain — output bitwise."""
        check_cross_executor_restore(scenario, source, target, tmp_path, mode)


# ---------------------------------------------------------------------------
# Before boot: a fresh worker is bounded in size and in time
# ---------------------------------------------------------------------------
def _drain_until_closed(sock, timeout=10.0):
    """Everything the peer sends until it closes the link, decoded."""
    sock.settimeout(timeout)
    splitter = FrameSplitter(transport.MAX_MESSAGE_BYTES, ValueError)
    messages = []
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return messages
        splitter.feed(chunk)
        messages.extend(decode_payload(k, p) for k, p in splitter.frames())


class TestPreBoot:
    def test_oversize_first_frame_is_refused_from_its_prefix(self):
        """State trees may be a gigabyte; a boot document may not.  The
        length prefix alone earns the refusal — nothing is buffered."""
        with shard_host() as server:
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(struct.pack("!I", transport.PRE_BOOT_MAX_BYTES + 1))
            replies = _drain_until_closed(sock)
            sock.close()
        assert [m[0] for m in replies] == ["error"]
        assert "exceeds" in replies[0][2]

    @pytest.mark.parametrize(
        "first",
        [("stats",), ("step", 0.0, None, None, [], []), ("boot", "not a document")],
        ids=["control", "step", "boot-without-document"],
    )
    def test_non_boot_first_frame_earns_one_error_and_a_close(self, first):
        with shard_host() as server:
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(encode_message(first))
            replies = _drain_until_closed(sock)
            sock.close()
        assert len(replies) == 1 and replies[0][0] == "error"
        assert "expected a boot frame first" in replies[0][2]

    def test_malformed_boot_document_is_an_error_not_a_crash(self, scenario):
        with shard_host() as server:
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(encode_message(("boot", {"index": 0, "model": {}})))
            replies = _drain_until_closed(sock)
            sock.close()
        assert len(replies) == 1 and replies[0][:2] == ("error", "WorkerError")
        assert "malformed boot document" in replies[0][2]

    def test_slow_loris_first_frame_is_dropped_at_the_connect_timeout(
        self, monkeypatch
    ):
        """A peer trickling a never-finished frame holds a worker only
        until CONNECT_TIMEOUT_S (forked workers inherit the patched value)."""
        monkeypatch.setattr(transport, "CONNECT_TIMEOUT_S", 0.4)
        with shard_host() as server:
            sock = socket.create_connection(("127.0.0.1", server.port))
            started = time.monotonic()
            sock.sendall(struct.pack("!I", 64) + bytes([T_CONTROL]))
            replies = _drain_until_closed(sock)
            sock.close()
            elapsed = time.monotonic() - started
        assert [m[0] for m in replies] == ["error"]
        assert "no boot frame" in replies[0][2]
        assert 0.3 <= elapsed < 5.0

    def test_post_boot_frames_may_be_large(self, scenario):
        """The pre-boot cap lifts once a valid boot is decoded: a restore
        tree bigger than the cap goes through."""
        model, trace, config = scenario
        with shard_host() as server:
            proxy = ShardWorkerProxy(
                0, model, config, POLICY, endpoint=f"127.0.0.1:{server.port}"
            )
            try:
                state = proxy.snapshot("full")
                state["padding"] = np.zeros(transport.PRE_BOOT_MAX_BYTES // 4)
                proxy.restore(state)
                assert proxy.is_alive()
            finally:
                proxy.close()


# ---------------------------------------------------------------------------
# No orphans: workers never outlive whoever forked them
# ---------------------------------------------------------------------------
def _children_of(pid):
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fp:
                fields = fp.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fp:
            return fp.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _spawn_host(port=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    host = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-host", "--port", str(port)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = host.stdout.readline()
    assert "listening on" in line, line
    return host, int(line.rsplit(":", 1)[1])


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestNoOrphans:
    def test_sigkilled_host_takes_its_workers_with_it_and_heals(
        self, scenario, tmp_path
    ):
        """SIGKILL the shard host: no relay is left to reap its workers, so
        they must notice and exit on their own; the runtime sees dead links,
        and a fresh host on the same port heals the run byte-identically."""
        model, trace, config = scenario
        reference = serial_events(model, trace, config, 2)
        epochs = trace.epochs()
        interval = 0.1
        supervisor = SupervisorConfig(
            backoff_base_s=0.05,
            op_timeout_s=30.0,
            heartbeat_interval_s=interval,
            heartbeat_grace_s=5.0,
        )
        host, port = _spawn_host()
        second = None
        runtime = ShardedRuntime(
            model,
            config,
            remote_config(
                port,
                2,
                supervisor=supervisor,
                checkpoint_every_s=6.0,
                checkpoint_dir=str(tmp_path),
            ),
            POLICY,
        )
        try:
            for epoch in epochs[: len(epochs) // 2]:
                runtime.step(epoch)
                runtime.checkpoint_if_due()
            workers = _children_of(host.pid)
            assert len(workers) == 2
            os.kill(host.pid, signal.SIGKILL)
            host.wait(10.0)
            deadline = time.monotonic() + 50 * interval
            while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(interval / 4)
            assert not any(_alive(pid) for pid in workers), "orphaned workers"
            # The dead workers had closed their inherited listener: the
            # port is free the moment the host is gone.
            second, _ = _spawn_host(port)
            for epoch in epochs[len(epochs) // 2 :]:
                runtime.step(epoch)
                runtime.checkpoint_if_due()
            runtime.finish()
            assert runtime.supervisor_stats()["restarts"] >= 2
        finally:
            runtime.abort()
            for process in (host, second):
                if process is not None:
                    process.kill()
                    process.wait(10.0)
                    process.stdout.close()
        assert_events_equal(runtime.sink.events, reference)

    def test_sigkilled_runtime_takes_its_local_workers_with_it(self, tmp_path):
        """The same rule on the local link: a ``process`` worker whose
        runtime is SIGKILLed exits within a few heartbeat intervals."""
        script = tmp_path / "victim.py"
        script.write_text(
            "import sys, time\n"
            "from repro.config import InferenceConfig, RuntimeConfig, SupervisorConfig\n"
            "from repro.runtime import ShardedRuntime\n"
            "from repro.simulation.layout import LayoutConfig\n"
            "from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator\n"
            "sim = WarehouseSimulator(WarehouseConfig(\n"
            "    layout=LayoutConfig(n_objects=4, n_shelf_tags=2), seed=1))\n"
            "runtime = ShardedRuntime(sim.world_model(),\n"
            "    InferenceConfig(reader_particles=20, object_particles=40),\n"
            "    RuntimeConfig(n_shards=2, executor='process',\n"
            "        supervisor=SupervisorConfig(heartbeat_interval_s=0.1)))\n"
            "print('up', flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        victim = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            assert victim.stdout.readline().strip() == "up"
            # Two shard workers.
            before = _children_of(victim.pid)
            assert len(before) >= 2
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(10.0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(_alive(p) for p in before):
                time.sleep(0.05)
            assert not any(_alive(pid) for pid in before)
        finally:
            victim.kill()
            victim.wait(10.0)
            victim.stdout.close()

    def test_shutdown_frees_the_port_and_reaps_every_worker(self, scenario):
        model, trace, config = scenario
        with shard_host() as server:
            port = server.port
            runtime = ShardedRuntime(model, config, remote_config(server, 2), POLICY)
            try:
                runtime.step(trace.epochs()[0])
                workers = list(server._workers)
                assert len(workers) == 2 and all(w.is_alive() for w in workers)
                server.shutdown()
                assert not any(w.is_alive() for w in workers)
                # Immediately rebindable: no worker kept the listener.
                ShardHostServer(port=port).shutdown()
                with pytest.raises(WorkerError, match="died"):
                    runtime.step(trace.epochs()[1])
            finally:
                runtime.abort()

    def test_host_reaps_workers_whose_runtime_hung_up(self, scenario):
        """A closed link ends its worker; the accept loop reaps it (no
        zombie, no growth) without any per-connection thread."""
        model, trace, config = scenario
        with shard_host() as server:
            runtime = ShardedRuntime(model, config, remote_config(server, 2), POLICY)
            runtime.step(trace.epochs()[0])
            workers = list(server._workers)
            for proxy in runtime.shards:
                proxy.close(force=True)  # no goodbye: just hang up
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server._workers:
                time.sleep(0.05)
            assert not server._workers
            assert not any(w.is_alive() for w in workers)
            runtime.abort()


class TestSupervisedRecovery:
    def test_dead_shard_host_heals_like_local_death(self, scenario, tmp_path):
        """Checkpoint, kill the shard host mid-run, bring a fresh host up
        on the same port: the supervisor reconnects, restores from the
        checkpoint, replays the journal, and the output is byte-identical."""
        model, trace, config = scenario
        reference = serial_events(model, trace, config, 2)
        supervisor = SupervisorConfig(backoff_base_s=0.05, op_timeout_s=30.0)
        epochs = trace.epochs()
        with shard_host() as first:
            port = first.port
            runtime = ShardedRuntime(
                model,
                config,
                remote_config(
                    first,
                    2,
                    supervisor=supervisor,
                    checkpoint_every_s=6.0,
                    checkpoint_dir=str(tmp_path),
                ),
                POLICY,
            )
            try:
                for epoch in epochs[: len(epochs) // 2]:
                    runtime.step(epoch)
                    runtime.checkpoint_if_due()
                # The whole host dies: every worker is killed, both
                # worker sockets go EOF.
                first.shutdown()
                with shard_host(port=port) as second:  # noqa: F841
                    for epoch in epochs[len(epochs) // 2 :]:
                        runtime.step(epoch)
                        runtime.checkpoint_if_due()
                    runtime.finish()
                    stats = runtime.supervisor_stats()
                    assert stats["restarts"] >= 2  # both shards died
            finally:
                runtime.abort()
        assert_events_equal(runtime.sink.events, reference)

    def test_byte_corrupting_link_heals_byte_identical(self, scenario):
        """One frame damaged in flight is one dead worker: respawned
        through the (now clean) link, replayed, output unchanged."""
        model, trace, config = scenario
        reference = serial_events(model, trace, config, 2)
        supervisor = SupervisorConfig(backoff_base_s=0.01, op_timeout_s=30.0)
        with shard_host() as server, corrupting_relay(server.port, nth=12) as relay:
            runtime = ShardedRuntime(
                model, config, remote_config(relay.port, 2, supervisor=supervisor), POLICY
            )
            try:
                runtime.run(trace.epochs())
                stats = runtime.supervisor_stats()
            finally:
                runtime.abort()
        assert relay.corrupted == 1
        assert stats["restarts"] == 1
        assert_events_equal(runtime.sink.events, reference)


class TestLiveReshard:
    @pytest.mark.parametrize("executor", ["serial", "remote"])
    def test_live_reshard_matches_stop_the_world(
        self, scenario, tmp_path, executor
    ):
        """Live 2→4 at an epoch boundary == checkpoint at that epoch +
        re-sharded restore, bit for bit — on both in-process and socket
        transports."""
        model, trace, config = scenario
        epochs = trace.epochs()
        cut = len(epochs) // 2

        reference = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in epochs[:cut]:
            reference.step(epoch)
        reference.checkpoint(str(tmp_path / "cut"))
        reference.abort()
        restored, _ = restore_runtime(
            str(tmp_path / "cut"), model, RuntimeConfig(n_shards=4)
        )
        for epoch in epochs[cut:]:
            restored.step(epoch)
        restored.finish()
        expected_post = restored.sink.events

        def run_live(runtime_config):
            runtime = ShardedRuntime(model, config, runtime_config, POLICY)
            try:
                for epoch in epochs[:cut]:
                    runtime.step(epoch)
                emitted_before = len(runtime.sink.events)
                runtime.reshard(4)
                assert runtime.n_shards == 4
                assert len(runtime.shards) == 4
                assert runtime.reshards_total == 1
                assert runtime.last_reshard_ms is not None
                for epoch in epochs[cut:]:
                    runtime.step(epoch)
                runtime.finish()
            finally:
                runtime.abort()
            return runtime, runtime.sink.events[emitted_before:]

        if executor == "serial":
            runtime, live_post = run_live(RuntimeConfig(n_shards=2))
        else:
            with shard_host() as server:
                runtime, live_post = run_live(remote_config(server, 2))
        assert runtime.migrated_objects_total > 0
        assert_events_equal(live_post, expected_post)

    def test_reshard_same_layout_is_noop(self, scenario):
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in trace.epochs()[:5]:
            runtime.step(epoch)
        shards_before = runtime.shards
        runtime.reshard(2)
        assert runtime.shards is shards_before
        assert runtime.reshards_total == 0
        runtime.abort()

    def test_reshard_writes_fresh_checkpoint_baseline(self, scenario, tmp_path):
        """With a checkpoint dir armed, the live re-shard lands a new
        checkpoint before ingest resumes — supervised recovery never sees
        the broken-journal gap."""
        from repro.state import latest_checkpoint, load_checkpoint

        model, trace, config = scenario
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(
                n_shards=2,
                executor="process",
                supervisor=SupervisorConfig(backoff_base_s=0.01),
                checkpoint_every_s=3600.0,  # periodic cadence never fires
                checkpoint_dir=str(tmp_path),
            ),
            POLICY,
        )
        try:
            epochs = trace.epochs()
            for epoch in epochs[:8]:
                runtime.step(epoch)
            runtime.reshard(3)
            manifest = load_checkpoint(latest_checkpoint(tmp_path))
            assert manifest.n_shards == 3
            assert manifest.epochs_processed == 8
            # The new baseline is immediately usable: kill a worker and the
            # supervisor recovers from it rather than escalating.
            runtime.shards[1].process.kill()
            runtime.shards[1].process.join(5.0)
            for epoch in epochs[8:12]:
                runtime.step(epoch)
            assert runtime.supervisor_stats()["restarts"] == 1
        finally:
            runtime.abort()

    def test_reshard_without_checkpoint_dir_breaks_journal(self, scenario):
        """No checkpoint dir: a worker death after a live re-shard has no
        baseline and must escalate loudly, not silently diverge."""
        model, trace, config = scenario
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(
                n_shards=2,
                executor="process",
                supervisor=SupervisorConfig(backoff_base_s=0.01),
            ),
            POLICY,
        )
        try:
            epochs = trace.epochs()
            for epoch in epochs[:6]:
                runtime.step(epoch)
            runtime.reshard(3)
            runtime.shards[0].process.kill()
            runtime.shards[0].process.join(5.0)
            with pytest.raises(WorkerError, match="beyond recovery"):
                for epoch in epochs[6:10]:
                    runtime.step(epoch)
        finally:
            runtime.abort()

    def test_reshard_invalid_count_rejected(self, scenario):
        from repro.errors import StateError

        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        with pytest.raises(StateError):
            runtime.reshard(0)
        runtime.abort()


class TestSelectorMigration:
    def test_reshard_migrates_spatial_regions_with_objects(self):
        """The elastic N→M path must carry the spatial-index regions and
        their per-object attachments — an empty selector silently disables
        Case-2 negative evidence on every migrated shard."""
        from repro.runtime.router import EpochRouter
        from repro.simulation.layout import LayoutConfig
        from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

        simulator = WarehouseSimulator(
            WarehouseConfig(layout=LayoutConfig(n_objects=8, n_shelf_tags=3), seed=3)
        )
        trace = simulator.generate()
        config = InferenceConfig(
            reader_particles=40, object_particles=80, seed=5
        ).with_index()
        runtime = ShardedRuntime(
            simulator.world_model(), config, RuntimeConfig(n_shards=2), POLICY
        )
        for epoch in trace.epochs():
            runtime.step(epoch)
        old_states = [shard.snapshot("full") for shard in runtime.shards]
        old_selectors = [s["engine"]["selector"] for s in old_states]
        assert any(
            sel["attached"]["ids"].size for sel in old_selectors
        ), "scenario never attached an object — test is vacuous"
        router = EpochRouter(3)
        new_states = reshard_states(
            old_states,
            router,
            3,
            config.seed,
            spatial_enabled=True,
            epochs_processed=runtime.epochs_processed,
        )
        runtime.abort()

        def pairs(selector):
            """``{(object id, region id)}`` of an ``attached`` table."""
            table = selector["attached"]
            objects = np.repeat(table["ids"], table["counts"])
            return set(zip(objects.tolist(), table["regions"].tolist()))

        attachments = set().union(*map(pairs, old_selectors))
        for m, state in enumerate(new_states):
            selector = state["engine"]["selector"]
            assert selector is not None
            # Region geometry and order come from new shard m's *source*
            # frame, old shard (m * n_old) // n_new — geometry differs
            # slightly between old shards because each duplicates the
            # reader belief with its own RNG stream.
            source = old_selectors[(m * 2) // 3]["regions"]
            for column in ("ids", "lo", "hi"):
                np.testing.assert_array_equal(selector["regions"][column], source[column])
            # Attachments are the union across every old shard, re-filtered
            # by the new router.
            assert pairs(selector) == {
                (n, r) for n, r in attachments if router.shard_of(n) == m
            }
        # Nothing dropped: the union across new shards is the old union.
        migrated = set().union(*(pairs(s["engine"]["selector"]) for s in new_states))
        assert migrated == attachments


class TestConfig:
    def test_remote_requires_shard_hosts(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="shard_hosts"):
            RuntimeConfig(n_shards=2, executor="remote")

    def test_shard_hosts_require_remote_executor(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="remote"):
            RuntimeConfig(n_shards=2, shard_hosts=("127.0.0.1:9000",))

    @pytest.mark.parametrize("endpoint", ["nohost", "host:", "host:0", "host:99999"])
    def test_bad_endpoints_rejected(self, endpoint):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RuntimeConfig(n_shards=1, executor="remote", shard_hosts=(endpoint,))

    def test_heartbeat_knobs_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="heartbeat_interval_s"):
            SupervisorConfig(heartbeat_interval_s=0.0)
        with pytest.raises(ConfigurationError, match="heartbeat_grace_s"):
            SupervisorConfig(heartbeat_interval_s=1.0, heartbeat_grace_s=0.5)

    def test_heartbeat_knobs_reach_workers(self, scenario):
        model, trace, config = scenario
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(
                n_shards=2,
                executor="process",
                supervisor=SupervisorConfig(
                    heartbeat_interval_s=0.1, heartbeat_grace_s=4.0
                ),
            ),
            POLICY,
        )
        try:
            for proxy in runtime.shards:
                assert proxy.heartbeat_interval_s == 0.1
                assert proxy.heartbeat_grace_s == 4.0
        finally:
            runtime.abort()
