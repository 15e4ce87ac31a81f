"""Delivery-sink tests: durable log, torn-tail recovery, replay verify."""

import json
import os

import pytest

from repro.errors import StateError
from repro.serve.sink import DeliverySink, encode_emission


def payload(i):
    return {"query": "q", "time": float(i), "row": {"v": i}}


class TestAppend:
    def test_offsets_are_sequential(self, tmp_path):
        sink = DeliverySink(str(tmp_path / "log"))
        assert [sink.emit(payload(i)) for i in range(3)] == [0, 1, 2]
        assert sink.next_offset == 3
        sink.close()

    def test_lines_are_canonical_json_with_offset(self, tmp_path):
        sink = DeliverySink(str(tmp_path / "log"))
        sink.emit(payload(0))
        sink.close()
        with open(tmp_path / "log", "rb") as fp:
            line = fp.read().rstrip(b"\n")
        assert line == encode_emission(0, payload(0))
        assert json.loads(line)["offset"] == 0

    def test_emit_after_close_raises(self, tmp_path):
        sink = DeliverySink(str(tmp_path / "log"))
        sink.close()
        with pytest.raises(StateError, match="closed"):
            sink.emit(payload(0))


class TestRecovery:
    def _write_log(self, path, n):
        sink = DeliverySink(str(path))
        for i in range(n):
            sink.emit(payload(i))
        sink.close()

    def test_recovers_complete_log(self, tmp_path):
        path = tmp_path / "log"
        self._write_log(path, 4)
        sink = DeliverySink(str(path))
        assert sink.logged == 4
        assert sink.next_offset == 4  # un-primed: appends continue
        sink.close()

    def test_torn_tail_without_newline_is_truncated(self, tmp_path):
        path = tmp_path / "log"
        self._write_log(path, 3)
        with open(path, "ab") as fp:
            fp.write(b'{"offset": 3, "tor')  # the kill -9 landed here
        sink = DeliverySink(str(path))
        assert sink.logged == 3
        sink.close()
        with open(path, "rb") as fp:
            assert fp.read().count(b"\n") == 3

    def test_torn_final_line_with_newline_is_truncated(self, tmp_path):
        path = tmp_path / "log"
        self._write_log(path, 2)
        with open(path, "ab") as fp:
            fp.write(b'{"offset": 2, "tor\n')
        sink = DeliverySink(str(path))
        assert sink.logged == 2
        sink.close()

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "log"
        self._write_log(path, 2)
        data = path.read_bytes()
        lines = data.split(b"\n")
        lines[0] = b"garbage"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(StateError, match="corrupt"):
            DeliverySink(str(path))

    def test_offset_skip_raises(self, tmp_path):
        path = tmp_path / "log"
        line0 = encode_emission(0, payload(0))
        line5 = encode_emission(5, payload(5))
        path.write_bytes(line0 + b"\n" + line5 + b"\n" + line0 + b"\n")
        with pytest.raises(StateError, match="skips"):
            DeliverySink(str(path))


class TestReplayWindow:
    def test_replayed_prefix_is_verified_and_suppressed(self, tmp_path):
        path = tmp_path / "log"
        sink = DeliverySink(str(path))
        for i in range(4):
            sink.emit(payload(i))
        sink.close()
        before = path.read_bytes()

        resumed = DeliverySink(str(path))
        resumed.prime(next_offset=2, acked_offset=0)  # checkpoint at 2
        delivered = []
        resumed.on_deliver = lambda off, line: delivered.append(off)
        # Deterministic replay regenerates 2..3, then new entries append.
        assert resumed.emit(payload(2)) == 2
        assert resumed.emit(payload(3)) == 3
        assert resumed.emit(payload(4)) == 4
        resumed.close()
        assert path.read_bytes() == before + encode_emission(4, payload(4)) + b"\n"
        assert resumed.stats()["replay_suppressed"] == 2
        assert delivered == [4]  # suppressed entries never re-deliver

    def test_divergent_replay_raises(self, tmp_path):
        path = tmp_path / "log"
        sink = DeliverySink(str(path))
        sink.emit(payload(0))
        sink.close()
        resumed = DeliverySink(str(path))
        resumed.prime(next_offset=0, acked_offset=-1)
        with pytest.raises(StateError, match="diverged"):
            resumed.emit({"query": "q", "time": 9.0, "row": {"v": "other"}})

    def test_prime_beyond_log_raises(self, tmp_path):
        path = tmp_path / "log"
        sink = DeliverySink(str(path))
        sink.emit(payload(0))
        sink.close()
        resumed = DeliverySink(str(path))
        with pytest.raises(StateError, match="mismatch"):
            resumed.prime(next_offset=5, acked_offset=-1)


class TestDelivery:
    def test_ack_tracking(self, tmp_path):
        sink = DeliverySink(str(tmp_path / "log"))
        for i in range(3):
            sink.emit(payload(i))
        sink.ack(1)
        assert sink.acked_offset == 1
        sink.ack(0)  # regressions ignored
        assert sink.acked_offset == 1
        with pytest.raises(StateError, match="beyond"):
            sink.ack(7)
        sink.close()

    def test_replay_iterator(self, tmp_path):
        sink = DeliverySink(str(tmp_path / "log"))
        for i in range(4):
            sink.emit(payload(i))
        got = list(sink.replay(after_offset=1))
        assert [off for off, _ in got] == [2, 3]
        assert got[0][1] == encode_emission(2, payload(2))
        sink.close()

    def test_stats_shape(self, tmp_path):
        sink = DeliverySink(str(tmp_path / "log"))
        sink.emit(payload(0))
        sink.ack(0)
        stats = sink.stats()
        assert stats == {
            "next_offset": 1,
            "acked_offset": 0,
            "logged": 1,
            "appended": 1,
            "replay_suppressed": 0,
            "pending_ack": 0,
        }
        sink.close()
