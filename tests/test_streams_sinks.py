"""Tests for event sinks."""

import io

from repro.streams.records import LocationEvent, TagId
from repro.streams.sinks import CollectingSink, CsvSink


def event(t, number, x=1.0):
    return LocationEvent(t, TagId.object(number), (x, 2.0, 0.0))


class TestCollectingSink:
    def test_collects_in_order(self):
        sink = CollectingSink()
        sink.emit(event(0.0, 1))
        sink.emit(event(1.0, 2))
        assert len(sink) == 2
        assert [e.tag.number for e in sink] == [1, 2]

    def test_latest_by_tag(self):
        sink = CollectingSink()
        sink.emit(event(0.0, 1, x=1.0))
        sink.emit(event(5.0, 1, x=9.0))
        sink.emit(event(2.0, 2))
        latest = sink.latest_by_tag()
        assert latest[TagId.object(1)].position[0] == 9.0
        assert latest[TagId.object(2)].time == 2.0


class TestCsvSink:
    def test_writes_rows(self):
        buf = io.StringIO()
        sink = CsvSink(buf)
        sink.emit(event(1.25, 7, x=3.5))
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("time,tag,x")
        assert "object:7" in lines[1]
        assert "3.500000" in lines[1]

    def test_no_header_mode(self):
        buf = io.StringIO()
        CsvSink(buf, write_header=False).emit(event(0.0, 1))
        assert not buf.getvalue().startswith("time")
