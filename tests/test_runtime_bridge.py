"""Tests for the event-bus -> query-engine bridge and the end-to-end CLI
round trip (simulate -> clean --shards 2 -> query)."""

import pytest

from repro.cli import main
from repro.query import (
    QueryEngine,
    fire_code_query,
    location_update_query,
)
from repro.runtime import EventBus, QueryBridge
from repro.streams.records import LocationEvent, TagId


def event_at(time, number, position):
    return LocationEvent(time=time, tag=TagId.object(number), position=position)


class TestQueryBridge:
    def test_events_become_tuples(self):
        engine = QueryEngine()
        engine.register(location_update_query())
        bus = EventBus()
        bridge = QueryBridge(engine, bus)
        bus.publish(event_at(1.0, 3, (2.0, 4.0, 0.0)))
        bus.publish(event_at(2.0, 5, (2.5, 1.0, 0.0)))
        bus.close()
        assert bridge.tuples_pushed == 2
        out = engine.outputs["location_updates"]
        assert [(t["tag_id"], t["x"], t["y"]) for t in out] == [
            ("object:3", 2.0, 4.0),
            ("object:5", 2.5, 1.0),
        ]

    def test_bus_close_flushes_final_tick(self):
        """Without the close hook the last timestamp's tuples are stuck in
        the engine's pending tick."""
        engine = QueryEngine()
        engine.register(location_update_query())
        bus = EventBus()
        QueryBridge(engine, bus)
        bus.publish(event_at(1.0, 3, (2.0, 4.0, 0.0)))
        assert engine.outputs["location_updates"] == []
        bus.close()
        assert len(engine.outputs["location_updates"]) == 1

    def test_attach_after_construction(self):
        engine = QueryEngine()
        engine.register(location_update_query())
        bridge = QueryBridge(engine)
        bus = EventBus()
        bridge.attach(bus)
        bus.publish(event_at(1.0, 0, (1.0, 1.0, 0.0)))
        bus.close()
        assert bridge.tuples_pushed == 1

    def test_bridge_with_add_sink_callback(self):
        """A sink attached after register() (the add_sink satellite) sees
        the bridge-fed outputs."""
        engine = QueryEngine()
        engine.register(location_update_query())
        seen = []
        engine.add_sink("location_updates", seen.append)
        bus = EventBus()
        QueryBridge(engine, bus)
        bus.publish(event_at(1.0, 3, (2.0, 4.0, 0.0)))
        bus.close()
        assert len(seen) == 1
        assert seen[0]["tag_id"] == "object:3"

    def test_fire_code_over_bridge(self):
        engine = QueryEngine()
        engine.register(fire_code_query(weight_fn=lambda tag: 150.0))
        bus = EventBus()
        QueryBridge(engine, bus)
        # Two 150-lb objects in the same square foot within the window.
        bus.publish(event_at(1.0, 0, (2.2, 4.3, 0.0)))
        bus.publish(event_at(2.0, 1, (2.6, 4.8, 0.0)))
        bus.close()
        violations = engine.outputs["fire_code"]
        assert violations
        assert all(t["area"] == (2, 4) for t in violations)
        assert violations[0]["total_weight"] == 300.0


class TestCliRoundTrip:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("roundtrip") / "trace.jsonl"
        code = main(
            [
                "simulate",
                "--objects",
                "6",
                "--shelf-tags",
                "3",
                "--seed",
                "11",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_clean_sharded_writes_csv(self, trace_path, tmp_path, capsys):
        events = tmp_path / "events.csv"
        code = main(
            [
                "clean",
                str(trace_path),
                "--shards",
                "2",
                "--particles",
                "150",
                "--events",
                str(events),
            ]
        )
        assert code == 0
        assert "2 shards" in capsys.readouterr().out
        lines = events.read_text().strip().splitlines()
        assert lines[0].startswith("time,tag")
        assert len(lines) >= 7  # header + one event per object

    def test_query_end_to_end(self, trace_path, capsys):
        code = main(
            [
                "query",
                str(trace_path),
                "--shards",
                "2",
                "--particles",
                "150",
                # Every object alone violates: the fire-code path must fire.
                "--weight-lbs",
                "250",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "location_updates:" in out
        assert "object:" in out
        assert "fire_code" in out
        assert "0 violations" not in out

    def test_query_single_shard(self, trace_path, capsys):
        code = main(["query", str(trace_path), "--particles", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 shard " in out
        assert "location_updates:" in out

    def test_clean_handle_closed_on_failure(self, tmp_path, monkeypatch):
        """The --events handle must be closed even when the command raises
        while it is open (``clean`` writes the CSV after the run, so the
        failure is injected into the write)."""
        import repro.cli as cli_module

        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--objects", "3", "--out", str(trace)]) == 0

        handles = []
        real_open = open

        def tracking_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr("builtins.open", tracking_open)

        def boom(*args, **kwargs):
            raise RuntimeError("mid-write failure")

        monkeypatch.setattr(cli_module.CsvSink, "emit", boom)
        events = tmp_path / "events.csv"
        with pytest.raises(RuntimeError, match="mid-write failure"):
            main(["clean", str(trace), "--events", str(events)])
        event_handles = [h for h in handles if h.name == str(events)]
        assert event_handles and all(h.closed for h in event_handles)
