"""End-to-end ingest-service tests, in-process over a unix socket.

The load-bearing guarantees, each exercised against the batch pipeline as
the reference:

* N concurrent socket sources produce an emission log *byte-identical* to
  running the same trace through ``ShardedRuntime.run`` — the watermark
  aligner reconstructs exactly the batch epoch stream;
* backpressure (credit windows + global PAUSE) bounds server memory under
  a flood without changing a single emitted byte;
* a mid-stream drain (the SIGTERM path) followed by ``resume=True`` and an
  idempotent client re-replay converges on the same byte-identical log.
"""

import asyncio
import json
import os

import pytest

from repro.cli import _default_model
from repro.config import (
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    ServeConfig,
)
from repro.errors import ServeError
from repro.models import config_for_sensor
from repro.query import (
    MultiplexedQueryEngine,
    location_update_query,
    standing_region_queries,
)
from repro.runtime import QueryBridge, ShardedRuntime
from repro.serve import EmissionTail, ReplaySource, ReproService, protocol
from repro.serve.client import fetch_stats_async
from repro.serve.protocol import FrameDecoder
from repro.serve.service import STANDING_BOUNDS, _json_scalar
from repro.serve.sink import encode_emission
from repro.streams.records import TagId, TagReading
from repro.simulation.layout import LayoutConfig
from repro.simulation.truth_sensor import ConeTruthSensor
from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

POLICY = OutputPolicyConfig(delay_s=5.0)


def make_scenario(n_objects, n_rounds, seed):
    simulator = WarehouseSimulator(
        WarehouseConfig(
            layout=LayoutConfig(n_objects=n_objects, n_shelf_tags=2),
            sensor=ConeTruthSensor(rr_major=0.9),
            n_rounds=n_rounds,
            seed=seed,
        )
    )
    trace = simulator.generate()
    model, _, sensor = _default_model(trace)
    config = config_for_sensor(
        InferenceConfig(reader_particles=60, object_particles=120), sensor
    )
    return trace, model, config


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(n_objects=6, n_rounds=1, seed=3)


def reference_log(trace, model, config, standing_queries=0):
    """The batch pipeline's emissions, framed exactly like the sink's log."""
    runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
    engine = MultiplexedQueryEngine()
    payloads = []
    queries = [location_update_query()]
    if standing_queries:
        queries.extend(standing_region_queries(standing_queries, STANDING_BOUNDS))
    for query in queries:
        engine.register(
            query,
            callback=lambda tup, name=query.name: payloads.append(
                {
                    "query": name,
                    "time": tup.time,
                    "row": {k: _json_scalar(v) for k, v in sorted(tup.items())},
                }
            ),
        )
    QueryBridge(engine, runtime.bus, runtime=runtime, name="serve")
    runtime.run(trace.epochs())
    return b"".join(
        encode_emission(i, p) + b"\n" for i, p in enumerate(payloads)
    )


@pytest.fixture(scope="module")
def expected_log(scenario):
    trace, model, config = scenario
    return reference_log(trace, model, config)


def make_service(scenario, tmp_path, *, serve=None, runtime=None, **kwargs):
    trace, model, config = scenario
    return ReproService(
        model,
        inference=config,
        runtime=runtime or RuntimeConfig(n_shards=2),
        policy=POLICY,
        serve=serve or ServeConfig(epoch_length=1.0, queue_capacity=64, credit_batch=8),
        socket_path=str(tmp_path / "s.sock"),
        emissions_path=str(tmp_path / "emissions.jsonl"),
        **kwargs,
    )


async def serve_and_replay(service, *clients):
    """Run the service to completion alongside the given client coroutines."""
    ready = asyncio.Event()
    task = asyncio.create_task(service.run_async(ready))
    await ready.wait()
    results = await asyncio.gather(*clients)
    await asyncio.wait_for(task, timeout=60)
    return results


class TestEndToEnd:
    def test_eight_sources_match_batch_pipeline(
        self, scenario, expected_log, tmp_path
    ):
        trace, _, _ = scenario
        service = make_service(scenario, tmp_path)
        replay = ReplaySource(service.socket_path, trace, n_sources=8)
        tail = EmissionTail(service.socket_path, str(tmp_path / "tail.jsonl"))

        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(service.run_async(ready))
            await ready.wait()
            tail_task = asyncio.create_task(tail.run_async())
            report = await replay.run_async()
            await asyncio.wait_for(task, timeout=60)
            received = await asyncio.wait_for(tail_task, timeout=60)
            return report, received

        report, received = asyncio.run(main())

        assert len(report) == 8  # eight concurrent sources actually ran
        total = len(trace.readings) + len(trace.reports)
        assert sum(r["sent"] for r in report.values()) == total

        log = (tmp_path / "emissions.jsonl").read_bytes()
        assert log == expected_log
        assert log  # the scenario emits something, or parity is vacuous

        # The subscriber saw the whole log, gapless, and wrote it verbatim.
        assert received == log.count(b"\n")
        assert (tmp_path / "tail.jsonl").read_bytes() == log

        # Exactly-once bookkeeping: everything appended once, none replayed.
        stats = service.sink.stats()
        assert stats["appended"] == log.count(b"\n")
        assert stats["replay_suppressed"] == 0

    def test_backpressure_bounds_memory_without_changing_bytes(
        self, scenario, expected_log, tmp_path
    ):
        trace, _, _ = scenario
        n_sources = 4
        serve = ServeConfig(
            epoch_length=1.0,
            queue_capacity=16,
            credit_batch=4,
            pause_high_water=12,
            pause_low_water=4,
        )
        service = make_service(scenario, tmp_path, serve=serve)
        replay = ReplaySource(service.socket_path, trace, n_sources=n_sources)

        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(service.run_async(ready))
            await ready.wait()
            report = await replay.run_async()
            await asyncio.wait_for(task, timeout=60)
            return report

        report = asyncio.run(main())
        counters = service.ingest.counters

        # The flood actually tripped the brakes, and they released again.
        assert counters.pauses > 0
        assert counters.resumes == counters.pauses
        assert sum(r["pauses_seen"] for r in report.values()) > 0

        # Bounded memory: buffered frames can never exceed the total
        # outstanding credit, no matter how hard the clients push.
        assert counters.peak_buffered <= n_sources * serve.queue_capacity

        # Backpressure is flow control, not data control.
        assert (tmp_path / "emissions.jsonl").read_bytes() == expected_log

    def test_stats_document(self, scenario, tmp_path):
        trace, _, _ = scenario
        service = make_service(
            scenario, tmp_path, standing_queries=4, exit_on_end=False
        )
        replay = ReplaySource(service.socket_path, trace, n_sources=2)

        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(service.run_async(ready))
            await ready.wait()
            await replay.run_async()
            while not service.aligner.finished:  # end-of-stream flush
                await asyncio.sleep(0.01)
            stats = await fetch_stats_async(service.socket_path)
            service.request_drain()
            await asyncio.wait_for(task, timeout=60)
            return stats

        stats = asyncio.run(main())
        json.dumps(stats)  # must be a JSON document end to end

        assert stats["epochs_processed"] > 0
        assert stats["epochs_per_s"] > 0
        assert stats["frame_to_emission_p99_s"] >= stats["frame_to_emission_p50_s"]
        assert stats["aligner"]["finished"] is True
        assert stats["aligner"]["buffered_frames"] == 0
        assert set(stats["aligner"]["sources"]) == {"src0", "src1"}
        assert stats["ingest"]["frames_received"] > 0
        assert stats["sink"]["next_offset"] == stats["sink"]["logged"]
        assert stats["multiplexer"]["queries"] >= 5  # location + 4 standing
        assert stats["checkpoint"]["lag_epochs"] == stats["epochs_processed"]
        assert stats["shards"]["count"] == 2
        assert stats["shards"]["objects_processed"] > 0
        assert stats["resumed_from"] is None
        assert stats["uptime_s"] > 0


class TestCheckpointOrdering:
    """Flush, deliver, then checkpoint: a periodic checkpoint may only
    record sink offsets whose lines are already in the emission file —
    otherwise a kill -9 right after it leaves a log the resumed service
    refuses as a log/checkpoint mismatch."""

    @pytest.mark.parametrize("fsync", [False, True])
    def test_checkpoint_offsets_are_on_disk(
        self, scenario, expected_log, tmp_path, monkeypatch, fsync
    ):
        import repro.state.checkpoint as checkpoint_module

        trace, _, _ = scenario
        log = tmp_path / "emissions.jsonl"
        claims = []  # (checkpointed next_offset, complete lines on disk)
        real_save = checkpoint_module.save_checkpoint

        def save(runtime, path, **kwargs):
            offsets = runtime.manifest_extras()["serve"]["sink"]
            claims.append((offsets["next_offset"], log.read_bytes().count(b"\n")))
            return real_save(runtime, path, **kwargs)

        monkeypatch.setattr(checkpoint_module, "save_checkpoint", save)
        service = make_service(
            scenario,
            tmp_path,
            serve=ServeConfig(
                epoch_length=1.0, queue_capacity=64, credit_batch=8, fsync=fsync
            ),
            runtime=RuntimeConfig(
                n_shards=2,
                checkpoint_every_s=1.0,  # every epoch: each emitting one too
                checkpoint_dir=str(tmp_path / "ck"),
            ),
        )
        replay = ReplaySource(service.socket_path, trace, n_sources=3)
        asyncio.run(serve_and_replay(service, replay.run_async()))

        assert log.read_bytes() == expected_log
        assert any(claimed for claimed, _ in claims)  # not vacuous
        ahead = [(c, disk) for c, disk in claims if c > disk]
        assert not ahead, f"{len(ahead)}/{len(claims)} checkpoints claim lines not on disk"


async def wait_for_condition(condition, timeout, poll=0.01):
    """Yield to the loop until ``condition()`` holds; fail on timeout."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        assert loop.time() < deadline, "condition not met in time"
        await asyncio.sleep(poll)


async def open_session(path, hello):
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(hello)
    await writer.drain()
    return reader, writer, FrameDecoder()


async def next_frame_of(reader, decoder, kind, timeout=20):
    """Read frames until one of ``kind`` arrives (EOF before it fails)."""
    while True:
        chunk = await asyncio.wait_for(reader.read(1 << 16), timeout)
        assert chunk, f"connection closed before a {protocol.FRAME_NAMES[kind]}"
        for frame in decoder.feed_frames(chunk):
            if frame.kind == kind:
                return frame


class TestConnectionFaults:
    def test_admission_reject_does_not_pin_the_watermark(
        self, scenario, expected_log, tmp_path
    ):
        """A source rejected at the admission limit must be rolled out of
        the aligner — before the fix its -inf frontier pinned the low
        watermark forever and this test hung instead of completing."""
        trace, _, _ = scenario
        serve = ServeConfig(
            epoch_length=1.0, queue_capacity=64, credit_batch=8, max_sources=2
        )
        service = make_service(scenario, tmp_path, serve=serve)

        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(service.run_async(ready))
            await ready.wait()
            # Fill the admission table with the two names the replay uses.
            held = []
            for name in ("src0", "src1"):
                r, w, d = await open_session(
                    service.socket_path, protocol.encode_hello("source", source=name)
                )
                await next_frame_of(r, d, protocol.HELLO_ACK)
                held.append(w)
            # One HELLO too many: rejected with an ERROR, not admitted.
            r, w, d = await open_session(
                service.socket_path, protocol.encode_hello("source", source="late")
            )
            error = await next_frame_of(r, d, protocol.ERROR)
            assert "admission limit" in error.data["error"]
            w.close()
            for writer in held:  # disconnect; the replay resumes the names
                writer.close()
            report = await ReplaySource(
                service.socket_path, trace, n_sources=2
            ).run_async()
            await asyncio.wait_for(task, timeout=60)
            return report

        report = asyncio.run(main())
        assert len(report) == 2
        # The rejected source left no trace in the aligner, and the stream
        # ran to completion byte-identically despite the rejection.
        assert "late" not in service.aligner.source_names()
        assert service.ingest.counters.admission_rejects == 1
        assert (tmp_path / "emissions.jsonl").read_bytes() == expected_log

    def test_library_errors_reach_the_client_as_error_frames(
        self, scenario, tmp_path
    ):
        """StreamError (backwards-in-time record) and StateError (ack
        beyond the log) must earn ERROR frames like ServeError does, not
        die as unhandled exceptions in the connection task."""
        service = make_service(scenario, tmp_path, exit_on_end=False)

        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(service.run_async(ready))
            await ready.wait()

            r, w, d = await open_session(
                service.socket_path, protocol.encode_hello("source", source="bad")
            )
            await next_frame_of(r, d, protocol.HELLO_ACK)
            w.write(protocol.encode_reading(1, TagReading(5.0, TagId.object(1))))
            w.write(protocol.encode_reading(2, TagReading(4.0, TagId.object(1))))
            await w.drain()
            stream_error = await next_frame_of(r, d, protocol.ERROR)

            r, w, d = await open_session(
                service.socket_path, protocol.encode_hello("subscribe")
            )
            await next_frame_of(r, d, protocol.HELLO_ACK)
            w.write(protocol.encode_ack(999))
            await w.drain()
            state_error = await next_frame_of(r, d, protocol.ERROR)

            service.request_drain()
            await asyncio.wait_for(task, timeout=60)
            return stream_error, state_error

        stream_error, state_error = asyncio.run(main())
        assert "backwards in time" in stream_error.data["error"]
        assert "beyond the log" in state_error.data["error"]

    def test_live_socket_is_not_stolen(self, scenario, tmp_path):
        """Binding over a live instance's socket must fail fast instead of
        silently unlinking it and stealing its clients."""
        service = make_service(scenario, tmp_path, exit_on_end=False)
        rival = make_service(scenario, tmp_path, exit_on_end=False)

        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(service.run_async(ready))
            await ready.wait()
            with pytest.raises(ServeError, match="already listening"):
                await rival.run_async()
            # The incumbent is unharmed and still answering.
            stats = await fetch_stats_async(service.socket_path)
            assert stats["uptime_s"] > 0
            service.request_drain()
            await asyncio.wait_for(task, timeout=60)

        asyncio.run(main())


class TestDrainResume:
    @pytest.fixture(scope="class")
    def drain_scenario(self):
        return make_scenario(n_objects=8, n_rounds=2, seed=7)

    def test_drain_then_resume_is_byte_identical(self, drain_scenario, tmp_path):
        trace, _, _ = drain_scenario
        serve = ServeConfig(epoch_length=1.0, queue_capacity=32, credit_batch=4)

        # --- uninterrupted reference run through the service itself ------
        baseline = ReproService(
            drain_scenario[1],
            inference=drain_scenario[2],
            runtime=RuntimeConfig(n_shards=2),
            policy=POLICY,
            serve=serve,
            socket_path=str(tmp_path / "b.sock"),
            emissions_path=str(tmp_path / "baseline.jsonl"),
        )

        async def run_baseline():
            ready = asyncio.Event()
            task = asyncio.create_task(baseline.run_async(ready))
            await ready.wait()
            await ReplaySource(baseline.socket_path, trace, n_sources=3).run_async()
            await asyncio.wait_for(task, timeout=120)

        asyncio.run(run_baseline())
        expected = (tmp_path / "baseline.jsonl").read_bytes()
        assert expected

        # --- run 1: drain (the deferred-signal path) mid-stream ----------
        runtime_config = RuntimeConfig(
            n_shards=2,
            checkpoint_every_s=4.0,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        emissions = str(tmp_path / "served.jsonl")

        def service(resume):
            return ReproService(
                drain_scenario[1],
                inference=drain_scenario[2],
                runtime=runtime_config,
                policy=POLICY,
                serve=serve,
                socket_path=str(tmp_path / "d.sock"),
                emissions_path=emissions,
                resume=resume,
            )

        interrupted = service(resume=False)

        async def run_interrupted():
            ready = asyncio.Event()
            task = asyncio.create_task(interrupted.run_async(ready))
            await ready.wait()
            replay = ReplaySource(
                interrupted.socket_path, trace, n_sources=3, rate=4000.0
            )
            replay_task = asyncio.create_task(replay.run_async())
            while interrupted.runtime.epochs_processed < 5 and not replay_task.done():
                await asyncio.sleep(0.005)
            interrupted.request_drain()
            try:
                await replay_task  # the server hangs up on the clients
            except ServeError:
                pass
            await asyncio.wait_for(task, timeout=120)

        asyncio.run(run_interrupted())
        partial = open(emissions, "rb").read()
        assert expected.startswith(partial)
        assert partial != expected  # it really stopped early
        assert os.path.exists(tmp_path / "ck" / "LATEST")

        # --- run 2: resume from the checkpoint, replay idempotently ------
        resumed = service(resume=True)

        async def run_resumed():
            ready = asyncio.Event()
            task = asyncio.create_task(resumed.run_async(ready))
            await ready.wait()
            report = await ReplaySource(
                resumed.socket_path, trace, n_sources=3
            ).run_async()
            await asyncio.wait_for(task, timeout=120)
            return report

        report = asyncio.run(run_resumed())
        assert resumed.resumed_from is not None

        # The clients were told to skip their already-consumed prefixes.
        assert sum(r["skipped_as_acked"] for r in report.values()) > 0

        # Exactly once: no lost and no doubled emissions, byte for byte.
        assert open(emissions, "rb").read() == expected


class TestSelfHealingServe:
    """Graceful degradation: the service keeps serving through a shard
    recovery, marks the affected emissions degraded on the wire (never in
    the durable log bytes), and reports the episode in STATS."""

    def test_worker_crash_mid_service_recovers_byte_identical(
        self, scenario, expected_log, tmp_path
    ):
        from repro import faults
        from repro.config import SupervisorConfig
        from repro.faults import FaultPlan, FaultRule

        trace, _, _ = scenario
        # Two worker.step hits per epoch (2 shards): epoch index i burns
        # hits 2i+1 and 2i+2.  Hit 21 lands inside epoch t=10.0 — the
        # first epoch whose output-policy flush appends an emission — so
        # the recovery epoch demonstrably emits (and that emission must
        # carry the degraded flag on the wire).
        faults.install(
            FaultPlan(rules=(FaultRule("worker.step", nth=21, action="exit"),))
        )
        service = make_service(
            scenario,
            tmp_path,
            runtime=RuntimeConfig(
                n_shards=2,
                executor="process",
                supervisor=SupervisorConfig(backoff_base_s=0.01),
            ),
        )
        tail_path = tmp_path / "tail.jsonl"
        tail = EmissionTail(service.socket_path, str(tail_path), ack_every=4)

        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(service.run_async(ready))
            await ready.wait()
            tail_task = asyncio.create_task(tail.run_async())
            await ReplaySource(service.socket_path, trace, n_sources=3).run_async()
            await asyncio.wait_for(task, timeout=120)
            await asyncio.wait_for(tail_task, timeout=60)

        try:
            asyncio.run(main())
        finally:
            faults.clear()

        # The worker really died and the supervisor really healed it.
        stats = service.runtime.supervisor_stats()
        assert stats["restarts"] >= 1
        assert stats["degraded_epochs"] >= 1
        assert service.engine.stats()["degraded_ticks"] >= 1
        # The durable log is byte-identical to the fault-free pipeline's —
        # the degraded marker lives on the wire, not in the log.
        assert (tmp_path / "emissions.jsonl").read_bytes() == expected_log
        assert tail_path.read_bytes() == expected_log
        # The live subscriber saw the recovery epoch's emissions flagged.
        assert tail.degraded_seen >= 1

    def test_tail_reconnect_survives_a_service_bounce(self, scenario, tmp_path):
        """`repro tail --reconnect` rides through a drain + resume: one
        tail process, two service lifetimes, zero lost or doubled lines."""
        trace, model, config = scenario
        serve = ServeConfig(epoch_length=1.0, queue_capacity=32, credit_batch=4)
        runtime_config = RuntimeConfig(
            n_shards=2,
            checkpoint_every_s=4.0,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        emissions = str(tmp_path / "served.jsonl")
        sock = str(tmp_path / "bounce.sock")

        def service(resume):
            return ReproService(
                model,
                inference=config,
                runtime=runtime_config,
                policy=POLICY,
                serve=serve,
                socket_path=sock,
                emissions_path=emissions,
                resume=resume,
            )

        tail_path = tmp_path / "tail.jsonl"
        tail = EmissionTail(
            sock, str(tail_path), ack_every=4, reconnect=50, connect_retries=6
        )

        async def main():
            first = service(resume=False)
            ready = asyncio.Event()
            task = asyncio.create_task(first.run_async(ready))
            await ready.wait()
            tail_task = asyncio.create_task(tail.run_async())
            replay = ReplaySource(sock, trace, n_sources=3, rate=4000.0)
            replay_task = asyncio.create_task(replay.run_async())
            while first.runtime.epochs_processed < 5 and not replay_task.done():
                await asyncio.sleep(0.005)
            first.request_drain()
            try:
                await replay_task
            except ServeError:
                pass
            await asyncio.wait_for(task, timeout=120)

            second = service(resume=True)
            ready = asyncio.Event()
            task = asyncio.create_task(second.run_async(ready))
            await ready.wait()
            # The second lifetime ends when its sources do, so hold them back
            # until the tail has subscribed to it.  The tail is somewhere in
            # a backoff sleep that grew while no service was bound; left to
            # chance, a whole (sub-second) lifetime fits inside that sleep
            # and the tail wakes up to a socket that is gone for good.
            await wait_for_condition(lambda: tail.sessions >= 2, timeout=60)
            await ReplaySource(sock, trace, n_sources=3).run_async()
            await asyncio.wait_for(task, timeout=120)

            # The tail catches up on its own; don't wait for its reconnect
            # budget to drain — assert the file converged, then stop it.
            expected = open(emissions, "rb").read()
            deadline = asyncio.get_running_loop().time() + 30
            while asyncio.get_running_loop().time() < deadline:
                if tail_path.exists() and tail_path.read_bytes() == expected:
                    break
                await asyncio.sleep(0.05)
            tail_task.cancel()
            try:
                await tail_task
            except asyncio.CancelledError:
                pass
            return expected

        expected = asyncio.run(main())
        assert expected  # the bounced run emitted something
        assert tail_path.read_bytes() == expected
        assert tail.reconnects_used >= 1  # it really rode through the bounce
        assert tail.sessions >= 2  # and was served by both lifetimes
