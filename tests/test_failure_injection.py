"""Failure-injection and adversarial-input tests.

A cleaning system deployed against real hardware sees pathological streams:
dropouts, duplicate readings, phantom tags, all-negative epochs, corrupted
trace files.  These tests pin down that the library degrades gracefully
(clear exceptions or sensible estimates) instead of silently corrupting
state.

The second half is the crash harness for the durable-state subsystem: the
process is "killed" mid-checkpoint (write faults injected at every point of
the save path through the :mod:`repro.faults` plan, not monkeypatching),
between delta-chain links, and inside worker processes — and after every
kill the ``LATEST`` pointer must still reference a complete,
materializable chain from which a restore resumes bitwise-identically.
The seeded chaos soak at the end sweeps randomized fault plans over both
executors: every injected fault must either recover byte-identically
(supervised) or fail loudly with a typed error — never hang, never
silently diverge.
"""

import os

import numpy as np
import pytest

from repro import faults
from repro.config import (
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    SupervisorConfig,
)
from repro.errors import InferenceError, StateError, StreamError
from repro.faults import FaultPlan, FaultRule
from repro.inference.factored import FactoredParticleFilter
from repro.runtime import ShardedRuntime
from repro.state import (
    latest_checkpoint,
    load_checkpoint,
    read_checkpoint_header,
    restore_runtime,
    save_checkpoint,
)
from repro.streams.records import make_epoch
from repro.streams.sources import Trace

from test_inference_factored import drive, scan_epochs


class TestStreamDropouts:
    def test_long_location_dropout(self, small_model, fast_config):
        """The positioning system dies mid-scan: epochs carry no reported
        position.  Odometry control falls back to the motion model and the
        filter keeps running."""
        epochs = []
        for t in range(50):
            reported = None if 15 <= t < 35 else (0.0, 0.1 * t)
            epochs.append(make_epoch(float(t), reported, reported_heading=0.0))
        engine = drive(small_model, fast_config, epochs)
        mean, _ = engine.reader_estimate()
        assert np.isfinite(mean).all()
        assert mean[1] == pytest.approx(4.9, abs=1.0)

    def test_reading_only_epochs(self, small_model, fast_config):
        """Readings arrive but no location reports after the first epoch."""
        epochs = [make_epoch(0.0, (0.0, 0.0), reported_heading=0.0)]
        for t in range(1, 20):
            epochs.append(
                make_epoch(float(t), None, object_tags=[0] if t % 3 == 0 else [])
            )
        engine = drive(small_model, fast_config, epochs)
        assert 0 in engine.known_objects()
        assert np.isfinite(engine.object_estimate(0).mean).all()


class TestPhantomAndDuplicateReads:
    def test_phantom_tag_far_from_everything(self, small_model, fast_config):
        """A tag read once by radio reflection: the belief exists, sits in
        the init cone, and does not disturb other objects."""
        epochs = scan_epochs(3.0, n=60)
        # Inject one phantom read of tag 99 at epoch 5.
        e = epochs[5]
        epochs[5] = make_epoch(
            e.time,
            e.reported_position,
            object_tags=[t.number for t in e.object_tags] + [99],
            reported_heading=0.0,
        )
        engine = drive(small_model, fast_config, epochs)
        assert 99 in engine.known_objects()
        assert engine.object_estimate(0).mean[1] == pytest.approx(3.0, abs=0.6)

    def test_every_tag_read_every_epoch(self, small_model, fast_config):
        """Degenerate 100%-read-rate stream: tags 0..3 read every epoch from
        everywhere.  Estimates stay finite and on the shelf."""
        epochs = [
            make_epoch(float(t), (0.0, 0.1 * t), object_tags=[0, 1, 2, 3], reported_heading=0.0)
            for t in range(40)
        ]
        engine = drive(small_model, fast_config, epochs)
        for n in range(4):
            estimate = engine.object_estimate(n)
            assert np.isfinite(estimate.mean).all()
            assert small_model.shelves.bounding_box().expanded(1.0).contains_point(
                estimate.mean
            )


class TestAdversarialEpochs:
    def test_teleporting_reports_do_not_crash(self, small_model, fast_config):
        """Reported positions jump wildly (broken positioning).  The filter
        must survive (weights renormalize) even if accuracy is gone."""
        rng = np.random.default_rng(0)
        epochs = [
            make_epoch(float(t), tuple(rng.uniform(-5, 5, size=2)), reported_heading=0.0)
            for t in range(30)
        ]
        engine = drive(small_model, fast_config, epochs)
        mean, _ = engine.reader_estimate()
        assert np.isfinite(mean).all()

    def test_time_gaps_between_epochs(self, small_model, fast_config):
        """Epochs with large time gaps (reader paused): nothing special is
        required of the filter, but the pipeline visit logic must re-arm."""
        from repro.config import OutputPolicyConfig
        from repro.inference.pipeline import CleaningPipeline
        from repro.streams.sinks import CollectingSink

        engine = FactoredParticleFilter(small_model, fast_config)
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            engine, OutputPolicyConfig(delay_s=5.0, on_scan_complete=False), sink
        )
        for t in (0.0, 1.0, 2.0, 500.0, 501.0, 502.0, 503.0, 504.0, 505.0, 506.0):
            pipeline.step(
                make_epoch(t, (0.0, 1.0), object_tags=[0], reported_heading=0.0)
            )
        # Two visits (gap > 30 s) -> two emissions.
        assert len(sink) == 2


class TestCorruptTraces:
    def test_truncated_json_line(self):
        with pytest.raises(StreamError):
            Trace.loads('{"type": "reading", "time": 1.0, "tag": "object:1"\n')

    def test_half_written_reading(self):
        with pytest.raises((StreamError, KeyError)):
            Trace.loads('{"type": "reading", "time": 1.0}\n')

    def test_empty_trace_is_valid(self):
        trace = Trace.loads("")
        assert trace.n_readings == 0
        assert trace.epochs() == []

    def test_garbled_tag_kind(self):
        with pytest.raises(StreamError):
            Trace.loads('{"type": "reading", "time": 1.0, "tag": "ghost:1"}\n')


class TestExtremeConfigs:
    def test_two_particles_per_object(self, small_model):
        """The minimum legal particle count must not crash (accuracy aside)."""
        config = InferenceConfig(reader_particles=2, object_particles=2, seed=0)
        engine = drive(small_model, config, scan_epochs(3.0, n=40))
        assert np.isfinite(engine.object_estimate(0).mean).all()

    def test_zero_motion_noise_model(self, single_shelf, fast_config):
        from repro.models.joint import RFIDWorldModel
        from repro.models.motion import MotionParams
        from repro.models.sensor import SensorParams

        model = RFIDWorldModel.build(
            single_shelf,
            sensor_params=SensorParams(a=(4.0, 0.0, -0.9), b=(0.0, -6.0)),
            motion_params=MotionParams(velocity=(0, 0.1, 0), sigma=(0, 0, 0), heading_sigma=0),
        )
        epochs = [make_epoch(float(t), (0.0, 0.1 * t)) for t in range(20)]
        engine = drive(model, fast_config, epochs)
        mean, _ = engine.reader_estimate()
        assert mean[1] == pytest.approx(1.9, abs=0.2)


# ---------------------------------------------------------------------------
# Crash harness: kill the process mid-checkpoint / between delta links
# ---------------------------------------------------------------------------
CRASH_POLICY = OutputPolicyConfig(delay_s=20.0)


@pytest.fixture(scope="module")
def ck_scenario():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    simulator = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=6, n_shelf_tags=3), seed=11)
    )
    trace = simulator.generate()
    config = InferenceConfig(reader_particles=50, object_particles=100, seed=7)
    model = simulator.world_model()
    reference = ShardedRuntime(
        model, config, RuntimeConfig(n_shards=2), CRASH_POLICY
    ).run(trace.epochs()).events
    return model, trace, config, reference


def _delta_runtime_config(directory, executor="serial", supervisor=None):
    return RuntimeConfig(
        n_shards=2,
        executor=executor,
        checkpoint_every_s=6.0,
        checkpoint_dir=str(directory),
        checkpoint_keep=2,
        checkpoint_mode="delta",
        checkpoint_full_every=3,
        supervisor=supervisor,
    )


def assert_latest_is_restorable(directory, model, trace, reference):
    """The crash invariant: if LATEST exists it references a complete,
    materializable chain, and the run resumed from it finishes
    bitwise-identically to the uninterrupted reference."""
    latest = latest_checkpoint(directory)
    if latest is None:
        return 0
    manifest = load_checkpoint(latest)  # materializes the whole chain
    runtime, manifest = restore_runtime(latest, model)
    sink = runtime.run(trace.epochs(start=manifest.epochs_processed))
    tail = [e for e in reference if e.time > (manifest.bus_last_time or -1)]
    assert len(sink.events) == len(tail)
    for ours, ref in zip(sink.events, tail):
        assert ours.time == ref.time and ours.tag == ref.tag
        np.testing.assert_array_equal(ours.position, ref.position)
    return manifest.epochs_processed


class TestCrashMidCheckpoint:
    """Kill the writer at every stage of the save path.

    The ``checkpoint.write`` fault point fires once per checkpoint, after
    the whole payload is written to ``epoch_<n>.tmp`` and before it is
    fsynced or renamed; a counted injection there simulates the power
    failing mid-checkpoint.  The atomicity contract says the crash may lose
    the checkpoint being written, but never the previous one — and LATEST
    (only moved after the rename is durable) must keep referencing a
    complete chain.  The scenario writes seven checkpoints (full, delta,
    delta, full, …); the eighth hit never happens.
    """

    @pytest.mark.parametrize("fail_on_call", [1, 2, 3, 4, 5, 7, 8])
    def test_latest_never_references_a_torn_chain(
        self, ck_scenario, tmp_path, fail_on_call
    ):
        model, trace, config, reference = ck_scenario
        faults.install(
            FaultPlan(
                rules=(
                    FaultRule(
                        "checkpoint.write",
                        nth=fail_on_call,
                        message="injected crash: power lost mid-write",
                    ),
                )
            )
        )
        runtime = ShardedRuntime(
            model, config, _delta_runtime_config(tmp_path), CRASH_POLICY
        )
        crashed = False
        try:
            runtime.run(trace.epochs())
        except OSError:
            crashed = True
            runtime.abort()
        finally:
            writes = faults.hits("checkpoint.write")
            faults.clear()
        assert crashed == (writes >= fail_on_call)
        # No half-written checkpoint file survives an in-process failure...
        for name in os.listdir(tmp_path):
            assert not name.endswith(".tmp"), f"torn write left {name}"
        # ...and whatever LATEST points at restores and resumes bitwise.
        assert_latest_is_restorable(tmp_path, model, trace, reference)

    def test_kill_between_deltas_resumes_from_last_complete_link(
        self, ck_scenario, tmp_path
    ):
        """Hard-kill (abort, no finish) after several delta links landed:
        LATEST sits on the last complete link and resumes bitwise."""
        model, trace, config, reference = ck_scenario
        runtime = ShardedRuntime(
            model, config, _delta_runtime_config(tmp_path), CRASH_POLICY
        )
        epochs = trace.epochs()
        for epoch in epochs[: int(len(epochs) * 0.8)]:
            runtime.step(epoch)
            runtime.checkpoint_if_due()
        runtime.abort()  # simulated kill: no finish, no final flush
        latest = latest_checkpoint(tmp_path)
        assert latest is not None
        kinds = {
            name: read_checkpoint_header(os.path.join(tmp_path, name))["kind"]
            for name in os.listdir(tmp_path)
            if name.startswith("epoch_")
        }
        assert "delta" in kinds.values(), f"no delta link landed: {kinds}"
        resumed_from = assert_latest_is_restorable(tmp_path, model, trace, reference)
        assert resumed_from > 0

    def test_power_cut_leaves_previous_checkpoint_plus_a_tmp(
        self, ck_scenario, tmp_path
    ):
        """``exit`` at the fault point is a power cut: the process vanishes
        with the second checkpoint written but neither durable nor renamed.
        Exactly the first checkpoint, LATEST naming it, and one ``.tmp``
        remain; the resumed run restores bitwise and its first rotation
        sweeps the ``.tmp`` away."""
        import multiprocessing

        model, trace, config, reference = ck_scenario
        faults.install(
            FaultPlan(rules=(FaultRule("checkpoint.write", nth=2, action="exit"),))
        )
        try:
            runtime = ShardedRuntime(
                model, config, _delta_runtime_config(tmp_path), CRASH_POLICY
            )
            child = multiprocessing.get_context("fork").Process(
                target=runtime.run, args=(trace.epochs(),)
            )
            child.start()
            child.join(60.0)
            runtime.abort()
        finally:
            faults.clear()
        assert child.exitcode == 43
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 3 and names[0] == "LATEST"
        assert names[2].endswith(".tmp") and names[2] != names[1] + ".tmp"
        assert latest_checkpoint(tmp_path) == os.path.join(tmp_path, names[1])
        resumed_from = assert_latest_is_restorable(tmp_path, model, trace, reference)
        assert resumed_from > 0
        resumed, _ = restore_runtime(
            latest_checkpoint(tmp_path),
            model,
            runtime_config=_delta_runtime_config(tmp_path),
        )
        resumed.run(trace.epochs(start=resumed_from))
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_stale_tmp_turd_is_ignored_then_swept(self, ck_scenario, tmp_path):
        """A SIGKILL mid-write leaves an ``epoch_*.tmp`` file: the LATEST
        resolver and the loader ignore it, and rotation removes it without
        counting it as a checkpoint."""
        from repro.state import rotate_checkpoints

        model, trace, config, reference = ck_scenario
        runtime = ShardedRuntime(
            model, config, _delta_runtime_config(tmp_path), CRASH_POLICY
        )
        epochs = trace.epochs()
        for epoch in epochs[: len(epochs) // 2]:
            runtime.step(epoch)
            runtime.checkpoint_if_due()
        runtime.abort()
        turd = tmp_path / "epoch_99999999.tmp"
        turd.write_bytes(b"RPROCKPT half a checkpoint")
        assert latest_checkpoint(tmp_path) is not None
        assert "tmp" not in os.path.basename(latest_checkpoint(tmp_path))
        before = {n for n in os.listdir(tmp_path) if not n.endswith(".tmp")}
        assert rotate_checkpoints(tmp_path, keep=2) == [str(turd)]
        assert set(os.listdir(tmp_path)) == before
        assert_latest_is_restorable(tmp_path, model, trace, reference)


class TestWorkerCrashMidCheckpoint:
    def test_worker_killed_mid_checkpoint_fails_loudly_and_chain_survives(
        self, ck_scenario, tmp_path
    ):
        """SIGKILL one shard worker, then attempt a delta checkpoint: the
        save fails with a clear error, nothing lands on disk, and the
        previous checkpoint still restores."""
        model, trace, config, reference = ck_scenario
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(n_shards=2, executor="process"),
            CRASH_POLICY,
        )
        epochs = trace.epochs()
        split = len(epochs) // 2
        try:
            for epoch in epochs[:split]:
                runtime.step(epoch)
            base = tmp_path / "epoch_base"
            save_checkpoint(runtime, base)
            for epoch in epochs[split : split + 3]:
                runtime.step(epoch)
            runtime.shards[1].process.kill()
            runtime.shards[1].process.join(5.0)
            with pytest.raises(InferenceError, match="died"):
                save_checkpoint(
                    runtime, tmp_path / "epoch_delta", mode="delta", parent=base
                )
        finally:
            runtime.abort()
        assert not os.path.exists(tmp_path / "epoch_delta")
        assert not os.path.exists(str(tmp_path / "epoch_delta") + ".tmp")
        # The pre-crash checkpoint restores (into in-process shards) and
        # resumes bitwise.
        restored, manifest = restore_runtime(base, model)
        sink = restored.run(trace.epochs(start=manifest.epochs_processed))
        tail = [e for e in reference if e.time > (manifest.bus_last_time or -1)]
        assert len(sink.events) == len(tail)
        for ours, ref in zip(sink.events, tail):
            assert ours.time == ref.time and ours.tag == ref.tag
            np.testing.assert_array_equal(ours.position, ref.position)

    def test_periodic_delta_chain_under_process_executor_survives_kill(
        self, ck_scenario, tmp_path
    ):
        """The full loop under the process executor: periodic delta chain,
        hard kill, restore from LATEST, bitwise resume."""
        model, trace, config, reference = ck_scenario
        runtime = ShardedRuntime(
            model,
            config,
            _delta_runtime_config(tmp_path, executor="process"),
            CRASH_POLICY,
        )
        epochs = trace.epochs()
        for epoch in epochs[: int(len(epochs) * 0.8)]:
            runtime.step(epoch)
            runtime.checkpoint_if_due()
        runtime.abort()
        resumed_from = assert_latest_is_restorable(tmp_path, model, trace, reference)
        assert resumed_from > 0


class TestChainBreakRecovery:
    def test_explicit_checkpoint_mid_chain_forces_full_rebase(
        self, ck_scenario, tmp_path
    ):
        """An explicit checkpoint() between periodic deltas advances the
        capture baseline; the periodic coordinator must detect the broken
        chain and rebase with a full checkpoint instead of persisting a
        torn delta."""
        model, trace, config, reference = ck_scenario
        directory = tmp_path / "periodic"
        runtime = ShardedRuntime(
            model, config, _delta_runtime_config(directory), CRASH_POLICY
        )
        epochs = trace.epochs()
        interloper_done = False
        for epoch in epochs:
            runtime.step(epoch)
            runtime.checkpoint_if_due()
            if not interloper_done and latest_checkpoint(directory) is not None:
                runtime.checkpoint(tmp_path / "explicit")  # breaks the chain
                interloper_done = True
        runtime.finish()
        assert interloper_done
        kinds = [
            read_checkpoint_header(os.path.join(directory, name))["kind"]
            for name in sorted(os.listdir(directory))
            if name.startswith("epoch_")
        ]
        # Every retained checkpoint still materializes.
        assert_latest_is_restorable(directory, model, trace, reference)
        # And the chain was rebased at least once beyond the initial full.
        assert kinds.count("full") >= 1


# ---------------------------------------------------------------------------
# Seeded chaos soak: randomized fault plans, both executors
# ---------------------------------------------------------------------------


def _assert_events_bitwise(events, reference):
    assert len(events) == len(reference)
    for ours, ref in zip(events, reference):
        assert ours.time == ref.time and ours.tag == ref.tag
        np.testing.assert_array_equal(ours.position, ref.position)


class TestChaosSoak:
    """Every injected fault either recovers byte-identically (supervised)
    or fails loudly with a typed error — never hangs, never silently
    diverges.  Plans come from ``FaultPlan.random`` under fixed seeds, so
    the sweep is randomized but perfectly reproducible."""

    @pytest.mark.parametrize("seed", range(4))
    def test_chaos_supervised_process_recovers_byte_identical(
        self, ck_scenario, tmp_path, seed
    ):
        """Worker crashes (os._exit) and hangs (delay past the 1 s op
        deadline) under supervision: every seed must self-heal and finish
        with the undisturbed run's exact output."""
        model, trace, config, reference = ck_scenario
        faults.install(
            FaultPlan.random(
                seed,
                catalogue=[("worker.step", ("exit", "delay"))],
                n_rules=1,
                max_nth=24,
                delay_s=2.0,
            )
        )
        runtime = ShardedRuntime(
            model,
            config,
            _delta_runtime_config(
                tmp_path,
                executor="process",
                supervisor=SupervisorConfig(backoff_base_s=0.01, op_timeout_s=1.0),
            ),
            CRASH_POLICY,
        )
        try:
            sink = runtime.run(trace.epochs())
        finally:
            faults.clear()
        assert runtime.supervisor_stats()["restarts"] >= 1  # the fault fired
        _assert_events_bitwise(sink.events, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_chaos_serial_checkpoint_faults_fail_loudly_then_restore(
        self, ck_scenario, tmp_path, seed
    ):
        """Unsupervised serial runs under randomized checkpoint write/torn
        faults: a firing fault aborts the run loudly; whatever LATEST
        points at afterwards restores and resumes bitwise."""
        model, trace, config, reference = ck_scenario
        faults.install(
            FaultPlan.random(
                seed,
                catalogue=[("checkpoint.write", ("raise", "torn"))],
                n_rules=1,
                max_nth=8,
            )
        )
        runtime = ShardedRuntime(
            model, config, _delta_runtime_config(tmp_path), CRASH_POLICY
        )
        completed = False
        try:
            sink = runtime.run(trace.epochs())
            completed = True
        except OSError:
            pass  # run() already aborted the runtime
        finally:
            faults.clear()
        if completed:
            _assert_events_bitwise(sink.events, reference)
        for name in os.listdir(tmp_path):
            assert not name.endswith(".tmp"), f"torn write left {name}"
        assert_latest_is_restorable(tmp_path, model, trace, reference)


# ---------------------------------------------------------------------------
# Serve mode: kill -9 the live service at adversarial points
# ---------------------------------------------------------------------------


def _src_dir() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


_SERVE_FLAGS = [
    "--particles", "120",
    "--reader-particles", "60",
    "--delay", "5.0",
    "--shards", "2",
]


def _spawn_serve(trace_path, sock, log, out, *extra, plan=None):
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = _src_dir()
    if plan is not None:
        env[faults.ENV_VAR] = plan.to_json()
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(trace_path),
         "--socket", str(sock), "--emissions", str(log),
         *_SERVE_FLAGS, *extra],
        stdout=open(out, "ab"),
        stderr=open(out, "ab"),
        env=env,
    )


def _wait_for_socket(sock, timeout=60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(sock):
            return
        time.sleep(0.01)
    raise AssertionError(f"service never bound {sock}")


class TestServeKillNine:
    """The exactly-once contract of the ingest service, enforced the hard
    way: SIGKILL the serving process at adversarial points (before the
    first checkpoint, deep mid-stream, while a checkpoint directory is
    half-written), restart with ``--resume``, rerun the *same* replay, and
    require the final emission log to be byte-identical to an
    uninterrupted run's."""

    @pytest.fixture(scope="class")
    def serve_env(self, tmp_path_factory):
        from repro.simulation.layout import LayoutConfig
        from repro.simulation.truth_sensor import ConeTruthSensor
        from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

        base = tmp_path_factory.mktemp("serve_kill")
        simulator = WarehouseSimulator(
            WarehouseConfig(
                layout=LayoutConfig(n_objects=6, n_shelf_tags=2),
                sensor=ConeTruthSensor(rr_major=0.9),
                n_rounds=2,
                seed=7,
            )
        )
        trace = simulator.generate()
        trace_path = base / "trace.jsonl"
        with open(trace_path, "w") as fp:
            trace.dump(fp)

        # The uninterrupted reference run, through the same socket pipeline.
        sock = base / "baseline.sock"
        log = base / "baseline.jsonl"
        server = _spawn_serve(trace_path, sock, log, base / "baseline.out")
        _wait_for_socket(sock)
        self._replay(trace, sock)
        assert server.wait(timeout=120) == 0, open(base / "baseline.out").read()
        baseline = open(log, "rb").read()
        assert baseline.count(b"\n") >= 4  # enough emissions to tear between
        return trace, trace_path, baseline

    @staticmethod
    def _replay(trace, sock, rate=0.0):
        from repro.serve import ReplaySource

        # The socket file appears at bind(), a moment before listen():
        # a connect in between is refused, so allow a few retries.
        return ReplaySource(
            str(sock), trace, n_sources=3, rate=rate, connect_retries=3
        ).run()

    @staticmethod
    def _kill_when(server, condition, timeout=90.0):
        import signal
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if server.poll() is not None:
                return "exited"
            if condition():
                os.kill(server.pid, signal.SIGKILL)
                server.wait(timeout=30)
                return "killed"
            time.sleep(0.001)
        return "timeout"

    @pytest.mark.parametrize("trigger", ["before_checkpoint", "mid_stream", "mid_checkpoint"])
    def test_kill_nine_resume_replay_is_byte_identical(
        self, serve_env, tmp_path, trigger
    ):
        import threading

        from repro.errors import ServeError

        trace, trace_path, baseline = serve_env
        sock = tmp_path / "serve.sock"
        log = tmp_path / "emissions.jsonl"
        ck = tmp_path / "ck"
        out = tmp_path / "serve.out"
        flags = ["--checkpoint-every", "3.0", "--checkpoint-dir", str(ck)]

        def log_size():
            try:
                return os.path.getsize(log)
            except OSError:
                return 0

        def checkpoint_tmp_visible():
            try:
                return any(n.endswith(".tmp") for n in os.listdir(ck))
            except OSError:
                return False

        conditions = {
            # Before the first checkpoint lands: resume must fall back to a
            # fresh start that *verifies* the existing log, not re-append.
            "before_checkpoint": lambda: log_size() > 0,
            # Deep mid-stream, checkpoints behind and emissions ahead.
            "mid_stream": lambda: log_size() >= 0.5 * len(baseline),
            # Inside a checkpoint write (a half-written *.tmp file) —
            # rare to catch, so fall back to a late mid-stream kill.
            "mid_checkpoint": lambda: (
                checkpoint_tmp_visible() or log_size() >= 0.6 * len(baseline)
            ),
        }

        # The late triggers can lose the race to a fast finish: under the
        # delayed output policy much of the log flushes in the end-of-
        # stream burst, so a loaded machine may see the server exit before
        # the killer's next poll.  A clean exit proves nothing either way —
        # retry the whole kill attempt on fresh paths.
        status = {}
        for attempt in range(3):
            if attempt:
                log = tmp_path / f"emissions-retry{attempt}.jsonl"
                ck = tmp_path / f"ck-retry{attempt}"
                flags = ["--checkpoint-every", "3.0", "--checkpoint-dir", str(ck)]
            server = _spawn_serve(trace_path, sock, log, out, *flags)
            _wait_for_socket(sock)
            status = {}
            killer = threading.Thread(
                target=lambda: status.update(
                    result=self._kill_when(server, conditions[trigger])
                )
            )
            killer.start()
            try:
                # Paced so the kill window is generous; the killer
                # interrupts this replay mid-flight.
                self._replay(trace, sock, rate=80.0)
            except ServeError:
                pass
            killer.join(timeout=120)
            if status.get("result") == "killed":
                break
            try:
                os.unlink(sock)
            except OSError:
                pass
        assert status.get("result") == "killed", status

        partial = open(log, "rb").read() if os.path.exists(log) else b""
        assert baseline.startswith(partial)  # durable prefix, never garbage

        # Restart with --resume and rerun the identical replay.  The killed
        # process left its socket file behind; drop it so the bind wait
        # below observes the *new* server's socket, not the corpse's.
        try:
            os.unlink(sock)
        except OSError:
            pass
        server = _spawn_serve(
            trace_path, sock, log, out, *flags, "--resume"
        )
        _wait_for_socket(sock)
        report = self._replay(trace, sock)
        assert server.wait(timeout=120) == 0, open(out).read()

        assert open(log, "rb").read() == baseline
        # The rerun was a replay, not a fresh stream: every record either
        # skipped client-side (acked sequence) or deduped server-side.
        assert all(r["sent"] <= r["records"] for r in report.values())

    def test_exit_right_after_a_durable_checkpoint_resumes_byte_identical(
        self, serve_env, tmp_path
    ):
        """The window a polling killer cannot aim at: ``checkpoint.durable``
        vanishes the process (``os._exit``, unflushed buffers lost as under
        SIGKILL) the moment the eighth checkpoint's LATEST lands — mid-stream,
        a few lines into the log.  Its sink offset must already be on disk,
        so the resume is accepted and the final log is byte-identical."""
        from repro.errors import ServeError

        trace, trace_path, baseline = serve_env
        sock, log, ck = tmp_path / "serve.sock", tmp_path / "log.jsonl", tmp_path / "ck"
        out = tmp_path / "serve.out"
        flags = ["--checkpoint-every", "3.0", "--checkpoint-dir", str(ck)]
        plan = FaultPlan(rules=(FaultRule("checkpoint.durable", nth=8, action="exit"),))
        server = _spawn_serve(trace_path, sock, log, out, *flags, plan=plan)
        _wait_for_socket(sock)
        try:
            self._replay(trace, sock)
        except ServeError:
            pass  # the server vanished under the clients
        assert server.wait(timeout=120) == 43, out.read_text()
        manifest = load_checkpoint(latest_checkpoint(ck))
        on_disk = log.read_bytes().count(b"\n")
        assert 0 < manifest.extras["serve"]["sink"]["next_offset"] <= on_disk

        os.unlink(sock)
        server = _spawn_serve(trace_path, sock, log, out, *flags, "--resume")
        _wait_for_socket(sock)
        self._replay(trace, sock)
        assert server.wait(timeout=120) == 0, out.read_text()
        assert log.read_bytes() == baseline
