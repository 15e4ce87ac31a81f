"""One scenario set for both worker links (``process`` and ``remote``).

The two worker executors share one proxy and one worker body; what they
guarantee is the same, so what tests them is the same: every scenario here
takes the executor name and runs over that link.  ``tests/
test_runtime_workers.py`` binds the set to ``process`` (plus what only a
local worker has: private arenas, crash containment) and
``tests/test_runtime_transport.py`` binds it to ``remote`` (plus what only a TCP peer can do: be unreachable, be hostile).
"""

import threading
from contextlib import contextmanager

import numpy as np

from repro.config import OutputPolicyConfig, RuntimeConfig
from repro.inference.estimates import LocationEstimate
from repro.runtime import ShardedRuntime
from repro.runtime.transport import ShardHostServer
from repro.state import restore_runtime

POLICY = OutputPolicyConfig(delay_s=20.0)
WORKER_EXECUTORS = ("process", "remote")


def assert_same_events(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert a.time == b.time and a.tag == b.tag
        np.testing.assert_array_equal(a.position, b.position)
        assert a.statistics == b.statistics


@contextmanager
def shard_host(port=0):
    server = ShardHostServer(port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(5.0)


@contextmanager
def worker_link(executor):
    """Yield ``runtime_config(n_shards, **extra)`` for one executor.

    ``remote`` runs a loopback shard host for the duration; ``process`` and
    the in-process executors need nothing.
    """
    if executor != "remote":
        yield lambda n_shards, **extra: RuntimeConfig(
            n_shards=n_shards, executor=executor, **extra
        )
        return
    with shard_host() as server:
        yield lambda n_shards, **extra: RuntimeConfig(
            n_shards=n_shards,
            executor="remote",
            shard_hosts=(f"127.0.0.1:{server.port}",),
            **extra,
        )


def serial_events(model, trace, config, n_shards):
    return (
        ShardedRuntime(model, config, RuntimeConfig(n_shards=n_shards), POLICY)
        .run(trace.epochs())
        .events
    )


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
def check_parity(scenario, executor, n_shards):
    """The executor emits exactly the serial executor's event stream."""
    model, trace, config = scenario
    reference = serial_events(model, trace, config, n_shards)
    with worker_link(executor) as runtime_config:
        runtime = ShardedRuntime(model, config, runtime_config(n_shards), POLICY)
        try:
            runtime.run(trace.epochs())
        finally:
            runtime.abort()
    assert_same_events(runtime.sink.events, reference)
    return runtime


def check_queries(scenario, executor):
    """known_objects / object_estimate / stats route over the link."""
    model, trace, config = scenario
    with worker_link(executor) as runtime_config:
        runtime = ShardedRuntime(model, config, runtime_config(2), POLICY)
        try:
            for epoch in trace.epochs()[:40]:
                runtime.step(epoch)
            known = runtime.known_objects()
            assert known == sorted(set(known)) and known
            for number in known:
                assert np.isfinite(runtime.object_estimate(number).mean).all()
            stats = runtime.shard_stats()
        finally:
            runtime.abort()
    assert sum(s["objects"] for s in stats) == len(known)
    assert all(s["arena_used_rows"] > 0 for s in stats)
    assert all(s["wire_bytes_sent"] > 0 and s["wire_bytes_recv"] > 0 for s in stats)


def check_belief_reads(scenario, executor):
    """Beliefs stay in the worker; what crosses the link is the estimate.
    Fetched live (mid-run, before finish caches anything), every object's
    estimate equals, bit for bit, the one a serial run computes from its
    own arena at the same epoch."""
    model, trace, config = scenario
    epochs = trace.epochs()[:40]
    serial = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
    for epoch in epochs:
        serial.step(epoch)
    with worker_link(executor) as runtime_config:
        runtime = ShardedRuntime(model, config, runtime_config(2), POLICY)
        try:
            for epoch in epochs:
                runtime.step(epoch)
            for local, proxy in zip(serial.shards, runtime.shards):
                arena = local.engine.arena
                assert arena.object_ids()
                assert proxy.known_objects() == sorted(arena.object_ids())
                for number in arena.object_ids():
                    fetched = proxy.object_estimate(number)
                    from_arena = LocationEstimate.robust_from_particles(
                        arena.positions(number), arena.log_weights(number)
                    )
                    np.testing.assert_array_equal(fetched.mean, from_arena.mean)
                    expected = local.object_estimate(number)
                    np.testing.assert_array_equal(
                        fetched.covariance, expected.covariance
                    )
                    assert fetched.sample_size == expected.sample_size
        finally:
            runtime.abort()
    serial.abort()


def check_counters(scenario, executor):
    """Every per-shard diagnostic a worker computes reaches the parent and
    equals the serial executor's: the engine counters (``objects_processed``
    among them), the tier census and the arena figures."""
    model, trace, config = scenario
    serial = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
    serial.run(trace.epochs())
    expected = serial.shard_stats()
    with worker_link(executor) as runtime_config:
        runtime = ShardedRuntime(model, config, runtime_config(2), POLICY)
        try:
            runtime.run(trace.epochs())
            rows = runtime.shard_stats()
        finally:
            runtime.abort()
    assert all(row["objects_processed"] > 0 for row in expected)
    for ours, reference in zip(rows, expected):
        assert {key: ours[key] for key in reference} == reference


def check_no_shared_memory(scenario, executor, monkeypatch):
    """Worker arenas are private numpy arrays: with shared-memory
    allocation made to fail before the fork (forked workers inherit the
    patch), a 2-shard run still completes, bitwise equal to serial."""
    from multiprocessing import shared_memory

    def refuse(*args, **kwargs):
        raise AssertionError("a worker allocated shared memory")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    check_parity(scenario, executor, 2)


def check_checkpoint_kill_restore(scenario, executor, tmp_path):
    """Checkpoint, hard-stop, restore under the same executor: bitwise."""
    model, trace, config = scenario
    reference = serial_events(model, trace, config, 2)
    epochs = trace.epochs()
    cut = len(epochs) // 2
    with worker_link(executor) as runtime_config:
        runtime = ShardedRuntime(model, config, runtime_config(2), POLICY)
        for epoch in epochs[:cut]:
            runtime.step(epoch)
        runtime.checkpoint(tmp_path / "ck")
        prefix = list(runtime.sink.events)
        runtime.abort()  # the "kill": workers reaped, nothing flushed
        assert all(proxy.process is None for proxy in runtime.shards)
        assert not any(proxy.is_alive() for proxy in runtime.shards)

        resumed, manifest = restore_runtime(tmp_path / "ck", model)
        assert resumed.runtime_config.executor == executor
        assert manifest.epochs_processed == cut
        resumed.run(trace.epochs(start=cut))
    assert_same_events(prefix + list(resumed.sink.events), reference)


def check_cross_executor_restore(scenario, source, target, tmp_path, mode="full"):
    """Executor is a deployment choice: a checkpoint (or delta chain)
    written under ``source`` restores under ``target``, output bitwise."""
    model, trace, config = scenario
    reference = serial_events(model, trace, config, 2)
    epochs = trace.epochs()
    cuts = [len(epochs) // 3, len(epochs) // 2]
    with worker_link(source) as source_config:
        runtime = ShardedRuntime(model, config, source_config(2), POLICY)
        for epoch in epochs[: cuts[0]]:
            runtime.step(epoch)
        runtime.checkpoint(tmp_path / "base")
        for epoch in epochs[cuts[0] : cuts[1]]:
            runtime.step(epoch)
        if mode == "delta":
            runtime.checkpoint(tmp_path / "ck", mode="delta", parent=tmp_path / "base")
        else:
            runtime.checkpoint(tmp_path / "ck")
        prefix = list(runtime.sink.events)
        runtime.abort()
    with worker_link(target) as target_config:
        resumed, manifest = restore_runtime(
            tmp_path / "ck", model, runtime_config=target_config(2)
        )
        assert manifest.kind == mode and manifest.epochs_processed == cuts[1]
        resumed.run(trace.epochs(start=cuts[1]))
    assert_same_events(prefix + list(resumed.sink.events), reference)
