"""Tests for the worker executors' shared scenario set, bound to the local
link (``executor="process"``), plus what only a local worker has:
private arenas and containment after a crash.

The scenarios live in ``tests/worker_links.py`` and run unchanged over the
``remote`` link in ``tests/test_runtime_transport.py``.  The load-bearing
guarantees, in order of importance:

* **bitwise parity** — a worker executor emits exactly the serial
  executor's event stream at the same shard count (same per-shard seeds,
  same routed epoch content, same merge);
* **durability** — checkpoint -> kill -> restore under a worker executor
  resumes bitwise, and a checkpoint taken under one executor restores under
  another;
* **containment** — a worker crash surfaces as :class:`InferenceError` and
  leaves no orphaned processes.
"""

import numpy as np
import pytest
from worker_links import (
    POLICY,
    check_belief_reads,
    check_checkpoint_kill_restore,
    check_counters,
    check_cross_executor_restore,
    check_no_shared_memory,
    check_parity,
    check_queries,
    worker_link,
)

from repro import faults
from repro.config import InferenceConfig, RuntimeConfig
from repro.errors import InferenceError
from repro.faults import FaultPlan, FaultRule
from repro.inference.factored import FactoredParticleFilter
from repro.runtime import ShardedRuntime
from repro.state import restore_runtime


def run_events(model, trace, config, runtime_config):
    runtime = ShardedRuntime(model, config, runtime_config, POLICY)
    sink = runtime.run(trace.epochs())
    return runtime, list(sink.events)


@pytest.fixture
def crash_worker_at_step():
    """Install a fault plan that hard-exits a worker on the given hit of
    ``worker.step`` (hits count across every forked worker)."""

    def install(nth):
        faults.install(
            FaultPlan(rules=(FaultRule("worker.step", nth=nth, action="exit"),))
        )

    yield install
    faults.clear()


@pytest.fixture(scope="module")
def scenario():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    simulator = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=8, n_shelf_tags=3), seed=11)
    )
    trace = simulator.generate()
    config = InferenceConfig(reader_particles=60, object_particles=120, seed=7)
    return simulator.world_model(), trace, config


class TestProcessParity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_process_matches_serial_bitwise(self, scenario, n_shards):
        runtime = check_parity(scenario, "process", n_shards)
        # Every worker was reaped by finish().
        assert all(proxy.process is None for proxy in runtime.shards)

    def test_single_shard_process_matches_unsharded_root_seed(self, scenario):
        check_parity(scenario, "process", 1)

    def test_process_runtime_answers_queries(self, scenario):
        check_queries(scenario, "process")

    def test_worker_belief_fetch_matches_local_arena(self, scenario):
        check_belief_reads(scenario, "process")

    def test_process_counters_match_serial(self, scenario):
        check_counters(scenario, "process")

    def test_workers_allocate_no_shared_memory(self, scenario, monkeypatch):
        check_no_shared_memory(scenario, "process", monkeypatch)

def check_run_factored(scenario, executor):
    """The eval harness queries the runtime *after* run(): stats, known
    objects, and estimates must survive worker retirement, and match the
    serial executor's."""
    from repro.eval.harness import run_factored

    model, trace, config = scenario
    with worker_link(executor) as runtime_config:
        result = run_factored(trace, model, config, POLICY, runtime_config=runtime_config(2))
    assert result.error is not None
    assert result.extra["worker_processes"] == 2.0
    assert result.extra["n_shards"] == 2.0
    assert result.extra["shard0_arena_used_rows"] > 0
    reference = run_factored(
        trace, model, config, POLICY, runtime_config=RuntimeConfig(n_shards=2)
    )
    assert reference.extra["worker_processes"] == 0.0
    for number, estimate in result.estimates.items():
        np.testing.assert_array_equal(estimate, reference.estimates[number])
    for key, value in reference.extra.items():
        if not key.endswith(("wire_bytes_sent", "wire_bytes_recv", "worker_processes")):
            assert result.extra[key] == value, key


class TestHarnessIntegration:
    def test_run_factored_with_process_executor(self, scenario):
        check_run_factored(scenario, "process")

    def test_run_factored_with_remote_executor(self, scenario):
        """Remote shards are worker processes too (forked by the host)."""
        check_run_factored(scenario, "remote")


class TestProcessDurability:
    def test_checkpoint_kill_restore_is_bitwise(self, scenario, tmp_path):
        check_checkpoint_kill_restore(scenario, "process", tmp_path)

    def test_cross_executor_restore_is_bitwise(self, scenario, tmp_path):
        """Process checkpoints restore into serial shards."""
        check_cross_executor_restore(scenario, "process", "serial", tmp_path)

    def test_elastic_reshard_into_process_executor(self, scenario, tmp_path):
        """A 2-shard checkpoint re-shards onto 4 process workers; event
        times/tags are exact (the policy clock is deterministic)."""
        model, trace, config = scenario
        _, reference = run_events(model, trace, config, RuntimeConfig(n_shards=2))

        epochs = trace.epochs()
        cut = len(epochs) // 2
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in epochs[:cut]:
            runtime.step(epoch)
        runtime.checkpoint(tmp_path / "ck")
        prefix = list(runtime.sink.events)
        runtime.abort()

        resumed, _ = restore_runtime(
            tmp_path / "ck",
            model,
            runtime_config=RuntimeConfig(n_shards=4, executor="process"),
        )
        resumed.run(trace.epochs(start=cut))
        combined = prefix + list(resumed.sink.events)
        assert sorted((e.time, str(e.tag)) for e in combined) == sorted(
            (e.time, str(e.tag)) for e in reference
        )


class TestWorkerCrash:
    def test_failed_snapshot_leaves_workers_serving(
        self, scenario, tmp_path, monkeypatch
    ):
        """A non-StateError snapshot failure must drain every worker's
        pending reply — the runtime keeps streaming afterwards with the
        links still in sync (the documented checkpoint contract)."""
        model, trace, config = scenario

        def explode(self, mode="full"):
            raise InferenceError("snapshot exploded")

        # Patched before the runtime forks: the workers inherit it.
        monkeypatch.setattr(FactoredParticleFilter, "snapshot_state", explode)
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(n_shards=2, executor="process"),
            POLICY,
        )
        try:
            epochs = trace.epochs()
            for epoch in epochs[:5]:
                runtime.step(epoch)
            with pytest.raises(InferenceError, match="snapshot exploded"):
                runtime.checkpoint(tmp_path / "ck")
            # Links are in sync: subsequent steps and queries still work.
            for epoch in epochs[5:10]:
                runtime.step(epoch)
            assert runtime.known_objects()
        finally:
            runtime.abort()

    def test_crash_raises_and_leaves_nothing_behind(
        self, scenario, crash_worker_at_step
    ):
        model, trace, config = scenario
        crash_worker_at_step(3)
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(n_shards=2, executor="process"),
            POLICY,
        )
        processes = [proxy.process for proxy in runtime.shards]
        with pytest.raises(InferenceError, match="died"):
            runtime.run(trace.epochs())
        # No orphaned workers, and the bus saw its close (abort ran).
        assert all(not process.is_alive() for process in processes)
        assert all(proxy.process is None for proxy in runtime.shards)
        assert runtime.bus.closed

    def test_step_after_crash_reports_dead_worker(
        self, scenario, crash_worker_at_step
    ):
        model, trace, config = scenario
        crash_worker_at_step(1)
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(n_shards=2, executor="process"),
            POLICY,
        )
        epochs = trace.epochs()
        with pytest.raises(InferenceError):
            runtime.step(epochs[0])
        runtime.abort()
        with pytest.raises(InferenceError):
            runtime.step(epochs[1])
