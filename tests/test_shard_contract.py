"""One shard contract: an in-process ``FilterShard`` and a worker proxy
answer the runtime's split-phase surface with the same bits.

``ShardedRuntime`` drives every shard through one code path — ``step_async``
/ ``collect_events``, ``snapshot_async`` / ``collect_snapshot``,
``restore``, ``finish_async`` / ``collect_events``, ``close``, then the
post-run queries — so the two shard kinds must be interchangeable call for
call, not merely run for run.  The worker proxy retires its process at
``close``; its post-run answers come from what it cached at finish.
"""

from dataclasses import replace

import numpy as np
import pytest
from test_state_delta import tree_equal
from worker_links import POLICY, assert_same_events

from repro.config import InferenceConfig
from repro.errors import StateError
from repro.inference.factored import FactoredParticleFilter
from repro.runtime import ShardWorkerProxy
from repro.runtime.partition import shard_seed
from repro.runtime.router import EpochRouter
from repro.runtime.shard import FilterShard

N_SHARDS, INDEX = 2, 1


def in_process(model, config):
    return FilterShard(INDEX, model, config, POLICY)


def worker(model, config):
    return ShardWorkerProxy(INDEX, model, config, POLICY)


@pytest.fixture(scope="module")
def scenario():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    simulator = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=8, n_shelf_tags=3), seed=11)
    )
    trace = simulator.generate()
    config = InferenceConfig(reader_particles=60, object_particles=120, seed=7)
    # The config the runtime would build shard INDEX of N_SHARDS from.
    config = replace(config, seed=shard_seed(config.seed, INDEX, N_SHARDS))
    router = EpochRouter(N_SHARDS)
    sub_epochs = [router.split(epoch)[INDEX] for epoch in trace.epochs()]
    return simulator.world_model(), config, sub_epochs


def drive(build, scenario):
    """The runtime's call sequence on one shard: steps, a snapshot restored
    into a fresh shard, more steps, finish, close, then the queries."""
    model, config, sub_epochs = scenario
    cut = len(sub_epochs) // 2
    events = []
    shard = build(model, config)
    try:
        for sub in sub_epochs[:cut]:
            shard.step_async(sub)
            events += shard.collect_events()
        shard.snapshot_async("full")
        state = shard.collect_snapshot()
    finally:
        shard.close()
    shard = build(model, config)
    try:
        shard.restore(state)
        for sub in sub_epochs[cut:]:
            shard.step_async(sub)
            events += shard.collect_events()
        shard.finish_async()
        events += shard.collect_events()
    finally:
        shard.close()
    known = shard.known_objects()
    estimates = {number: shard.object_estimate(number) for number in known}
    return events, state, known, estimates, shard.stats()


@pytest.fixture(scope="module")
def reference(scenario):
    return drive(in_process, scenario)


@pytest.mark.parametrize("build", [in_process, worker], ids=["in_process", "worker"])
def test_every_shard_kind_answers_the_runtime_bit_for_bit(scenario, reference, build):
    events, state, known, estimates, stats = drive(build, scenario)
    ref_events, ref_state, ref_known, ref_estimates, ref_stats = reference
    assert ref_events and ref_known
    assert_same_events(events, ref_events)
    assert tree_equal(state, ref_state) is None
    assert known == ref_known
    for number in ref_known:
        ours, theirs = estimates[number], ref_estimates[number]
        np.testing.assert_array_equal(ours.mean, theirs.mean)
        np.testing.assert_array_equal(ours.covariance, theirs.covariance)
        assert ours.sample_size == theirs.sample_size
    assert stats == ref_stats


def test_stats_row_has_a_fixed_key_set(scenario):
    """A shard's stats row names the same keys before its first epoch as
    after its last: the filter's arena fields, counters and tier census."""
    model, config, sub_epochs = scenario
    shard = in_process(model, config)
    before = list(shard.stats())
    for sub in sub_epochs:
        shard.step(sub)
        shard.drain()
    assert list(shard.stats()) == before
    assert {"active_count", "arena_used_rows", "belief_memory_bytes"} <= set(before)
    assert {"objects_processed", "objects_full"} <= set(before)


def test_stats_row_copies_every_engine_counter_and_tier_count(scenario):
    model, config, sub_epochs = scenario
    shard = in_process(model, config.with_budget())
    for sub in sub_epochs:
        shard.step(sub)
        shard.drain()
    row = shard.stats()
    engine = shard.engine
    expected = {**engine.stats, **engine.tier_summary()}
    assert {key: row[key] for key in expected} == {
        key: float(value) for key, value in expected.items()
    }
    assert all(type(value) is float for value in row.values())
    assert row["objects_processed"] > 0 and row["epochs"] == float(len(sub_epochs))


def test_a_type_error_inside_a_delta_capture_surfaces_as_itself(
    scenario, monkeypatch
):
    """A bug inside the filter's delta capture is reported as what it is,
    not as a shard that "does not support" delta checkpoints."""
    model, config, sub_epochs = scenario
    shard = in_process(model, config)
    shard.step(sub_epochs[0])
    shard.drain()
    shard.snapshot("full")

    def broken(self, mode="full"):
        raise TypeError("bug inside the capture")

    monkeypatch.setattr(FactoredParticleFilter, "snapshot_state", broken)
    with pytest.raises(TypeError, match="bug inside the capture"):
        shard.snapshot("delta")


def test_a_shard_builds_its_own_factored_filter(scenario):
    """The one constructor: a shard's engine is a factored filter built
    from the shard's config, and its pipeline drives that engine."""
    model, config, _ = scenario
    shard = in_process(model, config)
    assert type(shard.engine) is FactoredParticleFilter
    assert shard.engine.config is config
    assert shard.pipeline.engine is shard.engine
    assert shard.pipeline.policy is POLICY


def test_shards_built_alike_run_alike(scenario):
    """Two shards built from the same arguments emit the same events and
    capture the same state: nothing about a shard depends on who built it."""
    model, config, sub_epochs = scenario
    runs = []
    for _ in range(2):
        shard = in_process(model, config)
        events = []
        for sub in sub_epochs:
            shard.step(sub)
            events += shard.drain()
        runs.append((events, shard.snapshot("full")))
    (events, state), (ref_events, ref_state) = runs
    assert ref_events
    assert_same_events(events, ref_events)
    assert tree_equal(state, ref_state) is None


@pytest.mark.parametrize("tag", ["naive", "bogus"])
@pytest.mark.parametrize("build", [in_process, worker], ids=["in_process", "worker"])
def test_a_direct_restore_refuses_a_foreign_engine_tree(scenario, build, tag):
    """A tree that reaches a shard without the checkpoint layer's checks (a
    direct ``restore``, the worker ``restore`` op) is still refused by the
    filter, and a refused worker keeps serving."""
    model, config, sub_epochs = scenario
    source = in_process(model, config)
    source.step(sub_epochs[0])
    source.drain()
    state = source.snapshot("full")
    state["engine"]["engine"] = tag
    shard = build(model, config)
    try:
        with pytest.raises(StateError, match=f"{tag!r}, not 'factored'"):
            shard.restore(state)
        shard.step_async(sub_epochs[0])
        shard.collect_events()
        assert shard.known_objects() == source.known_objects()
    finally:
        shard.close()


def test_a_type_error_inside_a_full_capture_surfaces_as_itself(scenario, monkeypatch):
    model, config, sub_epochs = scenario
    shard = in_process(model, config)
    shard.step(sub_epochs[0])
    shard.drain()

    def broken(self, mode="full"):
        raise TypeError("bug inside the capture")

    monkeypatch.setattr(FactoredParticleFilter, "snapshot_state", broken)
    with pytest.raises(TypeError, match="bug inside the capture"):
        shard.snapshot("full")


def test_a_fresh_worker_reports_the_in_process_stats_row(scenario):
    """Before its first epoch a worker's stats row carries every key of an
    in-process shard's, at the same values (plus its wire counters)."""
    model, config, _ = scenario
    expected = in_process(model, config).stats()
    shard = worker(model, config)
    try:
        row = shard.stats()
    finally:
        shard.close()
    assert {key: row[key] for key in expected} == expected
    assert {"wire_bytes_sent", "wire_bytes_recv"} <= set(row) - set(expected)
