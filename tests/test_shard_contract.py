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
from repro.inference.factored import FactoredParticleFilter
from repro.runtime import ShardWorkerProxy
from repro.runtime.partition import shard_seed
from repro.runtime.router import EpochRouter
from repro.runtime.shard import FilterShard

N_SHARDS, INDEX = 2, 1


def in_process(model, config):
    return FilterShard(INDEX, FactoredParticleFilter(model, config), POLICY)


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
