"""Tests for the sharded runtime: partitioning, routing, the event bus,
and — the load-bearing guarantee — sharded-vs-unsharded parity.

Parity has two tiers, mirroring the per-shard seed derivation:

* ``n_shards=1`` keeps the root seed, so the runtime is *bitwise identical*
  to an unsharded :class:`CleaningPipeline` over the same engine config;
* ``n_shards=4`` uses independent per-shard RNG streams, so the emitted
  (time, tag) set must match exactly while positions agree within the same
  tolerance the seed-golden tests use for RNG-order changes (0.6 ft).
"""

import numpy as np
import pytest

from repro.config import (
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
)
from repro.errors import ConfigurationError, InferenceError, StreamError
from repro.inference.factored import FactoredParticleFilter
from repro.inference.pipeline import CleaningPipeline
from repro.runtime import (
    EpochRouter,
    EventBus,
    ShardedRuntime,
    hash_partition,
    shard_seed,
)
from repro.runtime.shard import FilterShard
from repro.streams.records import LocationEvent, TagId, make_epoch
from repro.streams.sinks import CollectingSink

POLICY = OutputPolicyConfig(delay_s=20.0)


def event_at(time, number, position=(1.0, 2.0, 0.0)):
    return LocationEvent(time=time, tag=TagId.object(number), position=position)


class TestRuntimeConfig:
    def test_defaults_valid(self):
        config = RuntimeConfig()
        assert config.n_shards == 1
        assert config.executor == "serial"

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(n_shards=0)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(executor="fiber")

    def test_accepts_every_executor(self):
        for executor in ("serial", "process"):
            assert RuntimeConfig(executor=executor).executor == executor
        with pytest.raises(ConfigurationError):
            RuntimeConfig(executor="thread")  # removed: never beat serial by 1.5x


class TestPartitioners:
    def test_deterministic_and_in_range(self):
        for number in range(200):
            shard = hash_partition(number, 4)
            assert 0 <= shard < 4
            assert shard == hash_partition(number, 4)

    def test_hash_spreads_strided_populations(self):
        """Tags strided by the shard count all collide under a plain modulus
        but must spread under the hash (the reason it mixes first)."""
        numbers = range(0, 400, 4)
        counts = np.bincount([hash_partition(n, 4) for n in numbers], minlength=4)
        assert (counts > 0).all()

    def test_single_shard_partitioner_is_constant(self):
        router = EpochRouter(1)
        assert {router.shard_of(n) for n in range(50)} == {0}

    def test_shard_seed_preserves_root_for_single_shard(self):
        assert shard_seed(7, 0, 1) == 7

    def test_shard_seeds_distinct_and_stable(self):
        seeds = [shard_seed(7, i, 4) for i in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [shard_seed(7, i, 4) for i in range(4)]
        assert seeds != [shard_seed(8, i, 4) for i in range(4)]


class TestEpochRouter:
    def test_single_shard_passthrough(self):
        router = EpochRouter(1)
        epoch = make_epoch(3.0, (0.0, 1.0), object_tags=[1, 2], shelf_tags=[0])
        assert router.split(epoch) == [epoch]

    def test_split_partitions_object_tags(self):
        router = EpochRouter(4)
        epoch = make_epoch(3.0, (0.0, 1.0), object_tags=range(32), shelf_tags=[0])
        parts = router.split(epoch)
        assert len(parts) == 4
        seen = set()
        for index, sub in enumerate(parts):
            for tag in sub.object_tags:
                assert router.shard_of(tag.number) == index
                assert tag not in seen
                seen.add(tag)
        assert seen == epoch.object_tags

    def test_split_broadcasts_context(self):
        router = EpochRouter(3)
        epoch = make_epoch(
            5.0,
            (1.0, 2.0, 0.0),
            object_tags=[1, 2, 3],
            shelf_tags=[0, 1],
            reported_heading=0.4,
        )
        for sub in router.split(epoch):
            assert sub.time == epoch.time
            assert sub.reported_position == epoch.reported_position
            assert sub.reported_heading == epoch.reported_heading
            assert sub.shelf_tags == epoch.shelf_tags


class TestEventBus:
    def test_fans_out_in_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(lambda e: calls.append(("a", e.time)))
        bus.subscribe(lambda e: calls.append(("b", e.time)))
        bus.publish(event_at(1.0, 0))
        bus.publish(event_at(2.0, 1))
        assert calls == [("a", 1.0), ("b", 1.0), ("a", 2.0), ("b", 2.0)]
        assert bus.published == 2

    def test_rejects_time_regression(self):
        bus = EventBus()
        bus.publish(event_at(5.0, 0))
        with pytest.raises(StreamError):
            bus.publish(event_at(4.0, 1))
        # Equal timestamps are fine (same-tick events from several shards).
        bus.publish(event_at(5.0, 2))

    def test_unordered_bus_allows_regression(self):
        bus = EventBus(enforce_order=False)
        bus.publish(event_at(5.0, 0))
        bus.publish(event_at(4.0, 1))
        assert bus.published == 2

    def test_close_hooks_run_once_and_publishing_stops(self):
        bus = EventBus()
        closes = []
        bus.subscribe(lambda e: None, on_close=lambda: closes.append(1))
        bus.close()
        bus.close()
        assert closes == [1]
        assert bus.closed
        with pytest.raises(StreamError):
            bus.publish(event_at(1.0, 0))

    def test_subscribe_sink(self):
        bus = EventBus()
        sink = CollectingSink()
        bus.subscribe_sink(sink)
        bus.publish(event_at(1.0, 0))
        bus.close()
        assert len(sink.events) == 1


def run_single_engine(model, trace, config):
    sink = CollectingSink()
    CleaningPipeline(FactoredParticleFilter(model, config), POLICY, sink).run(
        trace.epochs()
    )
    return sink.events


def run_sharded_runtime(model, trace, config, runtime_config):
    runtime = ShardedRuntime(model, config, runtime_config, POLICY)
    sink = runtime.run(trace.epochs())
    assert isinstance(sink, CollectingSink)
    return runtime, sink.events


def times_and_tags(events):
    return sorted((e.time, str(e.tag)) for e in events)


class TestShardedParity:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.simulation.layout import LayoutConfig
        from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

        simulator = WarehouseSimulator(
            WarehouseConfig(layout=LayoutConfig(n_objects=8, n_shelf_tags=3), seed=11)
        )
        trace = simulator.generate()
        config = InferenceConfig(reader_particles=60, object_particles=120, seed=7)
        return simulator.world_model(), trace, config

    def test_single_shard_is_bitwise_identical(self, scenario):
        model, trace, config = scenario
        reference = run_single_engine(model, trace, config)
        _, sharded = run_sharded_runtime(model, trace, config, RuntimeConfig(n_shards=1))
        assert len(sharded) == len(reference)
        for ours, ref in zip(sharded, reference):
            assert ours.time == ref.time
            assert ours.tag == ref.tag
            # Same root seed, same epoch stream: identical RNG trajectory.
            np.testing.assert_array_equal(ours.position, ref.position)

    def test_four_shards_reproduce_event_stream(self, scenario):
        model, trace, config = scenario
        reference = run_single_engine(model, trace, config)
        runtime, sharded = run_sharded_runtime(
            model, trace, config, RuntimeConfig(n_shards=4)
        )
        # Tags and timestamps exact.
        assert times_and_tags(sharded) == times_and_tags(reference)
        # Positions within the RNG-reordering tolerance used by the
        # seed-golden parity tests.
        by_key = {(e.time, e.tag): np.asarray(e.position) for e in reference}
        for event in sharded:
            ref = by_key[(event.time, event.tag)]
            drift = float(np.hypot(event.position[0] - ref[0], event.position[1] - ref[1]))
            assert drift < 0.6, f"{event.tag} drifted {drift:.3f} ft"
        # Every shard actually owns part of the population.
        assert [s for s in runtime.shard_stats() if s["objects"] > 0]
        assert sum(s["objects"] for s in runtime.shard_stats()) == 8
        assert runtime.known_objects() == sorted(
            {e.tag.number for e in reference}
        )

    def test_sharded_run_is_deterministic(self, scenario):
        model, trace, config = scenario
        _, first = run_sharded_runtime(model, trace, config, RuntimeConfig(n_shards=4))
        _, second = run_sharded_runtime(model, trace, config, RuntimeConfig(n_shards=4))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.time == b.time and a.tag == b.tag
            np.testing.assert_array_equal(a.position, b.position)

    def test_object_estimate_delegates_to_owning_shard(self, scenario):
        model, trace, config = scenario
        runtime, _ = run_sharded_runtime(model, trace, config, RuntimeConfig(n_shards=4))
        for number in runtime.known_objects():
            mean = runtime.object_estimate(number).mean
            assert np.isfinite(mean).all()

    def test_shard_stats_carry_every_engine_counter(self, scenario):
        """One counter list: each shard row carries every ``engine.stats``
        key and the tier census at the engine's own values, and the totals
        sum them."""
        model, trace, config = scenario
        runtime, _ = run_sharded_runtime(model, trace, config, RuntimeConfig(n_shards=2))
        rows = runtime.shard_stats()
        for shard, row in zip(runtime.shards, rows):
            engine = shard.engine
            for key, value in {**engine.stats, **engine.tier_summary()}.items():
                assert row[key] == float(value), key
        totals = runtime.shard_totals(rows)
        assert totals["objects_processed"] == sum(
            shard.engine.stats["objects_processed"] for shard in runtime.shards
        )
        assert totals["objects_processed"] > 0
        assert totals["epochs"] == 2 * len(trace.epochs())

    def test_every_shard_is_a_factored_filter_on_its_own_seed(self, scenario):
        """The serial runtime builds each shard through ``FilterShard``: a
        factored filter on the shard's derived seed and the run's heading."""
        model, _, config = scenario
        runtime = ShardedRuntime(
            model, config, RuntimeConfig(n_shards=3), POLICY, initial_heading=0.5
        )
        for index, shard in enumerate(runtime.shards):
            assert isinstance(shard, FilterShard) and shard.index == index
            assert type(shard.engine) is FactoredParticleFilter
            assert shard.engine.config.seed == shard_seed(config.seed, index, 3)
            assert shard.engine._initial_heading == 0.5  # noqa: SLF001
        runtime.abort()

    def test_bus_events_arrive_time_ordered(self, scenario):
        model, trace, config = scenario
        times = []
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=4), POLICY)
        runtime.bus.subscribe(lambda e: times.append(e.time))
        runtime.run(trace.epochs())
        assert times == sorted(times)

    def test_step_after_finish_raises(self, scenario):
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        runtime.run(trace.epochs())
        with pytest.raises(InferenceError):
            runtime.step(make_epoch(1e6, (0.0, 1.0)))

    def test_failed_run_releases_pool_and_closes_bus(self, scenario, monkeypatch):
        """An error mid-run must not leak workers or leave bus subscribers
        waiting for a close."""
        model, trace, config = scenario

        def blow_up(self, epoch):
            raise RuntimeError("engine blew up")

        # Patched before the runtime forks: the workers inherit it.
        monkeypatch.setattr(FactoredParticleFilter, "step", blow_up)
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(n_shards=2, executor="process"),
            POLICY,
        )
        # The worker reports its engine's exception over the link.
        with pytest.raises(InferenceError, match="RuntimeError: engine blew up"):
            runtime.run(trace.epochs())
        assert not any(proxy.is_alive() for proxy in runtime.shards)
        assert runtime.bus.closed
        runtime.finish()  # no-op after abort

    def test_abort_is_reentrant(self, scenario):
        """A second abort — even from a repeated SIGTERM while the first
        is mid-teardown — must be a silent no-op, as must finish()."""
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in list(trace.epochs())[:3]:
            runtime.step(epoch)
        closes = []
        runtime.bus.subscribe(lambda event: None, on_close=lambda: closes.append(1))
        runtime.abort()
        runtime.abort()
        runtime.finish()
        assert runtime.bus.closed
        assert closes == [1]  # close hooks fired exactly once
