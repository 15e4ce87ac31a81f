"""Tests for the experiment harness (run + score all four system kinds)."""

import pytest

import numpy as np

from repro.config import InferenceConfig, OutputPolicyConfig, RuntimeConfig
from repro.eval.harness import (
    final_estimates_from_sink,
    run_factored,
    run_naive,
    run_smurf,
    run_uniform,
)
from repro.query import QueryEngine


@pytest.fixture(scope="module")
def scene():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    sim = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=6, n_shelf_tags=3), seed=11)
    )
    return sim, sim.generate()


@pytest.fixture(scope="module")
def fast_cfg():
    return InferenceConfig(reader_particles=60, object_particles=120, seed=7)


class TestRunFactored:
    def test_scores_all_objects(self, scene, fast_cfg):
        sim, trace = scene
        result = run_factored(trace, sim.world_model(), fast_cfg)
        assert result.error is not None
        assert result.error.n_objects == 6
        assert result.error.xy < 0.6
        assert result.n_readings == trace.n_readings
        assert result.time_per_reading_ms > 0
        assert result.extra["belief_memory_bytes"] > 0

    def test_index_variant_skips_objects(self, scene, fast_cfg):
        sim, trace = scene
        result = run_factored(trace, sim.world_model(), fast_cfg.with_index())
        assert result.error.xy < 0.8

    def test_compression_variant(self, scene, fast_cfg):
        sim, trace = scene
        result = run_factored(
            trace,
            sim.world_model(),
            fast_cfg.with_index().with_compression(unread_epochs=8),
        )
        assert result.error.xy < 0.8
        assert result.extra["compressions"] >= 1

    def test_adaptive_budget_variant_reports_tier_census(self, scene, fast_cfg):
        sim, trace = scene
        result = run_factored(
            trace,
            sim.world_model(),
            fast_cfg.with_budget(
                tiers=(10, 25),
                decay_after_epochs=3,
                decay_every_epochs=2,
                settle_error_sq_ft=1000.0,
            ),
        )
        assert result.error.xy < 0.8
        extra = result.extra
        # Whole-trace budget counters plus the end-of-trace tier census.
        assert extra["budget_decays"] >= 1
        assert extra["objects_skipped_settled"] >= 1
        census = (
            extra["objects_full"]
            + extra["objects_parked"]
            + extra["objects_compressed"]
        )
        assert census == 6.0
        assert extra["particles_full"] + extra["particles_parked"] >= 0


class _RecordingEngine(QueryEngine):
    """A query engine that keeps every tuple the harness bridges into it."""

    def __init__(self):
        super().__init__()
        self.pushed = []

    def push(self, tup):
        self.pushed.append(tup)
        super().push(tup)


def _rows(tuples):
    return [(t.time, tuple(sorted(t.items()))) for t in tuples]


class TestMatchesTheBarePipeline:
    def test_events_estimates_and_counters_are_bitwise_equal(self, scene, fast_cfg):
        """The harness's one-serial-shard runtime is the bare cleaning
        pipeline: the same events, estimates and engine counters."""
        from repro.inference.factored import FactoredParticleFilter
        from repro.inference.pipeline import CleaningPipeline
        from repro.query.tuples import tuple_from_event
        from repro.streams.sinks import CollectingSink

        sim, trace = scene
        config = fast_cfg.with_index().with_compression(unread_epochs=8)
        recorder = _RecordingEngine()
        result = run_factored(trace, sim.world_model(), config, query_engine=recorder)

        engine = FactoredParticleFilter(sim.world_model(), config)
        sink = CollectingSink()
        CleaningPipeline(engine, OutputPolicyConfig(), sink).run(trace.epochs())
        assert sink.events
        assert _rows(recorder.pushed) == _rows(map(tuple_from_event, sink.events))
        expected = final_estimates_from_sink(sink)
        for n in engine.known_objects():
            expected.setdefault(n, engine.object_estimate(n).mean)
        assert result.estimates.keys() == expected.keys()
        for number, estimate in expected.items():
            np.testing.assert_array_equal(result.estimates[number], estimate)
        assert engine.stats["objects_processed"] > 0
        for key, value in {**engine.stats, **engine.tier_summary()}.items():
            assert result.extra[key] == float(value), key
        assert result.extra["belief_memory_bytes"] == engine.belief_memory_bytes()
        assert result.extra["n_shards"] == 1.0


class TestRuntimeConfig:
    def test_scores_and_reports_per_shard_stats(self, scene, fast_cfg):
        sim, trace = scene
        result = run_factored(
            trace, sim.world_model(), fast_cfg, runtime_config=RuntimeConfig(n_shards=2)
        )
        assert result.error is not None
        assert result.error.n_objects == 6
        assert result.error.xy < 0.8
        assert result.extra["n_shards"] == 2.0
        assert result.extra["events_published"] >= 6
        assert result.extra["belief_memory_bytes"] > 0
        per_shard = [
            result.extra[f"shard{i}_arena_used_rows"] for i in range(2)
        ]
        assert sum(per_shard) > 0
        assert (
            result.extra["shard0_objects"] + result.extra["shard1_objects"] == 6
        )

    def test_aggregates_budget_census_across_shards(self, scene, fast_cfg):
        sim, trace = scene
        result = run_factored(
            trace,
            sim.world_model(),
            fast_cfg.with_budget(
                tiers=(10, 25),
                decay_after_epochs=3,
                decay_every_epochs=2,
                settle_error_sq_ft=1000.0,
            ),
            runtime_config=RuntimeConfig(n_shards=2),
        )
        extra = result.extra
        census = (
            extra["objects_full"]
            + extra["objects_parked"]
            + extra["objects_compressed"]
        )
        assert census == 6.0  # summed across both shards
        assert extra["budget_decays"] >= 1
        # Per-shard rows carry the same keys individually.
        assert "shard0_objects_compressed" in extra


class TestRunNaive:
    def test_runs_and_scores(self, scene, fast_cfg):
        sim, trace = scene
        result = run_naive(trace, sim.world_model(), fast_cfg, n_particles=500)
        assert result.error is not None
        assert result.error.xy < 1.5


class TestBaselineRunners:
    def test_smurf(self, scene):
        sim, trace = scene
        result = run_smurf(trace, sim.layout.shelves)
        assert result.error is not None
        assert result.error.n_objects == 6

    def test_uniform(self, scene):
        sim, trace = scene
        result = run_uniform(trace, sim.layout.shelves)
        assert result.error is not None

    def test_expected_ordering(self, scene, fast_cfg):
        """The paper's central claim at miniature scale: inference beats the
        baselines."""
        sim, trace = scene
        ours = run_factored(trace, sim.world_model(), fast_cfg)
        smurf = run_smurf(trace, sim.layout.shelves)
        uniform = run_uniform(trace, sim.layout.shelves)
        assert ours.error.xy < smurf.error.xy
        assert ours.error.xy < uniform.error.xy


class TestQueryExtras:
    """The harness serves an attached query engine inside the timed run and
    surfaces its multiplexer stats as ``query_*`` extras."""

    @staticmethod
    def _engine():
        from repro.query import (
            MultiplexedQueryEngine,
            location_update_query,
            standing_region_queries,
        )

        engine = MultiplexedQueryEngine()
        engine.register(location_update_query())
        for query in standing_region_queries(9, ((0.0, 0.0), (60.0, 40.0))):
            engine.register(query)
        return engine

    def test_run_factored_reports_query_extras(self, scene, fast_cfg):
        sim, trace = scene
        engine = self._engine()
        result = run_factored(trace, sim.world_model(), fast_cfg, query_engine=engine)
        assert result.extra["query_queries"] == 10.0
        assert result.extra["query_shared_windows"] >= 1.0
        assert result.extra["query_windows_deduped"] >= 8.0
        assert result.extra["query_emissions"] > 0
        assert result.extra["query_emissions"] == float(
            sum(len(outputs) for outputs in engine.outputs.values())
        )

    def test_sharded_run_reports_query_extras(self, scene, fast_cfg):
        sim, trace = scene
        engine = self._engine()
        result = run_factored(
            trace,
            sim.world_model(),
            fast_cfg,
            query_engine=engine,
            runtime_config=RuntimeConfig(n_shards=2),
        )
        assert result.extra["n_shards"] == 2.0
        assert result.extra["query_queries"] == 10.0
        assert result.extra["query_emissions"] == float(
            sum(len(outputs) for outputs in engine.outputs.values())
        ) > 0

    def test_no_engine_no_query_extras(self, scene, fast_cfg):
        sim, trace = scene
        result = run_factored(trace, sim.world_model(), fast_cfg)
        assert not any(key.startswith("query_") for key in result.extra)
