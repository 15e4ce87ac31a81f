"""Tests for the experiment harness (run + score all four system kinds)."""

import pytest

from repro.config import InferenceConfig, RuntimeConfig
from repro.eval.harness import (
    run_factored,
    run_naive,
    run_sharded,
    run_smurf,
    run_uniform,
)


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


class TestRunSharded:
    def test_scores_and_reports_per_shard_stats(self, scene, fast_cfg):
        sim, trace = scene
        result = run_sharded(
            trace, sim.world_model(), fast_cfg, RuntimeConfig(n_shards=2)
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
        result = run_sharded(
            trace,
            sim.world_model(),
            fast_cfg.with_budget(
                tiers=(10, 25),
                decay_after_epochs=3,
                decay_every_epochs=2,
                settle_error_sq_ft=1000.0,
            ),
            RuntimeConfig(n_shards=2),
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

    def test_single_shard_matches_factored_error(self, scene, fast_cfg):
        sim, trace = scene
        factored = run_factored(trace, sim.world_model(), fast_cfg)
        sharded = run_sharded(trace, sim.world_model(), fast_cfg)
        # n_shards=1 preserves the root seed: identical event stream,
        # identical score.
        assert sharded.error.xy == pytest.approx(factored.error.xy, abs=1e-12)


    def test_single_shard_reports_the_factored_counters(self, scene, fast_cfg):
        """run_factored and run_sharded report one counter list: at
        n_shards=1 (root seed preserved) every engine counter agrees."""
        from repro.inference.factored import FactoredParticleFilter

        sim, trace = scene
        config = fast_cfg.with_index().with_compression(unread_epochs=8)
        factored = run_factored(trace, sim.world_model(), config)
        sharded = run_sharded(trace, sim.world_model(), config)
        assert factored.extra["objects_processed"] > 0
        for key in FactoredParticleFilter._default_stats():
            assert sharded.extra[key] == factored.extra[key], key


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
    """Both runners serve an attached query engine inside the timed run and
    surface its multiplexer stats as ``query_*`` extras."""

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

    def test_run_sharded_reports_query_extras_and_matches(self, scene, fast_cfg):
        sim, trace = scene
        factored_engine = self._engine()
        run_factored(
            trace, sim.world_model(), fast_cfg, query_engine=factored_engine
        )
        sharded_engine = self._engine()
        result = run_sharded(
            trace, sim.world_model(), fast_cfg, query_engine=sharded_engine
        )
        assert result.extra["query_queries"] == 10.0
        # n_shards=1 preserves the root seed: the runtime's bus bridge and
        # the factored pipeline's tee sink serve identical emission streams.
        def rows(engine):
            return {
                name: [(t.time, tuple(sorted(t.items()))) for t in outputs]
                for name, outputs in engine.outputs.items()
            }

        assert rows(sharded_engine) == rows(factored_engine)

    def test_no_engine_no_query_extras(self, scene, fast_cfg):
        sim, trace = scene
        result = run_factored(trace, sim.world_model(), fast_cfg)
        assert not any(key.startswith("query_") for key in result.extra)
