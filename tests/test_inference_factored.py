"""Tests for the factored particle filter (the paper's Section IV-B engine)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import InferenceConfig
from repro.errors import InferenceError
from repro.inference.factored import FactoredParticleFilter
from repro.streams.records import make_epoch


def drive(model, config, epochs, **kwargs):
    engine = FactoredParticleFilter(model, config, **kwargs)
    for epoch in epochs:
        engine.step(epoch)
    return engine


def read_probability(reader_y, tag_y, tag_x=2.1):
    """The conftest model's own field: sigmoid(4 - 0.9 d^2 - 6 theta^2),
    for a reader on the aisle (x=0) facing +x."""
    dx, dy = tag_x, tag_y - reader_y
    d = np.hypot(dx, dy)
    theta = np.arctan2(abs(dy), dx)
    z = 4.0 - 0.9 * d * d - 6.0 * theta * theta
    return 1.0 / (1.0 + np.exp(-z))


def scan_epochs(tag_y, n=40, start_y=-1.0, speed=0.1, rng=None):
    """Reader marches up y past a single object at (2.1, tag_y), with reads
    drawn from the same logistic field the conftest model uses — so the
    filter faces well-specified data."""
    rng = rng or np.random.default_rng(0)
    epochs = []
    for t in range(n):
        y = start_y + t * speed
        reads = [0] if rng.uniform() < read_probability(y, tag_y) else []
        epochs.append(
            make_epoch(float(t), (0.0, y), object_tags=reads, reported_heading=0.0)
        )
    return epochs


class TestLifecycle:
    def test_no_estimate_before_first_epoch(self, small_model, fast_config):
        engine = FactoredParticleFilter(small_model, fast_config)
        with pytest.raises(InferenceError):
            engine.reader_estimate()
        with pytest.raises(InferenceError):
            engine.object_estimate(0)

    def test_first_epoch_requires_position(self, small_model, fast_config):
        engine = FactoredParticleFilter(small_model, fast_config)
        with pytest.raises(InferenceError):
            engine.step(make_epoch(0.0, None))

    def test_initial_position_fallback(self, small_model, fast_config):
        engine = FactoredParticleFilter(
            small_model, fast_config, initial_position=(0.0, 0.0, 0.0)
        )
        engine.step(make_epoch(0.0, None))
        mean, _ = engine.reader_estimate()
        assert mean == pytest.approx([0, 0, 0], abs=0.2)

    def test_belief_created_on_first_read(self, small_model, fast_config):
        engine = FactoredParticleFilter(small_model, fast_config)
        engine.step(make_epoch(0.0, (0.0, 2.0), object_tags=[7]))
        assert engine.known_objects() == [7]
        estimate = engine.object_estimate(7)
        assert estimate.sample_size == fast_config.object_particles


class TestLocalization:
    def test_converges_to_true_location(self, small_model, fast_config):
        tag_y = 3.0
        engine = drive(small_model, fast_config, scan_epochs(tag_y, n=60))
        estimate = engine.object_estimate(0)
        assert estimate.mean[1] == pytest.approx(tag_y, abs=0.5)
        assert 2.0 <= estimate.mean[0] <= 3.0  # on the shelf

    def test_estimate_tightens_with_evidence(self, small_model, fast_config):
        epochs = scan_epochs(3.0, n=70)
        engine = FactoredParticleFilter(small_model, fast_config)
        spreads = []
        for epoch in epochs:
            engine.step(epoch)
            if 0 in engine.known_objects():
                spreads.append(engine.object_estimate(0).spread)
        assert len(spreads) > 10
        # Evidence accumulates: the final spread beats the initial one.
        assert spreads[-1] < spreads[0]

    def test_reader_tracks_reported(self, small_model, fast_config):
        epochs = [make_epoch(float(t), (0.0, t * 0.1)) for t in range(30)]
        engine = drive(small_model, fast_config, epochs)
        mean, heading = engine.reader_estimate()
        assert mean[1] == pytest.approx(2.9, abs=0.15)

    def test_negative_evidence_repels(self, small_model, fast_config):
        # Object read early, then the reader passes it without reads at all:
        # the belief must not follow the reader.
        epochs = [make_epoch(0.0, (0.0, 2.9), object_tags=[0], reported_heading=0.0)]
        for t in range(1, 25):
            epochs.append(
                make_epoch(float(t), (0.0, 2.9 + 0.1 * t), reported_heading=0.0)
            )
        engine = drive(small_model, fast_config, epochs)
        estimate = engine.object_estimate(0)
        assert estimate.mean[1] < 4.5


class TestCompressionIntegration:
    def test_unread_objects_compress(self, small_model, fast_config):
        config = fast_config.with_compression(unread_epochs=5)
        epochs = scan_epochs(1.0, n=50)
        engine = drive(small_model, config, epochs)
        belief = engine.belief(0)
        assert belief.compressed
        assert engine.stats["compressions"] == 1
        # Estimate still available from the Gaussian.
        estimate = engine.object_estimate(0)
        assert estimate.sample_size == 0
        assert estimate.mean[1] == pytest.approx(1.0, abs=0.6)

    def test_decompression_on_reread(self, small_model, fast_config):
        config = fast_config.with_compression(unread_epochs=3, decompressed_particles=16)
        epochs = scan_epochs(1.0, n=30)
        engine = drive(small_model, config, epochs)
        assert engine.belief(0).compressed
        # Read it again from nearby.
        engine.step(make_epoch(100.0, (0.0, 1.0), object_tags=[0], reported_heading=0.0))
        belief = engine.belief(0)
        assert not belief.compressed
        assert belief.particle_count == 16
        assert engine.stats["decompressions"] == 1

    def test_memory_drops_after_compression(self, small_model, fast_config):
        config = fast_config.with_compression(unread_epochs=5)
        epochs = scan_epochs(1.0, n=18)
        engine_plain = drive(small_model, fast_config, epochs)
        engine_compressed = drive(small_model, config, scan_epochs(1.0, n=50))
        assert (
            engine_compressed.belief_memory_bytes()
            < engine_plain.belief_memory_bytes()
        )


    @staticmethod
    def gather_sizes(config):
        """Run a dense 60-tag scan, recording the size of every
        ``arena.gather`` (the batched kernels' one input per epoch)."""
        from repro.simulation.layout import LayoutConfig
        from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

        simulator = WarehouseSimulator(
            WarehouseConfig(
                layout=LayoutConfig(n_objects=60, object_spacing_ft=0.2),
                n_rounds=2,
                seed=1,
            )
        )
        engine = FactoredParticleFilter(simulator.world_model(), config)
        gathered = []
        gather = engine.arena.gather

        def counting_gather(object_ids):
            gathered.append(len(object_ids))
            return gather(object_ids)

        engine.arena.gather = counting_gather
        for epoch in simulator.generate().epochs():
            engine.step(epoch)
        return engine, gathered

    def test_processed_counts_only_what_the_kernels_gather(self):
        """Budgets off, index and compression on: compressed Case-2
        candidates stay out of the batched kernels, so they must not be
        counted as processed either."""
        config = (
            InferenceConfig(reader_particles=50, object_particles=50, seed=1)
            .with_index()
            .with_compression()
        )
        engine, gathered = self.gather_sizes(config)
        assert engine.stats["compressions"] > 0
        assert sum(gathered) == engine.stats["objects_processed"]
        assert engine.active_count == gathered[-1]

    def test_processed_counts_only_what_the_kernels_gather_with_budgets(self):
        """Budgets on count the same thing as budgets off: the batch the
        kernels gathered, never the selector's candidates."""
        config = (
            InferenceConfig(reader_particles=50, object_particles=50, seed=1)
            .with_index()
            .with_compression()
            .with_budget(tiers=(10, 25), decay_after_epochs=3, decay_every_epochs=2)
        )
        engine, gathered = self.gather_sizes(config)
        assert engine.stats["compressions"] > 0
        assert engine.stats["objects_skipped_settled"] > 0
        assert sum(gathered) == engine.stats["objects_processed"]
        assert engine.active_count == gathered[-1]

class TestSpatialIndexIntegration:
    def test_index_skips_far_objects(self, small_model, fast_config):
        config = fast_config.with_index()
        # Two objects far apart; while scanning near the second, the first
        # must be skipped.
        epochs = [make_epoch(0.0, (0.0, 1.0), object_tags=[0], reported_heading=0.0)]
        for t in range(1, 90):
            y = 1.0 + 0.15 * t
            reads = [1] if abs(y - 7.0) < 1.5 else []
            epochs.append(
                make_epoch(float(t), (0.0, y), object_tags=reads, reported_heading=0.0)
            )
        engine = drive(small_model, config, epochs)
        assert engine.stats["objects_skipped"] > 0
        # Both objects still have sensible beliefs.
        assert engine.object_estimate(0).mean[1] == pytest.approx(1.0, abs=1.0)
        assert engine.object_estimate(1).mean[1] == pytest.approx(7.0, abs=1.0)

    def test_index_accuracy_close_to_plain(self, small_model, fast_config):
        epochs = scan_epochs(3.0, n=60)
        plain = drive(small_model, fast_config, epochs)
        indexed = drive(small_model, fast_config.with_index(), epochs)
        d = np.linalg.norm(
            plain.object_estimate(0).mean - indexed.object_estimate(0).mean
        )
        assert d < 0.5


class TestResamplingMachinery:
    def test_parent_pointers_stay_valid(self, small_model, fast_config):
        engine = drive(small_model, fast_config, scan_epochs(3.0, n=40))
        j = fast_config.reader_particles
        for number in engine.known_objects():
            belief = engine.belief(number)
            assert belief.parents is not None
            assert (belief.parents >= 0).all()
            assert (belief.parents < j).all()

    def test_feedback_off_still_works(self, small_model, fast_config):
        from dataclasses import replace

        config = replace(fast_config, reader_feedback=False)
        engine = drive(small_model, config, scan_epochs(3.0, n=40))
        assert engine.object_estimate(0).mean[1] == pytest.approx(3.0, abs=0.7)

    def test_seeded_determinism(self, small_model, fast_config):
        epochs = scan_epochs(3.0, n=60)
        a = drive(small_model, fast_config, epochs)
        b = drive(small_model, fast_config, epochs)
        assert a.object_estimate(0).mean == pytest.approx(b.object_estimate(0).mean)

    def test_stats_counters(self, small_model, fast_config):
        engine = drive(small_model, fast_config, scan_epochs(3.0, n=60))
        assert engine.stats["epochs"] == 60
        assert engine.stats["objects_processed"] > 0


class TestAdaptiveBudget:
    """The adaptive particle-budget controller (ROADMAP item 4): settled
    unread objects park at intermediate tiers, decay to Gaussians, and skip
    the per-epoch kernels; any read revives them to the full budget."""

    def budget_config(self, fast_config, **kwargs):
        kwargs.setdefault("tiers", (10, 25))
        kwargs.setdefault("decay_after_epochs", 4)
        kwargs.setdefault("decay_every_epochs", 2)
        # Lifecycle tests exercise the ladder mechanics, not the error
        # calibration: let any belief count as settled unless overridden.
        kwargs.setdefault("settle_error_sq_ft", 1000.0)
        return fast_config.with_budget(**kwargs)

    def localize_then_idle(self, model, config, reads=6, idle=0):
        """Read object 0 from nearby for ``reads`` epochs, then leave it
        unread for ``idle`` epochs (reader stays put, so the object keeps
        receiving negative evidence while it remains engaged)."""
        epochs = [
            make_epoch(float(t), (0.0, 1.0), object_tags=[0], reported_heading=0.0)
            for t in range(reads)
        ]
        epochs += [
            make_epoch(float(reads + i), (0.0, 1.0), reported_heading=0.0)
            for i in range(idle)
        ]
        return drive(model, config, epochs)

    def test_settled_object_parks_at_a_tier(self, small_model, fast_config):
        config = self.budget_config(fast_config)
        engine = self.localize_then_idle(small_model, config, idle=5)
        belief = engine.belief(0)
        assert belief.settled and not belief.compressed
        assert belief.particle_count in (10, 25)
        assert engine.active_count == 0  # skip-propagation: out of the batch
        assert engine.stats["objects_skipped_settled"] > 0
        tiers = engine.tier_summary()
        assert tiers["objects_parked"] == 1 and tiers["objects_full"] == 0

    def test_parked_object_decays_to_gaussian(self, small_model, fast_config):
        config = self.budget_config(fast_config)
        engine = self.localize_then_idle(small_model, config, idle=14)
        belief = engine.belief(0)
        assert belief.compressed
        assert engine.stats["compressions"] == 1
        assert engine.stats["budget_decays"] >= 1
        assert 0 not in engine.arena  # block freed
        assert engine.tier_summary()["objects_compressed"] == 1
        # The Gaussian still answers estimates, near the read position.
        assert engine.object_estimate(0).mean[1] == pytest.approx(1.0, abs=0.8)

    def test_read_revives_parked_object_to_full(self, small_model, fast_config):
        config = self.budget_config(fast_config)
        engine = self.localize_then_idle(small_model, config, idle=5)
        assert engine.belief(0).settled  # parked mid-ladder
        engine.step(
            make_epoch(50.0, (0.0, 1.0), object_tags=[0], reported_heading=0.0)
        )
        belief = engine.belief(0)
        assert not belief.settled and not belief.compressed
        assert belief.particle_count == fast_config.object_particles
        assert engine.stats["budget_revives"] == 1
        assert engine.active_count == 1

    def test_read_revives_compressed_object_to_full(self, small_model, fast_config):
        """Revive-on-evidence immediately after compression: under adaptive
        budgets decompression goes straight back to the full budget, not the
        paper's 10-particle decompression set."""
        config = self.budget_config(fast_config)
        engine = self.localize_then_idle(small_model, config, idle=14)
        assert engine.belief(0).compressed
        engine.step(
            make_epoch(50.0, (0.0, 1.0), object_tags=[0], reported_heading=0.0)
        )
        belief = engine.belief(0)
        assert not belief.compressed and not belief.settled
        assert belief.particle_count == fast_config.object_particles
        assert engine.stats["decompressions"] == 1
        assert 0 in engine.arena

    def test_oscillating_reads_never_decay(self, small_model, fast_config):
        """A tag read every other epoch never goes unread long enough to
        park: no decay, no compression, no allocate/free churn."""
        config = self.budget_config(fast_config)
        epochs = [
            make_epoch(
                float(t),
                (0.0, 1.0),
                object_tags=[0] if t % 2 == 0 else [],
                reported_heading=0.0,
            )
            for t in range(40)
        ]
        engine = drive(small_model, config, epochs)
        belief = engine.belief(0)
        assert not belief.settled and not belief.compressed
        assert belief.particle_count == fast_config.object_particles
        assert engine.stats["budget_decays"] == 0
        assert engine.stats["budget_revives"] == 0
        assert engine.stats["compressions"] == 0

    def test_unsettled_object_keeps_full_budget(self, small_model, fast_config):
        """High compression error blocks parking (no force backstop)."""
        config = self.budget_config(fast_config, settle_error_sq_ft=1e-9)
        engine = self.localize_then_idle(small_model, config, idle=12)
        belief = engine.belief(0)
        assert not belief.settled and not belief.compressed
        assert belief.particle_count == fast_config.object_particles
        assert engine.active_count == 1

    def test_force_park_backstop(self, small_model, fast_config):
        """force_park_after_epochs reinstates the paper's unread-threshold
        policy: even a never-settling belief leaves the kernels."""
        config = self.budget_config(
            fast_config, settle_error_sq_ft=1e-9, force_park_after_epochs=6
        )
        engine = self.localize_then_idle(small_model, config, idle=8)
        belief = engine.belief(0)
        assert belief.settled or belief.compressed
        assert engine.active_count == 0

    def test_adaptive_off_is_bitwise_identical_to_default(
        self, small_model, fast_config
    ):
        """budget.enabled=False must leave the engine's RNG stream and
        output untouched — the adaptive machinery is pay-for-play."""
        from repro.config import BudgetConfig

        epochs = scan_epochs(1.0, n=30)
        plain = drive(small_model, fast_config, epochs)
        explicit = drive(
            small_model,
            replace(fast_config, budget=BudgetConfig(enabled=False)),
            epochs,
        )
        np.testing.assert_array_equal(
            plain.belief(0).particles, explicit.belief(0).particles
        )
        np.testing.assert_array_equal(
            plain.belief(0).log_weights, explicit.belief(0).log_weights
        )


class TestFloat32ArenaParity:
    def test_estimates_match_float64_within_tolerance(
        self, small_model, fast_config
    ):
        """float32 storage halves bandwidth; estimates must stay within a
        small fraction of the paper's 0.5 ft accuracy requirement of the
        float64 run (resampling decisions may diverge, so this is a
        statistical bound, not bitwise)."""
        epochs = scan_epochs(3.0, n=60)
        f64 = drive(small_model, fast_config, epochs)
        f32 = drive(
            small_model,
            replace(fast_config, arena=replace(fast_config.arena, dtype="float32")),
            epochs,
        )
        d = np.linalg.norm(f64.object_estimate(0).mean - f32.object_estimate(0).mean)
        assert d < 0.25
        # Both converge to the truth independently as well.
        assert f32.object_estimate(0).mean[1] == pytest.approx(3.0, abs=0.5)

    def test_adaptive_budget_composes_with_float32(self, small_model, fast_config):
        config = replace(
            fast_config.with_budget(
                tiers=(10, 25),
                decay_after_epochs=4,
                decay_every_epochs=2,
                settle_error_sq_ft=1000.0,
            ),
            arena=replace(fast_config.arena, dtype="float32"),
        )
        epochs = [
            make_epoch(float(t), (0.0, 1.0), object_tags=[0], reported_heading=0.0)
            for t in range(6)
        ] + [
            make_epoch(float(6 + i), (0.0, 1.0), reported_heading=0.0)
            for i in range(14)
        ]
        engine = drive(small_model, config, epochs)
        assert engine.belief(0).compressed
        engine.step(
            make_epoch(50.0, (0.0, 1.0), object_tags=[0], reported_heading=0.0)
        )
        belief = engine.belief(0)
        assert belief.particle_count == fast_config.object_particles
        assert belief.particles.dtype == np.float32
