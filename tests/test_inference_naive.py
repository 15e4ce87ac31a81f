"""Tests for the naive (unfactorized) particle filter."""

import numpy as np
import pytest

from repro.config import InferenceConfig, OutputPolicyConfig
from repro.errors import InferenceError
from repro.inference.naive import NaiveParticleFilter
from repro.inference.pipeline import CleaningPipeline
from repro.streams.records import make_epoch

from test_inference_factored import scan_epochs


class TestBasics:
    def test_requires_two_particles(self, small_model, fast_config):
        with pytest.raises(InferenceError):
            NaiveParticleFilter(small_model, fast_config, n_particles=1)

    def test_no_estimates_before_step(self, small_model, fast_config):
        engine = NaiveParticleFilter(small_model, fast_config, n_particles=50)
        with pytest.raises(InferenceError):
            engine.reader_estimate()
        with pytest.raises(InferenceError):
            engine.object_estimate(0)

    def test_object_discovery(self, small_model, fast_config):
        engine = NaiveParticleFilter(small_model, fast_config, n_particles=100)
        engine.step(make_epoch(0.0, (0.0, 1.0), object_tags=[3, 5]))
        assert engine.known_objects() == [3, 5]


class TestLocalization:
    def test_converges_with_enough_particles(self, small_model, fast_config):
        engine = NaiveParticleFilter(small_model, fast_config, n_particles=800)
        for epoch in scan_epochs(3.0, n=60):
            engine.step(epoch)
        estimate = engine.object_estimate(0)
        assert estimate.mean[1] == pytest.approx(3.0, abs=0.6)

    def test_reader_tracks_reports(self, small_model, fast_config):
        engine = NaiveParticleFilter(small_model, fast_config, n_particles=200)
        for t in range(25):
            engine.step(make_epoch(float(t), (0.0, 0.1 * t)))
        mean, _ = engine.reader_estimate()
        assert mean[1] == pytest.approx(2.4, abs=0.2)

    def test_joint_resampling_keeps_shapes(self, small_model, fast_config):
        engine = NaiveParticleFilter(small_model, fast_config, n_particles=150)
        for epoch in scan_epochs(2.0, n=30):
            engine.step(epoch)
        assert engine.stats["resamples"] > 0
        assert engine._objects.shape == (150, 1, 3)  # noqa: SLF001

    def test_multi_object(self, small_model, fast_config):
        rng = np.random.default_rng(4)
        epochs = []
        tags = {0: 2.0, 1: 5.0}
        for t in range(80):
            y = -1.0 + 0.1 * t
            reads = [n for n, ty in tags.items() if rng.uniform() < max(0.0, 1 - np.hypot(2.1, ty - y) / 2.5)]
            epochs.append(make_epoch(float(t), (0.0, y), object_tags=reads, reported_heading=0.0))
        engine = NaiveParticleFilter(small_model, fast_config, n_particles=600)
        for epoch in epochs:
            engine.step(epoch)
        assert engine.object_estimate(0).mean[1] == pytest.approx(2.0, abs=0.7)
        assert engine.object_estimate(1).mean[1] == pytest.approx(5.0, abs=0.7)


class TestDegradation:
    def test_fixed_particles_degrade_with_more_objects(self, small_model, fast_config):
        """The paper's core motivation: at a fixed particle budget, joint
        particles lose accuracy as objects are added (Fig 3a / Fig 5i)."""
        rng = np.random.default_rng(9)

        def run(n_objects, n_particles=250):
            tags = {n: 1.0 + 0.8 * n for n in range(n_objects)}
            epochs = []
            for t in range(int((max(tags.values()) + 2) / 0.1)):
                y = -1.0 + 0.1 * t
                reads = [
                    n
                    for n, ty in tags.items()
                    if rng.uniform() < max(0.0, 1 - np.hypot(2.1, ty - y) / 2.5)
                ]
                epochs.append(
                    make_epoch(float(t), (0.0, y), object_tags=reads, reported_heading=0.0)
                )
            engine = NaiveParticleFilter(small_model, fast_config, n_particles=n_particles)
            for epoch in epochs:
                engine.step(epoch)
            errors = [
                abs(engine.object_estimate(n).mean[1] - tags[n])
                for n in engine.known_objects()
            ]
            return float(np.mean(errors))

        few = run(2)
        many = run(7)
        # Not a strict inequality theorem, but the gap should be visible.
        assert many > few * 0.8


class TestBaselinePath:
    """The naive filter's one job is the joint baseline (Fig 5(i)): an
    engine the cleaning pipeline drives like any other (``run_naive``)."""

    def test_same_seed_same_joint_particles(self, small_model, fast_config):
        def run():
            engine = NaiveParticleFilter(small_model, fast_config, n_particles=120)
            for epoch in scan_epochs(3.0, n=40):
                engine.step(epoch)
            return engine

        first, second = run(), run()
        np.testing.assert_array_equal(first._positions, second._positions)  # noqa: SLF001
        np.testing.assert_array_equal(first._objects, second._objects)  # noqa: SLF001
        np.testing.assert_array_equal(first._log_w, second._log_w)  # noqa: SLF001
        assert first.stats == second.stats

    def test_cleaning_pipeline_emits_each_object_it_saw(self, small_model, fast_config):
        engine = NaiveParticleFilter(small_model, fast_config, n_particles=300)
        sink = CleaningPipeline(engine, OutputPolicyConfig()).run(scan_epochs(3.0, n=60))
        assert engine.known_objects() == [0]
        assert sorted({event.tag.number for event in sink.events}) == [0]
        for event in sink.events:
            assert np.isfinite(event.position).all()
        assert sink.events[-1].position[1] == pytest.approx(3.0, abs=0.6)
