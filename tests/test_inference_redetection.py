"""The batched read phase of ``FactoredParticleFilter.step``.

The per-tag ``_redetection_decision`` the filter used to call once per read
object per epoch is kept here, verbatim, as the oracle the segmented
``_redetection_decisions`` pass is compared against; the remaining tests
pin the same-epoch revive / decompress semantics and that no per-tag sensor
kernel call is left in the per-epoch update.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import ArenaConfig, InferenceConfig
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet
from repro.inference.base import normalize_log_weights
from repro.inference.factored import FactoredParticleFilter, ObjectBelief
from repro.models.joint import RFIDWorldModel
from repro.models.priors import ReinitDecision, classify_redetection
from repro.models.sensor import SensorModel, SensorParams
from repro.simulation.layout import LayoutConfig
from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator
from repro.streams.records import make_epoch

KEEP, SPLIT, RESET = ReinitDecision.KEEP, ReinitDecision.SPLIT, ReinitDecision.RESET

#: Same field as conftest's ``small_model`` (hypothesis cannot take
#: function-scoped fixtures, so the property test builds its own).
MODEL = RFIDWorldModel.build(
    ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, 30.0, 0.0)))]),
    sensor_params=SensorParams(a=(4.0, 0.0, -0.9), b=(0.0, -6.0)),
)
EPOCH = 40


def scalar_redetection_decision(engine, belief, anchor, heading):
    """The deleted per-tag code.  Returns the decision plus the two
    quantities it thresholds, so callers can step around exact ties."""
    config = engine.config
    p, _ = normalize_log_weights(belief.log_weights)
    belief_mean = p @ belief.particles
    moved = float(np.hypot(anchor[0] - belief_mean[0], anchor[1] - belief_mean[1]))
    p_read = float(
        engine.model.sensor.read_probability_at(anchor, heading, belief_mean[None, :])[0]
    )
    decision = classify_redetection(moved, config)
    if decision is KEEP and p_read < config.surprise_read_threshold:
        decision = SPLIT
    if decision is SPLIT:
        since_split = engine.epoch_index - belief.last_split_epoch
        if since_split < config.split_cooldown_epochs:
            decision = KEEP
    return decision, moved, p_read


def engine_with_beliefs(blocks, dtype="float64"):
    """A filter at epoch ``EPOCH`` holding the given hand-made beliefs:
    ``blocks`` is a list of ``(particles, log_weights, epochs_since_split)``."""
    config = InferenceConfig(
        reader_particles=10, object_particles=50, arena=ArenaConfig(dtype=dtype)
    )
    engine = FactoredParticleFilter(MODEL, config)
    engine._epoch_index = EPOCH
    for number, (particles, log_weights, since_split) in enumerate(blocks):
        k = particles.shape[0]
        engine.arena.set_object(
            number, particles, np.zeros(k, dtype=np.int32), log_weights
        )
        belief = ObjectBelief(engine.arena, number, 0, 0, np.zeros(3))
        belief.last_split_epoch = EPOCH - since_split
        engine._beliefs[number] = belief
    return engine


def cloud(center, k, rng, spread=0.05):
    points = np.asarray(center, dtype=float) + rng.normal(0.0, spread, size=(k, 3))
    points[:, 2] = 0.0
    return points


class TestDecisionsMatchScalarOracle:
    ANCHOR = np.array([0.0, 3.0, 0.0])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_every_branch_in_one_batch(self, dtype, rng):
        long_ago = 10**6
        blocks = [
            # in range, readable: KEEP
            (cloud((2.1, 3.0, 0.0), 50, rng), np.zeros(50), long_ago),
            # inside the KEEP distance but far off boresight: surprise SPLIT
            (cloud((2.1, 6.5, 0.0), 25, rng), rng.normal(0.0, 1.0, 25), long_ago),
            # the same surprise, suppressed by the split cool-down
            (cloud((2.1, 6.5, 0.0), 50, rng), np.zeros(50), 3),
            # between the two distance thresholds: SPLIT
            (cloud((2.1, 9.0, 0.0), 5, rng), np.zeros(5), long_ago),
            # ... suppressed by the cool-down
            (cloud((2.1, 9.0, 0.0), 50, rng), np.zeros(50), 11),
            # beyond the far threshold: RESET, cool-down or not
            (cloud((2.1, 14.0, 0.0), 50, rng), np.zeros(50), 1),
            # every weight -inf: degrades to the unweighted mean
            (cloud((2.1, 3.0, 0.0), 25, rng), np.full(25, -np.inf), long_ago),
            # all the mass on one far particle of a nearby cloud
            (
                np.vstack([cloud((2.1, 3.0, 0.0), 49, rng), [[2.1, 20.0, 0.0]]]),
                np.concatenate([np.full(49, -80.0), [0.0]]),
                long_ago,
            ),
        ]
        engine = engine_with_beliefs(blocks, dtype)
        numbers = list(range(len(blocks)))
        got = engine._redetection_decisions(numbers, self.ANCHOR, 0.0)
        assert got == [KEEP, SPLIT, KEEP, SPLIT, KEEP, RESET, KEEP, RESET]
        want = [
            scalar_redetection_decision(engine, engine.belief(n), self.ANCHOR, 0.0)[0]
            for n in numbers
        ]
        assert got == want
        # A subset in another order gathers the right blocks.
        assert engine._redetection_decisions([5, 1, 3], self.ANCHOR, 0.0) == [
            RESET, SPLIT, SPLIT,
        ]
        assert engine._redetection_decisions([], self.ANCHOR, 0.0) == []

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.sampled_from([2, 5, 25, 50]), min_size=1, max_size=6),
        dtype=st.sampled_from(["float64", "float32"]),
        anchor_y=st.floats(0.0, 25.0),
        heading=st.floats(-np.pi, np.pi),
    )
    def test_random_beliefs(self, seed, sizes, dtype, anchor_y, heading):
        rng = np.random.default_rng(seed)
        blocks = []
        for k in sizes:
            center = (rng.uniform(-3.0, 5.0), rng.uniform(0.0, 25.0), 0.0)
            log_weights = rng.choice(
                [np.zeros(k), rng.normal(0.0, 5.0, k), np.full(k, -np.inf)]
            )
            blocks.append(
                (cloud(center, k, rng, rng.uniform(0.0, 2.0)), log_weights, int(rng.integers(0, 30)))
            )
        engine = engine_with_beliefs(blocks, dtype)
        config = engine.config
        anchor = np.array([0.0, anchor_y, 0.0])
        numbers = list(range(len(blocks)))
        want = []
        for n in numbers:
            decision, moved, p_read = scalar_redetection_decision(
                engine, engine.belief(n), anchor, heading
            )
            # Only summation order differs; stay clear of exact ties.
            assume(abs(moved - config.reinit_near_ft) > 1e-9)
            assume(abs(moved - config.reinit_far_ft) > 1e-9)
            assume(abs(p_read - config.surprise_read_threshold) > 1e-12)
            want.append(decision)
        assert engine._redetection_decisions(numbers, anchor, heading) == want

    def test_side_gather_keeps_the_main_batch_plan(self, rng):
        engine = engine_with_beliefs(
            [(cloud((2.1, 3.0 + n, 0.0), 50, rng), np.zeros(50), 99) for n in range(4)]
        )
        plan = engine.arena.plan([0, 1, 2, 3])
        engine._redetection_decisions([1, 3], self.ANCHOR, 0.0)
        assert engine.arena.plan([0, 1, 2, 3]) is plan


class TestSideReadsKeepTheMainPlan:
    """The adaptive budget's parking scan and the KL-threshold compression
    pass also read candidate blocks beside the main batch; like the
    re-detection pass they read through ``read_blocks``, so an epoch with
    candidates leaves the main batch's cached gather plan untouched."""

    @staticmethod
    def _assert_plan_survives_scans(engine):
        for t in range(3):
            engine.step(make_epoch(float(t), (0.0, 3.0), object_tags=[0, 1, 2], reported_heading=0.0))
        side_reads = []
        read_blocks = engine.arena.read_blocks
        engine.arena.read_blocks = lambda ids: side_reads.append(list(ids)) or read_blocks(ids)
        batch = (0, 1, 2)
        for t in range(3, 10):  # 0 stays read: the scans' candidates are 1 and 2
            cached = engine.arena._plan_cache
            engine.step(make_epoch(float(t), (0.0, 3.0), object_tags=[0], reported_heading=0.0))
            assert engine.active_count == len(batch)  # nothing parked or compressed
            assert engine.arena._plan_cache is cached  # no rebuild this epoch
            assert cached[0] == engine.arena._layout_serial and cached[1] == batch
        assert [1, 2] in side_reads  # the scans had candidates

    def test_budget_parking_scan(self, small_model, fast_config):
        config = fast_config.with_budget(
            tiers=(10, 30), decay_after_epochs=2, decay_every_epochs=1, settle_error_sq_ft=1e-300
        )
        self._assert_plan_survives_scans(FactoredParticleFilter(small_model, config))

    def test_kl_threshold_compression_scan(self, small_model, fast_config):
        config = fast_config.with_compression(unread_epochs=2, kl_threshold=1e-300)
        self._assert_plan_survives_scans(FactoredParticleFilter(small_model, config))


class TestSameEpochReviveAndDecompress:
    """A read object that pass (A) decompressed gets no decision that
    epoch; one it revived gets its decision on the revived block."""

    @staticmethod
    def _spy(engine, monkeypatch):
        calls = []
        inner = engine._redetection_decisions

        def spy(numbers, anchor, heading):
            counts = {n: engine.arena.count(n) for n in numbers}
            decisions = inner(numbers, anchor, heading)
            calls.append((engine.epoch_index, counts, dict(zip(numbers, decisions))))
            return decisions

        monkeypatch.setattr(engine, "_redetection_decisions", spy)
        return calls

    def test_decompressed_object_gets_no_decision(self, small_model, fast_config, monkeypatch):
        config = replace(
            fast_config.with_compression(unread_epochs=3), split_cooldown_epochs=0
        )
        engine = FactoredParticleFilter(small_model, config)
        for t in range(5):
            engine.step(make_epoch(float(t), (0.0, 3.0), object_tags=[0], reported_heading=0.0))
        for t in range(5, 10):
            engine.step(make_epoch(float(t), (0.0, 3.0), reported_heading=0.0))
        assert engine.belief(0).compressed
        calls = self._spy(engine, monkeypatch)
        # Read from 20 ft away: a decision would be RESET.
        engine.step(
            make_epoch(10.0, (0.0, 23.0), object_tags=[0, 1], reported_heading=0.0)
        )
        belief = engine.belief(0)
        assert engine.stats["decompressions"] == 1
        assert belief.particle_count == config.compression.decompressed_particles
        assert belief.last_split_epoch < 0  # never re-initialized
        assert belief.last_read_epoch == engine.epoch_index
        assert calls == [(10, {}, {})]
        # The next read of the now-uncompressed belief does get one.
        engine.step(make_epoch(11.0, (0.0, 23.0), object_tags=[0], reported_heading=0.0))
        assert calls[-1] == (11, {0: belief.particle_count}, {0: RESET})

    def test_revived_object_is_decided_on_the_revived_block(
        self, small_model, fast_config, monkeypatch
    ):
        config = replace(
            fast_config.with_budget(
                tiers=(10, 30),
                decay_after_epochs=3,
                decay_every_epochs=50,
                force_park_after_epochs=3,
            ),
            split_cooldown_epochs=0,
        )
        engine = FactoredParticleFilter(small_model, config)
        for t in range(5):
            engine.step(make_epoch(float(t), (0.0, 3.0), object_tags=[0], reported_heading=0.0))
        for t in range(5, 10):
            engine.step(make_epoch(float(t), (0.0, 3.0), reported_heading=0.0))
        parked = engine.belief(0).particle_count
        assert 0 < parked < config.object_particles
        calls = self._spy(engine, monkeypatch)
        engine.step(make_epoch(10.0, (0.0, 23.0), object_tags=[0], reported_heading=0.0))
        belief = engine.belief(0)
        assert engine.stats["budget_revives"] == 1
        assert calls == [(10, {0: config.object_particles}, {0: RESET})]
        assert belief.particle_count == config.object_particles
        assert belief.last_split_epoch == 10
        assert not belief.settled


def test_sensor_kernel_calls_are_per_epoch_not_per_read(monkeypatch):
    """The regression guard for the per-epoch fixed floor: over a dense run
    the sensor model is evaluated O(epochs) times — shelf evidence, object
    evidence, re-detection — however many tags are read.  Every evaluation
    goes through ``log_likelihood_rows`` (the two evidence kernels) or
    ``logits`` (everything else, ``read_probability_at`` included)."""
    calls = {"log_likelihood_rows": 0, "logits": 0}
    for name in calls:
        inner = getattr(SensorModel, name)

        def counted(self, *args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(SensorModel, name, counted)

    simulator = WarehouseSimulator(
        WarehouseConfig(
            layout=LayoutConfig(n_objects=30, object_spacing_ft=0.15, n_shelf_tags=4),
            seed=3,
        )
    )
    epochs = simulator.generate().epochs()[:50]
    engine = FactoredParticleFilter(
        simulator.world_model(),
        InferenceConfig(reader_particles=30, object_particles=30, seed=1),
    )
    for name in calls:
        calls[name] = 0  # construction sizes the sensing range
    engine.process_trace(epochs)
    reads = sum(len(e.object_tags) + len(e.shelf_tags) for e in epochs)
    assert reads > 6 * len(epochs)  # or the bound below proves nothing
    assert 0 < calls["log_likelihood_rows"] <= 2 * len(epochs)
    assert 0 < calls["logits"] <= len(epochs)
