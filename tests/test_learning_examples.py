"""The batched sensor-example builder against the scalar loops it replaced.

``scalar_supervised_examples`` and ``scalar_assemble_sensor_dataset`` are the
per-(epoch, tag) and per-(epoch, sample, tag) loops that used to live in
``learning/em.py``, kept verbatim (minus the IRLS call) as oracles: same
example count and order, ``theta`` / labels / weights bitwise, ``d`` to the
last ulps (``einsum`` vs BLAS ``dot``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.errors import LearningError
from repro.geometry.vec import as_point
from repro.learning import em, examples
from repro.learning.em import EMConfig, fit_sensor_supervised
from repro.learning.logistic import fit_sensor_model
from repro.simulation import LabConfig, LabDeployment
from repro.simulation.layout import LayoutConfig
from repro.simulation.movement import ScheduledMove
from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator
from repro.streams.records import make_epoch


# ---------------------------------------------------------------------------
# Oracles: the deleted loops
# ---------------------------------------------------------------------------
def scalar_supervised_examples(
    trace, tag_positions, reader_path, reader_headings, negative_cutoff_ft=12.0,
    positions_at=None,
):
    """``positions_at(t)``, when given, replaces ``tag_positions`` at epoch ``t``."""
    epochs = trace.epochs()
    if len(epochs) > reader_path.shape[0]:
        epochs = epochs[: reader_path.shape[0]]
    ds, thetas, labels = [], [], []
    for t, epoch in enumerate(epochs):
        pose = reader_path[t]
        heading = float(reader_headings[t])
        read_numbers = {tag.number for tag in epoch.object_tags} | {
            tag.number for tag in epoch.shelf_tags
        }
        if positions_at is not None:
            tag_positions = positions_at(t)
        for number, position in tag_positions.items():
            position = as_point(position)
            is_read = number in read_numbers
            delta = position - pose
            d = float(np.linalg.norm(delta))
            if not is_read and d > negative_cutoff_ft:
                continue
            planar = float(np.hypot(delta[0], delta[1]))
            if planar < 1e-12:
                theta = 0.0
            else:
                cos_t = (delta[0] * np.cos(heading) + delta[1] * np.sin(heading)) / planar
                theta = float(np.arccos(np.clip(cos_t, -1.0, 1.0)))
            ds.append(d)
            thetas.append(theta)
            labels.append(1.0 if is_read else 0.0)
    if not ds:
        raise LearningError("no training examples (trace empty or all tags far)")
    return np.asarray(ds), np.asarray(thetas), np.asarray(labels)


def scalar_assemble_sensor_dataset(
    epochs, pose_samples, known_positions, tag_estimates, config
):
    all_tags = dict(tag_estimates)
    all_tags.update(known_positions)  # known anchors override estimates
    ds, thetas, labels, weights = [], [], [], []
    sample_weight = 1.0 / config.posterior_samples
    for t, epoch in enumerate(epochs):
        read_numbers = {tag.number for tag in epoch.object_tags} | {
            tag.number for tag in epoch.shelf_tags
        }
        for pose in pose_samples[t]:
            position = pose[:3]
            heading = float(pose[3])
            for number, tag_position in all_tags.items():
                is_read = number in read_numbers
                delta = tag_position - position
                d = float(np.linalg.norm(delta))
                if not is_read and d > config.negative_cutoff_ft:
                    continue
                planar = float(np.hypot(delta[0], delta[1]))
                if planar < 1e-12:
                    theta = 0.0
                else:
                    cos_t = (
                        delta[0] * np.cos(heading) + delta[1] * np.sin(heading)
                    ) / planar
                    theta = float(np.arccos(np.clip(cos_t, -1.0, 1.0)))
                ds.append(d)
                thetas.append(theta)
                labels.append(1.0 if is_read else 0.0)
                weights.append(sample_weight)
    if not ds:
        raise LearningError("E-step produced no sensor training examples")
    return np.asarray(ds), np.asarray(thetas), np.asarray(labels), np.asarray(weights)


def assert_same_examples(got, want):
    """Same count and order; ``d`` within 2 ulp, every other column bitwise."""
    assert len(got) == len(want)
    assert got[0].shape == want[0].shape
    assert np.all(np.abs(got[0] - want[0]) <= 2 * np.spacing(want[0]))
    for got_column, want_column in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(got_column, want_column)


def irls_examples(fit_call):
    """The ``(d, theta, label)`` that ``fit_call()`` hands to IRLS, and its result."""
    captured = {}

    def capture(d, theta, label, **kwargs):
        captured["examples"] = (d, theta, label)
        return fit_sensor_model(d, theta, label, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(em, "fit_sensor_model", capture)
        result = fit_call()
    return captured["examples"], result


def batched_supervised_examples(
    trace, tag_positions, reader_path, reader_headings, negative_cutoff_ft=12.0
):
    """The ``(d, theta, label)`` that ``fit_sensor_supervised`` hands to IRLS."""
    return irls_examples(
        lambda: fit_sensor_supervised(
            trace, tag_positions, reader_path, reader_headings, negative_cutoff_ft
        )
    )


# ---------------------------------------------------------------------------
# Traces: the benchmark's four workload shapes (shrunk) and the lab
# ---------------------------------------------------------------------------
def _warehouse(n_objects, spacing_ft, n_rounds, moves=(), seed=100):
    layout = LayoutConfig(
        n_objects=n_objects, object_spacing_ft=spacing_ft, n_shelf_tags=4
    )
    config = WarehouseConfig(layout=layout, n_rounds=n_rounds, moves=moves, seed=seed)
    return WarehouseSimulator(config).generate()


def _swap(a, b, spacing_ft, epoch_index):
    """Tags ``a`` and ``b`` trade shelf slots (churn_durable's move)."""
    x = LayoutConfig().shelf_x_ft
    targets = {a: (x, b * spacing_ft, 0.0), b: (x, a * spacing_ft, 0.0)}
    return ScheduledMove(epoch_index=epoch_index, numbers=(a, b), targets=targets)


SHAPES = {
    "dense_scan": lambda: _warehouse(24, 0.2, 1),
    "churn_durable": lambda: _warehouse(12, 0.15, 3, moves=(_swap(2, 9, 0.15, 40),)),
    "query_fanout": lambda: _warehouse(12, 0.2, 5),
    "ingest_small": lambda: _warehouse(6, 0.5, 8),
}


def _known_geometry(trace):
    """What ``cli._default_model`` feeds the supervised fit."""
    truth = trace.truth
    positions = dict(truth.initial_positions)
    positions.update(truth.shelf_tag_positions)
    return positions, truth.reader_path, truth.reader_headings


class TestSupervisedAgainstScalarLoop:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_workload_shape(self, shape):
        trace = SHAPES[shape]()
        geometry = _known_geometry(trace)
        want = scalar_supervised_examples(trace, *geometry)
        got, fit = batched_supervised_examples(trace, *geometry)
        assert_same_examples(got, want)
        np.testing.assert_allclose(
            fit.weights, fit_sensor_model(*want).weights, rtol=1e-9
        )

    def test_lab_calibration(self):
        lab = LabDeployment(LabConfig(seed=5))
        calibration = lab.generate(timeout_s=0.25, seed=99)
        geometry = (
            lab.reference_positions,
            calibration.truth.reader_path,
            calibration.truth.reader_headings,
        )
        want = scalar_supervised_examples(calibration, *geometry)
        got, fit = batched_supervised_examples(calibration, *geometry)
        assert_same_examples(got, want)
        np.testing.assert_allclose(
            fit.weights, fit_sensor_model(*want).weights, rtol=1e-9
        )

    def test_trace_longer_than_reader_path_is_truncated(self):
        trace = SHAPES["dense_scan"]()
        positions, path, headings = _known_geometry(trace)
        want = scalar_supervised_examples(trace, positions, path[:30], headings[:30])
        got, _ = batched_supervised_examples(trace, positions, path[:30], headings[:30])
        assert_same_examples(got, want)
        full, _ = batched_supervised_examples(trace, positions, path, headings)
        assert 0 < got[0].size < full[0].size

    def test_two_vector_positions_are_padded(self):
        trace = SHAPES["dense_scan"]()
        positions, path, headings = _known_geometry(trace)
        flat = {n: p[:2] for n, p in positions.items() if p[2] == 0.0}
        want = scalar_supervised_examples(trace, flat, path, headings)
        got, _ = batched_supervised_examples(trace, flat, path, headings)
        assert_same_examples(got, want)

    def test_no_tags_raises(self):
        trace = SHAPES["dense_scan"]()
        _, path, headings = _known_geometry(trace)
        with pytest.raises(LearningError):
            fit_sensor_supervised(trace, {}, path, headings)

    def test_all_tags_far_and_unread_raises(self):
        trace = SHAPES["dense_scan"]()
        _, path, headings = _known_geometry(trace)
        far = {9001: np.array([500.0, 500.0, 0.0])}
        with pytest.raises(LearningError):
            fit_sensor_supervised(trace, far, path, headings)


class TestDefaultModelFollowsMoves:
    """``cli._default_model`` fits each epoch against the tag locations true
    at that epoch, not the trace's initial ones."""

    # (5, 9): two plain objects.  (2, 9): object 2 shares its number with
    # shelf tag 2, and the shelf tag keeps the column.
    @pytest.mark.parametrize("pair", [(5, 9), (2, 9)])
    def test_post_move_examples_use_the_moved_location(self, pair):
        trace = _warehouse(12, 0.15, 3, moves=(_swap(*pair, 0.15, 40),))
        truth = trace.truth

        def known_at(t):
            positions = truth.locations_at(t)
            positions.update(truth.shelf_tag_positions)
            return positions

        path, headings = truth.reader_path, truth.reader_headings
        got, _ = irls_examples(lambda: cli._default_model(trace))
        assert_same_examples(
            got, scalar_supervised_examples(trace, None, path, headings, positions_at=known_at)
        )
        stale = scalar_supervised_examples(trace, known_at(0), path, headings)
        assert got[0].shape == stale[0].shape and not np.array_equal(got[0], stale[0])


# ---------------------------------------------------------------------------
# The M-step call: S pose samples per epoch, weighted
# ---------------------------------------------------------------------------
def _m_step_inputs(rng, n_epochs=40, n_samples=3, n_tags=9):
    numbers = list(range(n_tags))
    positions = {n: np.array([2.0, 0.7 * n, 0.0]) for n in numbers}
    epochs = [
        make_epoch(
            float(t),
            object_tags=[n for n in numbers[3:] if rng.uniform() < 0.3],
            shelf_tags=[n for n in numbers[:3] if rng.uniform() < 0.3],
        )
        for t in range(n_epochs)
    ]
    poses = np.empty((n_epochs, n_samples, 4))
    poses[:, :, 0] = rng.normal(0.0, 0.1, size=(n_epochs, n_samples))
    poses[:, :, 1] = np.linspace(-1.0, 7.0, n_epochs)[:, None]
    poses[:, :, 2] = 0.0
    poses[:, :, 3] = rng.normal(0.0, 0.2, size=(n_epochs, n_samples))
    # Tag 1 is both estimated and known: the known anchor must win, in the
    # estimate's dict slot.
    estimates = {n: positions[n] + rng.normal(0, 0.3, size=3) for n in numbers[1:]}
    known = {n: positions[n] for n in (0, 1, 2)}
    return epochs, poses, known, estimates


class TestAssembleAgainstScalarLoop:
    @pytest.mark.parametrize("n_samples", [1, 3, 5])
    def test_matches_scalar_loop(self, n_samples):
        rng = np.random.default_rng(n_samples)
        epochs, poses, known, estimates = _m_step_inputs(rng, n_samples=n_samples)
        config = EMConfig(posterior_samples=n_samples, negative_cutoff_ft=4.0)
        want = scalar_assemble_sensor_dataset(epochs, list(poses), known, estimates, config)
        got = em._assemble_sensor_dataset(epochs, poses, known, estimates, config)
        assert_same_examples(got, want)
        np.testing.assert_allclose(
            fit_sensor_model(*got[:3], sample_weights=got[3]).weights,
            fit_sensor_model(*want[:3], sample_weights=want[3]).weights,
            rtol=1e-9,
        )

    def test_no_examples_raises(self):
        epochs = [make_epoch(0.0), make_epoch(1.0)]
        poses = np.zeros((2, 2, 4))
        far = {0: np.array([100.0, 0.0, 0.0])}
        with pytest.raises(LearningError):
            em._assemble_sensor_dataset(epochs, poses, {}, far, EMConfig(posterior_samples=2))


@st.composite
def _scenes(draw):
    n_epochs = draw(st.integers(1, 6))
    n_samples = draw(st.integers(1, 3))
    n_tags = draw(st.integers(0, 5))
    coordinate = st.floats(-20.0, 20.0, allow_nan=False, width=32)
    poses = np.array(
        draw(
            st.lists(
                st.lists(
                    st.tuples(coordinate, coordinate, coordinate, st.floats(-7.0, 7.0)),
                    min_size=n_samples,
                    max_size=n_samples,
                ),
                min_size=n_epochs,
                max_size=n_epochs,
            )
        )
    ).reshape(n_epochs, n_samples, 4)
    tags = {
        number: np.array(draw(st.tuples(coordinate, coordinate, coordinate)))
        for number in draw(
            st.lists(st.integers(0, 30), min_size=n_tags, max_size=n_tags, unique=True)
        )
    }
    # Reads draw from a wider pool than the tags: some read tags are unknown.
    reads = st.lists(st.integers(0, 32), max_size=6, unique=True)
    epochs = [
        make_epoch(float(t), object_tags=draw(reads), shelf_tags=draw(reads))
        for t in range(n_epochs)
    ]
    # Put a tag directly above the first pose sample now and then.
    if tags and draw(st.booleans()):
        first = next(iter(tags))
        tags[first] = poses[0, 0, :3] + np.array([0.0, 0.0, draw(coordinate)])
    cutoff = draw(st.floats(0.5, 40.0))
    return epochs, poses, tags, cutoff


class TestProperty:
    @settings(max_examples=150, deadline=None)
    @given(_scenes())
    def test_random_scenes_match_scalar_loop(self, scene):
        epochs, poses, tags, cutoff = scene
        config = EMConfig(posterior_samples=poses.shape[1], negative_cutoff_ft=cutoff)
        try:
            want = scalar_assemble_sensor_dataset(epochs, list(poses), {}, tags, config)
        except LearningError:
            with pytest.raises(LearningError):
                em._assemble_sensor_dataset(epochs, poses, {}, tags, config)
            return
        got = em._assemble_sensor_dataset(epochs, poses, {}, tags, config)
        assert_same_examples(got, want)


# ---------------------------------------------------------------------------
# Named edge cases on the array kernel
# ---------------------------------------------------------------------------
POSE = np.array([[[1.0, 2.0, 0.5, 0.3]]])  # T = S = 1


class TestEdgeCases:
    @pytest.mark.parametrize("dz", [3.0, -3.0, 0.0])
    def test_tag_directly_above_or_below_reader_has_zero_bearing(self, dz):
        tags = np.array([[1.0, 2.0, 0.5 + dz]])
        d, theta, label = examples.range_bearing_examples(
            POSE, tags, np.array([[True]]), 12.0
        )
        assert d.tolist() == [abs(dz)]
        assert theta.tolist() == [0.0]
        assert label.tolist() == [1.0]

    def test_read_tag_beyond_cutoff_kept_unread_dropped(self):
        tags = np.array([[1.0, 30.0, 0.5], [1.0, 31.0, 0.5], [1.0, 3.0, 0.5]])
        read = np.array([[True, False, False]])
        d, _, label = examples.range_bearing_examples(POSE, tags, read, 12.0)
        assert d.tolist() == [28.0, 1.0]
        assert label.tolist() == [1.0, 0.0]

    def test_unread_tag_exactly_at_cutoff_is_kept(self):
        tags = np.array([[1.0, 14.0, 0.5]])
        d, _, label = examples.range_bearing_examples(
            POSE, tags, np.array([[False]]), 12.0
        )
        assert d.tolist() == [12.0] and label.tolist() == [0.0]

    def test_tag_read_but_without_a_position_is_ignored(self):
        epochs = [make_epoch(0.0, object_tags=[5, 77], shelf_tags=[88])]
        d, _, label = examples.sensor_examples(
            epochs, POSE, {4: np.array([1.0, 3.0, 0.5]), 5: np.array([1.0, 4.0, 0.5])}, 12.0
        )
        assert d.tolist() == [1.0, 2.0] and label.tolist() == [0.0, 1.0]

    def test_object_and_shelf_reads_match_by_number(self):
        epochs = [make_epoch(0.0, object_tags=[1]), make_epoch(1.0, shelf_tags=[1])]
        far = {1: np.array([1.0, 30.0, 0.5])}  # beyond the cutoff: kept only as reads
        _, _, label = examples.sensor_examples(epochs, np.repeat(POSE, 2, axis=0), far, 12.0)
        assert label.tolist() == [1.0, 1.0]

    def test_zero_tags_raises(self):
        with pytest.raises(LearningError):
            examples.range_bearing_examples(
                POSE, np.empty((0, 3)), np.empty((1, 0), dtype=bool), 12.0
            )
        with pytest.raises(LearningError):
            examples.sensor_examples([make_epoch(0.0)], POSE, {}, 12.0)

    def test_zero_epochs_raises(self):
        with pytest.raises(LearningError):
            examples.sensor_examples([], np.empty((0, 1, 4)), {1: np.zeros(3)}, 12.0)

    def test_per_epoch_tag_positions_broadcast(self):
        """``tags`` of shape (T, N, 3) — a tag that moves mid-trace — equals
        running each segment with its own (N, 3) table."""
        rng = np.random.default_rng(4)
        poses = rng.normal(size=(6, 2, 4))
        before, after = rng.normal(size=(2, 3, 3))
        read = rng.uniform(size=(6, 3)) < 0.5
        read[0, 0] = read[5, 0] = True  # both segments yield examples
        tags = np.stack([before] * 2 + [after] * 4)
        got = examples.range_bearing_examples(poses, tags, read, 1.5)
        first = examples.range_bearing_examples(poses[:2], before, read[:2], 1.5)
        second = examples.range_bearing_examples(poses[2:], after, read[2:], 1.5)
        for column, a, b in zip(got, first, second):
            np.testing.assert_array_equal(column, np.concatenate([a, b]))


class TestBlocking:
    def test_block_boundary_inside_trace_equals_one_block(self, monkeypatch):
        rng = np.random.default_rng(8)
        epochs, poses, known, estimates = _m_step_inputs(rng, n_epochs=23)
        config = EMConfig(posterior_samples=poses.shape[1], negative_cutoff_ft=4.0)
        assert examples._EPOCH_BLOCK >= 23
        one_block = em._assemble_sensor_dataset(epochs, poses, known, estimates, config)
        monkeypatch.setattr(examples, "_EPOCH_BLOCK", 4)  # 5 full blocks + 3 epochs
        blocked = em._assemble_sensor_dataset(epochs, poses, known, estimates, config)
        for a, b in zip(blocked, one_block):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("block", [7, 64, 1000])
    def test_one_kernel_dispatch_per_epoch_block(self, monkeypatch, block):
        trace = SHAPES["dense_scan"]()
        geometry = _known_geometry(trace)
        n_epochs = min(len(trace.epochs()), geometry[1].shape[0])
        calls = []
        kernel = examples.delta_range_bearing

        def counting(delta, cos_phi, sin_phi):
            calls.append(delta.shape)
            return kernel(delta, cos_phi, sin_phi)

        monkeypatch.setattr(examples, "_EPOCH_BLOCK", block)
        monkeypatch.setattr(examples, "delta_range_bearing", counting)
        fit_sensor_supervised(trace, *geometry)
        assert 1 <= len(calls) <= math.ceil(n_epochs / block)
        # Transient arrays are bounded by the block, not the trace.
        assert max(shape[0] for shape in calls) <= block
