"""Tests for the joint DBN: generative sampling and evidence likelihoods."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.vec import delta_range_bearing
from repro.models.joint import RFIDWorldModel
from repro.models.sensor import features, log_sigmoid
from repro.streams.records import TagId


class TestGenerate:
    def test_trace_structure(self, small_model, rng):
        trace = small_model.generate(
            n_epochs=30,
            initial_reader_position=(0.0, 0.0, 0.0),
            n_objects=4,
            rng=rng,
        )
        assert trace.truth is not None
        assert trace.truth.reader_path.shape == (30, 3)
        assert len(trace.reports) == 30
        assert set(trace.truth.initial_positions) == {0, 1, 2, 3}
        epochs = trace.epochs()
        assert len(epochs) == 30

    def test_reader_moves_with_velocity(self, small_model, rng):
        trace = small_model.generate(
            n_epochs=50, initial_reader_position=(0.0, 0.0, 0.0), n_objects=2, rng=rng
        )
        path = trace.truth.reader_path
        displacement = path[-1] - path[0]
        # Velocity (0, 0.1, 0) over 49 steps.
        assert displacement[1] == pytest.approx(4.9, abs=0.5)

    def test_objects_on_shelves(self, small_model, rng):
        trace = small_model.generate(
            n_epochs=10, initial_reader_position=(0, 0, 0), n_objects=8, rng=rng
        )
        for pos in trace.truth.initial_positions.values():
            assert small_model.shelves.contains_points(pos[None, :])[0]

    def test_near_objects_get_read(self, small_model, rng):
        # Object placed right in front of the reader path must be read.
        positions = np.array([[2.1, 2.0, 0.0]])
        trace = small_model.generate(
            n_epochs=60,
            initial_reader_position=(0.0, 0.0, 0.0),
            initial_object_positions=positions,
            rng=rng,
        )
        assert trace.object_tag_numbers() == [0]

    def test_shelf_tags_get_read(self, small_model, rng):
        trace = small_model.generate(
            n_epochs=80, initial_reader_position=(0.0, 0.0, 0.0), n_objects=1, rng=rng
        )
        assert len(trace.shelf_tag_numbers()) >= 1

    def test_rejects_zero_epochs(self, small_model):
        with pytest.raises(ConfigurationError):
            small_model.generate(0, (0, 0, 0))

    def test_seeded_determinism(self, small_model):
        t1 = small_model.generate(
            20, (0, 0, 0), n_objects=3, rng=np.random.default_rng(5)
        )
        t2 = small_model.generate(
            20, (0, 0, 0), n_objects=3, rng=np.random.default_rng(5)
        )
        assert t1.dumps() == t2.dumps()


def _evidence(model, positions, headings, reported, shelf_tags_read, **kwargs):
    return model.reader_evidence_log_likelihood(
        positions, np.cos(headings), np.sin(headings), reported, shelf_tags_read, **kwargs
    )


def _evidence_oracle(
    model, positions, headings, reported, shelf_tags_read, negative_evidence_range=6.0
):
    """The per-tag loop the batched ``(J x S)`` kernel replaced: one
    ``features() @ w`` design-matrix evaluation per shelf tag."""
    out = np.zeros(positions.shape[0])
    if reported is not None:
        out += model.sensing.log_likelihood(reported, positions)
        anchor = np.asarray(reported, dtype=float)
    else:
        anchor = positions.mean(axis=0)
    read_numbers = {tag.number for tag in shelf_tags_read}
    for number, position in model.shelf_tags.items():
        is_read = number in read_numbers
        if not is_read and np.linalg.norm(position - anchor) > negative_evidence_range:
            continue
        d, theta = delta_range_bearing(
            position[None, :] - positions, np.cos(headings), np.sin(headings)
        )
        z = features(d, theta) @ model.sensor.params.weights
        out += log_sigmoid(z) if is_read else log_sigmoid(-z)
    return out


class TestReaderEvidence:
    def test_reported_position_anchors(self, small_model):
        positions = np.array([[0.0, 1.0, 0.0], [0.0, 3.0, 0.0]])
        headings = np.zeros(2)
        ll = _evidence(
            small_model, positions, headings, np.array([0.0, 1.0, 0.0]), frozenset()
        )
        assert ll[0] > ll[1]

    def test_shelf_tag_read_prefers_nearby_reader(self, small_model):
        # Shelf tag 0 at (2, 1, 0); a reader at y=1 facing +x sees it.
        positions = np.array([[0.0, 1.0, 0.0], [0.0, 6.5, 0.0]])
        headings = np.zeros(2)
        ll = _evidence(
            small_model, positions, headings, None, frozenset({TagId.shelf(0)})
        )
        assert ll[0] > ll[1]

    def test_negative_shelf_evidence_penalizes_nearby(self, small_model):
        # Shelf tag 0 NOT read: a reader right next to it is less likely.
        positions = np.array([[0.0, 1.0, 0.0], [0.0, 4.0, 0.0]])
        headings = np.zeros(2)
        ll = _evidence(small_model, positions, headings, None, frozenset())
        assert ll[1] > ll[0]

    def test_far_negative_evidence_skipped(self, small_model):
        # With a tight cutoff, far shelf tags contribute nothing: only the
        # position term is left.
        positions = np.array([[0.0, 100.0, 0.0]])
        reported = np.array([0.0, 100.0, 0.0])
        ll = _evidence(
            small_model,
            positions,
            np.zeros(1),
            reported,
            frozenset(),
            negative_evidence_range=1.0,
        )
        np.testing.assert_array_equal(
            ll, small_model.sensing.log_likelihood(reported, positions)
        )


class TestBatchedShelfEvidenceMatchesPerTagLoop:
    """The ``(J x S)`` kernel against the deleted per-tag code, kept above
    as :func:`_evidence_oracle` (summation order is the only difference)."""

    @pytest.fixture
    def cloud(self, rng):
        positions = np.array([0.0, 2.0, 0.0]) + rng.normal(0.0, 0.4, size=(50, 3))
        positions[:, 2] = 0.0
        return positions, rng.normal(0.0, 0.3, size=50)

    @pytest.fixture
    def wide_model(self, small_model):
        """Four shelf tags, one of them far down the aisle."""
        return RFIDWorldModel(
            sensor=small_model.sensor,
            motion=small_model.motion,
            sensing=small_model.sensing,
            objects=small_model.objects,
            shelf_tags={
                7: (2.0, 1.0, 0.0),
                3: (2.0, 3.0, 0.0),
                5: (2.0, 7.5, 0.0),
                11: (2.0, 40.0, 0.0),
            },
        )

    @pytest.mark.parametrize(
        "reported, read, negative_range",
        [
            # reported position, some tags read, some in range, one far
            ((0.0, 2.0, 0.0), (3,), 6.0),
            # no reported position: the anchor is the cloud mean
            (None, (7, 3), 6.0),
            # nothing inside the negative-evidence range, nothing read
            ((0.0, 2.0, 0.0), (), 0.5),
            # a read tag far outside the range is still scored
            ((0.0, 2.0, 0.0), (11,), 0.5),
            # every tag scored (no column selection)
            ((0.0, 2.0, 0.0), (7, 3, 5, 11), 100.0),
            # a read of a shelf tag the model does not know is ignored
            ((0.0, 2.0, 0.0), (99,), 6.0),
        ],
    )
    def test_matches_oracle(self, wide_model, cloud, reported, read, negative_range):
        positions, headings = cloud
        reported = None if reported is None else np.array(reported)
        tags = frozenset(TagId.shelf(n) for n in read)
        got = _evidence(
            wide_model, positions, headings, reported, tags,
            negative_evidence_range=negative_range,
        )
        want = _evidence_oracle(
            wide_model, positions, headings, reported, tags,
            negative_evidence_range=negative_range,
        )
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_model_without_shelf_tags(self, small_model, cloud):
        positions, headings = cloud
        bare = RFIDWorldModel(
            sensor=small_model.sensor,
            motion=small_model.motion,
            sensing=small_model.sensing,
            objects=small_model.objects,
        )
        reported = np.array([0.0, 2.0, 0.0])
        got = _evidence(bare, positions, headings, reported, frozenset({TagId.shelf(0)}))
        np.testing.assert_array_equal(
            got, bare.sensing.log_likelihood(reported, positions)
        )
        np.testing.assert_array_equal(
            _evidence(bare, positions, headings, None, frozenset()), np.zeros(50)
        )


class TestBuilders:
    def test_shelf_tag_array_sorted(self, small_model):
        numbers, positions = small_model.shelf_tag_array()
        assert numbers == sorted(numbers)
        assert positions.shape == (len(numbers), 3)
