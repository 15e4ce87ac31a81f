"""Tests for epoch synchronization (Section II-A preprocessing)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.streams.records import Epoch, ReaderLocationReport, TagId, TagReading
from repro.streams.synchronize import EpochSynchronizer, synchronize


def reading(t, number, shelf=False):
    return TagReading(t, TagId.shelf(number) if shelf else TagId.object(number))


def report(t, x=0.0, y=0.0, heading=None):
    return ReaderLocationReport(t, (x, y, 0.0), heading=heading)


class TestBatchSynchronize:
    def test_groups_by_epoch(self):
        epochs = synchronize(
            [reading(0.1, 1), reading(0.7, 2), reading(1.2, 3)],
            [report(0.0), report(1.0)],
        )
        assert len(epochs) == 2
        assert {t.number for t in epochs[0].object_tags} == {1, 2}
        assert {t.number for t in epochs[1].object_tags} == {3}

    def test_averages_location_reports(self):
        epochs = synchronize(
            [reading(0.5, 1)],
            [report(0.1, 1.0, 0.0), report(0.9, 3.0, 2.0)],
        )
        assert epochs[0].reported_position == pytest.approx((2.0, 1.0, 0.0))

    def test_circular_heading_mean(self):
        # Headings at +pi-0.1 and -pi+0.1 must average to ~pi, not 0.
        epochs = synchronize(
            [reading(0.5, 1)],
            [
                report(0.1, heading=math.pi - 0.1),
                report(0.9, heading=-math.pi + 0.1),
            ],
        )
        assert abs(abs(epochs[0].reported_heading) - math.pi) < 0.01

    def test_separates_object_and_shelf_tags(self):
        epochs = synchronize(
            [reading(0.5, 1), reading(0.5, 2, shelf=True)], [report(0.5)]
        )
        assert {t.number for t in epochs[0].object_tags} == {1}
        assert {t.number for t in epochs[0].shelf_tags} == {2}

    def test_emit_empty_fills_gaps(self):
        epochs = synchronize(
            [reading(0.5, 1), reading(3.5, 2)],
            [report(0.0), report(3.9)],
            emit_empty=True,
        )
        assert len(epochs) == 4
        assert epochs[1].total_readings == 0
        assert epochs[1].reported_position is None

    def test_no_empty_epochs_when_disabled(self):
        epochs = synchronize(
            [reading(0.5, 1), reading(3.5, 2)],
            [report(0.0), report(3.9)],
            emit_empty=False,
        )
        assert len(epochs) == 2

    def test_custom_epoch_length(self):
        epochs = synchronize(
            [reading(0.0, 1), reading(0.6, 2)],
            [report(0.0), report(0.9)],
            epoch_length=0.5,
        )
        assert len(epochs) == 2
        assert {t.number for t in epochs[0].object_tags} == {1}


class TestOnlineSynchronizer:
    def test_watermark_semantics(self):
        sync = EpochSynchronizer()
        sync.push_reading(reading(0.5, 1))
        sync.push_report(report(0.2))
        # Neither stream has passed epoch 0's end yet.
        assert sync.ready_epochs() == []
        sync.push_reading(reading(1.5, 2))
        sync.push_report(report(1.1))
        ready = sync.ready_epochs()
        assert len(ready) == 1
        assert {t.number for t in ready[0].object_tags} == {1}

    def test_flush_emits_remaining(self):
        sync = EpochSynchronizer()
        sync.push_reading(reading(0.5, 1))
        sync.push_report(report(0.5))
        epochs = sync.flush()
        assert len(epochs) == 1

    def test_rejects_time_regression(self):
        sync = EpochSynchronizer()
        sync.push_reading(reading(1.0, 1))
        with pytest.raises(StreamError):
            sync.push_reading(reading(0.5, 2))
        sync.push_report(report(2.0))
        with pytest.raises(StreamError):
            sync.push_report(report(1.0))

    def test_rejects_bad_epoch_length(self):
        with pytest.raises(StreamError):
            EpochSynchronizer(epoch_length=0.0)

    def test_epoch_times_are_boundaries(self):
        epochs = synchronize(
            [reading(2.3, 1)], [report(2.9)], epoch_length=1.0
        )
        assert epochs[0].time == pytest.approx(2.0)


class TestFlushLifecycle:
    def test_flush_is_idempotent(self):
        sync = EpochSynchronizer()
        sync.push_reading(reading(0.5, 1))
        assert len(sync.flush()) == 1
        assert sync.flush() == []
        assert sync.flush() == []

    def test_flush_on_empty_synchronizer_is_idempotent(self):
        sync = EpochSynchronizer()
        assert sync.flush() == []
        assert sync.flush() == []

    def test_push_reading_after_flush_raises(self):
        sync = EpochSynchronizer()
        sync.push_reading(reading(0.5, 1))
        sync.flush()
        with pytest.raises(StreamError, match="flush"):
            sync.push_reading(reading(5.0, 2))

    def test_push_report_after_flush_raises(self):
        sync = EpochSynchronizer()
        sync.push_report(report(0.5))
        sync.flush()
        with pytest.raises(StreamError, match="flush"):
            sync.push_report(report(5.0))


class TestResumeSeek:
    def test_seek_continues_the_epoch_grid(self):
        sync = EpochSynchronizer(epoch_length=1.0, start_time=0.0)
        sync.seek(3)
        assert sync.next_epoch_index == 3
        sync.push_reading(reading(3.4, 1))
        epochs = sync.flush()
        assert len(epochs) == 1
        assert epochs[0].time == pytest.approx(3.0)

    def test_seek_requires_explicit_origin(self):
        with pytest.raises(StreamError, match="start_time"):
            EpochSynchronizer().seek(2)

    def test_seek_after_use_raises(self):
        sync = EpochSynchronizer(start_time=0.0)
        sync.push_reading(reading(0.5, 1))
        with pytest.raises(StreamError, match="already in use"):
            sync.seek(1)

    def test_negative_seek_raises(self):
        with pytest.raises(StreamError, match=">= 0"):
            EpochSynchronizer(start_time=0.0).seek(-1)

    def test_origin_tracks_first_record_floor(self):
        sync = EpochSynchronizer(epoch_length=1.0)
        assert sync.origin is None
        sync.push_reading(reading(7.3, 1))
        assert sync.origin == pytest.approx(7.0)


class TestExternalWatermark:
    def test_upto_releases_epochs_a_lagging_kind_would_hold(self):
        # Only readings arrive; the internal per-kind watermark stays at
        # -inf for reports, but an external watermark releases anyway.
        sync = EpochSynchronizer(epoch_length=1.0)
        sync.push_reading(reading(0.5, 1))
        sync.push_reading(reading(2.5, 2))
        assert sync.ready_epochs() == []
        released = sync.ready_epochs(upto=2.5)
        assert [e.time for e in released] == [0.0, 1.0]

    def test_record_exactly_at_upto_is_not_released_early(self):
        # A time-t record belongs to the epoch starting at t, which ends
        # after the watermark — it must stay buffered.
        sync = EpochSynchronizer(epoch_length=1.0)
        sync.push_reading(reading(2.0, 1))
        assert sync.ready_epochs(upto=2.0) == []
        epochs = sync.flush()
        assert {t.number for t in epochs[-1].object_tags} == {1}


class ParentEmitSynchronizer(EpochSynchronizer):
    """The replaced ``_emit`` body, verbatim: the oracle the lean one must
    match bit for bit (np.mean wrappers over a list of fresh arrays)."""

    def _emit(self, index):
        lo = self._epoch_start(index)
        hi = self._epoch_end(index)
        cut = 0
        while cut < len(self._readings) and self._readings[cut].time < hi:
            cut += 1
        readings = [r for r in self._readings[:cut] if r.time >= lo]
        del self._readings[:cut]
        cut = 0
        while cut < len(self._reports) and self._reports[cut].time < hi:
            cut += 1
        reports = [r for r in self._reports[:cut] if r.time >= lo]
        del self._reports[:cut]
        if not readings and not reports and not self._emit_empty:
            return []
        position = None
        heading = None
        if reports:
            position = tuple(
                float(v) for v in np.mean([r.array for r in reports], axis=0)
            )
            headings = [r.heading for r in reports if r.heading is not None]
            if headings:
                heading = float(
                    np.arctan2(
                        np.mean(np.sin(headings)), np.mean(np.cos(headings))
                    )
                )
        object_tags = {r.tag for r in readings if r.tag.is_object}
        shelf_tags = {r.tag for r in readings if r.tag.is_shelf}
        return [
            Epoch(
                time=lo,
                reported_position=position,
                object_tags=frozenset(object_tags),
                shelf_tags=frozenset(shelf_tags),
                reported_heading=heading,
            )
        ]


def _bits(value):
    """Exact identity of a float (or None / tuple of floats): -0.0 != 0.0."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    assert type(value) is float
    return value.hex()


_coordinate = st.one_of(
    st.floats(-60.0, 60.0), st.integers(-60, 60), st.just(-0.0)
)
_heading = st.one_of(
    st.none(),
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi]).flatmap(
        lambda c: st.floats(c - 1e-6, c + 1e-6)
    ),
)
_epoch = st.tuples(
    # (offset in the epoch, x, y, z, heading) reports: none, a few, or
    # enough to reach numpy's pairwise summation (> 8)
    st.lists(
        st.tuples(st.floats(0.0, 0.999), _coordinate, _coordinate, _coordinate, _heading),
        max_size=10,
    ),
    # (offset, tag number, is shelf) readings
    st.lists(
        st.tuples(st.floats(0.0, 0.999), st.integers(0, 6), st.booleans()),
        max_size=5,
    ),
)


class TestLeanEmitMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(epochs=st.lists(_epoch, min_size=1, max_size=6), emit_empty=st.booleans())
    def test_epochs_are_bitwise_equal(self, epochs, emit_empty):
        syncs = [
            cls(epoch_length=1.0, start_time=0.0, emit_empty=emit_empty)
            for cls in (EpochSynchronizer, ParentEmitSynchronizer)
        ]
        for index, (reports, readings) in enumerate(epochs):
            for sync in syncs:
                for offset, x, y, z, heading in sorted(reports, key=lambda r: r[0]):
                    sync.push_report(
                        ReaderLocationReport(index + offset, (x, y, z), heading=heading)
                    )
                for offset, number, shelf in sorted(readings, key=lambda r: r[0]):
                    sync.push_reading(reading(index + offset, number, shelf))
        ours, oracle = (sync.ready_epochs() + sync.flush() for sync in syncs)
        assert ours == oracle
        for a, b in zip(ours, oracle):
            assert _bits(a.reported_position) == _bits(b.reported_position)
            assert _bits(a.reported_heading) == _bits(b.reported_heading)
            assert list(a.object_tags) == list(b.object_tags)
            assert list(a.shelf_tags) == list(b.shelf_tags)
