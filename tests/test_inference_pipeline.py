"""Tests for the cleaning pipeline's output policies (Section II-A)."""

import numpy as np
import pytest

from repro.config import OutputPolicyConfig
from repro.inference.estimates import LocationEstimate
from repro.inference.pipeline import CleaningPipeline
from repro.streams.records import make_epoch
from repro.streams.sinks import CollectingSink


class FakeEngine:
    """Deterministic engine stub: object i sits at (2, i, 0)."""

    def __init__(self):
        self._known = set()
        self.epoch_index = -1

    def step(self, epoch):
        self.epoch_index += 1
        for tag in epoch.object_tags:
            self._known.add(tag.number)

    def known_objects(self):
        return sorted(self._known)

    def object_estimate(self, number):
        cov = 0.01 * np.eye(3)
        return LocationEstimate(np.array([2.0, float(number), 0.0]), cov, 100)


def epochs_with_read_at(read_times, number=1, total=100):
    out = []
    for t in range(total):
        reads = [number] if t in read_times else []
        out.append(make_epoch(float(t), (0.0, 0.0), object_tags=reads))
    return out


class TestDelayedEmission:
    def test_emits_after_delay(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(), OutputPolicyConfig(delay_s=10.0, on_scan_complete=False), sink
        )
        for epoch in epochs_with_read_at({5}, total=30):
            pipeline.step(epoch)
        assert len(sink) == 1
        event = sink.events[0]
        assert event.time == pytest.approx(15.0)
        assert event.tag.number == 1

    def test_single_emission_per_visit(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(), OutputPolicyConfig(delay_s=5.0, on_scan_complete=False), sink
        )
        # Reads every epoch: still only one event for the visit.
        for epoch in epochs_with_read_at(set(range(40)), total=50):
            pipeline.step(epoch)
        assert len(sink) == 1

    def test_revisit_rearms(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(), OutputPolicyConfig(delay_s=5.0, on_scan_complete=False), sink
        )
        # Two visits separated by more than VISIT_GAP_S (30 s).
        for epoch in epochs_with_read_at({0, 80}, total=120):
            pipeline.step(epoch)
        assert len(sink) == 2

    def test_statistics_attached(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(), OutputPolicyConfig(delay_s=0.0, on_scan_complete=False), sink
        )
        pipeline.step(epochs_with_read_at({0}, total=1)[0])
        assert sink.events[0].statistics is not None


class TestScanComplete:
    def test_finish_emits_pending(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(),
            OutputPolicyConfig(delay_s=1000.0, on_scan_complete=True),
            sink,
        )
        for epoch in epochs_with_read_at({5}, total=20):
            pipeline.step(epoch)
        assert len(sink) == 0  # delay never reached
        pipeline.finish()
        assert len(sink) == 1

    def test_finish_no_double_emit(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(), OutputPolicyConfig(delay_s=2.0, on_scan_complete=True), sink
        )
        for epoch in epochs_with_read_at({0}, total=20):
            pipeline.step(epoch)
        pipeline.finish()
        assert len(sink) == 1

    def test_finish_on_empty_pipeline(self):
        pipeline = CleaningPipeline(FakeEngine())
        pipeline.finish()  # must not raise


class TestMovementTrigger:
    def test_movement_reemission(self):
        class MovingEngine(FakeEngine):
            def object_estimate(self, number):
                y = 1.0 + 0.2 * self.epoch_index
                return LocationEstimate(
                    np.array([2.0, y, 0.0]), 0.01 * np.eye(3), 100
                )

        sink = CollectingSink()
        pipeline = CleaningPipeline(
            MovingEngine(),
            OutputPolicyConfig(
                delay_s=2.0, on_scan_complete=False, movement_threshold_ft=1.0
            ),
            sink,
        )
        for epoch in epochs_with_read_at(set(range(30)), total=30):
            pipeline.step(epoch)
        # First delayed event plus movement-triggered re-emissions.
        assert len(sink) >= 3


class TestVisitPruning:
    def test_visits_bounded_on_long_stream(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(),
            OutputPolicyConfig(
                delay_s=1.0, on_scan_complete=False, visit_retention_s=100.0
            ),
            sink,
        )
        # 50 distinct objects, each read once, spread over a long stream:
        # states of objects unread > 100 s must be dropped.
        for t in range(2000):
            reads = [t // 10] if (t % 10 == 0 and t < 500) else []
            pipeline.step(make_epoch(float(t), (0.0, 0.0), object_tags=reads))
        assert len(pipeline._visits) == 0
        assert len(sink) == 50  # every visit still emitted exactly once

    def test_pending_visits_never_pruned(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(),
            OutputPolicyConfig(
                delay_s=500.0, on_scan_complete=False, visit_retention_s=100.0
            ),
            sink,
        )
        # Delay longer than retention: the visit must survive (unemitted
        # states are exempt) and emit once the delay elapses.
        for t in range(700):
            reads = [7] if t == 0 else []
            pipeline.step(make_epoch(float(t), (0.0, 0.0), object_tags=reads))
        assert len(sink) == 1
        assert sink.events[0].time == pytest.approx(500.0)

    def test_none_retention_keeps_states_forever(self):
        pipeline = CleaningPipeline(
            FakeEngine(),
            OutputPolicyConfig(
                delay_s=1.0, on_scan_complete=False, visit_retention_s=None
            ),
        )
        for t in range(500):
            reads = [t] if t < 40 else []
            pipeline.step(make_epoch(float(t), (0.0, 0.0), object_tags=reads))
        assert len(pipeline._visits) == 40

    def test_pruned_object_reenters_as_fresh_visit(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(),
            OutputPolicyConfig(
                delay_s=2.0, on_scan_complete=False, visit_retention_s=50.0
            ),
            sink,
        )
        for epoch in epochs_with_read_at({0, 200}, total=300):
            pipeline.step(epoch)
        assert len(sink) == 2  # one emission per visit, pruning in between

    def test_finish_does_not_reemit_pruned_objects(self):
        sink = CollectingSink()
        pipeline = CleaningPipeline(
            FakeEngine(),
            OutputPolicyConfig(
                delay_s=10.0, on_scan_complete=True, visit_retention_s=100.0
            ),
            sink,
        )
        # Read once at t=0, emitted at t=10, pruned after t=100: the
        # scan-complete pass must not report the object a second time.
        for epoch in epochs_with_read_at({0}, total=2000):
            pipeline.step(epoch)
        assert len(pipeline._visits) == 0
        pipeline.finish()
        assert len(sink) == 1

    def test_movement_tracking_disables_pruning(self):
        class MovingEngine(FakeEngine):
            def object_estimate(self, number):
                y = 1.0 + 0.01 * self.epoch_index
                return LocationEstimate(
                    np.array([2.0, y, 0.0]), 0.01 * np.eye(3), 100
                )

        sink = CollectingSink()
        pipeline = CleaningPipeline(
            MovingEngine(),
            OutputPolicyConfig(
                delay_s=2.0,
                on_scan_complete=False,
                movement_threshold_ft=1.0,
                visit_retention_s=50.0,
            ),
            sink,
        )
        # One read at t=0, then silence far past the retention horizon: the
        # visit must survive (movement tracking keeps it live) and re-emit
        # once the estimate has drifted a foot (~epoch 102).
        for epoch in epochs_with_read_at({0}, total=300):
            pipeline.step(epoch)
        assert len(pipeline._visits) == 1
        assert len(sink) >= 2

    def test_retention_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            OutputPolicyConfig(visit_retention_s=0.0)


class TestRun:
    def test_run_returns_sink(self, small_model, fast_config):
        from repro.inference.factored import FactoredParticleFilter

        engine = FactoredParticleFilter(small_model, fast_config)
        pipeline = CleaningPipeline(engine, OutputPolicyConfig(delay_s=3.0))
        epochs = [
            make_epoch(float(t), (0.0, 0.1 * t), object_tags=[0] if t < 6 else [])
            for t in range(12)
        ]
        sink = pipeline.run(epochs)
        assert isinstance(sink, CollectingSink)
        assert len(sink) >= 1


class TestSinkClose:
    def test_finish_closes_sink(self):
        closes = []

        class TrackingSink(CollectingSink):
            def close(self):
                closes.append(1)

        CleaningPipeline(
            FakeEngine(), OutputPolicyConfig(delay_s=5.0), TrackingSink()
        ).run(epochs_with_read_at([0], total=20))
        assert closes == [1]

    def test_finish_before_any_epoch_closes_sink(self):
        """An empty trace still ends the stream: the sink closes, nothing
        is emitted."""
        closes = []

        class TrackingSink(CollectingSink):
            def close(self):
                closes.append(1)

        sink = TrackingSink()
        CleaningPipeline(FakeEngine(), OutputPolicyConfig(), sink).finish()
        assert closes == [1]
        assert sink.events == []

    def test_default_sink_collects_what_the_pipeline_emits(self):
        pipeline = CleaningPipeline(FakeEngine(), OutputPolicyConfig(delay_s=5.0))
        sink = pipeline.run(epochs_with_read_at([0], total=20))
        assert sink is pipeline.sink
        assert isinstance(sink, CollectingSink)
        assert [event.tag.number for event in sink.events] == [1]
