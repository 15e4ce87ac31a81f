"""Span tracing from outside: timing wrappers around the layers' public calls.

The traced pass runs the unmodified service with :func:`install` applied
first: every entry in :data:`TARGETS` — a public function or method at a
layer boundary — is replaced by a ``functools.wraps`` wrapper that records
one span (name, start, end, parent span, epoch index, one optional count).
Spans stay in memory and are written once, at exit.  Nothing under ``src/``
knows about this file; when ``install`` is not called the public methods are
the original function objects.

The service is single-threaded (serial executor, unsupervised step on the
event-loop thread), so one span stack is enough and spans nest strictly.

A layer's **self time** is its spans' duration minus the part covered by
their direct child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np


class Target(NamedTuple):
    module: str
    #: ``Class.method`` or a module-level function name.
    attr: str
    span: str
    #: ``(args, result) -> epoch index`` this span belongs to; None inherits
    #: the enclosing span's (or the last set) epoch index.
    epoch: Optional[Callable] = None
    #: ``(args, result) -> number`` recorded beside the span (a work count).
    value: Optional[Callable] = None


def _epoch_of_record(args, _result):  # WatermarkAligner.push(self, name, seq, record)
    return int(args[3].time)


def _epoch_of_epoch(args, _result):  # ShardedRuntime.step(self, epoch)
    return int(args[1].time)


def _len_arg1(args, _result):
    return len(args[1])


def _len_result(_args, result):
    return len(result)


def _result(_args, result):
    return result or 0


def _shard_index(args, _result):  # FilterShard.step(self, epoch)
    return args[0].index


def _active_count(args, _result):  # FactoredParticleFilter.step(self, epoch)
    return args[0].active_count


#: The public entry points traced, by layer.  Span names are
#: ``<module>.<thing>``; BENCHMARK.json's per-layer metrics derive from them.
TARGETS: Tuple[Target, ...] = (
    # the event loop waiting for (or polling) its sockets: time the server
    # had nothing runnable, not time any layer was busy
    Target("selectors", "DefaultSelector.select", "loop.select"),
    # the kernel side of the unix socket (asyncio's transports call these)
    Target("socket", "socket.recv", "serve.transport.recv", value=_len_result),
    Target("socket", "socket.send", "serve.transport.send", value=_result),
    # serve
    Target("repro.serve.protocol", "FrameDecoder.feed_frames", "serve.protocol.decode", value=_len_result),
    Target("repro.serve.protocol", "FrameDecoder.feed", "serve.protocol.feed", value=_len_arg1),
    Target("repro.serve.protocol", "encode_emit", "serve.protocol.encode"),
    Target("repro.serve.protocol", "encode_credit", "serve.protocol.encode"),
    Target("repro.serve.watermark", "WatermarkAligner.push", "serve.watermark.push", epoch=_epoch_of_record),
    Target("repro.serve.watermark", "WatermarkAligner.poll", "serve.watermark.poll", value=_len_result),
    Target("repro.serve.watermark", "WatermarkAligner.take_consumed", "serve.watermark.bookkeeping"),
    Target("repro.serve.watermark", "WatermarkAligner.total_buffered", "serve.watermark.bookkeeping"),
    Target("repro.serve.watermark", "WatermarkAligner.has_releasable", "serve.watermark.bookkeeping"),
    Target("repro.serve.ingest", "IngestController.on_frame", "serve.ingest.credit"),
    Target("repro.serve.ingest", "IngestController.on_consumed", "serve.ingest.credit", value=_result),
    Target("repro.serve.ingest", "IngestController.note_buffered", "serve.ingest.credit"),
    Target("repro.serve.sink", "DeliverySink.emit", "serve.sink.emit"),
    Target("repro.serve.sink", "DeliverySink.flush", "serve.sink.flush"),
    Target("repro.serve.sink", "DeliverySink.ack", "serve.sink.ack"),
    Target("repro.serve.sink", "DeliverySink.close", "serve.sink.flush"),
    Target("repro.serve.service", "ReproService.stats", "serve.stats"),
    # runtime
    Target("repro.runtime.runtime", "ShardedRuntime.step", "runtime.step", epoch=_epoch_of_epoch),
    Target("repro.runtime.runtime", "ShardedRuntime.finish", "runtime.finish"),
    Target("repro.runtime.router", "EpochRouter.split", "runtime.router.split"),
    Target("repro.runtime.shard", "FilterShard.step", "runtime.shard.step", value=_shard_index),
    Target("repro.runtime.shard", "FilterShard.finish", "runtime.shard.step", value=_shard_index),
    Target("repro.runtime.shard", "FilterShard.drain", "runtime.shard.drain"),
    Target("repro.runtime.bus", "EventBus.publish", "runtime.bus.publish"),
    Target("repro.runtime.bus", "EventBus.close", "runtime.bus.publish"),
    # inference
    Target("repro.inference.pipeline", "CleaningPipeline.step", "inference.pipeline.step"),
    Target("repro.inference.pipeline", "CleaningPipeline.finish", "inference.pipeline.step"),
    Target("repro.inference.factored", "FactoredParticleFilter.step", "inference.factored.step", value=_active_count),
    # spatial
    Target("repro.spatial.region_index", "SensingRegionIndex.record", "spatial.region_index.query"),
    Target("repro.spatial.region_index", "SensingRegionIndex.attach", "spatial.region_index.query"),
    Target("repro.spatial.region_index", "SensingRegionIndex.remove_object", "spatial.region_index.query"),
    Target("repro.spatial.region_index", "SensingRegionIndex.case2_candidates", "spatial.region_index.query"),
    Target("repro.spatial.region_index", "SensingRegionIndex.overlapping_regions", "spatial.region_index.query"),
    # query
    Target("repro.runtime.bridge", "QueryBridge.push_event", "query.bridge.push"),
    Target("repro.query.multiplexer", "MultiplexedQueryEngine.push", "query.multiplexer.tick"),
    Target("repro.query.multiplexer", "MultiplexedQueryEngine.finish", "query.multiplexer.tick"),
    # state
    Target("repro.runtime.runtime", "ShardedRuntime.write_periodic_checkpoint", "state.checkpoint.save"),
)


class SpanRecorder:
    """In-memory span log: parallel lists, one entry per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.epoch: List[int] = []
        self.value: List[float] = []
        self._stack: List[int] = []
        self._current_epoch = -1

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name_id = self.name_index(target.span)
        epoch_of, value_of = target.epoch, target.value
        stack = self._stack
        names, starts, ends = self.name_id, self.start, self.end
        parents, epochs, values = self.parent, self.epoch, self.value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            values.append(0.0)
            if epoch_of is not None:
                self._current_epoch = epoch_of(args, None)
            epochs.append(self._current_epoch)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    values[index] = value_of(args, result)
                return result
            finally:
                ends[index] = perf_counter()
                stack.pop()

        traced.__bench_original__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "wb") as fp:
            np.savez(
                fp,
                names=np.array(json.dumps(self.names)),
                name_id=np.asarray(self.name_id, dtype=np.int32),
                start=np.asarray(self.start, dtype=np.float64),
                end=np.asarray(self.end, dtype=np.float64),
                parent=np.asarray(self.parent, dtype=np.int64),
                epoch=np.asarray(self.epoch, dtype=np.int64),
                value=np.asarray(self.value, dtype=np.float64),
            )


def _resolve(target: Target):
    """(owner object, attribute name, current callable) for a target."""
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def install() -> SpanRecorder:
    """Wrap every target in place; returns the recorder to dump at exit.

    A method inherited from a base class is wrapped *on the named subclass*
    (``setattr`` on the subclass shadows it), so the base stays untouched.
    """
    recorder = SpanRecorder()
    for target in TARGETS:
        owner, leaf, fn = _resolve(target)
        setattr(owner, leaf, recorder.wrap(fn, target))
    return recorder


def installed() -> List[str]:
    """Targets currently wrapped (empty unless :func:`install` ran)."""
    return [
        f"{t.module}:{t.attr}"
        for t in TARGETS
        if hasattr(_resolve(t)[2], "__bench_original__")
    ]


# ---------------------------------------------------------------------------
# Analysis (benchmark process)
# ---------------------------------------------------------------------------
class Spans:
    """A loaded span log, clipped to the measured window ``[lo, hi]``."""

    def __init__(self, path: str, lo: float, hi: float):
        with np.load(path) as data:
            self.names: List[str] = json.loads(str(data["names"]))
            self.name_id = data["name_id"]
            self.raw_start = data["start"]
            self.raw_end = data["end"]
            self.parent = data["parent"]
            self.epoch = data["epoch"]
            self.value = data["value"]
        self.lo, self.hi = lo, hi
        self.start = np.clip(self.raw_start, lo, hi)
        self.end = np.clip(self.raw_end, lo, hi)
        self.duration = self.end - self.start
        self.self_time = self_times(self.duration, self.parent)

    def __len__(self) -> int:
        return len(self.name_id)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name`` (children included)."""
        return float(self.duration[self.mask(name)].sum())

    def self_total(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def values(self, name: str) -> np.ndarray:
        return self.value[self.mask(name)]

    def durations(self, name: str) -> np.ndarray:
        """Unclipped per-span durations (for percentiles)."""
        m = self.mask(name)
        return self.raw_end[m] - self.raw_start[m]

    def top_level_total(self) -> float:
        return float(self.duration[self.parent < 0].sum())

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent (must be 0)."""
        child = np.flatnonzero(self.parent >= 0)
        par = self.parent[child]
        bad = (self.raw_start[child] < self.raw_start[par]) | (
            self.raw_end[child] > self.raw_end[par]
        )
        return int(bad.sum())


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered
