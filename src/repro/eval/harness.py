"""Experiment harness: run a cleaning system over a trace and score it.

Used by the benchmark suite and the examples.  A *system* is anything that
turns a trace's epochs into per-object location estimates: the factored
filter (always through the sharded runtime), the naive particle-filter
pipeline, the improved-SMURF baseline, or the uniform sampler.  The harness
runs it, times it (per-reading, the paper's throughput metric), collects
final estimates, and computes the inference error against the trace's
ground truth.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..baselines.smurf_location import SmurfLocationConfig, SmurfLocationEstimator
from ..baselines.uniform import UniformConfig, UniformSampler
from ..config import InferenceConfig, OutputPolicyConfig, RuntimeConfig
from ..geometry.shapes import ShelfSet
from ..inference.naive import NaiveParticleFilter
from ..inference.pipeline import CleaningPipeline
from ..models.joint import RFIDWorldModel
from ..runtime import QueryBridge, ShardedRuntime
from ..streams.sinks import CollectingSink
from ..streams.sources import Trace
from .metrics import ErrorSummary, inference_error


@dataclass
class SystemResult:
    """Everything measured from one system on one trace."""

    name: str
    estimates: Dict[int, np.ndarray]
    error: Optional[ErrorSummary]
    elapsed_s: float
    n_readings: int
    n_epochs: int
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def time_per_reading_ms(self) -> float:
        """The paper's Fig 5(j) metric."""
        if self.n_readings == 0:
            return 0.0
        return 1000.0 * self.elapsed_s / self.n_readings


def final_estimates_from_sink(sink: CollectingSink) -> Dict[int, np.ndarray]:
    """Latest emitted location per object tag number."""
    return {
        tag.number: event.array for tag, event in sink.latest_by_tag().items()
    }


def _query_extras(engine) -> Dict[str, float]:
    """Flatten a query engine's serving stats into ``extra`` keys.

    Works for the plain :class:`~repro.query.engine.QueryEngine` (queries +
    ticks only) and the multiplexer (shared-operator, cache, and latency
    counters on top).
    """
    stats = engine.stats() if hasattr(engine, "stats") else {}
    extras = {
        f"query_{key}": float(value)
        for key, value in stats.items()
        if isinstance(value, (int, float))
    }
    extras["query_emissions"] = float(
        sum(len(outputs) for outputs in engine.outputs.values())
    )
    return extras


def _score(
    estimates: Dict[int, np.ndarray], trace: Trace
) -> Optional[ErrorSummary]:
    if trace.truth is None:
        return None
    truth = trace.truth.final_object_locations()
    # Score only objects the trace actually observed at least once: unread
    # objects are invisible to every system (Case 3 of the paper).
    observed = set(trace.object_tag_numbers())
    scorable = sorted(set(truth) & observed & set(estimates))
    if not scorable:
        return None
    return inference_error(estimates, truth, numbers=scorable)


def _timed_run(name: str, trace: Trace, run, engine=None) -> SystemResult:
    """Time ``run(epochs)`` (it returns the collecting sink) and score it.

    Scores the *emitted events* (latest per tag), not the engine's state at
    trace end: the paper outputs an event shortly after an object is in
    scope precisely because the belief later diffuses under the object
    movement model (alpha per epoch) once the reader moves away.  Objects
    ``engine`` knows that never emitted fall back to its estimate.
    """
    epochs = trace.epochs()
    start = _time.perf_counter()
    sink = run(epochs)
    elapsed = _time.perf_counter() - start
    assert isinstance(sink, CollectingSink)
    estimates = final_estimates_from_sink(sink)
    if engine is not None:
        for n in engine.known_objects():
            if n not in estimates:
                estimates[n] = engine.object_estimate(n).mean
    return SystemResult(
        name=name,
        estimates=estimates,
        error=_score(estimates, trace),
        elapsed_s=elapsed,
        n_readings=trace.n_readings,
        n_epochs=len(epochs),
    )


def run_factored(
    trace: Trace,
    model: RFIDWorldModel,
    config: InferenceConfig = InferenceConfig(),
    policy: OutputPolicyConfig = OutputPolicyConfig(),
    initial_heading: float = 0.0,
    name: str = "factored",
    query_engine=None,
    runtime_config: RuntimeConfig = RuntimeConfig(),
) -> SystemResult:
    """Run the factored filter over a trace through the sharded runtime
    (epochs -> shards -> event bus).

    The default ``runtime_config`` is one serial shard, which keeps the root
    seed and so emits exactly what a bare
    :class:`~repro.inference.pipeline.CleaningPipeline` would.  ``extra``
    reports per-shard statistics (``shard<i>_*``) and their whole-run totals
    under the plain key (belief memory, arena health, every engine counter,
    the adaptive budget's tier census), so scalability sweeps can see how
    evenly the partitioner spread the population.  ``query_engine`` (a
    :class:`~repro.query.engine.QueryEngine`, usually the multiplexer) is
    bridged to the event bus, so the timed run includes serving the
    standing queries, and reports ``query_*`` extras.
    """
    runtime = ShardedRuntime(
        model, config, runtime_config, policy, initial_heading=initial_heading
    )
    if query_engine is not None:
        QueryBridge(query_engine, runtime.bus, runtime=runtime)
    result = _timed_run(name, trace, runtime.run, runtime)
    extra = result.extra
    extra.update(
        n_shards=float(runtime.n_shards),
        events_published=float(runtime.bus.published),
        # Deployment shape: worker processes backing the run (0 = in-process
        # executor; local and remote shards are both worker processes).
        # Stats below come from the shards either way — worker proxies
        # answer from what they cached at finish.
        worker_processes=float(
            runtime.n_shards if runtime_config.executor != "serial" else 0
        ),
    )
    rows = runtime.shard_stats()
    for row in rows:
        index = int(row["shard"])
        for key, value in row.items():
            if key != "shard":
                extra[f"shard{index}_{key}"] = value
    extra.update(runtime.shard_totals(rows))
    if query_engine is not None:
        extra.update(_query_extras(query_engine))
    return result


def run_naive(
    trace: Trace,
    model: RFIDWorldModel,
    config: InferenceConfig = InferenceConfig(),
    n_particles: Optional[int] = None,
    initial_heading: float = 0.0,
    name: str = "naive",
) -> SystemResult:
    """Run the unfactorized joint particle filter over a trace (on a bare
    cleaning pipeline: the joint filter does not shard)."""
    engine = NaiveParticleFilter(
        model, config, n_particles=n_particles, initial_heading=initial_heading
    )
    pipeline = CleaningPipeline(engine, OutputPolicyConfig(), CollectingSink())
    return _timed_run(name, trace, pipeline.run, engine)


def run_smurf(
    trace: Trace,
    shelves: ShelfSet,
    config: SmurfLocationConfig = SmurfLocationConfig(),
    name: str = "smurf",
) -> SystemResult:
    """Run improved SMURF (presence smoothing + location sampling)."""
    return _timed_run(name, trace, SmurfLocationEstimator(shelves, config).run)


def run_uniform(
    trace: Trace,
    shelves: ShelfSet,
    config: UniformConfig = UniformConfig(),
    name: str = "uniform",
) -> SystemResult:
    """Run the worst-case uniform-sampling baseline."""
    return _timed_run(name, trace, UniformSampler(shelves, config).run)
