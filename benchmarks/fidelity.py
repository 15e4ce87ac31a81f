"""Fidelity ledger: the paper's Section V experiments over ten seeds, with its
shape claims as named checks.

    python benchmarks/fidelity.py                              # writes BENCH_fidelity.json
    python benchmarks/fidelity.py --check BENCH_fidelity.json  # re-runs seeds 0-2 against it

One experiment is one entry of ``EXPERIMENTS``: a sweep ``seed -> {series:
{x: value}}`` plus the named checks its seed means must satisfy.  Seed ``s``
shifts every simulator seed by ``1000 * s`` and seeds the filters and
baselines with ``s``; seed 0 is the configuration the earlier one-seed figure
scripts ran.  Every row is stored with its per-seed values, mean, std, min,
max and quartiles, every check with whether it holds.  The seeds are also the
repeats of the timing experiments at scale (hot loop, sharding, checkpoint,
query serving, ingest).

``--check`` re-runs the first ``CHECK_SEEDS`` seeds and fails when a check's
holds/fails status differs from the ledger's, or when a row's fresh mean
leaves the ledger's per-seed [min, max].  Timing rows (an experiment's
``timing`` series) are judged only through their checks and, where the
experiment bounds them (``relative``), by a relative floor or ceiling: the
fresh mean may not fall more than the stated share under the committed mean
of the same seeds (higher is better) or rise more than it over (lower is
better).

Writing keeps the replaced ledger's ``workloads`` rows (the e2e benchmark's
four workloads, scored from ``bench.Session``'s in-process reference run) as
``before``, with that ledger's provenance, and judges each row's move with
``bench.judge``; when no bit of them moved, the replaced ledger's own
``before`` and verdicts stay.  A ledger written from a dirty tree names the
code it measured by the sha256 of ``git diff HEAD -- src benchmarks``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from tempfile import TemporaryDirectory
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import bench  # noqa: E402  (puts this checkout's src/ first on sys.path)
from bench import Session, judge, percentile, provenance, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

from repro import cli  # noqa: E402
from repro.baselines.smurf_location import SmurfLocationConfig  # noqa: E402
from repro.baselines.uniform import UniformConfig  # noqa: E402
from repro.config import (  # noqa: E402
    ACCURACY_REQUIREMENT_FT,
    LARGE_SHELF_DEPTH_FT,
    SMALL_SHELF_DEPTH_FT,
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    ServeConfig,
)
from repro.eval import mean_error_reduction, run_factored, run_naive, run_smurf, run_uniform  # noqa: E402
from repro.eval.report import format_table  # noqa: E402
from repro.geometry.box import Box  # noqa: E402
from repro.geometry.shapes import ShelfRegion, ShelfSet  # noqa: E402
from repro.inference.factored import FactoredParticleFilter  # noqa: E402
from repro.learning.em import EMConfig, calibrate  # noqa: E402
from repro.learning.logistic import field_of_truth_sensor, fit_sensor_to_field  # noqa: E402
from repro.models import RFIDWorldModel, SensorModel, config_for_sensor  # noqa: E402
from repro.models.motion import MotionParams  # noqa: E402
from repro.models.sensing import SensingNoiseParams  # noqa: E402
from repro.models.sensor import SensorParams, field_correlation  # noqa: E402
from repro.query import (  # noqa: E402
    MultiplexedQueryEngine,
    QueryEngine,
    fire_code_query,
    location_update_query,
    standing_region_queries,
)
from repro.query.tuples import StreamTuple  # noqa: E402
from repro.runtime import ShardedRuntime  # noqa: E402
from repro.runtime.transport import ShardHostServer  # noqa: E402
from repro.serve import ReplaySource, ReproService  # noqa: E402
from repro.simulation.lab import LabConfig, LabDeployment  # noqa: E402
from repro.simulation.layout import LayoutConfig  # noqa: E402
from repro.simulation.movement import single_group_move  # noqa: E402
from repro.simulation.truth_sensor import ConeTruthSensor  # noqa: E402
from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator  # noqa: E402
from repro.state import restore_runtime, save_checkpoint  # noqa: E402
from repro.streams.records import make_epoch  # noqa: E402

LEDGER = bench.ROOT / "BENCH_fidelity.json"
SEEDS = 10
CHECK_SEEDS = 3

#: One seed's sweep output: series name -> x label -> value.
Series = Dict[str, Dict[str, Any]]
#: Seed means of the numeric rows, same shape.
Means = Dict[str, Dict[str, float]]
#: Aggregated rows: series name -> x label -> {values, mean, std, ...}.
Rows = Dict[str, Dict[str, Dict[str, Any]]]


@dataclass(frozen=True)
class Experiment:
    name: str
    title: str
    sweep: Callable[[int], Series]
    checks: Dict[str, Callable[[Means], bool]]
    #: Series measured in wall-clock time: never range-checked.
    timing: Tuple[str, ...] = ()
    #: Timing series -> (which way is better, the share by which the fresh
    #: mean may move the other way from the committed mean).
    relative: Dict[str, Tuple[str, float]] = field(default_factory=dict)


def warehouse(base_seed: int, seed: int, **config: Any) -> WarehouseSimulator:
    return WarehouseSimulator(WarehouseConfig(seed=base_seed + 1000 * seed, **config))


def infer(reader_particles: int, object_particles: int, seed: int) -> InferenceConfig:
    return InferenceConfig(reader_particles=reader_particles, object_particles=object_particles, seed=seed)


def fitted(truth_sensor) -> SensorParams:
    """A simulator sensor's logistic projection: the in-family model of it."""
    return fit_sensor_to_field(field_of_truth_sensor(truth_sensor), max_distance=4.5).sensor_params


@lru_cache(maxsize=None)
def true_sensor(rr_major: float) -> SensorParams:
    """The paper's "true sensor model" of the warehouse's cone reader."""
    return fitted(ConeTruthSensor(rr_major=rr_major))


def uniform_xy(trace, shelves, seed: int) -> float:
    return run_uniform(trace, shelves, UniformConfig(seed=seed)).error.xy


EM_CFG = EMConfig(iterations=3, posterior_samples=3, inference=infer(100, 250, 0))


def learned_sensor(sim: WarehouseSimulator, trace, n_known: int, seed: int) -> SensorParams:
    known = dict(list(sim.layout.object_positions.items())[:n_known])
    return calibrate(trace, sim.layout.shelves, known, replace(EM_CFG, seed=seed)).sensor_params


# --- Fig 5(a)-(h) ----------------------------------------------------------
PROBES = ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (2.0, math.radians(20)), (2.0, math.radians(45)))


def manifold_correlation(model_a: SensorModel, model_b: SensorModel, shelf_x: float = 2.0) -> float:
    """Field correlation where the data is: tags ``shelf_x`` across the aisle
    are seen at d = shelf_x / cos(theta)."""
    dys = np.linspace(-3.0, 3.0, 61)
    ds, thetas = np.hypot(shelf_x, dys), np.arctan2(np.abs(dys), shelf_x)
    pa, pb = model_a.read_probability(ds, thetas), model_b.read_probability(ds, thetas)
    va, vb = pa - pa.mean(), pb - pb.mean()
    denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
    return float(va @ vb / denom) if denom else 0.0


def fig5ad(seed: int) -> Series:
    sim = warehouse(101, seed, layout=LayoutConfig(n_objects=20, n_shelf_tags=0))
    trace = sim.generate()
    true = SensorModel(true_sensor(1.0))
    learned = {f"learned, {n} tags": SensorModel(learned_sensor(sim, trace, n, seed)) for n in (20, 4, 0)}
    out: Series = {
        "manifold corr vs true": {k: manifold_correlation(m, true) for k, m in learned.items()},
        "grid corr vs true": {k: field_correlation(m, true) for k, m in learned.items()},
    }
    lab_reader = SensorModel(fitted(LabDeployment(LabConfig(seed=7)).sensor_for_timeout(0.25)))  # Fig 5(d)
    models = {"true": true, **learned, "lab reader": lab_reader}
    for d, theta in PROBES:
        out[f"p(read) d={d:g} th={math.degrees(theta):.0f}"] = {
            k: float(m.read_probability(d, theta)) for k, m in models.items()
        }
    return out


ANCHORS = (0, 4, 8, 12, 20)


def fig5e(seed: int) -> Series:
    train_sim = warehouse(201, seed, layout=LayoutConfig(n_objects=20, n_shelf_tags=0))
    test_sim = warehouse(202, seed, layout=LayoutConfig(n_objects=10, n_shelf_tags=4))
    train, test = train_sim.generate(), test_sim.generate()

    def error(sensor: SensorParams) -> float:
        return run_factored(test, test_sim.world_model(sensor_params=sensor), infer(120, 400, seed)).error.xy

    return {
        "learned model": {str(n): error(learned_sensor(train_sim, train, n, seed)) for n in ANCHORS},
        "true model": {"-": error(true_sensor(1.0))},
        "uniform": {"-": uniform_xy(test, test_sim.layout.shelves, seed)},
    }


def fig5f(seed: int) -> Series:
    out: Series = defaultdict(dict)
    for rr in (1.0, 0.8, 0.6, 0.5):
        layout = LayoutConfig(n_objects=16, n_shelf_tags=4)
        sim = warehouse(301, seed, layout=layout, sensor=ConeTruthSensor(rr_major=rr))
        trace = sim.generate()
        model = sim.world_model(sensor_params=true_sensor(rr))
        out["inference"][f"{rr:.0%}"] = run_factored(trace, model, infer(120, 400, seed)).error.xy
        out["uniform"][f"{rr:.0%}"] = uniform_xy(trace, sim.layout.shelves, seed)
    return out


SIGMA_Y = 0.2


def fig5g(seed: int) -> Series:
    sensor = true_sensor(1.0)
    em = replace(EM_CFG, iterations=2, inference=infer(100, 200, 0), seed=seed)
    out: Series = defaultdict(dict)
    for bias in (0.1, 0.5, 1.0):
        layout = LayoutConfig(n_objects=12, n_shelf_tags=4)
        scene = dict(layout=layout, location_bias=(0.0, bias, 0.0), location_sigma=(0.05, SIGMA_Y, 0.0))
        sim, train_sim = warehouse(401, seed, **scene), warehouse(402, seed, **scene)
        trace, train = sim.generate(), train_sim.generate()

        def error(sensing: SensingNoiseParams) -> float:
            model = sim.world_model(sensor_params=sensor, sensing_params=sensing)
            return run_factored(trace, model, infer(200, 500, seed)).error.xy

        layout = train_sim.layout
        learned = calibrate(train, layout.shelves, layout.shelf_tag_positions, em, initial_sensor=sensor)
        x = f"{bias:g}"
        out["uniform"][x] = uniform_xy(trace, sim.layout.shelves, seed)
        # Off: the model believes zero bias and (near-)zero noise, so its
        # particles pin to the biased reports.
        out["off"][x] = error(SensingNoiseParams(mean=(0, 0, 0), sigma=(0.02, 0.02, 0.0)))
        out["learned"][x] = error(learned.sensing_params)
        out["true"][x] = error(SensingNoiseParams(mean=(0.0, bias, 0.0), sigma=(0.05, SIGMA_Y, 0.0)))
    return out


DISTANCES = (0.5, 2.0, 4.0, 8.0, 16.0)
MOVED = (3, 4)  # the "case of objects"


def fig5h(seed: int) -> Series:
    # 26 objects 1 ft apart: room to move 16 ft along the row.
    layout = LayoutConfig(n_objects=26, object_spacing_ft=1.0, n_shelf_tags=4)
    out: Series = defaultdict(dict)
    for distance in DISTANCES:
        move = single_group_move(150, MOVED, distance)
        sim = warehouse(501, seed, layout=layout, n_rounds=2, moves=(move,))
        trace = sim.generate()
        truth = trace.truth.final_object_locations()
        model = sim.world_model(sensor_params=true_sensor(1.0), random_walk_motion=True)
        results = {
            "inference": run_factored(trace, model, infer(120, 400, seed)),
            "uniform": run_uniform(trace, sim.layout.shelves, UniformConfig(seed=seed)),
        }
        for name, result in results.items():
            errors = [np.hypot(*(result.estimates[n][:2] - truth[n][:2])) for n in MOVED]
            out[name][f"{distance:g}"] = float(np.mean(errors))
    return out


# --- Fig 5(i)/(j): one run per (variant, object count, seed) yields both ---
VARIANTS = {
    "naive": lambda c: c,
    "factored": lambda c: c,
    "indexed": lambda c: c.with_index(),
    "compressed": lambda c: c.with_index().with_compression(unread_epochs=30),
}
FACTORED_VARIANTS = ("factored", "indexed", "compressed")
#: The joint filter (2500 joint particles) runs only this small: the paper's
#: also "managed to finish" only bounded configurations.
NAIVE_MAX_OBJECTS = 20


def fig5ij(seed: int) -> Series:
    out: Series = defaultdict(dict)
    for n in (10, 50, 200):
        layout = LayoutConfig(n_objects=n, object_spacing_ft=0.2, n_shelf_tags=max(4, n // 50))
        sim = warehouse(601, seed, layout=layout, n_rounds=2)
        trace = sim.generate()
        model = sim.world_model(sensor_params=true_sensor(1.0), random_walk_motion=True)
        for variant, configure in VARIANTS.items():
            config = configure(infer(100, 300, seed))
            if variant != "naive":
                result = run_factored(trace, model, config)
            elif n <= NAIVE_MAX_OBJECTS:
                result = run_naive(trace, model, config, n_particles=2500)
            else:
                continue
            out[f"{variant} error"][str(n)] = result.error.xy
            out[f"{variant} ms/reading"][str(n)] = result.time_per_reading_ms
    return out


# --- Fig 6(b): the lab comparison ------------------------------------------
DEPTHS = {"SS": SMALL_SHELF_DEPTH_FT, "LS": LARGE_SHELF_DEPTH_FT}
#: How close a baseline's X error must sit to half the imagined shelf depth.
HALF_DEPTH_TOLERANCE = {"SS": 0.12, "LS": 0.4}


def fig6b(seed: int) -> Series:
    lab = LabDeployment(LabConfig(seed=11 + 1000 * seed))
    out: Series = defaultdict(dict)
    pairs = []
    for label, depth in DEPTHS.items():
        shelves = lab.imagined_shelves(depth)
        for timeout in (0.25, 0.5, 0.75):
            trace = lab.generate(timeout_s=timeout)
            sensor = SensorModel(fitted(lab.sensor_for_timeout(timeout)))
            # The baselines sample over the read range's intersection with the
            # shelf; the range handed over covers the whole imagined depth (the
            # paper's SMURF X error is exactly half of it).
            read_range = max(sensor.effective_range(0.05), lab.config.shelf_x_ft + depth)
            model = lab.world_model(sensor.params, shelves)
            results = {
                "ours": run_factored(trace, model, config_for_sensor(infer(150, 300, seed), sensor)),
                "smurf": run_smurf(trace, shelves, SmurfLocationConfig(read_range_ft=read_range, seed=seed)),
                "uniform": run_uniform(trace, shelves, UniformConfig(read_range_ft=read_range, seed=seed)),
            }
            x = f"{timeout * 1000:.0f} ms {label}"
            for name, result in results.items():
                for axis in ("x", "y", "xy"):
                    out[f"{name} {axis.upper()}"][x] = getattr(result.error, axis)
            pairs.append((results["ours"].error.xy, results["smurf"].error.xy))
    out["error reduction over smurf"]["-"] = mean_error_reduction(pairs)
    return out


def x_near_half_depth(m: Means, system: str) -> bool:
    """Each row's X error sits near half its shelf's depth (row "250 ms SS": shelf SS)."""
    return all(
        abs(e - DEPTHS[x[-2:]] / 2) <= HALF_DEPTH_TOLERANCE[x[-2:]] for x, e in m[f"{system} X"].items()
    )


# --- Section V-D throughput and memory, Section II-B queries ---------------
def throughput_memory(seed: int) -> Series:
    """First scan: cold start with full particle clouds.  Second scan: the
    compressed steady state the paper's > 1500 readings/s refers to."""
    layout = LayoutConfig(n_objects=200, object_spacing_ft=0.2, n_shelf_tags=8)
    sim = warehouse(701, seed, layout=layout, location_sigma=(0.05, 0.1, 0.0), n_rounds=2)
    trace = sim.generate()
    model = sim.world_model(sensor_params=true_sensor(1.0), random_walk_motion=True)
    config = infer(100, 300, seed).with_index().with_compression(unread_epochs=20)
    engine = FactoredParticleFilter(model, config)
    epochs = trace.epochs()
    cold, steady = epochs[: len(epochs) // 2], epochs[len(epochs) // 2 :]
    t0 = perf_counter()
    for epoch in cold:
        engine.step(epoch)
    t1 = perf_counter()
    peak = engine.belief_memory_bytes()
    for epoch in steady:
        engine.step(epoch)
        peak = max(peak, engine.belief_memory_bytes())
    t2 = perf_counter()
    truth = trace.truth.final_object_locations()
    errors = [np.hypot(*(engine.object_estimate(n).mean[:2] - truth[n][:2])) for n in engine.known_objects()]
    return {
        "xy error": {"-": float(np.mean(errors))},
        "peak belief memory MB": {"-": peak / 1e6},
        "compressions": {"-": float(engine.stats["compressions"])},
        "cold readings/s": {"-": sum(e.total_readings for e in cold) / (t1 - t0)},
        "steady readings/s": {"-": sum(e.total_readings for e in steady) / (t2 - t1)},
    }


QUERY_OBJECTS = 40


def queries(seed: int) -> Series:
    sim = warehouse(801, seed, layout=LayoutConfig(n_objects=QUERY_OBJECTS, n_shelf_tags=4))
    qe = QueryEngine()
    qe.register(location_update_query())
    qe.register(fire_code_query(lambda tag: 90.0, threshold_lbs=200.0))
    result = run_factored(
        sim.generate(),
        sim.world_model(sensor_params=true_sensor(1.0)),
        infer(100, 200, seed),
        policy=OutputPolicyConfig(delay_s=30.0, movement_threshold_ft=0.5),
        query_engine=qe,
    )
    return {
        "input events": {"-": result.extra["events_published"]},
        "location updates": {"-": float(len(qe.outputs["location_updates"]))},
        "fire-code violations": {"-": float(len(qe.outputs["fire_code"]))},
    }


# --- Ablations -------------------------------------------------------------
def ablation(
    base_seed: int, seed: int, configs: Dict[str, InferenceConfig], counters: Tuple[str, ...] = (),
    walk: bool = False, **scene: Any,
) -> Series:
    """Error, ms/reading and the named engine ``counters`` of each config."""
    sim = warehouse(base_seed, seed, **scene)
    trace = sim.generate()
    model = sim.world_model(sensor_params=true_sensor(1.0), random_walk_motion=walk)
    out: Series = defaultdict(dict)
    for name, config in configs.items():
        result = run_factored(trace, model, config)
        out["error"][name] = result.error.xy
        out["ms/reading"][name] = result.time_per_reading_ms
        for counter in counters:
            out[counter][name] = result.extra[counter]
    return out


def ablation_compression(seed: int) -> Series:
    """Section IV-D's two policies, and the decompressed particle count."""
    base = infer(100, 300, seed).with_index()
    configs = {
        "no compression": base,
        "unread-20": base.with_compression(unread_epochs=20),
        "unread-20 + KL<0.5": base.with_compression(unread_epochs=20, kl_threshold=0.5),
        **{
            f"decompress to {k}": base.with_compression(unread_epochs=20, decompressed_particles=k)
            for k in (5, 10, 30)
        },
    }
    layout = LayoutConfig(n_objects=40, object_spacing_ft=0.3, n_shelf_tags=4)
    return ablation(902, seed, configs, ("compressions",), walk=True, layout=layout, n_rounds=2)


def ablation_index(seed: int) -> Series:
    configs = {"plain": infer(100, 300, seed), "indexed": infer(100, 300, seed).with_index()}
    layout = LayoutConfig(n_objects=100, object_spacing_ft=0.25, n_shelf_tags=4)
    return ablation(903, seed, configs, ("objects_processed",), layout=layout, n_rounds=2)


def ablation_particles(seed: int) -> Series:
    configs = {str(k): infer(100, k, seed) for k in (10, 50, 200, 1000)}
    return ablation(904, seed, configs, layout=LayoutConfig(n_objects=12, n_shelf_tags=4))


def ablation_resampling(seed: int) -> Series:
    """Reader resampling that favours reader particles with good object
    particles, on and off, under reader-location noise."""
    configs = {"on": infer(120, 300, seed), "off": replace(infer(120, 300, seed), reader_feedback=False)}
    scene = dict(location_bias=(0.0, 0.4, 0.0), location_sigma=(0.05, 0.2, 0.0))
    return ablation(901, seed, configs, layout=LayoutConfig(n_objects=12, n_shelf_tags=4), **scene)


# --- Section V-D at scale: one shelf row, every tag discovered, 16 rotating reads per epoch ---
READS = 16
#: No event formatting in a timed epoch: inference, routing and merge only.
QUIET = OutputPolicyConfig(delay_s=1e9, on_scan_complete=False)


def shelf_row(n: int) -> RFIDWorldModel:
    """One long shelf row sized to ``n`` tags, two shelf anchor tags."""
    length = max(8.0, n * 0.05)
    return RFIDWorldModel.build(
        ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, length, 0.0)))]),
        shelf_tags={0: np.array([2.0, 1.0, 0.0]), 1: np.array([2.0, length - 1.0, 0.0])},
        sensor_params=SensorParams(a=(4.0, 0.0, -0.9), b=(0.0, -6.0)),
        motion_params=MotionParams(velocity=(0.0, 0.1, 0.0), sigma=(0.01, 0.01, 0.0)),
        sensing_params=SensingNoiseParams(sigma=(0.01, 0.01, 0.0)),
    )


def row_epoch(t: int, n: int, speed: float = 0.1, reads: int = READS):
    """Epoch ``t`` of the shelf-row stream: epoch 0 reads all ``n`` tags, each
    later one ``reads`` rotating tags; the reader moves ``speed`` ft an epoch."""
    tags = range(n) if t == 0 else [(t * reads + i) % n for i in range(reads)]
    return make_epoch(float(t), (0.0, 1.0 + speed * t), object_tags=list(tags), reported_heading=0.0)


def seconds(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[float, Any]:
    """Wall time of one call and its result; as in ``timeit``, no cyclic
    garbage collection inside the timed span."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        result = fn(*args, **kwargs)
        return perf_counter() - start, result
    finally:
        gc.enable()


def rate(step: Callable[[Any], Any], epochs: Sequence[Any]) -> float:
    """Epochs per second of ``step`` over ``epochs``."""
    return len(epochs) / seconds(lambda: [step(epoch) for epoch in epochs])[0]


def steady_rate(step: Callable[[Any], Any], n: int, epochs: int, start: int = 0) -> float:
    """Discovery (epoch 0) and 3 warm-up epochs untimed from epoch ``start``
    on, then ``epochs`` timed."""
    for t in range(start, 4):
        step(row_epoch(t, n))
    return rate(step, [row_epoch(t, n) for t in range(4, 4 + epochs)])


def adaptive(n: int, seed: int, dtype: str, timed: int) -> Tuple[FactoredParticleFilter, float]:
    """Adaptive budgets: a sweep dwells 2 epochs on each 50-tag chunk, then a
    window of movers (1 % of the tags, 16 to 200) slides 4 tags an epoch while
    the rest park; 50 settle-in epochs, then ``timed`` timed ones."""
    config = infer(100, 100, seed).with_budget(settle_error_sq_ft=2.0, force_park_after_epochs=24)
    engine = FactoredParticleFilter(shelf_row(n), replace(config, arena=replace(config.arena, dtype=dtype)))
    chunks, movers = max(1, n // 50), min(max(16, n // 100), 200)
    spacing = max(8.0, n * 0.05) / chunks
    plan = [((c + 0.5) * spacing, range(50 * c, min(50 * c + 50, n))) for c in range(chunks) for _ in range(2)]
    for i in range(50 + timed):
        window = [(4 * i + j) % n for j in range(movers)]
        plan.append(((window[0] // 50 + 0.5) * spacing, window))
    epochs = [make_epoch(float(t), (0.0, y), list(tags), reported_heading=0.0) for t, (y, tags) in enumerate(plan)]
    for epoch in epochs[:-timed]:
        engine.step(epoch)
    return engine, rate(engine.step, epochs[-timed:])


def hot_loop(seed: int) -> Series:
    """The factored filter alone, index off: every tag active every epoch."""
    out: Series = defaultdict(dict)
    for n, epochs in ((100, 60), (500, 30), (2000, 10)):
        engine = FactoredParticleFilter(shelf_row(n), infer(100, 100, seed))
        out["epochs/s"][str(n)] = steady_rate(engine.step, n, epochs)
        assert engine.active_count == n, "population fell out of the active set"
    for n, dtype, epochs in ((2000, "float64", 60), (10_000, "float32", 40)):
        engine, out["epochs/s"][f"{n} adaptive {dtype}"] = adaptive(n, seed, dtype, epochs)
        out["active objects"][f"{n} adaptive {dtype}"] = float(engine.active_count)
    return out


@contextmanager
def shard_host():
    server = ShardHostServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        thread.join(5.0)


#: Tags -> (shards, executor, timed epochs).
SHARD_ROWS = {
    2000: [(k, ex, 6) for k in (1, 2, 4) for ex in ("serial", "process", "remote")],
    10_000: [(1, "serial", 3), (4, "process", 3)],
}


def sharding(seed: int) -> Series:
    """The runtime, router -> shards -> bus, per shard count and executor, each
    restored from one discovered population.  Kernel work is constant, so
    serial rows price the partitioning; the worker executors' speedup is
    bounded by the stamp's ``cpu_count``."""
    out: Series = defaultdict(dict)
    with shard_host() as host, TemporaryDirectory() as scratch:
        for n, rows in SHARD_ROWS.items():
            model, path = shelf_row(n), f"{scratch}/{n}"
            runtime = ShardedRuntime(model, infer(100, 100, seed), RuntimeConfig(), QUIET)
            runtime.step(row_epoch(0, n))
            runtime.checkpoint(path)
            runtime.abort()
            for shards, executor, epochs in rows:
                hosts = (host,) if executor == "remote" else None
                layout = RuntimeConfig(n_shards=shards, executor=executor, shard_hosts=hosts)
                runtime, _ = restore_runtime(path, model, layout)
                try:
                    out[f"epochs/s @ {n} tags"][f"{shards} {executor}"] = steady_rate(runtime.step, n, epochs, 1)
                    assert len(runtime.known_objects()) == n, "population fell out of the shards"
                finally:
                    runtime.abort()
            rates = out[f"epochs/s @ {n} tags"]
            out[f"x 1 serial @ {n} tags"] = {x: r / rates["1 serial"] for x, r in rates.items()}
    return out


def checkpoint(seed: int) -> Series:
    """Full rows: a checkpoint of 2 000 tags after 11 epochs, its restore and a
    re-shard to 2.  Delta rows: the index retires a travelled-past population,
    16 tags an epoch are read for 10 epochs, then delta and full saves of one
    state.  Every save fsyncs the file and its directory."""
    out: Series = defaultdict(dict)
    with TemporaryDirectory() as scratch:
        model = shelf_row(2000)
        for shards in (1, 4):
            path, x = f"{scratch}/full{shards}", f"{shards} shards"
            runtime = ShardedRuntime(model, infer(100, 100, seed), RuntimeConfig(n_shards=shards), QUIET)
            for t in range(11):
                runtime.step(row_epoch(t, 2000))
            out["full save s"][x], _ = seconds(runtime.checkpoint, path)
            runtime.abort()
            out["full MB"][x] = os.path.getsize(path) / 1e6
            for series, layout in (("restore s", None), ("reshard to 2 s", RuntimeConfig(n_shards=2))):
                out[series][x], (restored, _) = seconds(restore_runtime, path, model, runtime_config=layout)
                assert len(restored.known_objects()) == 2000
                restored.abort()
        for n in (2000, 10_000):
            model, (base, delta, full) = shelf_row(n), (f"{scratch}/{k}{n}" for k in ("base", "delta", "full"))
            runtime = ShardedRuntime(model, infer(100, 100, seed).with_index(), RuntimeConfig(), QUIET)
            for t in range(25):  # travel past: the index retires the population
                runtime.step(row_epoch(t, n, speed=2.0, reads=0))
            save_checkpoint(runtime, base)
            for t in range(25, 35):
                runtime.step(row_epoch(t, n, speed=2.0))
            out["delta save s"][str(n)], _ = seconds(save_checkpoint, runtime, delta, mode="delta", parent=base)
            full_s, _ = seconds(save_checkpoint, runtime, full)
            runtime.abort()
            out["delta save speedup"][str(n)] = full_s / out["delta save s"][str(n)]
            out["delta bytes ratio"][str(n)] = os.path.getsize(full) / os.path.getsize(delta)
            out["chain restore s"][str(n)], (restored, _) = seconds(restore_runtime, delta, model)
            assert len(restored.known_objects()) == n
            restored.abort()
    return out


FLOOR_FT = 60.0


def cleaned_stream(seed: int, ticks: int = 12, n: int = 2000, movers: int = 64) -> List[StreamTuple]:
    """What the output policy emits downstream: ``movers`` of ``n`` tags
    random-walking a ``FLOOR_FT`` square floor move each tick."""
    rng = np.random.default_rng(5 + 1000 * seed)
    pos = rng.uniform(0.0, FLOOR_FT, size=(n, 2))
    out = []
    for k in range(ticks):
        for i in rng.choice(n, size=movers, replace=False):
            pos[i] = np.clip(pos[i] + rng.normal(0.0, 2.0, 2), 0.0, FLOOR_FT)
            row = {"tag_id": f"object:{i}", "x": float(pos[i][0]), "y": float(pos[i][1]), "z": 0.0}
            out.append(StreamTuple(float(k), row))
    return out


def served(engine: QueryEngine, tuples: Sequence[StreamTuple], n_queries: int) -> Tuple[float, Dict[str, Any]]:
    """Seconds to serve ``tuples`` to ``n_queries`` standing region queries
    and the location-update query, and every query's emissions."""
    engine.register(location_update_query())
    for query in standing_region_queries(n_queries, ((0.0, 0.0), (FLOOR_FT, FLOOR_FT))):
        engine.register(query)
    elapsed, _ = seconds(lambda: ([engine.push(tup) for tup in tuples], engine.finish()))
    return elapsed, {name: [(t.time, sorted(t.items())) for t in ts] for name, ts in engine.outputs.items()}


def relation_tick_us(n: int, ticks: int = 100) -> float:
    """One location-update tick that changes one tag, ``n`` tags in the
    window (multiplexed engine, best of 3 runs: interference only adds)."""
    engine = MultiplexedQueryEngine()
    engine.register(location_update_query())
    for i in range(n):
        engine.push(StreamTuple(0.0, {"tag_id": f"object:{i}", "x": float(i), "y": 0.0, "z": 0.0}))
    engine.finish()
    best = math.inf
    for run in range(3):
        moves = [StreamTuple(float(k), {"tag_id": f"object:{k * 7919 % n}", "x": -float(k), "y": 0.0, "z": 0.0})
                 for k in range(run * ticks + 1, (run + 1) * ticks + 1)]
        best = min(best, seconds(lambda: ([engine.push(tup) for tup in moves], engine.finish()))[0])
    assert len(engine.outputs["location_updates"]) == n + 3 * ticks
    return best / ticks * 1e6


def query_serving(seed: int) -> Series:
    """Standing region queries tiling the floor: the multiplexer per fan-out,
    and the stock engine (which evaluates each query alone) as its oracle."""
    tuples, out = cleaned_stream(seed), defaultdict(dict)
    for n in (1, 100, 1000):
        elapsed, emitted = served(MultiplexedQueryEngine(), tuples, n)
        count = sum(map(len, emitted.values()))
        out["emissions"][str(n)] = float(count)
        out["multiplexer emissions/s"][str(n)] = count / elapsed
        if n <= 100:  # the stock engine takes about 1.7 s a tick at 1 000
            stock_s, stock = served(QueryEngine(), tuples, n)
            out["stock emissions/s"][str(n)] = count / stock_s
            out["emissions equal the stock engine's"][str(n)] = float(emitted == stock)
    out["relation tick us"] = {str(n): relation_tick_us(n) for n in (200, 2000, 20_000)}
    return out


def serve_trace(trace, model, config, n_sources: int, serve: ServeConfig, workdir: str) -> Dict[str, Any]:
    """One replay of ``trace`` from ``n_sources`` socket clients through a
    fresh in-process service."""
    log = f"{workdir}/emissions_{n_sources}_{serve.queue_capacity}.jsonl"
    service = ReproService(
        model, inference=config, runtime=RuntimeConfig(n_shards=2), policy=OutputPolicyConfig(delay_s=5.0),
        serve=serve, socket_path=f"{workdir}/{n_sources}.sock", emissions_path=log,
    )

    async def replay():
        ready = asyncio.Event()
        task = asyncio.create_task(service.run_async(ready))
        await ready.wait()
        start = perf_counter()
        report = await ReplaySource(service.socket_path, trace, n_sources=n_sources).run_async()
        await asyncio.wait_for(task, timeout=600)
        return perf_counter() - start, report

    wall, report = asyncio.run(replay())
    latencies = list(service._latencies) or [0.0]
    return {
        "reads/s": sum(r["sent"] for r in report.values()) / wall,
        "p50 ms": percentile(latencies, 50) * 1e3,
        "p99 ms": percentile(latencies, 99) * 1e3,
        "digest": hashlib.sha256(Path(log).read_bytes()).hexdigest(),
        "counters": service.ingest.counters,
    }


def ingest(seed: int) -> Series:
    """``repro serve`` over a socket: 1 / 8 / 64 clients, and 8 flooding a
    small server (16-frame queues, pause high-water 12) so the credit windows
    and the global PAUSE drag throughout.  Flow control never changes data."""
    layout = LayoutConfig(n_objects=10, n_shelf_tags=2)
    trace = warehouse(7, seed, layout=layout, sensor=ConeTruthSensor(rr_major=0.9), n_rounds=2).generate()
    model, _, sensor = cli._default_model(trace)
    config = config_for_sensor(infer(60, 120, seed), sensor)
    wide = ServeConfig(epoch_length=1.0, queue_capacity=64, credit_batch=8)
    small = replace(wide, queue_capacity=16, credit_batch=4, pause_high_water=12, pause_low_water=4)
    with TemporaryDirectory() as workdir:
        runs = {f"{n} clients": serve_trace(trace, model, config, n, wide, workdir) for n in (1, 8, 64)}
        runs["backpressure"] = serve_trace(trace, model, config, 8, small, workdir)
    out: Series = defaultdict(dict)
    for x, run in runs.items():
        for series in ("reads/s", "p50 ms", "p99 ms"):
            out[series][x] = run[series]
        out["p99 >= p50"][x] = float(run["p99 ms"] >= run["p50 ms"])
    counters = runs["backpressure"]["counters"]
    out["pauses"]["backpressure"] = float(counters.pauses)
    out["backpressure pauses, resumes each, stays bounded"]["-"] = float(
        0 < counters.pauses == counters.resumes and counters.peak_buffered <= 8 * small.queue_capacity
    )
    out["distinct emission logs"]["-"] = float(len({run["digest"] for run in runs.values()}))
    out["emission sha256"]["-"] = runs["1 clients"]["digest"]
    return out


# --- The e2e benchmark's workloads, scored from its in-process reference run ---
@contextmanager
def captured_fits():
    """The supervised sensor fits ``cli._default_model`` makes meanwhile."""
    fits: List[Any] = []
    fit = cli.fit_sensor_supervised

    def capture(*args: Any, **kwargs: Any) -> Any:
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    cli.fit_sensor_supervised = capture
    try:
        yield fits
    finally:
        cli.fit_sensor_supervised = fit


def last_report_errors(session: Session) -> np.ndarray:
    """Planar error of each object's last reported location vs where it ends."""
    last = {}
    for line in session.ref_lines:
        doc = json.loads(line)
        if doc["query"] == "location_updates" and doc["row"]["tag_id"].startswith("object:"):
            last[int(doc["row"]["tag_id"].split(":")[1])] = (doc["row"]["x"], doc["row"]["y"])
    final = session.trace.truth.final_object_locations()
    return np.array([math.hypot(x - final[n][0], y - final[n][1]) for n, (x, y) in last.items()])


def workloads(seed: int) -> Series:
    out: Series = defaultdict(dict)
    for workload in WORKLOADS:
        with TemporaryDirectory(prefix=".fidelity-", dir=bench.ROOT) as workdir, captured_fits() as fits:
            session = Session(workload, seed, Path(workdir))
        errors, name = last_report_errors(session), workload.name
        out["mean xy error"][name] = float(errors.mean())
        out["p50 xy error"][name] = float(np.percentile(errors, 50))
        out["p95 xy error"][name] = float(np.percentile(errors, 95))
        out["within 2 ft share"][name] = float(session.within_share)
        out["fit log-likelihood"][name] = float(fits[-1].final_log_likelihood)
        out["emission sha256"][name] = session.ref_sha
    return out


#: Workload row -> (which way it improves, sign) for the before/after
#: verdicts.  ``judge`` wants positive medians, so the (negative)
#: log-likelihood is judged negated: lower is better.
WORKLOAD_BETTER = {
    "mean xy error": ("lower", 1.0),
    "p50 xy error": ("lower", 1.0),
    "p95 xy error": ("lower", 1.0),
    "within 2 ft share": ("higher", 1.0),
    "fit log-likelihood": ("lower", -1.0),
}


# --- The table -------------------------------------------------------------
def every(m: Means, series: str, bound: Callable[[str], float]) -> bool:
    """Every point of ``series`` is below ``bound(x)``."""
    return all(v < bound(x) for x, v in m[series].items())


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("fig5ad", "Fig 5(a)-(d): learned vs true read-rate fields", fig5ad, {
        "20-anchor manifold correlation > 0.85":
            lambda m: m["manifold corr vs true"]["learned, 20 tags"] > 0.85,
    }),
    Experiment("fig5e", "Fig 5(e): XY error (ft) vs shelf tags used in learning", fig5e, {
        "learned < uniform / 2 with >= 4 anchors": lambda m: all(
            m["learned model"][str(n)] < m["uniform"]["-"] / 2 for n in ANCHORS if n >= 4
        ),
        "learned < true + 0.3 with >= 4 anchors": lambda m: all(
            m["learned model"][str(n)] < m["true model"]["-"] + 0.3 for n in ANCHORS if n >= 4
        ),
    }),
    Experiment("fig5f", "Fig 5(f): XY error (ft) vs major-range read rate", fig5f, {
        "inference < uniform at every read rate": lambda m: every(m, "inference", lambda x: m["uniform"][x]),
        "50% point < 100% point + 0.5": lambda m: m["inference"]["50%"] < m["inference"]["100%"] + 0.5,
    }),
    Experiment("fig5g", "Fig 5(g): XY error (ft) vs location bias mu_s^y (sigma_y 0.2)", fig5g, {
        "true < off at the largest bias": lambda m: m["true"]["1"] < m["off"]["1"],
        "off grows with bias (1 ft > 0.1 ft)": lambda m: m["off"]["1"] > m["off"]["0.1"],
        "learned < off + 0.1 at the largest bias": lambda m: m["learned"]["1"] < m["off"]["1"] + 0.1,
    }),
    Experiment("fig5h", "Fig 5(h): XY error (ft) of the moved objects vs move distance", fig5h, {
        "small move (0.5 ft) < 1 ft": lambda m: m["inference"]["0.5"] < 1.0,
        "large move (16 ft) < d / 3": lambda m: m["inference"]["16"] < 16 / 3,
        "every point < max(1, 0.8 d)": lambda m: every(m, "inference", lambda x: max(1.0, 0.8 * float(x))),
    }),
    Experiment("fig5ij", "Fig 5(i)/(j): XY error (ft) and ms/reading vs object count", fig5ij, {
        "5(i): factored variants < 0.5 ft at every count": lambda m: all(
            every(m, f"{v} error", lambda x: ACCURACY_REQUIREMENT_FT) for v in FACTORED_VARIANTS
        ),
        "5(i): factored <= naive + 0.05 at 10 objects":
            lambda m: m["factored error"]["10"] <= m["naive error"]["10"] + 0.05,
        "5(j): naive slower than factored at 10 objects":
            lambda m: m["naive ms/reading"]["10"] > m["factored ms/reading"]["10"],
        "5(j): indexed <= 1.2 x factored at 200 objects":
            lambda m: m["indexed ms/reading"]["200"] <= 1.2 * m["factored ms/reading"]["200"],
    }, timing=tuple(f"{v} ms/reading" for v in VARIANTS)),
    Experiment("fig6b", "Fig 6(b): lab errors (ft), timeout x imagined shelf", fig6b, {
        "ours < smurf in every row": lambda m: every(m, "ours XY", lambda x: m["smurf XY"][x]),
        "ours < uniform in every row": lambda m: every(m, "ours XY", lambda x: m["uniform XY"][x]),
        "uniform X ~ half the shelf depth": lambda m: x_near_half_depth(m, "uniform"),
        "smurf X ~ half the shelf depth": lambda m: x_near_half_depth(m, "smurf"),
        "mean error reduction over smurf > 30% (paper: 49%)":
            lambda m: m["error reduction over smurf"]["-"] > 0.30,
    }),
    Experiment("throughput_memory", "Section V-D: 200 objects, index + compression, noisy poses",
               throughput_memory, {
        "error < 0.5 ft": lambda m: m["xy error"]["-"] < 0.5,
        "peak belief memory < 20 MB": lambda m: m["peak belief memory MB"]["-"] < 20.0,
        "steady state > 1500 readings/s": lambda m: m["steady readings/s"]["-"] > 1500.0,
    }, timing=("cold readings/s", "steady readings/s")),
    Experiment("queries", "Section II-B: location-update and fire-code queries", queries, {
        "updates >= objects": lambda m: m["location updates"]["-"] >= QUERY_OBJECTS,
        "violations > 0": lambda m: m["fire-code violations"]["-"] > 0,
    }),
    Experiment("ablation_compression", "Ablation: compression policies", ablation_compression, {
        "compression fires (unread-20)": lambda m: m["compressions"]["unread-20"] > 0,
        "every policy < 0.5 ft": lambda m: every(m, "error", lambda x: 0.5),
        "decompress to 10 < decompress to 30 + 0.15":
            lambda m: m["error"]["decompress to 10"] < m["error"]["decompress to 30"] + 0.15,
    }, timing=("ms/reading",)),
    Experiment("ablation_index", "Ablation: spatial index (100 objects)", ablation_index, {
        "index processes < 0.7 x the object-epochs":
            lambda m: m["objects_processed"]["indexed"] < 0.7 * m["objects_processed"]["plain"],
        "indexed error < plain + 0.15": lambda m: m["error"]["indexed"] < m["error"]["plain"] + 0.15,
        "indexed ms/reading < 1.35 x plain":
            lambda m: m["ms/reading"]["indexed"] < 1.35 * m["ms/reading"]["plain"],
    }, timing=("ms/reading",)),
    Experiment("ablation_particles", "Ablation: particles per object", ablation_particles, {
        "200 < 10 + 0.2": lambda m: m["error"]["200"] < m["error"]["10"] + 0.2,
        "1000 <= 50 + 0.15": lambda m: m["error"]["1000"] <= m["error"]["50"] + 0.15,
    }, timing=("ms/reading",)),
    Experiment("ablation_resampling", "Ablation: object-likelihood feedback in reader resampling",
               ablation_resampling, {
        "feedback on <= 1.25 x off": lambda m: m["error"]["on"] <= 1.25 * m["error"]["off"],
    }, timing=("ms/reading",)),
    Experiment("workloads", "e2e workloads: last-report error (ft), 2 ft share, sensor fit", workloads, {}),
    Experiment("hot_loop", "Section V-D: factored-filter epochs/s vs tags (index off; adaptive budgets)",
               hot_loop, {}, timing=("epochs/s",), relative={"epochs/s": ("higher", 0.30)}),
    Experiment("sharding", "Section V-D: runtime epochs/s per shards x executor (see the stamp's cpu_count)",
               sharding, {}, timing=tuple(f"{s} @ {n} tags" for n in SHARD_ROWS for s in ("epochs/s", "x 1 serial"))
               ),
    Experiment("checkpoint", "Durable state: full save / restore / re-shard (s, MB), delta vs full save",
               checkpoint, {
        "delta bytes ratio >= 5 at 2 000 and 10 000 tags": lambda m: min(m["delta bytes ratio"].values()) >= 5.0,
        "delta save >= 1.5 x faster than full": lambda m: min(m["delta save speedup"].values()) >= 1.5,
    }, timing=("full save s", "restore s", "reshard to 2 s", "delta save s", "delta save speedup",
               "chain restore s"), relative={"full save s": ("lower", 1.0)}),
    Experiment("query_serving", "Standing queries: multiplexer emissions/s per fan-out, one-change tick (us)",
               query_serving, {
        "multiplexer emits exactly the stock engine's tuples":
            lambda m: min(m["emissions equal the stock engine's"].values()) == 1.0,
        "relation tick at 20 000 tags <= 3 x at 200":
            lambda m: m["relation tick us"]["20000"] <= 3 * m["relation tick us"]["200"],
    }, timing=("multiplexer emissions/s", "stock emissions/s", "relation tick us"),
        relative={"multiplexer emissions/s": ("higher", 0.30)}),
    Experiment("ingest", "repro serve: reads/s and frame-to-emission ms per client count, backpressure", ingest, {
        "one emission log across 1 / 8 / 64 clients and backpressure":
            lambda m: m["distinct emission logs"]["-"] == 1.0,
        "backpressure pauses, every pause resumes, peak buffered <= bound":
            lambda m: m["backpressure pauses, resumes each, stays bounded"]["-"] == 1.0,
        "p99 >= p50 in every row": lambda m: min(m["p99 >= p50"].values()) == 1.0,
    }, timing=("reads/s", "p50 ms", "p99 ms", "pauses"), relative={"reads/s": ("higher", 0.5)}),
)


# --- One seed loop, one aggregate, one writer, one checker -----------------
def aggregate(values: Sequence[Any]) -> Dict[str, Any]:
    if any(isinstance(v, str) for v in values):  # recorded, not aggregated
        return {"values": list(values)}
    q1, median, q3 = quartiles(values)
    return {
        "mean": float(np.mean(values)), "std": float(np.std(values)), "min": min(values), "max": max(values),
        "q1": q1, "median": median, "q3": q3, "values": list(values),
    }


def run(experiment: Experiment, seeds: Sequence[int]) -> Rows:
    per_seed = []
    for seed in seeds:
        started = perf_counter()
        per_seed.append(experiment.sweep(seed))
        print(f"# {experiment.name} seed {seed}: {perf_counter() - started:.1f} s", flush=True)
    return {
        series: {x: aggregate([s[series][x] for s in per_seed]) for x in points}
        for series, points in per_seed[0].items()
    }


def evaluate(experiment: Experiment, rows: Rows) -> Dict[str, bool]:
    means = {s: {x: r["mean"] for x, r in points.items() if "mean" in r} for s, points in rows.items()}
    return {name: bool(check(means)) for name, check in experiment.checks.items()}


def verify(ledger: Dict[str, Any], fresh: Dict[str, Rows]) -> List[str]:
    """Every way ``fresh`` rows (experiment name -> rows) disagree with the
    ledger: a check that flips, a non-timing mean outside [min, max], or a
    bounded timing mean past its relative floor or ceiling."""
    problems = []
    for experiment in EXPERIMENTS:
        name, rows, recorded = experiment.name, fresh[experiment.name], ledger["experiments"][experiment.name]
        for check, holds in evaluate(experiment, rows).items():
            if holds != recorded["checks"][check]["holds"]:
                problems.append(f"{name}: {check!r} now {'holds' if holds else 'fails'}")
        for series, points in recorded["series"].items():
            for x, row in points.items():
                if series in experiment.timing or "mean" not in row:
                    continue
                mean = rows[series][x]["mean"]
                slack = 1e-9 * max(1.0, abs(row["min"]), abs(row["max"]))  # last-ulp drift
                if not row["min"] - slack <= mean <= row["max"] + slack:
                    span = f"[{row['min']:.6g}, {row['max']:.6g}]"
                    problems.append(f"{name}: {series} @ {x}: mean {mean:.6g} outside {span}")
        for series, (better, share) in experiment.relative.items():
            sign = 1.0 if better == "higher" else -1.0
            for x, row in recorded["series"][series].items():
                values, mean = rows[series][x]["values"], rows[series][x]["mean"]
                committed = float(np.mean(row["values"][: len(values)]))  # the same seeds
                limit = committed * (1.0 - sign * share)
                if sign * (mean - limit) < 0:
                    bound = "floor" if sign > 0 else "ceiling"
                    problems.append(
                        f"{name}: {series} @ {x}: mean {mean:.4g} past its {bound} {limit:.4g} "
                        f"({share:.0%} off the committed {committed:.4g})"
                    )
    return problems


def verdicts(before: Rows, after: Rows) -> Dict[str, Dict[str, str]]:
    """Before -> after per workload row: ``bench.judge`` on medians and
    quartiles, and how many paired seeds moved, and for the better.  The
    bound is the e2e spec's bound on its one accuracy metric."""
    spec = bench.load_spec()["end_to_end"]
    bound = next(m["bound"] for m in spec if m["name"] == "loc_within_2ft_share")
    out: Dict[str, Dict[str, str]] = defaultdict(dict)
    for series, points in after.items():
        for x, new in points.items():
            old = before.get(series, {}).get(x)
            if old is None:  # a row the replaced ledger did not have
                continue
            pairs = [(a, b) for a, b in zip(old["values"], new["values"]) if a != b]
            if not pairs or series not in WORKLOAD_BETTER:
                out[series][x] = f"{len(pairs)}/{len(new['values'])} seeds moved"
                continue
            better, sign = WORKLOAD_BETTER[series]
            verdict, _ = judge(
                sign * old["median"], old["q3"] - old["q1"],
                sign * new["median"], new["q3"] - new["q1"], better, bound,
            )
            improved = sum((sign * b < sign * a) == (better == "lower") for a, b in pairs)
            out[series][x] = (
                f"{verdict}: median {old['median']:.4g} -> {new['median']:.4g}, "
                f"{improved}/{len(pairs)} moved seeds better"
            )
    return out


def report(entry: Dict[str, Any]) -> None:
    table = [
        [series, x, row["mean"], row["std"], row["min"], row["max"]]
        for series, points in entry["series"].items()
        for x, row in points.items()
        if "mean" in row
    ]
    print(format_table(["series", "x", "mean", "std", "min", "max"], table, entry["title"], "{:.4g}"))
    for check, status in entry["checks"].items():
        print(f"  [{'holds' if status['holds'] else 'FAILS'}] {check}")
    for series, points in entry.get("verdicts", {}).items():
        for x, verdict in points.items():
            print(f"  before -> after, {series} @ {x}: {verdict}")
    print(flush=True)


def write(path: Path) -> None:
    previous = json.loads(path.read_text()) if path.exists() else {}
    stamp = provenance(0)
    if stamp["git_dirty"]:
        diff = subprocess.run(
            ["git", "diff", "HEAD", "--", "src", "benchmarks"], cwd=bench.ROOT, stdout=subprocess.PIPE
        )
        stamp["git_diff_sha256"] = hashlib.sha256(diff.stdout).hexdigest()
    doc: Dict[str, Any] = {"ledger": "fidelity", "provenance": stamp, "seeds": list(range(SEEDS))}
    doc["experiments"] = {}
    for experiment in EXPERIMENTS:
        rows = run(experiment, range(SEEDS))
        entry = {
            "title": experiment.title,
            "timing": list(experiment.timing),
            "relative": {s: {"better": b, "share": share} for s, (b, share) in experiment.relative.items()},
            "series": rows,
            "checks": {k: {"holds": v} for k, v in evaluate(experiment, rows).items()},
        }
        old = previous.get("experiments", {}).get(experiment.name)
        if experiment.name == "workloads" and old and old["series"] == rows and "before" in old:
            entry["before"], entry["verdicts"] = old["before"], old["verdicts"]  # no bit moved: keep the last move
        elif experiment.name == "workloads" and old:
            entry["before"] = {"provenance": previous["provenance"], "series": old["series"]}
            entry["verdicts"] = verdicts(old["series"], rows)
        doc["experiments"][experiment.name] = entry
        report(entry)
    # Each list of per-seed values on one line.
    text = json.dumps(doc, indent=1)
    flat = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
    path.write_text(flat + "\n")
    print(f"# wrote {path}")


def check(path: Path) -> int:
    ledger = json.loads(path.read_text())
    problems = verify(ledger, {e.name: run(e, range(CHECK_SEEDS)) for e in EXPERIMENTS})
    for problem in problems:
        print(f"fidelity: {problem}", file=sys.stderr)
    print(f"# {path}: {len(problems)} disagreement(s) over seeds 0-{CHECK_SEEDS - 1}")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="LEDGER", help="re-run the first seeds against LEDGER")
    args = parser.parse_args(argv)
    if args.check:
        return check(Path(args.check))
    write(LEDGER)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
