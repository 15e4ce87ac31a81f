"""Hot-loop throughput: epochs/sec of the factored filter vs active tags.

This is the headline number of the arena/batched-kernel refactor: the seed
implementation processed objects one at a time in Python, so per-epoch cost
was dominated by interpreter overhead at thousands of tags.  The benchmark
drives the filter in steady state — every object discovered, spatial index
disabled so the whole population is active every epoch, a small rotating
read set exercising the re-detection path — and measures wall-clock
epochs/sec at 100 / 500 / 2000 / 10000 active tags.

The ``*_adaptive`` rows measure the adaptive particle-budget controller
(ROADMAP item 4) on a warehouse-shaped workload: a shelf sweep localizes
every tag (a reader dwelling on each 50-tag chunk), then steady state reads
a small sliding window of "mover" tags (<= 2% of the population per epoch)
while the dormant rest decays through parked tiers to Gaussians and leaves
the per-epoch kernels entirely.  The 100000-tag row additionally runs the
arena in float32 (half the kernel bandwidth).

Standalone (no pytest-benchmark dependency) so CI can smoke-run it::

    PYTHONPATH=src python benchmarks/bench_hot_loop.py [--quick]

Results are written to ``BENCH_hot_loop.json`` at the repo root alongside
the recorded seed baseline, so the performance trajectory is tracked in
version control; every document is stamped with host class, ``cpu_count``,
git sha and library versions.  ``--before OLD.json`` embeds the rows of a
document an earlier commit's copy of this script wrote on the same host, so
the recorded file carries a before/after pair taken on one machine::

    PYTHONPATH=src python benchmarks/bench_hot_loop.py --before OLD.json

``--check BENCH_hot_loop.json`` turns the run into a regression guard: the
measured epochs/sec at every tag count must stay within ``--check-tolerance``
(default 30%) of the committed baseline or the process exits non-zero — CI
runs this against the repository's recorded numbers so a hot-loop regression
fails the build instead of landing silently.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import InferenceConfig
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet
from repro.inference.factored import FactoredParticleFilter
from repro.models.joint import RFIDWorldModel
from repro.models.motion import MotionParams
from repro.models.sensing import SensingNoiseParams
from repro.models.sensor import SensorParams
from repro.streams.records import make_epoch

from bench_query_serving import provenance

#: Seed (pre-arena, per-object-loop) engine measured on the same scenario,
#: same machine class, at commit 3957a76 — the baseline the acceptance
#: criterion (>= 3x at 2000 tags) is judged against.
SEED_BASELINE_EPOCHS_PER_SEC = {100: 86.9, 500: 19.3, 2000: 4.35}

#: The measured baselines follow epochs/sec ~= 8700 / n almost exactly
#: (per-object Python cost dominates); the seed engine was never run at
#: 10^4+ tags, so baselines there are extrapolated from that law and the
#: result rows say so.
SEED_EXTRAPOLATED_EPOCHS_PER_SEC = {10_000: 0.87, 100_000: 0.087}

#: Object tags re-read per epoch (exercises the re-detection decision path
#: at a realistic rate without dominating the measurement).
READS_PER_EPOCH = 16

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hot_loop.json"


def build_model(n_objects: int) -> RFIDWorldModel:
    """One long shelf row sized to the population, two shelf anchor tags."""
    length = max(8.0, n_objects * 0.05)
    shelves = ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, length, 0.0)))])
    return RFIDWorldModel.build(
        shelves,
        shelf_tags={
            0: np.array([2.0, 1.0, 0.0]),
            1: np.array([2.0, length - 1.0, 0.0]),
        },
        sensor_params=SensorParams(a=(4.0, 0.0, -0.9), b=(0.0, -6.0)),
        motion_params=MotionParams(velocity=(0.0, 0.1, 0.0), sigma=(0.01, 0.01, 0.0)),
        sensing_params=SensingNoiseParams(sigma=(0.01, 0.01, 0.0)),
    )


def measure(n_objects: int, timed_epochs: int, warmup: int = 3) -> dict:
    model = build_model(n_objects)
    config = InferenceConfig(reader_particles=100, object_particles=100, seed=3)
    engine = FactoredParticleFilter(model, config)

    def epoch_at(t: int):
        reads = [(t * READS_PER_EPOCH + i) % n_objects for i in range(READS_PER_EPOCH)]
        return make_epoch(
            float(t), (0.0, 1.0 + 0.1 * t), object_tags=reads, reported_heading=0.0
        )

    # Discovery epoch (excluded from timing): read every tag once so the
    # whole population is known and — with the index disabled — active.
    engine.step(
        make_epoch(
            0.0, (0.0, 1.0), object_tags=list(range(n_objects)), reported_heading=0.0
        )
    )
    for t in range(1, 1 + warmup):
        engine.step(epoch_at(t))

    start = time.perf_counter()
    for t in range(1 + warmup, 1 + warmup + timed_epochs):
        engine.step(epoch_at(t))
    elapsed = time.perf_counter() - start

    assert engine.active_count == n_objects, "population fell out of the active set"
    epochs_per_sec = timed_epochs / elapsed
    row = {
        "active_objects": engine.active_count,
        "particles_per_object": config.object_particles,
        "timed_epochs": timed_epochs,
        "elapsed_s": round(elapsed, 4),
        "epochs_per_sec": round(epochs_per_sec, 2),
        "arena_used_rows": engine.arena.used_rows,
        "arena_capacity": engine.arena.capacity,
    }
    row.update(_seed_comparison(n_objects, epochs_per_sec))
    return row


def _seed_comparison(n_objects: int, epochs_per_sec: float) -> dict:
    """Seed-engine baseline fields; extrapolated above the measured range so
    every row — including ``--quick`` runs — carries ``speedup_vs_seed``."""
    baseline = SEED_BASELINE_EPOCHS_PER_SEC.get(n_objects)
    extrapolated = baseline is None
    if extrapolated:
        baseline = SEED_EXTRAPOLATED_EPOCHS_PER_SEC.get(n_objects)
    return {
        "seed_epochs_per_sec": baseline,
        "seed_extrapolated": bool(baseline) and extrapolated,
        "speedup_vs_seed": (
            round(epochs_per_sec / baseline, 2) if baseline else None
        ),
    }


def measure_adaptive(
    n_objects: int, timed_epochs: int, dtype: str = "float64"
) -> dict:
    """Adaptive-budget steady state: localize every tag with a dwelling shelf
    sweep, let the dormant population park/compress, then time epochs in
    which only a sliding window of movers (<= 2% of tags) is read."""
    from dataclasses import replace

    model = build_model(n_objects)
    length = max(8.0, n_objects * 0.05)
    config = InferenceConfig(
        reader_particles=100, object_particles=100, seed=3
    ).with_budget(settle_error_sq_ft=2.0, force_park_after_epochs=24)
    if dtype != "float64":
        config = replace(config, arena=replace(config.arena, dtype=dtype))
    engine = FactoredParticleFilter(model, config)

    chunk = 50
    n_chunks = max(1, n_objects // chunk)
    spacing = length / n_chunks
    clock = [0.0]

    def step(reader_y: float, tags) -> None:
        engine.step(
            make_epoch(
                clock[0], (0.0, reader_y), object_tags=list(tags), reported_heading=0.0
            )
        )
        clock[0] += 1.0

    # Discovery sweep (untimed): dwell 3 epochs on each 50-tag chunk with
    # the reader alongside it, so every belief localizes tightly enough to
    # settle; chunks the sweep has passed decay and park behind it.
    for c in range(n_chunks):
        lo = c * chunk
        tags = range(lo, min(lo + chunk, n_objects))
        for _ in range(3):
            step((c + 0.5) * spacing, tags)

    movers = min(max(16, n_objects // 100), 200)

    def steady(i: int) -> None:
        lo = (i * 4) % n_objects  # window slides 4 tags/epoch
        tags = [(lo + j) % n_objects for j in range(movers)]
        step(((tags[0] // chunk) + 0.5) * spacing, tags)

    for i in range(50):  # settle-in (untimed): reach steady-state tiers
        steady(i)

    start = time.perf_counter()
    for i in range(50, 50 + timed_epochs):
        steady(i)
    elapsed = time.perf_counter() - start

    tiers = engine.tier_summary()
    population = (
        tiers["objects_full"] + tiers["objects_parked"] + tiers["objects_compressed"]
    )
    assert population == n_objects, "population fell out of the belief map"
    epochs_per_sec = timed_epochs / elapsed
    row = {
        "adaptive": True,
        "arena_dtype": dtype,
        "movers_per_epoch": movers,
        "active_objects": engine.active_count,
        "particles_per_object": config.object_particles,
        "timed_epochs": timed_epochs,
        "elapsed_s": round(elapsed, 4),
        "epochs_per_sec": round(epochs_per_sec, 2),
        "tier_summary": tiers,
        "arena_used_rows": engine.arena.used_rows,
        "arena_capacity": engine.arena.capacity,
    }
    row.update(_seed_comparison(n_objects, epochs_per_sec))
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fewer timed epochs (CI smoke run)"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print only, skip BENCH_hot_loop.json"
    )
    parser.add_argument(
        "--before",
        type=str,
        default=None,
        metavar="OLD_JSON",
        help="embed an earlier commit's results document (same host) as the "
        "'before' side of the recorded file",
    )
    parser.add_argument(
        "--check",
        type=str,
        default=None,
        metavar="BASELINE_JSON",
        help="compare against a recorded BENCH_hot_loop.json and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--check-tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below the baseline (default 0.30)",
    )
    args = parser.parse_args()

    batched_plan = [(100, 60), (500, 30), (2000, 10), (10_000, 5)]
    adaptive_plan = [(2000, 20, "float64"), (10_000, 30, "float64")]
    if args.quick:
        batched_plan = [(n, max(3, e // 5)) for n, e in batched_plan[:3]]
        adaptive_plan = [(2000, 10, "float64")]
    else:
        # The 10^5-tag row runs the arena in float32: at that scale the
        # point of the tier is bandwidth, and the sweep setup dominates the
        # run, so it is full-mode only.
        adaptive_plan.append((100_000, 20, "float32"))

    results = {}
    print(f"{'row':>20} {'epochs/s':>10} {'active':>8} {'seed':>8} {'speedup':>9}")

    def show(key: str, row: dict) -> None:
        seed = row["seed_epochs_per_sec"]
        speed = row["speedup_vs_seed"]
        mark = "~" if row.get("seed_extrapolated") else ""
        print(
            f"{key:>20} {row['epochs_per_sec']:>10.2f} "
            f"{row['active_objects']:>8} "
            f"{f'{mark}{seed}' if seed else '-':>8} "
            f"{f'{speed:.2f}x' if speed else '-':>9}"
        )

    for n_objects, timed in batched_plan:
        key = str(n_objects)
        results[key] = measure(n_objects, timed)
        show(key, results[key])
    for n_objects, timed, dtype in adaptive_plan:
        key = f"{n_objects}_adaptive"
        row = measure_adaptive(n_objects, timed, dtype=dtype)
        batched = results.get(str(n_objects))
        row["speedup_vs_batched"] = (
            round(row["epochs_per_sec"] / batched["epochs_per_sec"], 2)
            if batched
            else None
        )
        results[key] = row
        show(key, row)

    payload = {
        "benchmark": "hot_loop",
        "description": (
            "Factored-filter steady-state epochs/sec vs active-object count "
            "(index disabled, 100 particles/object, 100 reader particles, "
            f"{READS_PER_EPOCH} reads/epoch); seed baseline measured on the "
            "per-object-loop engine at commit 3957a76 (extrapolated as "
            "~8700/n above 2000 tags, marked seed_extrapolated). "
            "*_adaptive rows: particle-budget controller on a shelf-sweep "
            "+ sliding-mover-window workload (<= 2% movers/epoch)."
        ),
        "quick": bool(args.quick),
        "provenance": provenance(),
        "results": results,
    }
    if args.before is not None:
        with open(args.before) as fp:
            before = json.load(fp)
        payload["before"] = {
            key: before[key]
            for key in ("provenance", "python", "numpy", "quick", "results")
            if key in before
        }
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {RESULT_PATH}")
    if args.check is not None and not _check_regression(
        results, args.check, args.check_tolerance
    ):
        sys.exit(1)


def _check_regression(results: dict, baseline_path: str, tolerance: float) -> bool:
    """True iff every measured tag count stays within ``tolerance`` of the
    recorded baseline's epochs/sec (tag counts absent from the baseline are
    reported but not enforced)."""
    with open(baseline_path) as fp:
        baseline = json.load(fp)["results"]
    ok = True
    print(f"\nregression check vs {baseline_path} (tolerance {tolerance:.0%}):")
    for tags, row in results.items():
        recorded = baseline.get(tags, {}).get("epochs_per_sec")
        if not recorded:
            print(f"  {tags} tags: no baseline recorded, skipping")
            continue
        floor = (1.0 - tolerance) * recorded
        measured = row["epochs_per_sec"]
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"  {tags} tags: {measured:.2f} vs baseline {recorded:.2f} "
            f"(floor {floor:.2f}) {verdict}"
        )
        if measured < floor:
            ok = False
    return ok


if __name__ == "__main__":
    main()
