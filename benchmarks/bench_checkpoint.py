"""Checkpoint/restore cost: snapshot latency, restore latency, and bytes.

The durable-state subsystem (``repro.state``) serializes every shard's
belief arena, RNG stream, reader belief, and visit bookkeeping to disk and
rebuilds a live runtime from it.  This benchmark measures what that costs at
production scale, in two parts:

* **full rows** — one coordinated full checkpoint at 2000 active tags for
  shard counts {1, 4}: ``save_s``, ``restore_s``, the elastic re-shard to 2
  shards, and on-disk bytes;
* **delta rows** — the differential-checkpoint economics at 2000 and 10000
  tags with the spatial index on (the paper's scalability configuration):
  a warm population of which only a few percent moved since the last
  checkpoint, measuring a delta save vs a full save of the *same* state —
  latency, bytes, and the bytes ratio — plus the chain restore
  (base + delta materialized).

Standalone (no pytest-benchmark dependency) so CI can smoke-run it::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py [--quick]
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --quick \
        --no-write --check BENCH_checkpoint.json
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --before OLD.json

``--before`` embeds the rows of a document an *earlier commit's* copy of
this script wrote on the same host, so the recorded file carries a
before/after pair taken on one machine (both sides stamped with host class,
``cpu_count`` and git sha).

``--check`` turns the run into a regression guard.  Enforced invariants are
machine-independent (measured within the same run, so shared CI runners
cannot flake them): every delta row must keep ``bytes_ratio >=
--check-min-ratio`` and save at least ``--check-min-speedup``x faster than
the full save of the same state.  Absolute save latency vs the recorded
baseline is additionally enforced for full rows at the baseline's scale
(skipped in ``--quick``) within ``--check-tolerance``.  Results are written
to ``BENCH_checkpoint.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import InferenceConfig, OutputPolicyConfig, RuntimeConfig
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet
from repro.models.joint import RFIDWorldModel
from repro.models.motion import MotionParams
from repro.models.sensing import SensingNoiseParams
from repro.models.sensor import SensorParams
from repro.runtime import ShardedRuntime
from repro.state import checkpoint_size_bytes, restore_runtime, save_checkpoint
from repro.streams.records import make_epoch

from bench_query_serving import provenance

READS_PER_EPOCH = 16
N_TAGS = 2000
SHARD_COUNTS = (1, 4)
RESHARD_TO = 2
DELTA_TAG_COUNTS = (2000, 10000)
DELTA_EPOCHS = 10  # epochs between the base checkpoint and the delta

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_checkpoint.json"


def build_model(n_objects: int) -> RFIDWorldModel:
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


def warmed_runtime(
    model: RFIDWorldModel, n_shards: int, n_tags: int, epochs: int
) -> ShardedRuntime:
    """A runtime mid-trace with the full population resident."""
    config = InferenceConfig(reader_particles=100, object_particles=100, seed=3)
    runtime = ShardedRuntime(
        model,
        config,
        RuntimeConfig(n_shards=n_shards),
        OutputPolicyConfig(delay_s=1e9, on_scan_complete=False),
    )
    runtime.step(
        make_epoch(0.0, (0.0, 1.0), object_tags=list(range(n_tags)), reported_heading=0.0)
    )
    for t in range(1, 1 + epochs):
        reads = [(t * READS_PER_EPOCH + i) % n_tags for i in range(READS_PER_EPOCH)]
        runtime.step(
            make_epoch(
                float(t), (0.0, 1.0 + 0.1 * t), object_tags=reads, reported_heading=0.0
            )
        )
    return runtime


def measure(model: RFIDWorldModel, n_shards: int, n_tags: int, epochs: int) -> dict:
    runtime = warmed_runtime(model, n_shards, n_tags, epochs)
    live_bytes = sum(
        int(row.get("arena_memory_bytes", 0)) for row in runtime.shard_stats()
    )
    with tempfile.TemporaryDirectory() as scratch:
        target = os.path.join(scratch, "ck")
        start = time.perf_counter()
        runtime.checkpoint(target)
        save_s = time.perf_counter() - start
        size = checkpoint_size_bytes(target)
        runtime.abort()

        start = time.perf_counter()
        restored, manifest = restore_runtime(target, model)
        restore_s = time.perf_counter() - start
        assert len(restored.known_objects()) == n_tags
        assert manifest.epochs_processed == epochs + 1
        restored.abort()

        start = time.perf_counter()
        resharded, _ = restore_runtime(
            target, model, runtime_config=RuntimeConfig(n_shards=RESHARD_TO)
        )
        reshard_s = time.perf_counter() - start
        assert len(resharded.known_objects()) == n_tags
        resharded.abort()
    return {
        "kind": "full",
        "n_shards": n_shards,
        "active_tags": n_tags,
        "epochs_before_checkpoint": epochs + 1,
        "save_s": round(save_s, 4),
        "restore_s": round(restore_s, 4),
        "reshard_to": RESHARD_TO,
        "reshard_s": round(reshard_s, 4),
        "bytes": int(size),
        "live_belief_bytes": int(live_bytes),
        "bytes_per_tag": round(size / n_tags, 1),
    }


def measure_delta(model: RFIDWorldModel, n_tags: int, delta_epochs: int) -> dict:
    """Full-vs-delta save at the same state, few tags moved since the base.

    The population is created in one burst, then the reader travels away so
    the spatial index retires it from the active set — the steady state of
    a large deployment, where each inter-checkpoint window touches only the
    tags near the reader.  ``moved_fraction`` records how much of the
    population was read (and therefore re-propagated) between the base
    checkpoint and the measured one.
    """
    config = InferenceConfig(
        reader_particles=100, object_particles=100, seed=3
    ).with_index()
    runtime = ShardedRuntime(
        model,
        config,
        RuntimeConfig(),
        OutputPolicyConfig(delay_s=1e9, on_scan_complete=False),
    )
    runtime.step(
        make_epoch(0.0, (0.0, 1.0), object_tags=list(range(n_tags)), reported_heading=0.0)
    )
    # Travel beyond the sensing range so past regions stop intersecting the
    # current box and the bulk of the population goes inactive.
    warmup = 25
    for t in range(1, warmup):
        runtime.step(
            make_epoch(float(t), (0.0, 1.0 + 0.5 * t), reported_heading=0.0)
        )
    moved: set = set()
    with tempfile.TemporaryDirectory() as scratch:
        base = os.path.join(scratch, "base")
        save_checkpoint(runtime, base)
        for t in range(warmup, warmup + delta_epochs):
            reads = [
                (t * READS_PER_EPOCH + i) % n_tags for i in range(READS_PER_EPOCH)
            ]
            moved.update(reads)
            runtime.step(
                make_epoch(
                    float(t),
                    (0.0, 1.0 + 0.5 * t),
                    object_tags=reads,
                    reported_heading=0.0,
                )
            )
        delta_path = os.path.join(scratch, "delta")
        start = time.perf_counter()
        save_checkpoint(runtime, delta_path, mode="delta", parent=base)
        delta_save_s = time.perf_counter() - start

        full_path = os.path.join(scratch, "full")
        start = time.perf_counter()
        save_checkpoint(runtime, full_path)
        full_save_s = time.perf_counter() - start
        runtime.abort()

        delta_bytes = checkpoint_size_bytes(delta_path)
        full_bytes = checkpoint_size_bytes(full_path)

        start = time.perf_counter()
        restored, manifest = restore_runtime(delta_path, model)
        chain_restore_s = time.perf_counter() - start
        assert manifest.kind == "delta"
        assert len(restored.known_objects()) == n_tags
        restored.abort()
    return {
        "kind": "delta",
        "n_shards": 1,
        "active_tags": n_tags,
        "epochs_since_base": delta_epochs,
        "moved_fraction": round(len(moved) / n_tags, 4),
        "delta_save_s": round(delta_save_s, 4),
        "full_save_s": round(full_save_s, 4),
        "delta_bytes": int(delta_bytes),
        "full_bytes": int(full_bytes),
        "bytes_ratio": round(full_bytes / delta_bytes, 2),
        "save_speedup": round(full_save_s / delta_save_s, 2),
        "chain_restore_s": round(chain_restore_s, 4),
    }


def _check_regression(
    results: list,
    baseline_path: str,
    tolerance: float,
    min_ratio: float,
    min_speedup: float,
) -> bool:
    """Save-latency/bytes regression guard.

    Machine-independent invariants are *enforced* (they compare the same
    run against itself, so a shared CI runner cannot flake them): every
    delta row must keep ``bytes_ratio >= min_ratio`` and save at least
    ``min_speedup``x faster than the full save of the same state.
    Absolute latency vs the recorded baseline is enforced only for full
    rows measured at the baseline's scale (a quick run never matches, so
    CI skips it); for delta rows it is reported but informational — the
    baseline was recorded on a different machine.
    """
    with open(baseline_path) as fp:
        baseline = json.load(fp)["results"]
    recorded = {
        (row.get("kind", "full"), row["n_shards"], row["active_tags"]): row
        for row in baseline
    }
    ok = True
    print(f"\nregression check vs {baseline_path} (tolerance {tolerance:.0%}):")
    for row in results:
        key = (row["kind"], row["n_shards"], row["active_tags"])
        label = f"{key[0]} n_shards={key[1]} tags={key[2]}"
        if row["kind"] == "delta":
            ratio_ok = row["bytes_ratio"] >= min_ratio
            speed_ok = row["save_speedup"] >= min_speedup
            print(
                f"  {label}: bytes ratio {row['bytes_ratio']:.2f} "
                f"(floor {min_ratio:.2f}), save speedup "
                f"{row['save_speedup']:.2f}x (floor {min_speedup:.2f}x) "
                f"{'ok' if ratio_ok and speed_ok else 'REGRESSION'}"
            )
            ok = ok and ratio_ok and speed_ok
        base_row = recorded.get(key)
        metric = "delta_save_s" if row["kind"] == "delta" else "save_s"
        if base_row is None or metric not in base_row:
            print(f"  {label}: no baseline at this scale, latency skipped")
            continue
        ceiling = (1.0 + tolerance) * base_row[metric]
        measured = row[metric]
        enforced = row["kind"] == "full"
        slow = measured > ceiling
        print(
            f"  {label}: {metric} {measured:.3f}s vs baseline "
            f"{base_row[metric]:.3f}s (ceiling {ceiling:.3f}s) "
            f"{'REGRESSION' if slow and enforced else 'slow (informational)' if slow else 'ok'}"
        )
        if slow and enforced:
            ok = False
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller population (CI smoke run)"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print only, skip BENCH_checkpoint.json"
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
        help="compare against a recorded BENCH_checkpoint.json and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--check-tolerance",
        type=float,
        default=1.0,
        help="allowed fractional save-latency increase over the baseline "
        "(default 1.0 — CI machines vary)",
    )
    parser.add_argument(
        "--check-min-ratio",
        type=float,
        default=5.0,
        help="minimum full/delta bytes ratio a delta row must keep "
        "(default 5.0, the acceptance floor)",
    )
    parser.add_argument(
        "--check-min-speedup",
        type=float,
        default=1.5,
        help="minimum full/delta save-latency speedup a delta row must "
        "keep, measured within the same run (default 1.5)",
    )
    args = parser.parse_args()

    n_tags = 200 if args.quick else N_TAGS
    epochs = 3 if args.quick else 10
    delta_tag_counts = (2000,) if args.quick else DELTA_TAG_COUNTS
    model = build_model(n_tags)

    results = []
    print(
        f"{'shards':>7} {'save_s':>8} {'restore_s':>10} {'reshard_s':>10} "
        f"{'MiB':>8} {'B/tag':>8}"
    )
    for n_shards in SHARD_COUNTS:
        row = measure(model, n_shards, n_tags, epochs)
        results.append(row)
        print(
            f"{n_shards:>7} {row['save_s']:>8.3f} {row['restore_s']:>10.3f} "
            f"{row['reshard_s']:>10.3f} {row['bytes'] / 2**20:>8.2f} "
            f"{row['bytes_per_tag']:>8.1f}"
        )

    print(
        f"\n{'tags':>7} {'moved':>7} {'full_s':>8} {'delta_s':>8} "
        f"{'fullMiB':>8} {'dltMiB':>8} {'ratio':>7} {'chain_s':>8}"
    )
    for count in delta_tag_counts:
        row = measure_delta(build_model(count), count, DELTA_EPOCHS)
        results.append(row)
        print(
            f"{count:>7} {row['moved_fraction']:>7.1%} {row['full_save_s']:>8.3f} "
            f"{row['delta_save_s']:>8.3f} {row['full_bytes'] / 2**20:>8.2f} "
            f"{row['delta_bytes'] / 2**20:>8.2f} {row['bytes_ratio']:>6.1f}x "
            f"{row['chain_restore_s']:>8.3f}"
        )

    payload = {
        "benchmark": "checkpoint",
        "description": (
            "Durable-state costs at scale.  Full rows: coordinated full "
            "checkpoint save, exact restore, and elastic re-shard to "
            f"{RESHARD_TO} shards at {n_tags} active tags (100 particles/"
            "object, 100 reader particles/shard); bytes is the on-disk "
            "checkpoint file, live_belief_bytes the arenas' accounted "
            "row bytes.  Delta rows: differential vs full checkpoint of the "
            "same warm state (spatial index on, moved_fraction of the tags "
            "read since the base) — delta saves ship dirty blocks only, "
            "bytes_ratio = full_bytes / delta_bytes, chain_restore_s "
            "materializes base + delta.  Every save includes the fsync of "
            "the checkpoint file and of its directory."
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
    # Check against the recorded baseline BEFORE overwriting it, so a CI
    # run may point --check at the committed BENCH_checkpoint.json.
    failed = args.check is not None and not _check_regression(
        results,
        args.check,
        args.check_tolerance,
        args.check_min_ratio,
        args.check_min_speedup,
    )
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {RESULT_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
