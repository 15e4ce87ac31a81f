"""Sharded-runtime throughput: epochs/sec vs shard count and executor.

PR 1 made the single engine fast (batched kernels over one arena); this
benchmark measures the next axis — partitioning the tag population across
independent filter shards (``repro.runtime.ShardedRuntime``).  It drives the
full runtime (router -> shards -> merged event bus) in steady state over
2000 active tags at shard counts {1, 2, 4} with the serial executor and
both worker executors (``process`` over socketpairs, ``remote`` over loopback
TCP to an in-process shard host — one proxy, one link codec), plus
10000-tag scaling rows.

What the executors can and cannot show in one container: sharding is a
*distribution* mechanism — total kernel work is constant — so serial rows
measure partitioning/merge overhead staying small; process rows measure the
full scale-out path (persistent workers, framed link), whose speedup is
bounded by ``cpu_count`` — on a single-core runner the process rows price
the IPC overhead instead (the recorded ``cpu_count`` says which reading
you are looking at); remote rows add the TCP stack.

Every row is measured ``repeats`` times, interleaved with the other rows
so drift lands on all of them, and reports each repeat's epochs/sec plus
their median and min/max — a row's own spread, so two recordings can be
compared by overlap rather than by a single number.  ``--before FILE``
embeds an earlier recording (same script, other commit's ``src``) beside
the new one.

Standalone (no pytest-benchmark dependency) so CI can smoke-run it::

    PYTHONPATH=src python benchmarks/bench_runtime_sharding.py [--quick]

Results are written to ``BENCH_runtime_sharding.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro
from repro.config import InferenceConfig, OutputPolicyConfig, RuntimeConfig
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet
from repro.models.joint import RFIDWorldModel
from repro.models.motion import MotionParams
from repro.models.sensing import SensingNoiseParams
from repro.models.sensor import SensorParams
from repro.runtime import ShardedRuntime
from repro.runtime.transport import ShardHostServer
from repro.streams.records import make_epoch
from repro.streams.sinks import EventSink

from bench_query_serving import provenance

#: Object tags re-read per epoch (exercises the re-detection path at a
#: realistic rate without dominating the measurement).
READS_PER_EPOCH = 16

PARTICLES_PER_OBJECT = 100
N_TAGS = 2000
SCALE_TAGS = 10000
SHARD_COUNTS = (1, 2, 4)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime_sharding.json"


class _NullSink(EventSink):
    """Counts events without retaining them (steady-state measurement)."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, event) -> None:
        self.count += 1


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


@contextmanager
def loopback_shard_host():
    server = ShardHostServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        thread.join(5.0)


def measure(
    model: RFIDWorldModel,
    n_tags: int,
    n_shards: int,
    executor: str,
    timed_epochs: int,
    shard_host: str,
    warmup: int = 3,
) -> dict:
    """One timed run of one row: (epochs/sec, per-shard object counts)."""
    config = InferenceConfig(
        reader_particles=100, object_particles=PARTICLES_PER_OBJECT, seed=3
    )
    sink = _NullSink()
    runtime = ShardedRuntime(
        model,
        config,
        RuntimeConfig(
            n_shards=n_shards,
            executor=executor,
            shard_hosts=(shard_host,) if executor == "remote" else None,
        ),
        # Long delay: steady state measures inference + routing + merge,
        # not event formatting.
        OutputPolicyConfig(delay_s=1e9, on_scan_complete=False),
        sink=sink,
    )

    def epoch_at(t: int):
        reads = [(t * READS_PER_EPOCH + i) % n_tags for i in range(READS_PER_EPOCH)]
        return make_epoch(
            float(t), (0.0, 1.0 + 0.1 * t), object_tags=reads, reported_heading=0.0
        )

    try:
        # Discovery epoch (excluded from timing): read every tag once so the
        # whole population is known and — with the index disabled — active.
        runtime.step(
            make_epoch(
                0.0, (0.0, 1.0), object_tags=list(range(n_tags)), reported_heading=0.0
            )
        )
        for t in range(1, 1 + warmup):
            runtime.step(epoch_at(t))

        start = time.perf_counter()
        for t in range(1 + warmup, 1 + warmup + timed_epochs):
            runtime.step(epoch_at(t))
        elapsed = time.perf_counter() - start
        runtime.finish()
    finally:
        runtime.abort()

    stats = runtime.shard_stats()
    objects_per_shard = [int(row["objects"]) for row in stats]
    assert sum(objects_per_shard) == n_tags, "population fell out of the shards"
    return {
        "epochs_per_sec": timed_epochs / elapsed,
        "objects_per_shard": objects_per_shard,
        "arena_rows_per_shard": [int(row["arena_used_rows"]) for row in stats],
    }


def _plan(quick: bool):
    """(n_tags, n_shards, executor, timed_epochs) rows to measure."""
    timed = 3 if quick else 20
    rows = [(N_TAGS, 1, "serial", timed)]
    for n_shards in SHARD_COUNTS[1:]:
        for executor in ("serial", "process", "remote"):
            rows.append((N_TAGS, n_shards, executor, timed))
    if not quick:
        # Scaling-headroom rows: the worker executors at 5x the population.
        for n_shards, executor in ((1, "serial"), (4, "serial"), (4, "process"), (4, "remote")):
            rows.append((SCALE_TAGS, n_shards, executor, 8))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="one short repeat per row (CI smoke run)"
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print only, skip BENCH_runtime_sharding.json",
    )
    parser.add_argument("--repeats", type=int, default=3, help="runs per row")
    parser.add_argument(
        "--out", type=Path, default=RESULT_PATH, help="where to write the document"
    )
    parser.add_argument(
        "--before",
        type=Path,
        default=None,
        help="an earlier recording to embed under 'before' (same script, "
        "PYTHONPATH pointed at the other commit's src)",
    )
    args = parser.parse_args()

    plan = _plan(args.quick)
    repeats = 1 if args.quick else args.repeats
    models = {n_tags: build_model(n_tags) for n_tags in {row[0] for row in plan}}
    runs = {row: [] for row in plan}
    with loopback_shard_host() as shard_host:
        # Repeats outermost: slow drift of the box lands on every row alike.
        for _ in range(repeats):
            for row in plan:
                n_tags, n_shards, executor, timed_epochs = row
                runs[row].append(
                    measure(
                        models[n_tags], n_tags, n_shards, executor, timed_epochs, shard_host
                    )
                )

    results = []
    print(
        f"{'tags':>6} {'shards':>7} {'executor':>9} {'epochs/s':>10} "
        f"{'min..max':>15} {'vs serial-1':>12} {'vs serial-N':>12}"
    )
    medians = {}
    for row in plan:
        n_tags, n_shards, executor, timed_epochs = row
        rates = [run["epochs_per_sec"] for run in runs[row]]
        medians[n_tags, n_shards, executor] = median = statistics.median(rates)
        serial_1 = medians[n_tags, 1, "serial"]
        serial_n = medians[n_tags, n_shards, "serial"]
        results.append(
            {
                "n_shards": n_shards,
                "executor": executor,
                "active_tags": n_tags,
                "particles_per_object": PARTICLES_PER_OBJECT,
                "timed_epochs": timed_epochs,
                "epochs_per_sec": round(median, 2),
                "epochs_per_sec_runs": [round(rate, 2) for rate in rates],
                "epochs_per_sec_min": round(min(rates), 2),
                "epochs_per_sec_max": round(max(rates), 2),
                "objects_per_shard": runs[row][0]["objects_per_shard"],
                "arena_rows_per_shard": runs[row][0]["arena_rows_per_shard"],
                "speedup_vs_serial_1shard": round(median / serial_1, 2),
                "speedup_vs_serial_same_shards": round(median / serial_n, 2),
            }
        )
        print(
            f"{n_tags:>6} {n_shards:>7} {executor:>9} {median:>10.2f} "
            f"{f'{min(rates):.1f}..{max(rates):.1f}':>15} "
            f"{median / serial_1:>11.2f}x {median / serial_n:>11.2f}x"
        )

    payload = {
        "benchmark": "runtime_sharding",
        "description": (
            "ShardedRuntime steady-state epochs/sec vs shard count and "
            f"executor at {N_TAGS} active tags plus {SCALE_TAGS}-tag "
            "scaling rows (index disabled, 100 particles/object, 100 reader "
            f"particles/shard, {READS_PER_EPOCH} reads/epoch).  Each row is "
            "the median of `epochs_per_sec_runs` (repeats interleaved across "
            "rows); min/max are the row's own spread.  Serial rows measure "
            "partitioning+merge overhead (total kernel work is constant "
            "in-process); process rows measure the worker scale-out path "
            "(socketpair link), remote rows the same "
            "proxy over loopback TCP to an in-process shard host; the worker "
            "executors' speedup ceiling is cpu_count."
        ),
        "quick": bool(args.quick),
        "repeats": repeats,
        "provenance": provenance(),
        # The tree under test: a before/after pair runs this one script
        # with PYTHONPATH pointed at each commit's src.
        "src": str(Path(repro.__file__).resolve().parent),
        "results": results,
    }
    if args.before is not None:
        before = json.loads(args.before.read_text())
        payload["before"] = {
            key: before[key] for key in ("provenance", "src", "repeats", "results")
        }
    if not args.no_write:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
