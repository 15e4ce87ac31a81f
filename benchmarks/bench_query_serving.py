"""Standing-query serving: multiplexer vs per-query evaluation.

The tentpole claim of the query-multiplexer refactor: serving N standing
queries should cost far less than N times one query.  The stock
:class:`~repro.query.engine.QueryEngine` evaluates every query
independently each tick — every region watch re-scans its own copy of the
same partitioned window.  The :class:`~repro.query.multiplexer.
MultiplexedQueryEngine` dedupes structurally-identical windows into shared
incremental operators, answers same-shape region predicates with one
grid-indexed pass over the tick's changed cells, and caches results by
(operator version, predicate hash) so unchanged windows emit nothing.

The benchmark drives both engines over the same synthetic cleaned stream —
``N_TAGS`` tags random-walking a warehouse floor, a bounded set of movers
per tick — with a fan-out of standing region queries tiling the floor,
and measures aggregate emissions/sec.  Outputs are asserted byte-identical
(time + values, emission order) before any number is reported: the speedup
is only meaningful if the answers are exactly the stock engine's.

Standalone (no pytest-benchmark dependency) so CI can smoke-run it::

    PYTHONPATH=src python benchmarks/bench_query_serving.py [--quick]

Results are written to ``BENCH_query_serving.json`` at the repo root.
``--check BENCH_query_serving.json`` turns the run into a regression guard
on the multiplexer's emissions/sec (and re-asserts parity), exiting
non-zero on regression — the acceptance criterion (>= 10x aggregate
emissions/sec at 1000 standing queries over 2000 tags) is recorded in the
full run's ``speedup_vs_stock`` field.

A second block, ``relation_scaling``, prices one tick of the location-update
query (``[Partition By tag_id Row 1]`` -> ``Project`` -> ``Istream``) that
changes a single tag, at 200 / 2000 / 20 000 tags in the window.  The
incremental Istream makes that O(1) in the relation size; ``--check`` fails
if the 20 000-tag tick costs more than 3x the 200-tag one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.query import (
    MultiplexedQueryEngine,
    QueryEngine,
    location_update_query,
    standing_region_queries,
)
from repro.query.tuples import StreamTuple

#: Floor size (ft) and movement scale for the synthetic cleaned stream.
FLOOR = 60.0
BOUNDS = ((0.0, 0.0), (FLOOR, FLOOR))

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_query_serving.json"

#: Tags in the window for the ``relation_scaling`` block, and the largest
#: allowed ratio between the last and the first size's tick cost.
SCALING_SIZES = (200, 2000, 20_000)
SCALING_MAX_RATIO = 3.0


def synthetic_stream(n_ticks: int, n_tags: int, movers: int, seed: int = 5):
    """A cleaned location-update stream: ``movers`` tags move each tick.

    This is what the inference pipeline emits downstream of the output
    policy — one tuple per object that moved — so serving cost, not
    cleaning cost, is what gets measured.
    """
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, FLOOR, size=(n_tags, 2))
    ticks = []
    for k in range(n_ticks):
        time_s = float(k)
        moving = rng.choice(n_tags, size=movers, replace=False)
        batch = []
        for i in moving:
            pos[i] = np.clip(pos[i] + rng.normal(0.0, 2.0, 2), 0.0, FLOOR)
            batch.append(
                StreamTuple(
                    time_s,
                    {
                        "tag_id": f"object:{i}",
                        "x": float(pos[i][0]),
                        "y": float(pos[i][1]),
                        "z": 0.0,
                    },
                )
            )
        ticks.append(batch)
    return ticks


def build_engine(kind: str, n_queries: int):
    engine = MultiplexedQueryEngine() if kind == "multiplexed" else QueryEngine()
    engine.register(location_update_query())
    for query in standing_region_queries(n_queries, BOUNDS):
        engine.register(query)
    return engine


def serve(engine, ticks) -> float:
    start = time.perf_counter()
    for batch in ticks:
        for tup in batch:
            engine.push(tup)
    engine.finish()
    return time.perf_counter() - start


def outputs_of(engine):
    return {
        name: [(t.time, tuple(sorted(t.items()))) for t in tuples]
        for name, tuples in engine.outputs.items()
    }


def measure(n_queries: int, n_tags: int, n_ticks: int, movers: int) -> dict:
    ticks = synthetic_stream(n_ticks, n_tags, movers)

    stock = build_engine("stock", n_queries)
    stock_elapsed = serve(stock, ticks)

    mux = build_engine("multiplexed", n_queries)
    mux_elapsed = serve(mux, ticks)

    # Parity gate: identical emission streams, or the speedup is fiction.
    assert outputs_of(mux) == outputs_of(stock), (
        f"multiplexer outputs diverge from stock at {n_queries} queries"
    )

    emissions = sum(len(outputs) for outputs in mux.outputs.values())
    stats = mux.stats()
    return {
        "standing_queries": n_queries,
        "tags": n_tags,
        "ticks": n_ticks,
        "movers_per_tick": movers,
        "emissions": emissions,
        "stock_elapsed_s": round(stock_elapsed, 4),
        "multiplexed_elapsed_s": round(mux_elapsed, 4),
        "stock_emissions_per_sec": round(emissions / stock_elapsed, 1),
        "emissions_per_sec": round(emissions / mux_elapsed, 1),
        "speedup_vs_stock": round(stock_elapsed / mux_elapsed, 2),
        "shared_windows": stats["shared_windows"],
        "windows_deduped": stats["windows_deduped"],
        "cache_hit_rate": round(stats["cache_hit_rate"], 4),
        "emissions_suppressed": stats["emissions_suppressed"],
        "grid_lookups": stats["grid_lookups"],
    }


def relation_scaling(n_ticks: int, repeats: int = 3) -> dict:
    """Cost of a one-change tick of the location-update query vs the number
    of tags in its window (best of ``repeats``: interference only adds)."""
    rows = {}
    for n_tags in SCALING_SIZES:
        best = float("inf")
        for _ in range(repeats):
            engine = MultiplexedQueryEngine()
            engine.register(location_update_query())
            for i in range(n_tags):
                engine.push(
                    StreamTuple(0.0, {"tag_id": f"object:{i}", "x": float(i), "y": 0.0, "z": 0.0})
                )
            engine.finish()
            moves = [
                StreamTuple(
                    float(k), {"tag_id": f"object:{(k * 7919) % n_tags}", "x": -float(k), "y": 0.0, "z": 0.0}
                )
                for k in range(1, n_ticks + 1)
            ]
            start = time.perf_counter()
            for tup in moves:
                engine.push(tup)
            engine.finish()
            best = min(best, time.perf_counter() - start)
            emitted = len(engine.outputs["location_updates"])
            assert emitted == n_tags + n_ticks, (
                f"{emitted} location updates from {n_tags} tags + {n_ticks} moves"
            )
        rows[str(n_tags)] = {
            "tags": n_tags,
            "ticks": n_ticks,
            "tick_us": round(best / n_ticks * 1e6, 2),
        }
    first, last = (rows[str(n)]["tick_us"] for n in (SCALING_SIZES[0], SCALING_SIZES[-1]))
    return {
        "description": (
            "one-change tick of location_update_query vs tags in its window "
            "(multiplexed engine, best of 3)"
        ),
        "rows": rows,
        "largest_over_smallest": round(last / first, 2),
        "max_ratio": SCALING_MAX_RATIO,
    }


def provenance() -> dict:
    """Where and on what these numbers were taken (ROADMAP direction 2)."""

    def git(*args: str):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "host_class": f"{platform.system().lower()}-{platform.machine()}-{os.cpu_count()}cpu",
        "cpu_count": os.cpu_count(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller fan-out (CI smoke run)"
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print only, skip BENCH_query_serving.json",
    )
    parser.add_argument(
        "--check",
        type=str,
        default=None,
        metavar="BASELINE_JSON",
        help="compare against a recorded BENCH_query_serving.json and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--check-tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below the baseline (default 0.30)",
    )
    args = parser.parse_args()

    # (standing queries, tags, ticks, movers/tick).  The single-query row
    # pins parity and near-zero multiplexing overhead; the 1000-query row
    # is the acceptance criterion.
    plan = [
        (1, 2000, 60, 64),
        (100, 2000, 60, 64),
        (1000, 2000, 60, 64),
    ]
    if args.quick:
        # Same tags/movers as the full rows (emissions/sec is a rate, so
        # --check stays comparable against the recorded full baseline),
        # fewer ticks and no 1000-query row.
        plan = [(1, 2000, 12, 64), (100, 2000, 12, 64)]

    results = {}
    print(
        f"{'queries':>8} {'emissions':>10} {'stock em/s':>11} "
        f"{'mux em/s':>11} {'speedup':>8} {'cache':>6}"
    )
    for n_queries, n_tags, n_ticks, movers in plan:
        row = measure(n_queries, n_tags, n_ticks, movers)
        results[str(n_queries)] = row
        print(
            f"{n_queries:>8} {row['emissions']:>10} "
            f"{row['stock_emissions_per_sec']:>11.1f} "
            f"{row['emissions_per_sec']:>11.1f} "
            f"{row['speedup_vs_stock']:>7.2f}x "
            f"{row['cache_hit_rate'] * 100:>5.1f}%"
        )

    scaling = relation_scaling(n_ticks=100 if args.quick else 400)
    print(f"\n{'tags in window':>15} {'us / one-change tick':>21}")
    for row in scaling["rows"].values():
        print(f"{row['tags']:>15} {row['tick_us']:>21.2f}")
    print(
        f"largest / smallest: {scaling['largest_over_smallest']:.2f}x "
        f"(--check allows {SCALING_MAX_RATIO:g}x)"
    )

    payload = {
        "benchmark": "query_serving",
        "description": (
            "Aggregate standing-query emissions/sec, multiplexed vs stock "
            "per-query evaluation, over a synthetic cleaned stream "
            f"({FLOOR:g} ft floor, region fan-out tiling it; outputs "
            "asserted byte-identical before timing is reported)."
        ),
        "quick": bool(args.quick),
        "provenance": provenance(),
        "results": results,
        "relation_scaling": scaling,
    }
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {RESULT_PATH}")
    if args.check is not None:
        ok = _check_regression(results, args.check, args.check_tolerance)
        if scaling["largest_over_smallest"] > SCALING_MAX_RATIO:
            print(
                f"  relation_scaling: a tick at {SCALING_SIZES[-1]} tags costs "
                f"{scaling['largest_over_smallest']:.2f}x one at {SCALING_SIZES[0]} "
                f"(allowed {SCALING_MAX_RATIO:g}x) REGRESSION"
            )
            ok = False
        if not ok:
            sys.exit(1)


def _check_regression(results: dict, baseline_path: str, tolerance: float) -> bool:
    """True iff the multiplexer's emissions/sec at every measured fan-out
    stays within ``tolerance`` of the recorded baseline (fan-outs absent
    from the baseline are reported but not enforced)."""
    with open(baseline_path) as fp:
        baseline = json.load(fp)["results"]
    ok = True
    print(f"\nregression check vs {baseline_path} (tolerance {tolerance:.0%}):")
    for key, row in results.items():
        recorded = baseline.get(key, {}).get("emissions_per_sec")
        if not recorded:
            print(f"  {key} queries: no baseline recorded, skipping")
            continue
        floor = (1.0 - tolerance) * recorded
        measured = row["emissions_per_sec"]
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"  {key} queries: {measured:.1f} vs baseline {recorded:.1f} "
            f"(floor {floor:.1f}) {verdict}"
        )
        if measured < floor:
            ok = False
    return ok


if __name__ == "__main__":
    main()
