"""End-to-end benchmark: a reading's whole journey, attributed layer by layer.

    python3 benchmarks/e2e/bench.py run --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/bench.py run [--seed N] [--runs K] [--out results.json]
    python3 benchmarks/e2e/bench.py compare A.json B.json

``run`` simulates the workload's trace from the seed, launches the real
service as a child process (``server_main.py`` -> ``repro.cli.main(["serve",
...])``), drives it from this process over its unix socket (2 sources + 1
subscriber on one asyncio thread), checks every pass's emission log against
an in-process batch reference, prints every metric by name with its unit,
and ends with one JSON line in BENCHMARK.json's schema.  ``--trace 0``
measures the end-to-end metrics (flood + paced passes, tracing off);
``--trace 1`` measures the per-layer metrics (flood, traced and paced pass).
Without ``--workload`` it runs every workload ``--runs`` times (seeds N, N+1,
...; both modes unless ``--trace`` picks one) and writes the results document
``compare`` reads.

See README.md (beside this file) for definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ".bench_e2e"  # scratch, relative to ROOT; listed in .gitignore

if not (SRC / "repro" / "cli.py").is_file():
    # A checkout holding only BENCHMARK.json and this directory has no
    # program to measure: refuse before producing anything.
    sys.exit(f"bench.py: no source tree at {SRC}; nothing to benchmark")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
import spans  # noqa: E402
from workloads import BY_NAME, SMOKE, WORKLOADS, Workload  # noqa: E402

#: Latency limit on the paced pass's tail percentile (a quarter of a
#: real-time epoch).  A missing emission counts as missing it.
LATENCY_LIMIT_MS = 250.0
#: A reported location counts as right within this distance of the truth.
LOCATION_TOLERANCE_FT = 2.0
#: A paced pass whose fitted latency growth over the pass exceeds this is
#: flagged unsustainable (its backlog was growing).
BACKLOG_GROWTH_LIMIT_MS = 100.0
#: Cycles a ``--trace 0`` run makes at least (per-layer runs: one).
MIN_CYCLES = 3
PASS_TIMEOUT_S = 120.0
#: ``PYTHONHASHSEED`` of this process and every server child.
HASH_SEED = "0"


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


class BenchFailure(Exception):
    """Outputs wrong, child failed, or an ERROR frame: no numbers reported."""


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); degenerate samples collapse onto the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def emission_latencies_ms(
    recv_t: Sequence[float],
    produced_by: Sequence[int],
    close: Sequence[int],
    t0: float,
    rate_eps: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Latency of each emission line, timed from when its trigger was *due*.

    Line ``i`` is produced while the service processes epoch
    ``produced_by[i]``; that epoch is released by the arrival of stream
    second ``close[epoch]``, which the open-loop schedule sends at wall
    ``t0 + close / rate_eps`` — whether or not the sender managed to.
    Returns (latencies in ms, due times in seconds since ``t0``).
    """
    due = np.asarray(close, dtype=float)[np.asarray(produced_by, dtype=int)] / rate_eps
    return (np.asarray(recv_t, dtype=float) - t0 - due) * 1e3, due


# ---------------------------------------------------------------------------
# One (workload, seed) session: trace, reference, passes
# ---------------------------------------------------------------------------
class Session:
    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from repro.streams.sources import Trace

        self.workload = workload
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.trace_path = str(workdir / "trace.json")
        t = perf_counter()
        generated = workload.generate(seed)
        self.generate_s = perf_counter() - t
        with open(self.trace_path, "w") as fp:
            generated.dump(fp)
        with open(self.trace_path) as fp:
            # Everything downstream sees exactly what the server child loads.
            self.trace = Trace.load(fp)
        self.plans = loadgen.encode_sources(self.trace, n_sources=2)
        self.n_seconds = len(self.plans[0].first) - 1
        self.close = loadgen.closing_second(self.plans, self.n_seconds)
        self.records = sum(len(p.frames) for p in self.plans)
        self.passes = 0
        self.argv = self._argv("PASS")
        self._reference()

    def _argv(self, tag: str) -> List[str]:
        w = self.workdir
        return self.workload.serve_argv(
            self.trace_path, str(w / "s.sock"), str(w / f"{tag}.jsonl"), str(w / f"{tag}.ckpt")
        )

    def _reference(self) -> None:
        """In-process batch run over the same trace: the expected log, and
        which epoch's processing produces each line."""
        from repro import cli
        from repro.config import OutputPolicyConfig
        from repro.query import MultiplexedQueryEngine, location_update_query, standing_region_queries
        from repro.runtime import QueryBridge, ShardedRuntime
        from repro.serve.service import STANDING_BOUNDS, _json_scalar
        from repro.serve.sink import encode_emission

        args = cli._build_parser().parse_args(["serve", *self.argv])
        model, _, sensor = cli._default_model(self.trace)
        # No checkpoints here: they must be pure observations of the run.
        runtime = ShardedRuntime(
            model,
            cli._engine_config(args, sensor),
            replace(cli._runtime_config(args), checkpoint_every_s=None, checkpoint_dir=None),
            OutputPolicyConfig(delay_s=args.delay),
        )
        self.model = model
        engine = MultiplexedQueryEngine()
        lines: List[bytes] = []

        def emit(name, tup):
            row = {k: _json_scalar(v) for k, v in sorted(tup.items())}
            lines.append(encode_emission(len(lines), {"query": name, "time": tup.time, "row": row}))

        queries = [location_update_query()]
        if args.standing_queries:
            queries += standing_region_queries(args.standing_queries, STANDING_BOUNDS)
        for query in queries:
            engine.register(query, callback=lambda tup, name=query.name: emit(name, tup))
        QueryBridge(engine, runtime.bus, runtime=runtime, name="serve")
        epochs = self.trace.epochs()
        if len(epochs) != self.n_seconds:
            raise BenchFailure(f"trace has {len(epochs)} epochs, schedule has {self.n_seconds}")
        produced: List[int] = []
        try:
            for k, epoch in enumerate(epochs):
                runtime.step(epoch)
                produced.extend([k] * (len(lines) - len(produced)))
            runtime.finish()
        except BaseException:
            runtime.abort()
            raise
        # The end-of-stream flush is triggered by SOURCE_END, like the last epoch.
        produced.extend([self.n_seconds - 1] * (len(lines) - len(produced)))
        self.ref_lines = lines
        self.ref_sha = hashlib.sha256(b"".join(line + b"\n" for line in lines)).hexdigest()
        self.produced_by = np.asarray(produced, dtype=np.int64)
        self._score_accuracy(lines)

    def _score_accuracy(self, lines: Sequence[bytes]) -> None:
        """Accuracy of the ``location_updates`` rows against simulator truth.

        ``loc_err_ft``: the paper's inference error — mean planar distance
        between each object's last reported location and where it finally
        is.  ``within_share``: share of *all* object rows within
        :data:`LOCATION_TOLERANCE_FT` of where the object was at the row's
        time — near saturation, so it is steady across seeds where the mean
        error is not.
        """
        from repro.eval.metrics import inference_error

        truth = self.trace.truth
        last: Dict[int, np.ndarray] = {}
        within = total = 0
        for line in lines:
            doc = json.loads(line)
            row = doc["row"]
            if doc["query"] != "location_updates" or not row["tag_id"].startswith("object:"):
                continue
            number = int(row["tag_id"].split(":")[1])
            last[number] = np.array([row["x"], row["y"], row["z"]])
            at = truth.object_location_at(number, int(doc["time"] // self.trace.epoch_length))
            within += np.hypot(row["x"] - at[0], row["y"] - at[1]) <= LOCATION_TOLERANCE_FT
            total += 1
        final = truth.final_object_locations()
        self.objects_unreported = len(set(final) - set(last))
        self.loc_err_ft = inference_error(last, final, numbers=sorted(last)).xy
        self.within_share = within / total

    # ------------------------------------------------------------------
    def run_pass(self, kind: str) -> Dict[str, Any]:
        """Spawn the server child and drive one pass; returns raw measures.

        ``kind``: ``flood`` / ``paced`` (tracing off) or ``traced`` (flood
        with the span wrappers installed and one STATS fetch).
        """
        self.passes += 1
        tag = f"{kind}{self.passes}"
        w = self.workdir
        argv = self._argv(tag)
        sock = w / "s.sock"
        if sock.exists():
            sock.unlink()
        env = {k: v for k, v in os.environ.items() if not k.startswith("BENCH_")}
        env["PYTHONPATH"] = str(SRC)  # PYTHONHASHSEED is inherited (see main)
        env["BENCH_EXIT_REPORT"] = str(w / f"{tag}.exit.json")
        if kind == "traced":
            env["BENCH_TRACE"] = str(w / f"{tag}.spans.npz")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(w / f"{tag}.out", "wb") as out:
            t_spawn = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "server_main.py"), *argv],
                stdout=out,
                stderr=subprocess.STDOUT,
                env=env,
            )
            gc.disable()  # a collection in the generator would read as send lateness
            try:
                result = asyncio.run(
                    asyncio.wait_for(
                        loadgen.drive(
                            str(sock),
                            self.plans,
                            self.n_seconds,
                            self.workload.rate_eps if kind == "paced" else None,
                            t_spawn,
                            proc.pid,
                            alive=lambda: proc.poll() is None,
                            want_stats=kind == "traced",
                        ),
                        timeout=PASS_TIMEOUT_S,
                    )
                )
                code = proc.wait(timeout=30)
            except BaseException as exc:
                proc.kill()
                proc.wait()
                tail = (w / f"{tag}.out").read_text(errors="replace")[-2000:]
                if isinstance(exc, (Exception, asyncio.CancelledError)):
                    raise BenchFailure(f"{tag}: {exc!r}\n--- server output ---\n{tail}") from exc
                raise
            finally:
                gc.enable()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if code != 0:
            raise BenchFailure(f"{tag}: server child exited with status {code}")
        if result.errors:
            raise BenchFailure(f"{tag}: {result.errors[:3]}")
        log = Path(argv[argv.index("--emissions") + 1]).read_bytes()
        if log != b"".join(line + b"\n" for line in result.lines):
            raise BenchFailure(f"{tag}: delivered emissions differ from the emission log")
        sha = hashlib.sha256(log).hexdigest()
        if sha != self.ref_sha:
            raise BenchFailure(
                f"{tag}: emission log (sha256 {sha[:16]}, {len(result.lines)} lines) differs from "
                f"the in-process reference ({self.ref_sha[:16]}, {len(self.ref_lines)} lines)"
            )
        with open(env["BENCH_EXIT_REPORT"]) as fp:
            exit_report = json.load(fp)
        cpu_total = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return {
            "result": result,
            "setup_s": result.setup_s,
            "wall_s": result.wall_s,
            "cpu_s": cpu_total - result.cpu_at_t0_s,
            "peak_rss_mb": exit_report["vm_hwm_kb"] / 1024.0,
            "refused": result.records_total - result.records_sent,
            "spans_path": env.get("BENCH_TRACE"),
            "checkpoint_dir": str(w / f"{tag}.ckpt"),
        }


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------
def _dir_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def layer_metrics(session: Session, traced: Dict[str, Any], flood_wall_s: float) -> Dict[str, float]:
    result = traced["result"]
    sp = spans.Spans(traced["spans_path"], result.t0, result.t_end)
    if sp.nesting_violations():
        raise BenchFailure(f"{sp.nesting_violations()} spans escape their parent span")
    stats = result.stats
    wall = result.wall_s
    shards = stats["shards"]
    mux = stats["multiplexer"]

    # Time a record waited between being pushed and its epoch starting to step.
    step_mask = sp.mask("runtime.step")
    step_start = dict(zip(sp.epoch[step_mask].tolist(), sp.raw_start[step_mask].tolist()))
    push_mask = sp.mask("serve.watermark.push")
    holds = [
        (step_start[e] - t) * 1e3
        for e, t in zip(sp.epoch[push_mask].tolist(), sp.raw_end[push_mask].tolist())
        if e in step_start
    ]
    shard_mask = sp.mask("runtime.shard.step")  # span value = shard index
    per_shard = np.bincount(sp.value[shard_mask].astype(int), weights=sp.duration[shard_mask])

    factored = sp.durations("inference.factored.step") * 1e3
    saves = sp.durations("state.checkpoint.save") * 1e3
    loop_self = wall - sp.top_level_total()

    restore_s = 0.0
    if session.workload.checkpoints and len(saves):
        from repro.state import latest_checkpoint, restore_runtime

        t = perf_counter()
        runtime, _ = restore_runtime(latest_checkpoint(traced["checkpoint_dir"]), session.model)
        restore_s = perf_counter() - t
        runtime.abort()

    return {
        "serve.protocol.decode_s": sp.total("serve.protocol.decode"),
        "serve.protocol.frames": float(sp.values("serve.protocol.decode").sum()),
        "serve.protocol.bytes_in": float(sp.values("serve.protocol.feed").sum()),
        "serve.watermark.push_s": sp.total("serve.watermark.push"),
        "serve.watermark.poll_s": sp.total("serve.watermark.poll"),
        "serve.watermark.epochs_released": float(sp.values("serve.watermark.poll").sum()),
        "serve.watermark.buffered_peak": float(stats["ingest"]["peak_buffered"]),
        "serve.watermark.hold_ms_p50": percentile(holds, 50) if holds else 0.0,
        "serve.ingest.credit_grants": float(stats["ingest"]["credit_frames"]),
        "serve.ingest.pauses": float(stats["ingest"]["pauses"]),
        "serve.sink.emit_s": sp.total("serve.sink.emit"),
        "serve.sink.flush_s": sp.total("serve.sink.flush"),
        "serve.sink.lines": float(len(result.lines)),
        "serve.sink.bytes": float(sum(len(l) + 1 for l in result.lines)),
        "serve.transport.recv_s": sp.total("serve.transport.recv"),
        "serve.transport.send_s": sp.total("serve.transport.send"),
        "serve.transport.bytes_out": float(sp.values("serve.transport.send").sum()),
        "serve.loop.select_s": sp.total("loop.select"),
        "serve.loop_self_s": loop_self,
        "serve.self_share": (sp.self_total("serve.") + loop_self) / wall,
        "runtime.step_s": sp.total("runtime.step"),
        "runtime.router.split_s": sp.total("runtime.router.split"),
        "runtime.shard.step_s_max": float(per_shard.max()),
        "runtime.shard.step_s_mean": float(per_shard.mean()),
        "runtime.merge_self_s": float(sp.self_time[step_mask].sum()),
        "runtime.bus.publish_s": sp.total("runtime.bus.publish"),
        "runtime.bus.events": float(sp.count("runtime.bus.publish")),
        "runtime.self_share": sp.self_total("runtime.") / wall,
        "inference.pipeline.step_s": sp.total("inference.pipeline.step"),
        "inference.factored.step_s": sp.total("inference.factored.step"),
        "inference.factored.step_ms_p50": percentile(factored, 50),
        "inference.factored.step_ms_p99": percentile(factored, 99),
        "inference.factored.step_ms_min": float(factored.min()),
        "inference.active_objects_mean": float(sp.values("inference.factored.step").mean()),
        "inference.objects_skipped_settled": float(shards.get("objects_skipped_settled", 0.0)),
        "inference.budget.revives": float(shards.get("budget_revives", 0.0)),
        "inference.budget.decays": float(shards.get("budget_decays", 0.0)),
        "inference.compressions": float(shards.get("compressions", 0.0)),
        "inference.arena.bytes": float(shards.get("arena_memory_bytes", 0.0)),
        "inference.arena.used_rows": float(shards.get("arena_used_rows", 0.0)),
        "inference.self_share": sp.self_total("inference.") / wall,
        "spatial.region_index.query_s": sp.total("spatial.region_index.query"),
        "spatial.region_index.lookups": float(sp.count("spatial.region_index.query")),
        "spatial.self_share": sp.self_total("spatial.") / wall,
        "query.bridge.push_s": sp.total("query.bridge.push"),
        "query.multiplexer.tick_self_s": float(sp.self_time[sp.mask("query.multiplexer.tick")].sum()),
        "query.multiplexer.ticks": float(mux["ticks"]),
        "query.emissions": float(len(result.lines)),
        "query.emissions_suppressed": float(mux["emissions_suppressed"]),
        "query.cache_hit_rate": float(mux["cache_hit_rate"]),
        "query.grid_lookups": float(mux["grid_lookups"]),
        "query.self_share": sp.self_total("query.") / wall,
        "state.checkpoint.save_s": sp.total("state.checkpoint.save"),
        "state.checkpoint.save_ms_max": float(saves.max()) if len(saves) else 0.0,
        "state.checkpoint.count": float(len(saves)),
        "state.checkpoint.bytes": float(_dir_bytes(traced["checkpoint_dir"])) if len(saves) else 0.0,
        "state.restore.load_s": restore_s,
        "state.self_share": sp.self_total("state.") / wall,
        "simulation.generate_s": session.generate_s,
        "trace.attributed_share": 1.0 - loop_self / wall,
        "trace.overhead_share": (wall - flood_wall_s) / flood_wall_s,
        "trace.spans": float(len(sp)),
    }


# ---------------------------------------------------------------------------
# One benchmark run of one workload
# ---------------------------------------------------------------------------
def paced_measures(session: Session, passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Pooled latency samples and generator health of the paced passes."""
    rate = session.workload.rate_eps
    pooled: List[np.ndarray] = []
    late: List[float] = []
    growth: List[float] = []
    slopes: List[float] = []
    for p in passes:
        r = p["result"]
        lat, due = emission_latencies_ms(r.recv_t, session.produced_by, session.close, r.t0, rate)
        pooled.append(lat)
        late.append(percentile(r.late_s, 99) * 1e3)
        slope = float(np.polyfit(due, lat, 1)[0]) if len(lat) > 2 and np.ptp(due) > 0 else 0.0
        slopes.append(slope)
        growth.append(slope * session.n_seconds / rate)
    lat = np.concatenate(pooled)
    unsustainable = statistics.median(growth) > BACKLOG_GROWTH_LIMIT_MS
    return {
        "per_pass_ms": pooled,
        "latencies_ms": lat,
        "send_late_ms_p99": statistics.median(late),
        "backlog_slope_ms_per_s": statistics.median(slopes),
        "unsustainable": unsustainable,
        "limit_misses": int(len(lat) if unsustainable else (lat > LATENCY_LIMIT_MS).sum()),
    }


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: Optional[int], say=print
) -> Dict[str, Any]:
    """The contract's result object (plus ``details`` for the results doc).

    ``trace`` 0 reports the end-to-end metrics, 1 the per-layer metrics, and
    None both from one cycle of all three passes (the smoke test's mode).
    """
    spec = load_spec()
    workdir = Path(WORK) / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        session = Session(workload, seed, workdir)
        say(
            f"# {workload.name} seed={seed} trace={trace}: {session.records} records, "
            f"{session.n_seconds} epochs, {len(session.ref_lines)} emission lines, "
            f"sha256 {session.ref_sha[:16]}"
        )
        say(f"# argv: repro serve {' '.join(session.argv)}")
        kinds = ("flood", "paced") if trace == 0 else ("flood", "traced", "paced")
        passes: Dict[str, List[Dict[str, Any]]] = {k: [] for k in kinds}
        started = perf_counter()
        cycles = 0
        while cycles < (MIN_CYCLES if trace == 0 else 1) or perf_counter() - started < seconds:
            for kind in kinds:
                passes[kind].append(session.run_pass(kind))
            cycles += 1
        measured_s = perf_counter() - started

        every = [p for ps in passes.values() for p in ps]
        attempted = len(every) * (session.records + len(session.ref_lines))
        paced = paced_measures(session, passes["paced"])
        failed = sum(p["refused"] for p in every) + session.objects_unreported
        details: Dict[str, Any] = {
            "cycles": cycles,
            "measured_s": measured_s,
            "records": session.records,
            "epochs": session.n_seconds,
            "emission_lines": len(session.ref_lines),
            "emission_sha256": session.ref_sha,
            "argv": session.argv,
            "rate_eps": workload.rate_eps,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "latency_limit_misses": paced["limit_misses"],
            "paced_unsustainable": paced["unsustainable"],
            "gen.send_late_ms_p99": paced["send_late_ms_p99"],
            "gen.backlog_slope_ms_per_s": paced["backlog_slope_ms_per_s"],
            "samples": {},
        }
        values: Dict[str, float] = {}

        def report(name: str, samples: Sequence[float], pick=statistics.median) -> None:
            """Record ``pick(samples)`` as the metric, quartiles beside it."""
            q1, _, q3 = quartiles(samples)
            values[name] = pick(samples)
            details["samples"][name] = {"q1": q1, "q3": q3, "n": len(samples)}

        defined: List[Dict[str, Any]] = []
        if trace != 1:
            flood = passes["flood"]
            # Timings take the run's best, not its median: this box's
            # interference is one-sided (a neighbour only ever slows a
            # pass, by 10-25 % for 10-20 s at a time), so the best is the
            # steady estimate of what the code can do.  Latency takes it
            # line by line — every paced pass replays the same trace, so
            # line i's fastest delivery over the passes keeps what belongs
            # to the line (a checkpoint epoch, a heavy epoch) and drops what
            # belonged to the moment.
            best = np.min(np.vstack(paced["per_pass_ms"]), axis=0)
            report("setup_s", [p["setup_s"] for p in every])
            report("epochs_per_s", [session.n_seconds / p["wall_s"] for p in flood], max)
            report("cpu_ms_per_epoch", [p["cpu_s"] / session.n_seconds * 1e3 for p in flood], min)
            report("emit_latency_p50_ms", best, lambda v: percentile(v, 50))
            report("emit_latency_p90_ms", best, lambda v: percentile(v, 90))
            report("peak_rss_mb", [p["peak_rss_mb"] for p in flood])
            report("loc_within_2ft_share", [session.within_share])
            defined += spec["end_to_end"]
        if trace != 0:
            flood_wall = min(p["wall_s"] for p in passes["flood"])
            rows = [layer_metrics(session, p, flood_wall) for p in passes["traced"]]
            for name in rows[0]:
                report(name, [row[name] for row in rows])
            report(
                "gen.records_per_s", [session.records / p["wall_s"] for p in passes["flood"]], max
            )
            report("inference.loc_err_mean_ft", [session.loc_err_ft])
            report("gen.send_late_ms_p99", [paced["send_late_ms_p99"]])
            report("gen.backlog_slope_ms_per_s", [paced["backlog_slope_ms_per_s"]])
            defined += spec["per_layer"]

        metrics = {}
        for m in defined:
            if m["name"] not in values:
                raise BenchFailure(f"metric {m['name']} is defined but was not measured")
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            s = details["samples"][m["name"]]
            say(
                f"{m['name']:<36} {values[m['name']]:>14.6g} {m['unit']:<14}"
                f" q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}"
            )
        extra = sorted(set(values) - set(metrics))
        if extra:
            raise BenchFailure(f"measured but not defined in BENCHMARK.json: {extra}")
        say(
            f"# gen.send_late_ms_p99={paced['send_late_ms_p99']:.3f} ms (inter-epoch gap "
            f"{1e3 / workload.rate_eps:.2f} ms), backlog slope "
            f"{paced['backlog_slope_ms_per_s']:.3f} ms/s, unsustainable={paced['unsustainable']}, "
            f"latency-limit misses {paced['limit_misses']}/{len(paced['latencies_ms'])}"
        )
        say(f"# {cycles} cycle(s), {measured_s:.1f} s measured; failed {failed} of {attempted}")
        return {
            "correct": True,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
            "details": details,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Results documents and A/B comparison
# ---------------------------------------------------------------------------
def provenance(seed: int) -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
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
        "seed": seed,
    }


def run_suite(
    seed: int, runs: int, seconds: float, names: Sequence[str], modes: Sequence[int]
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "benchmark": "e2e",
        "claim": None,
        "provenance": provenance(seed),
        "workloads": {},
    }
    for name in names:
        workload = BY_NAME[name]
        entry: Dict[str, Any] = {"rate_eps": workload.rate_eps, "runs": []}
        for i in range(runs):
            row: Dict[str, Any] = {"seed": seed + i}
            for trace in modes:
                out = run_workload(workload, seed + i, seconds, trace)
                row["argv"] = out["details"]["argv"]
                row["emission_sha256"] = out["details"]["emission_sha256"]
                row["attempted"] = row.get("attempted", 0) + out["attempted"]
                row["failed"] = row.get("failed", 0) + out["failed"]
                row["end_to_end" if trace == 0 else "per_layer"] = {
                    k: v["value"] for k, v in out["metrics"].items()
                }
                row[f"details_trace{trace}"] = {
                    k: v for k, v in out["details"].items() if k != "argv"
                }
            entry["runs"].append(row)
        doc["workloads"][name] = entry
    return doc


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any], say=print) -> int:
    """Per workload x end-to-end metric: medians, quartiles, change, verdict."""
    worse = 0
    say(f"{'workload':<14} {'metric':<22} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} {'change':>8}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            say(f"{name:<14} missing from one side")
            worse += 1
            continue
        for m in spec["end_to_end"]:
            va = [r["end_to_end"][m["name"]] for r in a["workloads"][name]["runs"]]
            vb = [r["end_to_end"][m["name"]] for r in b["workloads"][name]["runs"]]
            (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
            verdict, change = judge(am, a3 - a1, bm, b3 - b1, m["better"], m["bound"])
            worse += verdict == "worse"
            say(
                f"{name:<14} {m['name']:<22} "
                f"{f'{am:.5g} [{a1:.5g}, {a3:.5g}]':<34} {f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':<34} "
                f"{change:>+8.2%}  {verdict}"
            )
    return 1 if worse else 0


def judge(
    a_med: float, a_iqr: float, b_med: float, b_iqr: float, better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, B's relative change; positive = worse)."""
    change = (b_med - a_med) / a_med
    if better == "higher":
        change = -change
    spread = max(a_iqr / abs(a_med), b_iqr / abs(b_med))
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within-bound", change


# ---------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure one workload (driver mode) or the whole suite")
    run.add_argument("--workload", choices=sorted(BY_NAME), default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=None)
    run.add_argument("--smoke", action="store_true", help="the tier-1 self-test trace, one cycle")
    run.add_argument("--runs", type=int, default=1, help="suite mode: seeds per workload")
    run.add_argument("--out", type=str, default=None, help="suite mode: results document path")
    cmp_ = sub.add_parser("compare", help="A/B two results documents against the bounds")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        with open(args.a) as fa, open(args.b) as fb:
            return compare(json.load(fa), json.load(fb), load_spec())

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The service's output depends on the string hash seed (README,
        # "Correctness gate"); the reference below and every server child
        # must share one, so start over under a fixed seed.
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *(sys.argv[1:] if argv is None else argv)],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    out_path = os.path.abspath(args.out) if args.out else None
    os.chdir(ROOT)  # short relative socket paths (sun_path is 108 bytes)
    seconds = args.seconds if args.seconds is not None else float(load_spec()["run_seconds"])
    try:
        if args.smoke:
            args.workload, seconds = SMOKE.name, 0.0
        if args.workload is not None:
            out = run_workload(BY_NAME[args.workload], args.seed, seconds, args.trace)
            out.pop("details")
            print(json.dumps(out), flush=True)
            return 0
        modes = (0, 1) if args.trace is None else (args.trace,)
        doc = run_suite(args.seed, args.runs, seconds, [w.name for w in WORKLOADS], modes)
    except BenchFailure as exc:
        print(f"bench.py: FAILED: {exc}", file=sys.stderr)
        return 1
    if out_path:
        with open(out_path, "w") as fp:
            json.dump(doc, fp, indent=1)
        print(f"# wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
