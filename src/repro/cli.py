"""Command-line interface: simulate, clean, query, and evaluate from the shell.

    python -m repro simulate --objects 16 --out trace.jsonl
    python -m repro clean trace.jsonl --events events.csv --shards 4
    python -m repro clean trace.jsonl --shards 4 --executor process
    python -m repro clean trace.jsonl --checkpoint-every 30 --checkpoint-dir ck/
    python -m repro clean trace.jsonl --checkpoint-every 30 --checkpoint-dir ck/ \
        --checkpoint-mode delta --checkpoint-full-every 8
    python -m repro checkpoint trace.jsonl --epochs 40 --out run.ckpt
    python -m repro restore run.ckpt trace.jsonl --shards 2
    python -m repro query trace.jsonl --shards 2 --executor process
    python -m repro query trace.jsonl --standing-queries 100 --emissions out.jsonl
    python -m repro query trace.jsonl --standing-queries 100 \
        --checkpoint-at 20 --checkpoint-out ck/
    python -m repro query trace.jsonl --standing-queries 100 --resume ck/
    python -m repro evaluate trace.jsonl
    python -m repro lab --timeout 0.25
    python -m repro serve trace.jsonl --socket /tmp/repro.sock \
        --emissions out.jsonl --checkpoint-every 30 --checkpoint-dir ck/
    python -m repro replay trace.jsonl --socket /tmp/repro.sock --sources 8
    python -m repro tail --socket /tmp/repro.sock --out live.jsonl
    python -m repro serve-stats --socket /tmp/repro.sock

``simulate`` writes a warehouse trace (raw streams + ground truth) in the
line-JSON trace format; ``clean`` runs the sharded cleaning runtime over a
trace and writes the location events as CSV (optionally taking periodic
checkpoints, or resuming from one with ``--resume``); ``checkpoint`` runs a
trace prefix and writes one durable snapshot; ``restore`` resumes a
checkpointed run to the end of its trace, optionally re-sharded to a
different shard count; ``query`` runs the full paper stack — epochs ->
filter shards -> event bus -> continuous queries — printing the query
outputs; ``evaluate`` scores the three systems (ours / SMURF / uniform)
against the trace's ground truth; ``lab`` runs the Fig 6(b)-style lab
comparison at one timeout setting; ``serve`` runs the long-lived online
ingest service over a unix socket (``replay`` feeds it a recorded trace as
K concurrent sources, ``tail`` follows its emission log exactly-once, and
``serve-stats`` fetches one JSON metrics snapshot).

Unknown subcommands exit with status 2 and a usage message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .baselines import SmurfLocationConfig, UniformConfig
from .config import (
    ARENA_DTYPES,
    EXECUTOR_NAMES,
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    SupervisorConfig,
)
from .faults import install_from_env
from .eval import run_factored, run_smurf, run_uniform
from .eval.report import format_table
from .learning import fit_sensor_supervised
from .models import SensorModel, config_for_sensor, initialization_geometry
from .query import fire_code_query, location_update_query
from .runtime import QueryBridge, ShardedRuntime
from .simulation import (
    ConeTruthSensor,
    LabConfig,
    LabDeployment,
    LayoutConfig,
    WarehouseConfig,
    WarehouseSimulator,
)
from .streams import CollectingSink, CsvSink, TeeSink, Trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic RFID stream cleaning (Tran et al., ICDE 2009)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a warehouse trace")
    sim.add_argument("--objects", type=int, default=16)
    sim.add_argument("--spacing", type=float, default=0.5, help="object spacing (ft)")
    sim.add_argument("--shelf-tags", type=int, default=4)
    sim.add_argument("--read-rate", type=float, default=1.0, help="RR_major in [0,1]")
    sim.add_argument("--rounds", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", type=str, required=True, help="trace output path")

    clean = sub.add_parser("clean", help="clean a trace into location events")
    clean.add_argument("trace", type=str)
    clean.add_argument("--events", type=str, default=None, help="CSV output path")
    clean.add_argument("--particles", type=int, default=400)
    clean.add_argument("--reader-particles", type=int, default=120)
    clean.add_argument("--delay", type=float, default=30.0, help="output delay (s)")
    clean.add_argument("--index", action="store_true", help="enable spatial index")
    clean.add_argument("--compress", action="store_true", help="enable compression")
    _add_engine_arguments(clean)
    clean.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="S",
        help="take a durable checkpoint every S seconds of stream time",
    )
    clean.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="directory for periodic checkpoints (required with --checkpoint-every)",
    )
    clean.add_argument(
        "--checkpoint-mode",
        type=str,
        default="full",
        choices=["full", "delta"],
        help="periodic-checkpoint persistence: full snapshots, or "
        "differential ones (dirty object blocks only) chained to the last "
        "full rebase",
    )
    clean.add_argument(
        "--checkpoint-full-every",
        type=int,
        default=8,
        metavar="N",
        help="in delta mode, rebase with a full checkpoint every Nth "
        "periodic checkpoint (default 8)",
    )
    clean.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="CHECKPOINT",
        help="resume from a checkpoint file (or a periodic-checkpoint directory) "
        "instead of starting at epoch 0 "
        "(engine options come from the checkpoint header, not the flags)",
    )
    _add_runtime_arguments(clean)

    ckpt = sub.add_parser(
        "checkpoint",
        help="run a trace prefix and write one durable snapshot",
    )
    ckpt.add_argument("trace", type=str)
    ckpt.add_argument("--out", type=str, required=True, help="checkpoint file to write")
    ckpt.add_argument(
        "--epochs",
        type=int,
        required=True,
        help="number of epochs to process before snapshotting",
    )
    ckpt.add_argument(
        "--events", type=str, default=None, help="CSV path for the prefix's events"
    )
    ckpt.add_argument("--particles", type=int, default=400)
    ckpt.add_argument("--reader-particles", type=int, default=120)
    ckpt.add_argument("--delay", type=float, default=30.0, help="output delay (s)")
    ckpt.add_argument("--index", action="store_true", help="enable spatial index")
    ckpt.add_argument("--compress", action="store_true", help="enable compression")
    _add_engine_arguments(ckpt)
    _add_runtime_arguments(ckpt)

    restore = sub.add_parser(
        "restore",
        help="resume a checkpointed run to the end of its trace",
    )
    restore.add_argument(
        "checkpoint",
        type=str,
        help="checkpoint file, or a periodic-checkpoint directory (its LATEST)",
    )
    restore.add_argument("trace", type=str)
    restore.add_argument(
        "--events", type=str, default=None, help="CSV path for the resumed events"
    )
    restore.add_argument(
        "--shards",
        type=int,
        default=None,
        help="elastically re-shard to this many shards (default: recorded layout)",
    )
    restore.add_argument(
        "--partitioner",
        type=str,
        default=None,
        choices=["hash", "mod"],
        help="partitioner for the re-sharded layout",
    )
    _add_executor_arguments(restore)
    restore.add_argument(
        "--no-verify",
        action="store_true",
        help="skip checkpoint checksum verification",
    )

    query = sub.add_parser(
        "query",
        help="clean a trace and run continuous queries over the event bus",
    )
    query.add_argument("trace", type=str)
    query.add_argument("--particles", type=int, default=400)
    query.add_argument("--reader-particles", type=int, default=120)
    query.add_argument("--delay", type=float, default=30.0, help="output delay (s)")
    query.add_argument(
        "--weight-lbs",
        type=float,
        default=90.0,
        help="per-object weight for the fire-code query",
    )
    query.add_argument(
        "--threshold-lbs",
        type=float,
        default=200.0,
        help="fire-code weight limit per square foot of shelf area",
    )
    query.add_argument(
        "--window", type=float, default=5.0, help="fire-code window (s)"
    )
    query.add_argument(
        "--standing-queries",
        type=int,
        default=0,
        metavar="N",
        help="fan out N standing region-watch queries tiling the floor; "
        "structurally identical windows are deduplicated into shared "
        "incremental operators (repro.query.multiplexer)",
    )
    query.add_argument(
        "--queries-file",
        type=str,
        default=None,
        metavar="JSON",
        help="register standing queries from a JSON spec list "
        "(see repro.query.queries_from_spec)",
    )
    query.add_argument(
        "--emissions",
        type=str,
        default=None,
        metavar="JSONL",
        help="write every query emission as JSON lines (query, time, row)",
    )
    query.add_argument(
        "--checkpoint-at",
        type=str,
        default=None,
        metavar="EPOCHS",
        help="comma-separated epoch counts: checkpoint runtime AND "
        "standing-query operator state at each cut, stop after the last "
        "(resume with --resume); --emissions then records the emissions "
        "up to the final cut",
    )
    query.add_argument(
        "--checkpoint-out",
        type=str,
        default=None,
        help="directory for --checkpoint-at snapshots (one epoch_NNNNNNNN "
        "subdirectory per cut, plus a LATEST pointer)",
    )
    query.add_argument(
        "--checkpoint-mode",
        type=str,
        default="full",
        choices=["full", "delta"],
        help="persistence for --checkpoint-at: full snapshots, or a delta "
        "chain (first cut full, later cuts dirty blocks only)",
    )
    query.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="CHECKPOINT",
        help="resume a checkpointed query run: shard state and standing-"
        "query operator state restore exactly (register the same queries "
        "via the same flags)",
    )
    _add_engine_arguments(query)
    _add_runtime_arguments(query)

    serve = sub.add_parser(
        "serve",
        help="run the online ingest service (sockets in, emission log out)",
    )
    serve.add_argument(
        "model_trace",
        type=str,
        help="trace whose ground truth derives the inference model; a "
        "resumed service must be given the same trace (the model must "
        "rebuild bit-identically for exactly-once replay)",
    )
    serve.add_argument(
        "--socket", type=str, required=True, help="unix socket path to listen on"
    )
    serve.add_argument(
        "--emissions",
        type=str,
        required=True,
        metavar="JSONL",
        help="durable emission log (recovered, never truncated, on restart)",
    )
    serve.add_argument("--particles", type=int, default=400)
    serve.add_argument("--reader-particles", type=int, default=120)
    serve.add_argument("--delay", type=float, default=30.0, help="output delay (s)")
    serve.add_argument("--index", action="store_true", help="enable spatial index")
    serve.add_argument("--compress", action="store_true", help="enable compression")
    serve.add_argument(
        "--standing-queries",
        type=int,
        default=0,
        metavar="N",
        help="fan out N standing region-watch queries over a fixed floor "
        "tiling in addition to location_updates",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="S",
        help="periodic mid-stream checkpoints every S seconds of stream time",
    )
    serve.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="checkpoint directory (required with --checkpoint-every or "
        "--resume; the SIGTERM drain also writes its final cut here)",
    )
    serve.add_argument(
        "--checkpoint-mode",
        type=str,
        default="full",
        choices=["full", "delta"],
        help="periodic-checkpoint persistence (full snapshots or delta chains)",
    )
    serve.add_argument(
        "--checkpoint-full-every",
        type=int,
        default=8,
        metavar="N",
        help="in delta mode, rebase with a full checkpoint every Nth cut",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint-dir's LATEST checkpoint when present",
    )
    serve.add_argument(
        "--epoch-length", type=float, default=1.0, help="epoch width (s)"
    )
    serve.add_argument(
        "--max-sources", type=int, default=64, help="admission-control limit"
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=1024,
        help="per-source credit window (frames in flight)",
    )
    serve.add_argument(
        "--credit-batch", type=int, default=64, help="minimum CREDIT grant"
    )
    serve.add_argument(
        "--pause-high-water",
        type=int,
        default=8192,
        help="total buffered frames that PAUSE every source",
    )
    serve.add_argument(
        "--pause-low-water",
        type=int,
        default=2048,
        help="backlog at which paused sources RESUME",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the emission log per epoch (power-loss durability; "
        "kill -9 safety does not need it)",
    )
    serve.add_argument(
        "--stay-up",
        action="store_true",
        help="keep serving stats after every source ended (default: exit 0)",
    )
    _add_runtime_arguments(serve)
    serve.add_argument(
        "--adaptive",
        action="store_true",
        help="adaptive particle budgets (see `clean --adaptive`)",
    )
    serve.add_argument(
        "--arena-dtype",
        type=str,
        default="float64",
        choices=list(ARENA_DTYPES),
        help="belief-arena storage precision",
    )

    replay = sub.add_parser(
        "replay", help="stream a stored trace into a running ingest service"
    )
    replay.add_argument("trace", type=str)
    replay.add_argument("--socket", type=str, required=True)
    replay.add_argument(
        "--sources",
        type=int,
        default=1,
        metavar="K",
        help="split the trace across K concurrent socket sources "
        "(readings round-robin; reader poses ride on source 0)",
    )
    replay.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="per-source records/second pacing (0 = as fast as credit allows)",
    )
    replay.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a refused/missing socket N times with backoff",
    )

    tail = sub.add_parser(
        "tail", help="subscribe to a service's emission stream into a file"
    )
    tail.add_argument("--socket", type=str, required=True)
    tail.add_argument(
        "--out",
        type=str,
        required=True,
        help="output JSONL file; restarting resumes from its line count",
    )
    tail.add_argument(
        "--reconnect",
        type=int,
        default=0,
        metavar="N",
        help="survive a service bounce: after the server closes, retry up "
        "to N consecutive times with backoff, resuming from the output "
        "file's line count (any delivered line refills the budget)",
    )
    tail.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a refused/missing socket N times with backoff",
    )

    shost = sub.add_parser(
        "shard-host",
        help="run a shard-worker host: remote executors boot filter shards "
        "here over TCP",
    )
    shost.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="interface to bind (default loopback; the link is neither "
        "authenticated nor encrypted, so keep it on a private network)",
    )
    shost.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default: an ephemeral port, printed)",
    )

    sstats = sub.add_parser(
        "serve-stats", help="print a running service's metrics snapshot"
    )
    sstats.add_argument("--socket", type=str, required=True)
    sstats.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a refused/missing socket N times with backoff",
    )

    sresh = sub.add_parser(
        "serve-reshard",
        help="re-shard a running service live (applied at the next epoch boundary)",
    )
    sresh.add_argument("--socket", type=str, required=True)
    sresh.add_argument(
        "--shards", type=int, required=True, metavar="N",
        help="target shard count to migrate the running runtime to",
    )
    sresh.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a refused/missing socket N times with backoff",
    )

    ev = sub.add_parser("evaluate", help="score ours vs SMURF vs uniform on a trace")
    ev.add_argument("trace", type=str)
    ev.add_argument("--particles", type=int, default=400)

    lab = sub.add_parser("lab", help="run the Fig 6(b)-style lab comparison")
    lab.add_argument("--timeout", type=float, default=0.25, choices=[0.25, 0.5, 0.75])
    lab.add_argument("--seed", type=int, default=5)
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="adaptive particle budgets: settled unread tags decay through "
        "parked tiers to Gaussians and skip the per-epoch kernels; any "
        "read revives them to the full budget",
    )
    parser.add_argument(
        "--arena-dtype",
        type=str,
        default="float64",
        choices=list(ARENA_DTYPES),
        help="belief-arena storage precision (float32 halves kernel "
        "memory bandwidth at ~1e-3 ft estimate tolerance)",
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the tag population across N filter shards",
    )
    parser.add_argument(
        "--partitioner",
        type=str,
        default="hash",
        choices=["hash", "mod"],
        help="tag-to-shard assignment scheme",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="self-heal dead or hung shard workers (--executor process): "
        "respawn, restore from the last checkpoint, replay the event "
        "suffix, and continue — output stays byte-identical",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        metavar="N",
        help="per-shard restart budget before the supervisor aborts the run",
    )
    parser.add_argument(
        "--op-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="deadline for one worker protocol op under supervision; a "
        "hung-but-alive worker past it is killed and respawned",
    )
    _add_executor_arguments(parser)


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor",
        type=str,
        default=None,
        choices=list(EXECUTOR_NAMES),
        help="how shards advance each epoch: serial (default), thread "
        "(GIL-sharing pool), process (persistent workers with "
        "shared-memory arenas), or remote (workers on `repro shard-host` "
        "endpoints over TCP; output is identical across executors)",
    )
    parser.add_argument(
        "--threads",
        action="store_true",
        help="deprecated alias for --executor thread",
    )
    parser.add_argument(
        "--shard-host",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="with --executor remote: a `repro shard-host` endpoint to run "
        "shard workers on (repeat for multiple hosts; shards round-robin "
        "across them)",
    )


def _resolve_executor(args: argparse.Namespace, default: str = "serial") -> str:
    """Executor name from ``--executor``, falling back to legacy ``--threads``."""
    if args.executor is not None:
        return args.executor
    if args.threads:
        print(
            "warning: --threads is deprecated; use --executor thread",
            file=sys.stderr,
        )
        return "thread"
    return default


def _runtime_config(args: argparse.Namespace) -> RuntimeConfig:
    supervisor = None
    if getattr(args, "supervise", False):
        supervisor = SupervisorConfig(
            max_restarts=args.max_restarts,
            op_timeout_s=args.op_timeout,
        )
    shard_hosts = getattr(args, "shard_host", None)
    return RuntimeConfig(
        n_shards=args.shards,
        partitioner=args.partitioner,
        executor=_resolve_executor(args),
        shard_hosts=tuple(shard_hosts) if shard_hosts else None,
        checkpoint_every_s=getattr(args, "checkpoint_every", None),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        checkpoint_mode=getattr(args, "checkpoint_mode", "full"),
        checkpoint_full_every=getattr(args, "checkpoint_full_every", 8),
        supervisor=supervisor,
    )


def _simulator_for(args: argparse.Namespace) -> WarehouseSimulator:
    return WarehouseSimulator(
        WarehouseConfig(
            layout=LayoutConfig(
                n_objects=args.objects,
                object_spacing_ft=args.spacing,
                n_shelf_tags=args.shelf_tags,
            ),
            sensor=ConeTruthSensor(rr_major=args.read_rate),
            n_rounds=args.rounds,
            seed=args.seed,
        )
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    simulator = _simulator_for(args)
    trace = simulator.generate()
    with open(args.out, "w") as fp:
        trace.dump(fp)
    print(
        f"wrote {args.out}: {trace.n_readings} readings, "
        f"{len(trace.reports)} location reports, "
        f"{args.objects} objects"
    )
    return 0


def _default_model(trace: Trace):
    """Inference model for a stored trace: supervised sensor fit when ground
    truth is available, library defaults otherwise."""
    from .models import (
        DEFAULT_SENSOR_PARAMS,
        MotionParams,
        RFIDWorldModel,
        SensingNoiseParams,
    )
    from .geometry import Box, ShelfRegion, ShelfSet
    from .learning import initial_motion_guess

    truth = trace.truth
    if truth is None:
        raise SystemExit("trace has no ground truth; cannot derive a model")
    positions = dict(truth.initial_positions)
    positions.update(truth.shelf_tag_positions)
    import numpy as np

    pts = np.stack(list(positions.values()))
    lo = pts.min(axis=0) - 0.25
    hi = pts.max(axis=0) + np.array([1.0, 0.25, 0.0])
    shelves = ShelfSet([ShelfRegion(0, Box(tuple(lo), tuple(hi)))])
    fit = fit_sensor_supervised(
        trace, positions, truth.reader_path, truth.reader_headings
    )
    motion = initial_motion_guess(trace)
    return (
        RFIDWorldModel.build(
            shelves,
            shelf_tags=truth.shelf_tag_positions,
            sensor_params=fit.sensor_params,
            motion_params=motion,
            sensing_params=SensingNoiseParams(sigma=(0.05, 0.05, 0.0)),
        ),
        shelves,
        SensorModel(fit.sensor_params),
    )


def _load_trace(path: str) -> Trace:
    with open(path) as fp:
        return Trace.load(fp)


def _engine_config(args: argparse.Namespace, sensor) -> InferenceConfig:
    config = config_for_sensor(
        InferenceConfig(
            reader_particles=args.reader_particles, object_particles=args.particles
        ),
        sensor,
    )
    if args.index:
        config = config.with_index()
    if args.compress:
        config = config.with_compression()
    if getattr(args, "adaptive", False):
        config = config.with_budget()
    if getattr(args, "arena_dtype", "float64") != "float64":
        from dataclasses import replace

        config = replace(config, arena=replace(config.arena, dtype=args.arena_dtype))
    return config


def _resolve_checkpoint(path: str) -> str:
    """Accept either a checkpoint file or a directory of periodic
    checkpoints (resolved through its ``LATEST`` pointer)."""
    import os

    from .state import latest_checkpoint

    if os.path.isfile(path):
        return path
    resolved = latest_checkpoint(path)
    if resolved is None:
        raise SystemExit(
            f"{path} is neither a checkpoint file nor a checkpoint "
            "directory with a LATEST pointer"
        )
    return resolved


def _print_or_write_events(events, csv_path: Optional[str], summary: str) -> None:
    if csv_path:
        with open(csv_path, "w") as handle:
            csv_sink = CsvSink(handle)
            for event in events:
                csv_sink.emit(event)
        print(f"wrote {csv_path}: {len(events)} events {summary}")
    else:
        for event in events:
            x, y, _ = event.position
            print(f"{event.time:9.1f}  {str(event.tag):>12}  ({x:7.3f}, {y:7.3f})")


def _cmd_clean(args: argparse.Namespace) -> int:
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        raise SystemExit("--checkpoint-every requires --checkpoint-dir")
    trace = _load_trace(args.trace)
    model, _, sensor = _default_model(trace)
    if args.resume is not None:
        from .state import restore_runtime

        runtime, manifest = restore_runtime(_resolve_checkpoint(args.resume), model)
        runtime.run(trace.epochs(start=manifest.epochs_processed))
        assert isinstance(runtime.sink, CollectingSink)
        _print_or_write_events(
            runtime.sink.events,
            args.events,
            f"(resumed from epoch {manifest.epochs_processed}, "
            f"{runtime.n_shards} shard{'s' if runtime.n_shards != 1 else ''})",
        )
        return 0
    config = _engine_config(args, sensor)
    collector = CollectingSink()
    sink = collector
    handle = None
    try:
        if args.events:
            handle = open(args.events, "w")
            sink = TeeSink([collector, CsvSink(handle)])
        runtime = ShardedRuntime(
            model,
            config,
            _runtime_config(args),
            OutputPolicyConfig(delay_s=args.delay),
            sink=sink,
        )
        runtime.run(trace.epochs())
    finally:
        if handle is not None:
            handle.close()
    if args.events:
        print(
            f"wrote {args.events}: {len(collector.events)} events "
            f"({args.shards} shard{'s' if args.shards != 1 else ''})"
        )
    else:
        for event in collector.events:
            x, y, _ = event.position
            print(f"{event.time:9.1f}  {str(event.tag):>12}  ({x:7.3f}, {y:7.3f})")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    import os

    from .state import checkpoint_size_bytes

    if os.path.exists(args.out):
        raise SystemExit(f"checkpoint target already exists: {args.out}")
    trace = _load_trace(args.trace)
    model, _, sensor = _default_model(trace)
    config = _engine_config(args, sensor)
    epochs = trace.epochs()
    if not (0 < args.epochs <= len(epochs)):
        raise SystemExit(
            f"--epochs must be in [1, {len(epochs)}] for this trace, "
            f"got {args.epochs}"
        )
    runtime = ShardedRuntime(
        model,
        config,
        _runtime_config(args),
        OutputPolicyConfig(delay_s=args.delay),
    )
    try:
        for epoch in epochs[: args.epochs]:
            runtime.step(epoch)
        runtime.checkpoint(args.out)
        assert isinstance(runtime.sink, CollectingSink)
        events = list(runtime.sink.events)
    finally:
        # The run is *not* finished: no scan-complete flush — this snapshot
        # is the state a crash-resumed run would continue from.  abort()
        # releases the thread pool and closes the bus on both paths.
        runtime.abort()
    if args.events:
        _print_or_write_events(events, args.events, "(prefix)")
    print(
        f"checkpointed {args.epochs}/{len(epochs)} epochs to {args.out}: "
        f"{runtime.n_shards} shard{'s' if runtime.n_shards != 1 else ''}, "
        f"{checkpoint_size_bytes(args.out)} bytes, {len(events)} events emitted"
    )
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from .state import read_checkpoint_header, restore_runtime
    from .state.checkpoint import runtime_config_from_dict

    path = _resolve_checkpoint(args.checkpoint)
    trace = _load_trace(args.trace)
    model, _, _ = _default_model(trace)
    recorded = runtime_config_from_dict(read_checkpoint_header(path)["runtime_config"])
    executor = _resolve_executor(args, default=recorded.executor)
    shard_hosts = (
        tuple(args.shard_host)
        if getattr(args, "shard_host", None)
        else recorded.shard_hosts
    )
    target = dc_replace(
        recorded,
        n_shards=args.shards if args.shards is not None else recorded.n_shards,
        partitioner=(
            args.partitioner if args.partitioner is not None else recorded.partitioner
        ),
        executor=executor,
        # A remote checkpoint restored onto a local executor (or vice
        # versa) must not drag stale endpoints along.
        shard_hosts=shard_hosts if executor == "remote" else None,
    )
    runtime, manifest = restore_runtime(
        path, model, runtime_config=target, verify=not args.no_verify
    )
    resharded = target.n_shards != manifest.n_shards
    runtime.run(trace.epochs(start=manifest.epochs_processed))
    assert isinstance(runtime.sink, CollectingSink)
    _print_or_write_events(
        runtime.sink.events,
        args.events,
        f"(resumed from epoch {manifest.epochs_processed}"
        + (
            f", re-sharded {manifest.n_shards} -> {target.n_shards})"
            if resharded
            else f", {target.n_shards} shard{'s' if target.n_shards != 1 else ''})"
        ),
    )
    return 0


def _trace_bounds(epochs, pad: float = 8.0):
    """Floor bounds for region fan-out, from the trace's reported path."""
    import numpy as np

    points = [e.position_array for e in epochs if e.position_array is not None]
    if not points:
        return ((0.0, 0.0), (50.0, 50.0))
    stack = np.stack(points)
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    return (
        (float(lo[0]) - pad, float(lo[1]) - pad),
        (float(hi[0]) + pad, float(hi[1]) + pad),
    )


def _write_emissions(engine, path: str) -> int:
    """Dump every query output tuple as JSON lines, grouped by query name."""
    import json

    def scalar(value):
        try:
            return json.dumps(value) and value
        except TypeError:
            return float(value) if hasattr(value, "__float__") else str(value)

    written = 0
    with open(path, "w") as fp:
        for name in sorted(engine.outputs):
            for tup in engine.outputs[name]:
                row = {k: scalar(v) for k, v in sorted(tup.items())}
                fp.write(
                    json.dumps({"query": name, "time": tup.time, "row": row}) + "\n"
                )
                written += 1
    return written


def _print_multiplexer_stats(engine) -> None:
    stats = engine.stats()
    print(
        f"\nmultiplexer: {stats['queries']} queries over "
        f"{stats['shared_windows']} shared window operator"
        f"{'s' if stats['shared_windows'] != 1 else ''} "
        f"({stats['windows_deduped']} deduplicated)"
    )
    print(
        f"cache: {stats['cache_hit_rate'] * 100.0:.1f}% hit rate "
        f"({stats['cache_hits']} hits / {stats['cache_misses']} misses), "
        f"{stats['emissions_suppressed']} emissions suppressed, "
        f"{stats['grid_lookups']} grid lookups"
    )
    print(
        f"serve: {stats['serve_s_per_tick'] * 1e3:.3f} ms/tick over "
        f"{stats['ticks']} ticks; {stats['belief_reads']} belief reads "
        f"({stats['read_view_refreshes']} view refreshes)"
    )


def _cmd_query(args: argparse.Namespace) -> int:
    """The paper's full stack: epochs -> shards -> event bus -> CQL queries."""
    import json
    import os

    from .query import (
        MultiplexedQueryEngine,
        queries_from_spec,
        standing_region_queries,
    )

    trace = _load_trace(args.trace)
    model, _, sensor = _default_model(trace)
    config = config_for_sensor(
        InferenceConfig(
            reader_particles=args.reader_particles, object_particles=args.particles
        ),
        sensor,
    )
    epochs = trace.epochs()
    cuts = None
    if args.checkpoint_at is not None:
        if args.checkpoint_out is None:
            raise SystemExit("--checkpoint-at requires --checkpoint-out")
        if args.resume is not None:
            raise SystemExit("--checkpoint-at and --resume are exclusive")
        try:
            cuts = sorted({int(part) for part in args.checkpoint_at.split(",")})
        except ValueError:
            raise SystemExit(f"bad --checkpoint-at: {args.checkpoint_at!r}")
        if not cuts or cuts[0] < 1 or cuts[-1] > len(epochs):
            raise SystemExit(
                f"--checkpoint-at epochs must be in [1, {len(epochs)}]"
            )

    engine = MultiplexedQueryEngine()
    engine.register(location_update_query())
    engine.register(
        fire_code_query(
            weight_fn=lambda tag_id: args.weight_lbs,
            threshold_lbs=args.threshold_lbs,
            window_s=args.window,
        )
    )
    standing = 0
    if args.standing_queries:
        for q in standing_region_queries(args.standing_queries, _trace_bounds(epochs)):
            engine.register(q)
            standing += 1
    if args.queries_file:
        with open(args.queries_file) as fp:
            specs = json.load(fp)
        for q in queries_from_spec(specs):
            engine.register(q)
            standing += 1

    if args.resume is not None:
        from .state import apply_query_states, restore_runtime

        runtime, manifest = restore_runtime(_resolve_checkpoint(args.resume), model)
        bridge = QueryBridge(engine, runtime.bus, runtime=runtime)
        apply_query_states(runtime, manifest)
        runtime.run(trace.epochs(start=manifest.epochs_processed))
        print(
            f"resumed from epoch {manifest.epochs_processed}: cleaned "
            f"{runtime.bus.published} events through {runtime.n_shards} "
            f"shard{'s' if runtime.n_shards != 1 else ''} "
            f"({bridge.tuples_pushed} tuples bridged)"
        )
    else:
        runtime = ShardedRuntime(
            model,
            config,
            _runtime_config(args),
            OutputPolicyConfig(delay_s=args.delay),
        )
        bridge = QueryBridge(engine, runtime.bus, runtime=runtime)
        if cuts is not None:
            parent = None
            try:
                done = 0
                for i, cut in enumerate(cuts):
                    for epoch in epochs[done:cut]:
                        runtime.step(epoch)
                    done = cut
                    target = os.path.join(args.checkpoint_out, f"epoch_{cut:08d}")
                    mode = (
                        "delta" if args.checkpoint_mode == "delta" and i else "full"
                    )
                    runtime.checkpoint(target, mode=mode, parent=parent)
                    parent = target
                # Emissions BEFORE the bus closes: the final pending tick
                # belongs to the checkpoint (and to the resumed run), not to
                # this prefix.
                if args.emissions:
                    n = _write_emissions(engine, args.emissions)
                    print(f"wrote {args.emissions}: {n} emissions (prefix)")
                with open(os.path.join(args.checkpoint_out, "LATEST"), "w") as fp:
                    fp.write(os.path.basename(parent) + "\n")
            finally:
                runtime.abort()
            print(
                f"checkpointed at epoch{'s' if len(cuts) != 1 else ''} "
                f"{','.join(str(c) for c in cuts)} "
                f"({args.checkpoint_mode}) to {args.checkpoint_out}"
            )
            _print_multiplexer_stats(engine)
            return 0
        runtime.run(epochs)
        print(
            f"cleaned {runtime.bus.published} events through {runtime.n_shards} "
            f"shard{'s' if runtime.n_shards != 1 else ''} "
            f"({bridge.tuples_pushed} tuples bridged)"
        )
    updates = engine.outputs["location_updates"]
    print(f"\nlocation_updates: {len(updates)} tuples")
    for tup in updates:
        print(
            f"{tup.time:9.1f}  {tup['tag_id']:>12}  "
            f"({tup['x']:7.3f}, {tup['y']:7.3f})"
        )
    violations = engine.outputs["fire_code"]
    print(
        f"\nfire_code (> {args.threshold_lbs:g} lbs/sq-ft, "
        f"{args.window:g} s window): {len(violations)} violations"
    )
    for tup in violations:
        print(
            f"{tup.time:9.1f}  area={tup['area']}  "
            f"total_weight={tup['total_weight']:g} lbs"
        )
    if standing:
        total = sum(
            len(engine.outputs[q]) for q in engine.outputs
            if q not in ("location_updates", "fire_code")
        )
        print(f"\nstanding queries: {standing} registered, {total} emissions")
    if args.emissions:
        n = _write_emissions(engine, args.emissions)
        print(f"wrote {args.emissions}: {n} emissions")
    _print_multiplexer_stats(engine)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .config import ServeConfig
    from .serve import ReproService

    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        raise SystemExit("--checkpoint-every requires --checkpoint-dir")
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    trace = _load_trace(args.model_trace)
    model, _, sensor = _default_model(trace)
    service = ReproService(
        model,
        inference=_engine_config(args, sensor),
        runtime=_runtime_config(args),
        policy=OutputPolicyConfig(delay_s=args.delay),
        serve=ServeConfig(
            epoch_length=args.epoch_length,
            max_sources=args.max_sources,
            queue_capacity=args.queue_capacity,
            credit_batch=args.credit_batch,
            pause_high_water=args.pause_high_water,
            pause_low_water=args.pause_low_water,
            fsync=args.fsync,
        ),
        socket_path=args.socket,
        emissions_path=args.emissions,
        standing_queries=args.standing_queries,
        resume=args.resume,
        exit_on_end=not args.stay_up,
    )
    service.build()
    resumed = (
        f"resumed from {service.resumed_from}"
        if service.resumed_from
        else "fresh start"
    )
    print(
        f"serving on {args.socket}: {service.runtime.n_shards} shard"
        f"{'s' if service.runtime.n_shards != 1 else ''}, emissions -> "
        f"{args.emissions} ({resumed}, "
        f"{service.sink.logged} lines recovered)",
        flush=True,
    )
    code = service.run()
    print(
        f"served {service.runtime.epochs_processed} epochs: "
        f"{service.sink.stats()['appended']} emissions appended, "
        f"{service.sink.stats()['replay_suppressed']} replayed"
    )
    return code


def _cmd_replay(args: argparse.Namespace) -> int:
    from .serve import ReplaySource

    trace = _load_trace(args.trace)
    replay = ReplaySource(
        args.socket,
        trace,
        n_sources=args.sources,
        rate=args.rate,
        connect_retries=args.connect_retries,
    )
    report = replay.run()
    for name in sorted(report):
        row = report[name]
        print(
            f"{name}: sent {row['sent']}/{row['records']} "
            f"(skipped {row['skipped_as_acked']} already-acked, "
            f"{row['pauses_seen']} pauses)"
        )
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    from .serve import EmissionTail

    tail = EmissionTail(
        args.socket,
        args.out,
        reconnect=args.reconnect,
        connect_retries=args.connect_retries,
    )
    received = tail.run()
    note = (
        f", {tail.reconnects_used} reconnects" if tail.reconnects_used else ""
    )
    if tail.degraded_seen:
        note += f", {tail.degraded_seen} degraded-flagged"
    print(f"wrote {args.out}: {received} new emissions{note}")
    return 0


def _cmd_shard_host(args: argparse.Namespace) -> int:
    import signal

    from .runtime.transport import ShardHostServer

    server = ShardHostServer(host=args.host, port=args.port)
    # Print the bound endpoint on its own line so wrappers (tests, CI,
    # launch scripts) can scrape the ephemeral port.
    print(f"shard-host listening on {args.host}:{server.port}", flush=True)

    def _stop(signum, frame):  # noqa: ARG001 - signal handler signature
        server.shutdown()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    import json

    from .serve import fetch_stats

    print(
        json.dumps(
            fetch_stats(args.socket, connect_retries=args.connect_retries),
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_serve_reshard(args: argparse.Namespace) -> int:
    from .serve import request_reshard

    ack = request_reshard(
        args.socket, args.shards, connect_retries=args.connect_retries
    )
    print(f"re-shard to {ack['n_shards']} shards queued")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    model, shelves, sensor = _default_model(trace)
    config = config_for_sensor(
        InferenceConfig(object_particles=args.particles, reader_particles=120),
        sensor,
    )
    _, cone_range = initialization_geometry(sensor)
    ours = run_factored(trace, model, config)
    smurf = run_smurf(
        trace, shelves, SmurfLocationConfig(read_range_ft=cone_range)
    )
    uniform = run_uniform(trace, shelves, UniformConfig(read_range_ft=cone_range))
    rows = [
        [r.name, r.error.x, r.error.y, r.error.xy, r.time_per_reading_ms]
        for r in (ours, smurf, uniform)
        if r.error is not None
    ]
    print(
        format_table(
            ["system", "X (ft)", "Y (ft)", "XY (ft)", "ms/reading"],
            rows,
            title=f"evaluation of {args.trace}",
        )
    )
    return 0


def _cmd_lab(args: argparse.Namespace) -> int:
    lab = LabDeployment(LabConfig(seed=args.seed))
    calibration = lab.generate(timeout_s=args.timeout, seed=args.seed + 90)
    fit = fit_sensor_supervised(
        calibration,
        lab.reference_positions,
        calibration.truth.reader_path,
        calibration.truth.reader_headings,
    )
    sensor = SensorModel(fit.sensor_params)
    trace = lab.generate(timeout_s=args.timeout)
    rows = []
    for shelves, label in (
        (lab.small_shelves(), "small"),
        (lab.large_shelves(), "large"),
    ):
        model = lab.world_model(fit.sensor_params, shelves)
        config = config_for_sensor(
            InferenceConfig(reader_particles=150, object_particles=300), sensor
        )
        depth = shelves[0].box.hi[0] - shelves[0].box.lo[0]
        _, cone_range = initialization_geometry(sensor)
        read_range = max(cone_range, lab.config.shelf_x_ft + depth)
        for result in (
            run_factored(trace, model, config, name="ours"),
            run_smurf(trace, shelves, SmurfLocationConfig(read_range_ft=read_range)),
            run_uniform(trace, shelves, UniformConfig(read_range_ft=read_range)),
        ):
            rows.append([label, result.name, result.error.x, result.error.y, result.error.xy])
    print(
        format_table(
            ["shelf", "system", "X (ft)", "Y (ft)", "XY (ft)"],
            rows,
            title=f"lab comparison, timeout {args.timeout}s (cf. Fig 6b)",
            float_format="{:.2f}",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    install_from_env()  # REPRO_FAULTS: deterministic fault injection (CI)
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "clean": _cmd_clean,
        "checkpoint": _cmd_checkpoint,
        "restore": _cmd_restore,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "replay": _cmd_replay,
        "tail": _cmd_tail,
        "shard-host": _cmd_shard_host,
        "serve-stats": _cmd_serve_stats,
        "serve-reshard": _cmd_serve_reshard,
        "evaluate": _cmd_evaluate,
        "lab": _cmd_lab,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
