"""Command-line interface: simulate, clean, query, and evaluate from the shell.

    python -m repro simulate --objects 16 --out trace.jsonl
    python -m repro clean trace.jsonl --events events.csv --shards 4
    python -m repro clean trace.jsonl --shards 4 --executor process
    python -m repro clean trace.jsonl --checkpoint-every 30 --checkpoint-dir ck/ \
        --checkpoint-mode delta --checkpoint-full-every 8
    python -m repro clean trace.jsonl --checkpoint-at 40 --checkpoint-out ck/
    python -m repro clean trace.jsonl --resume ck/ --shards 2
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
trace and writes the location events as CSV; ``query`` runs the full paper
stack — epochs -> filter shards -> event bus -> continuous queries —
printing the query outputs.  Both batch verbs share one run loop: periodic
checkpoints (``--checkpoint-every``), stop-at cuts (``--checkpoint-at``),
and ``--resume`` from a checkpoint, re-sharded by any sharding flag given
(``serve --resume`` reconciles its flags the same way).
``evaluate`` scores the three systems (ours / SMURF / uniform) against the
trace's ground truth; ``lab`` runs the Fig 6(b)-style lab comparison at one
timeout setting; ``serve`` runs the long-lived online ingest service over a
unix socket (``replay`` feeds it a recorded trace as K concurrent sources,
``tail`` follows its emission log exactly-once, and ``serve-stats`` fetches
one JSON metrics snapshot).

Unknown subcommands and invalid flag values (an unknown choice, or a value
the config dataclasses reject) exit with status 2 and a usage message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import typing
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from . import __version__
from .baselines import SmurfLocationConfig, UniformConfig
from .config import (
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    ServeConfig,
    SupervisorConfig,
)
from .errors import ConfigurationError, StateError
from .faults import install_from_env
from .eval import run_factored, run_smurf, run_uniform
from .eval.report import format_table
from .learning import fit_sensor_supervised
from .models import SensorModel, config_for_sensor, initialization_geometry
from .query import fire_code_query, location_update_query
from .runtime import QueryBridge, ShardedRuntime
from .simulation import (
    LabConfig,
    LabDeployment,
    WarehouseConfig,
    WarehouseSimulator,
)
from .streams import CsvSink, Trace


#: Resolved once per config dataclass, not once per flag per verb.
_type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


@dataclass(frozen=True)
class _FlagGroup:
    """CLI flags projected from the fields of one config dataclass.

    ``flags`` maps a field (``"a.b"`` reaches into the sub-config ``a``) to
    ``("--flag [METAVAR]", help)``.  Type, default and choices are read off
    ``default`` — the CLI's default instance of the dataclass — so a knob
    is declared in ``config.py`` and only *spelled* here.
    """

    default: Any
    flags: Dict[str, Tuple[str, str]]

    def add_to(self, parser, only=None, suppress: bool = False) -> None:
        """Register the group's flags (or the ``only`` subset of its fields)
        on ``parser``; ``suppress`` leaves an ungiven flag off the namespace
        instead of filling in the default."""
        for path, (spec, help_text) in self.flags.items():
            if only is not None and path not in only:
                continue
            head, _, leaf = path.rpartition(".")
            owner = getattr(self.default, head) if head else self.default
            hint = _type_hints(type(owner))[leaf]
            if typing.get_origin(hint) is typing.Union:  # Optional[X] -> X
                hint = next(a for a in typing.get_args(hint) if a is not type(None))
            default = argparse.SUPPRESS if suppress else getattr(owner, leaf)
            flag, _, metavar = spec.partition(" ")
            if hint is bool:
                parser.add_argument(
                    flag, action="store_true", default=default, help=help_text
                )
                continue
            repeatable = typing.get_origin(hint) is tuple  # Tuple[X, ...]
            (field,) = (f for f in fields(owner) if f.name == leaf)
            parser.add_argument(
                flag,
                action="append" if repeatable else "store",
                type=typing.get_args(hint)[0] if repeatable else hint,
                default=default,
                choices=field.metadata.get("choices"),
                metavar=metavar or None,
                help=help_text,
            )

    def _carried(self, args: argparse.Namespace):
        """``(flag, field path, value)`` for every flag of the group that
        ``args`` carries."""
        for path, (spec, _) in self.flags.items():
            flag = spec.partition(" ")[0]
            dest = flag.lstrip("-").replace("-", "_")
            if hasattr(args, dest):
                value = getattr(args, dest)
                yield flag, path, tuple(value) if isinstance(value, list) else value

    def given(self, args: argparse.Namespace) -> Dict[str, Any]:
        """``replace()`` keyword arguments for every flag of the group that
        ``args`` carries."""
        updates: Dict[str, Any] = {}
        for _, path, value in self._carried(args):
            head, _, leaf = path.rpartition(".")
            if head:  # a sub-config's field: fold into one replace of the sub-config
                value = replace(updates.get(head, getattr(self.default, head)), **{leaf: value})
            updates[head or leaf] = value
        return updates

    def build(self, args: argparse.Namespace):
        return replace(self.default, **self.given(args))

    def conflicts(self, args: argparse.Namespace, recorded) -> List[str]:
        """``"--flag value (recorded: x)"`` for every flag ``args`` carries
        whose value is not the one the config ``recorded`` holds."""
        return [
            f"{flag} {value} (recorded: {held})"
            for flag, path, value in self._carried(args)
            if value != (held := functools.reduce(getattr, path.split("."), recorded))
        ]


_ENGINE = _FlagGroup(
    InferenceConfig(reader_particles=120, object_particles=400),
    {
        "object_particles": ("--particles", "particles per object"),
        "reader_particles": ("--reader-particles", "reader particles"),
        "spatial_index.enabled": ("--index", "enable spatial index"),
        "compression.enabled": ("--compress", "enable compression"),
        "budget.enabled": (
            "--adaptive",
            "adaptive particle budgets: settled unread tags decay through "
            "parked tiers to Gaussians and skip the per-epoch kernels; any "
            "read revives them to the full budget",
        ),
        "arena.dtype": (
            "--arena-dtype",
            "belief-arena storage precision (float32 halves kernel "
            "memory bandwidth at ~1e-3 ft estimate tolerance)",
        ),
    },
)

_POLICY = _FlagGroup(
    OutputPolicyConfig(delay_s=30.0), {"delay_s": ("--delay", "output delay (s)")}
)

_RUNTIME = _FlagGroup(
    RuntimeConfig(),
    {
        "n_shards": (
            "--shards",
            "partition the tag population across N filter shards",
        ),
        "executor": (
            "--executor",
            "how shards advance each epoch: serial, process (persistent "
            "local worker processes), or remote (workers on "
            "`repro shard-host` endpoints over TCP; output is identical "
            "across executors)",
        ),
        "shard_hosts": (
            "--shard-host HOST:PORT",
            "with --executor remote: a `repro shard-host` endpoint to run "
            "shard workers on (repeat for multiple hosts; shards round-robin "
            "across them)",
        ),
    },
)

_CHECKPOINTS = _FlagGroup(
    RuntimeConfig(),
    {
        "checkpoint_every_s": (
            "--checkpoint-every S",
            "take a durable checkpoint every S seconds of stream time",
        ),
        "checkpoint_dir": (
            "--checkpoint-dir",
            "directory for periodic checkpoints (required with "
            "--checkpoint-every)",
        ),
        "checkpoint_mode": (
            "--checkpoint-mode",
            "periodic-checkpoint persistence: full snapshots, or "
            "differential ones (dirty object blocks only) chained to the last "
            "full rebase",
        ),
        "checkpoint_full_every": (
            "--checkpoint-full-every N",
            "in delta mode, rebase with a full checkpoint every Nth "
            "periodic checkpoint",
        ),
    },
)

_SUPERVISOR = _FlagGroup(
    SupervisorConfig(),
    {
        "max_restarts": (
            "--max-restarts N",
            "per-shard restart budget before the supervisor aborts the run",
        ),
        "op_timeout_s": (
            "--op-timeout S",
            "deadline for one worker protocol op under supervision; a "
            "hung-but-alive worker past it is killed and respawned",
        ),
    },
)

_SERVE = _FlagGroup(
    ServeConfig(),
    {
        "epoch_length": ("--epoch-length", "epoch width (s)"),
        "max_sources": ("--max-sources", "admission-control limit"),
        "queue_capacity": (
            "--queue-capacity",
            "per-source credit window (frames in flight)",
        ),
        "credit_batch": ("--credit-batch", "minimum CREDIT grant"),
        "pause_high_water": (
            "--pause-high-water",
            "total buffered frames that PAUSE every source",
        ),
        "pause_low_water": (
            "--pause-low-water",
            "backlog at which paused sources RESUME",
        ),
        "fsync": (
            "--fsync",
            "fsync the emission log per epoch (power-loss durability; "
            "kill -9 safety does not need it)",
        ),
    },
)

_SIMULATE = _FlagGroup(
    WarehouseConfig(),
    {
        "layout.n_objects": ("--objects", "object tags on the shelves"),
        "layout.object_spacing_ft": ("--spacing", "object spacing (ft)"),
        "layout.n_shelf_tags": ("--shelf-tags", "reference tags at known locations"),
        "sensor.rr_major": ("--read-rate", "RR_major in [0,1]"),
        "n_rounds": ("--rounds", "aisle scans, alternating direction"),
        "seed": ("--seed", "simulation seed"),
    },
)

_LAB = _FlagGroup(LabConfig(seed=5), {"seed": ("--seed", "lab deployment seed")})


def _add_sharding_arguments(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    _RUNTIME.add_to(parser, suppress=suppress)
    parser.add_argument(
        "--supervise",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="self-heal dead or hung shard workers (--executor process): "
        "respawn, restore from the last checkpoint, replay the event "
        "suffix, and continue — output stays byte-identical",
    )
    _SUPERVISOR.add_to(parser, suppress=suppress)


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine, policy, checkpoint, sharding and supervisor flags of the
    verbs that run the runtime (``clean``, ``query``, ``serve``).

    An ungiven flag stays off the namespace (a fresh run still builds the
    default instances), so a ``--resume`` can tell what was given."""
    _ENGINE.add_to(parser, suppress=True)
    _POLICY.add_to(parser, suppress=True)
    _CHECKPOINTS.add_to(parser, suppress=True)
    _add_sharding_arguments(parser, suppress=True)


def _add_batch_arguments(parser: argparse.ArgumentParser) -> None:
    """The trace, config and checkpoint flags ``clean`` and ``query`` share."""
    parser.add_argument("trace", type=str)
    _add_runtime_arguments(parser)
    parser.add_argument(
        "--checkpoint-at",
        type=str,
        default=None,
        metavar="EPOCHS",
        help="comma-separated epoch counts: checkpoint the runtime AND the "
        "standing-query operator state at each cut (the first full, later "
        "ones per --checkpoint-mode), stop after the last (resume with "
        "--resume); the run's output is then the output up to the final cut",
    )
    parser.add_argument(
        "--checkpoint-out",
        type=str,
        default=None,
        help="directory for --checkpoint-at snapshots (one epoch_NNNNNNNN "
        "file per cut, plus a LATEST pointer)",
    )
    parser.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="CHECKPOINT",
        help="resume from a checkpoint file (or a checkpoint directory's "
        "LATEST) instead of starting at epoch 0; sharding, supervisor and "
        "checkpoint flags given override the recorded ones (a different "
        "--shards re-shards), an engine or policy flag must repeat the "
        "recorded value",
    )


def _add_standing_queries_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--standing-queries",
        type=int,
        default=0,
        metavar="N",
        help="fan out N standing region-watch queries tiling the floor; "
        "structurally identical windows are deduplicated into shared "
        "incremental operators (repro.query.multiplexer)",
    )


def _add_socket_client_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", type=str, required=True, help="the service's unix socket path"
    )
    parser.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a refused/missing socket N times with backoff",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic RFID stream cleaning (Tran et al., ICDE 2009)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, handler, help: str) -> argparse.ArgumentParser:
        # The verb's own parser reports its usage errors (`repro <verb>: error`).
        verb_parser = sub.add_parser(name, help=help)
        verb_parser.set_defaults(handler=handler, usage_error=verb_parser.error)
        return verb_parser

    sim = verb("simulate", _cmd_simulate, "generate a warehouse trace")
    _SIMULATE.add_to(sim)
    sim.add_argument("--out", type=str, required=True, help="trace output path")

    clean = verb("clean", _cmd_clean, "clean a trace into location events")
    _add_batch_arguments(clean)
    clean.add_argument("--events", type=str, default=None, help="CSV output path")

    query = verb(
        "query",
        _cmd_query,
        "clean a trace and run continuous queries over the event bus",
    )
    _add_batch_arguments(query)
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
    _add_standing_queries_argument(query)
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

    serve = verb(
        "serve",
        _cmd_serve,
        "run the online ingest service (sockets in, emission log out)",
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
    _add_runtime_arguments(serve)
    _add_standing_queries_argument(serve)
    serve.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint-dir's LATEST checkpoint when present "
        "(the SIGTERM drain also writes its final cut to --checkpoint-dir), "
        "under its recorded options as `clean --resume` does",
    )
    _SERVE.add_to(serve)
    serve.add_argument(
        "--stay-up",
        action="store_true",
        help="keep serving stats after every source ended (default: exit 0)",
    )

    replay = verb(
        "replay", _cmd_replay, "stream a stored trace into a running ingest service"
    )
    replay.add_argument("trace", type=str)
    _add_socket_client_arguments(replay)
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

    tail = verb(
        "tail", _cmd_tail, "subscribe to a service's emission stream into a file"
    )
    _add_socket_client_arguments(tail)
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

    shost = verb(
        "shard-host",
        _cmd_shard_host,
        "run a shard-worker host: remote executors boot filter shards "
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

    sstats = verb(
        "serve-stats", _cmd_serve_stats, "print a running service's metrics snapshot"
    )
    _add_socket_client_arguments(sstats)

    sresh = verb(
        "serve-reshard",
        _cmd_serve_reshard,
        "re-shard a running service live (applied at the next epoch boundary)",
    )
    _add_socket_client_arguments(sresh)
    sresh.add_argument(
        "--shards", type=int, required=True, metavar="N",
        help="target shard count to migrate the running runtime to",
    )

    ev = verb("evaluate", _cmd_evaluate, "score ours vs SMURF vs uniform on a trace")
    ev.add_argument("trace", type=str)
    _ENGINE.add_to(ev, only=("object_particles",))

    lab = verb("lab", _cmd_lab, "run the Fig 6(b)-style lab comparison")
    lab.add_argument("--timeout", type=float, default=0.25, choices=[0.25, 0.5, 0.75])
    _LAB.add_to(lab)
    return parser


def _runtime_config(args: argparse.Namespace) -> RuntimeConfig:
    return _layout(RuntimeConfig(), args)


def _layout(base: RuntimeConfig, args: argparse.Namespace) -> RuntimeConfig:
    """``base`` with the sharding, checkpoint and supervisor flags that
    ``args`` carries applied over it; a supervisor flag needs supervision
    (``--supervise``, or a ``base`` that has it)."""
    given = {**_RUNTIME.given(args), **_CHECKPOINTS.given(args)}
    if given.get("executor", base.executor) != "remote" and "shard_hosts" not in given:
        # A remote checkpoint restored onto a local executor must not drag
        # stale endpoints along.
        given["shard_hosts"] = None
    if hasattr(args, "supervise") or base.supervisor is not None:
        given["supervisor"] = replace(
            base.supervisor or SupervisorConfig(), **_SUPERVISOR.given(args)
        )
    elif _SUPERVISOR.given(args):
        raise ConfigurationError(
            "--max-restarts and --op-timeout apply under supervision: add --supervise"
        )
    return replace(base, **given)


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = WarehouseSimulator(_SIMULATE.build(args)).generate()
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
    from .models import RFIDWorldModel, SensingNoiseParams
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
    # Each epoch is fit against where the tags are then.  Shelf tags reuse
    # object numbers 0..K-1 and win that clash, so their columns never move.
    moves = [m for m in truth.moves if m.number not in truth.shelf_tag_positions]
    fit = fit_sensor_supervised(
        trace, positions, truth.reader_path, truth.reader_headings, moves=moves
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
    return config_for_sensor(_ENGINE.build(args), sensor)


def _resumed_layout(args: argparse.Namespace, path: str) -> RuntimeConfig:
    """The runtime config checkpoint ``path`` resumes under: the recorded one
    with the sharding, checkpoint and supervisor flags given applied over it.
    The engine and policy configs are the recorded ones: a given flag that
    asks for another value is a usage error, not a silent no-op."""
    from .config import inference_config_from_dict
    from .state import read_checkpoint_header
    from .state.checkpoint import _MALFORMED, runtime_config_from_dict

    header = read_checkpoint_header(path)
    try:
        conflicts = _ENGINE.conflicts(
            args, inference_config_from_dict(header["inference_config"])
        ) + _POLICY.conflicts(args, OutputPolicyConfig(**header["output_policy"]))
        recorded = runtime_config_from_dict(header["runtime_config"])
    except _MALFORMED as exc:
        raise StateError(f"{path}: malformed header: {exc!r}") from exc
    if conflicts:
        args.usage_error(
            f"{path} resumes under its recorded engine and policy options: "
            + ", ".join(conflicts)
        )
    return _layout(recorded, args)


def _resume(args: argparse.Namespace, model):
    """Restore ``--resume``'s checkpoint under :func:`_resumed_layout`."""
    import os

    from .state import latest_checkpoint, restore_runtime

    path = args.resume if os.path.isfile(args.resume) else latest_checkpoint(args.resume)
    if path is None:
        args.usage_error(
            f"{args.resume} is neither a checkpoint file nor a checkpoint "
            "directory with a LATEST pointer"
        )
    return restore_runtime(path, model, runtime_config=_resumed_layout(args, path))


def _run_batch(args: argparse.Namespace, trace: Trace, report, engine=None) -> int:
    """The batch run loop of ``clean`` and ``query``.

    Builds the runtime from the flags (or restores it from ``--resume``),
    bridges ``engine`` onto its bus (restoring the engine's operator state on
    a resume), and runs the trace with its periodic checkpoints — or, under
    ``--checkpoint-at``, runs it to each cut, checkpoints there and stops
    after the last.  ``report(runtime, bridge, how)`` sees the output before
    the runtime is torn down; ``how`` says where the run started and ended.
    """
    import os

    from .state import apply_query_states, write_latest_pointer

    epochs = trace.epochs()
    cuts: List[int] = []
    if args.checkpoint_at is not None:
        if args.checkpoint_out is None:
            args.usage_error("--checkpoint-at requires --checkpoint-out")
        if args.resume is not None:
            args.usage_error("--checkpoint-at and --resume are exclusive")
        try:
            cuts = sorted({int(part) for part in args.checkpoint_at.split(",")})
        except ValueError:
            args.usage_error(f"bad --checkpoint-at: {args.checkpoint_at!r}")
        if not cuts or cuts[0] < 1 or cuts[-1] > len(epochs):
            args.usage_error(f"--checkpoint-at epochs must be in [1, {len(epochs)}]")
    model, _, sensor = _default_model(trace)
    if args.resume is None:
        runtime = ShardedRuntime(
            model, _engine_config(args, sensor), _runtime_config(args), _POLICY.build(args)
        )
        start, how = 0, ""
    else:
        try:
            runtime, manifest = _resume(args, model)
        except StateError as exc:  # the checkpoint is refused
            args.usage_error(str(exc))
        start = manifest.epochs_processed
        how = f"resumed from epoch {start}, "
        if manifest.n_shards != runtime.n_shards:
            how += f"re-sharded {manifest.n_shards} -> "
    how += f"{runtime.n_shards} shard{'s' if runtime.n_shards != 1 else ''}"
    mode = runtime.runtime_config.checkpoint_mode
    try:
        bridge = None if engine is None else QueryBridge(engine, runtime.bus, runtime=runtime)
        if engine is not None and args.resume is not None:
            try:
                apply_query_states(runtime, manifest)
            except StateError as exc:
                args.usage_error(str(exc))
        if not cuts:
            runtime.run(epochs[start:])
        parent = None
        for i, cut in enumerate(cuts):
            for epoch in epochs[start:cut]:
                runtime.step(epoch)
                runtime.checkpoint_if_due()
            start, target = cut, os.path.join(args.checkpoint_out, f"epoch_{cut:08d}")
            runtime.checkpoint(target, mode=mode if i else "full", parent=parent)
            parent = target
        # A cut run reports BEFORE teardown: the final pending tick belongs
        # to the checkpoint (and to the resumed run), not to this prefix.
        report(runtime, bridge, f"through epoch {cuts[-1]}, {how}" if cuts else how)
        if parent is not None:
            write_latest_pointer(args.checkpoint_out, os.path.basename(parent))
    finally:
        # After a finished run a no-op; a cut run stops here, without the
        # scan-complete flush — its state is what a resumed run continues.
        runtime.abort()
    if cuts:
        print(
            f"checkpointed at epoch{'s' if len(cuts) != 1 else ''} "
            f"{','.join(map(str, cuts))} ({mode}) to {args.checkpoint_out}"
        )
    return 0


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
    def report(runtime, _, how):
        _print_or_write_events(runtime.sink.events, args.events, f"({how})")

    return _run_batch(args, _load_trace(args.trace), report)


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

    from .serve.service import _json_scalar

    written = 0
    with open(path, "w") as fp:
        for name in sorted(engine.outputs):
            for tup in engine.outputs[name]:
                row = {k: _json_scalar(v) for k, v in sorted(tup.items())}
                fp.write(
                    json.dumps({"query": name, "time": tup.time, "row": row}) + "\n"
                )
                written += 1
    return written


def _cmd_query(args: argparse.Namespace) -> int:
    """The paper's full stack: epochs -> shards -> event bus -> CQL queries."""
    import json

    from .query import (
        MultiplexedQueryEngine,
        queries_from_spec,
        standing_region_queries,
    )

    trace = _load_trace(args.trace)
    engine = MultiplexedQueryEngine()
    engine.register(location_update_query())
    engine.register(
        fire_code_query(
            weight_fn=lambda tag_id: args.weight_lbs,
            threshold_lbs=args.threshold_lbs,
            window_s=args.window,
        )
    )
    standing = []
    if args.standing_queries:
        standing += standing_region_queries(
            args.standing_queries, _trace_bounds(trace.epochs())
        )
    if args.queries_file:
        with open(args.queries_file) as fp:
            standing += queries_from_spec(json.load(fp))
    for q in standing:
        engine.register(q)

    def report(runtime, bridge, how):
        print(
            f"cleaned {runtime.bus.published} events, {how} "
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
            print(f"\nstanding queries: {len(standing)} registered, {total} emissions")
        if args.emissions:
            n = _write_emissions(engine, args.emissions)
            print(f"wrote {args.emissions}: {n} emissions")
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
            f"{stats['ticks']} ticks"
        )

    return _run_batch(args, trace, report, engine)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ReproService
    from .state import latest_checkpoint

    checkpoint = None
    if args.resume:
        if not hasattr(args, "checkpoint_dir"):
            args.usage_error("--resume requires --checkpoint-dir")
        checkpoint = latest_checkpoint(args.checkpoint_dir)
    try:
        # A resume keeps the checkpoint's layout unless a flag says otherwise.
        runtime = (
            _runtime_config(args) if checkpoint is None
            else _resumed_layout(args, checkpoint)
        )
        trace = _load_trace(args.model_trace)
        model, _, sensor = _default_model(trace)
        service = ReproService(
            model,
            inference=_engine_config(args, sensor),
            runtime=runtime,
            policy=_POLICY.build(args),
            serve=_SERVE.build(args),
            socket_path=args.socket,
            emissions_path=args.emissions,
            standing_queries=args.standing_queries,
            resume=args.resume,
            exit_on_end=not args.stay_up,
        )
        service.build()
    except StateError as exc:  # the checkpoint or the emission log is refused
        args.usage_error(str(exc))
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
    _, cone_range = initialization_geometry(sensor)
    ours = run_factored(trace, model, _engine_config(args, sensor))
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
    lab = LabDeployment(_LAB.build(args))
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
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        # An out-of-range or inconsistent flag value is a usage error.
        args.usage_error(str(exc))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
