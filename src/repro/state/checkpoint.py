"""Checkpoint persistence: a versioned single-file pipeline snapshot.

One checkpoint is one file::

    preamble   magic | format version | header bytes | body bytes
    header     compact JSON: configs, offsets, chain links and, per shard
               and once for the attached query engines, a state-tree
               skeleton plus an array index
               {key: [dtype, shape, offset, nbytes]} into the body
    body       every indexed array as raw contiguous bytes, in index order
    trailer    SHA-256 of everything before it

The header is the source of truth: it embeds the full
:class:`~repro.config.InferenceConfig` / :class:`OutputPolicyConfig` /
:class:`RuntimeConfig` as JSON (so a restore rebuilds *exactly* the
configuration the state was captured under), the stream offset
(``epochs_processed`` — the resume seek position), the event-bus watermark,
and the JSON skeletons — per shard, and one ``{engine name: operator
state}`` tree for the query engines — whose array leaves point into the
body: all state goes through one codec (:mod:`.snapshot`, also the worker
link's).  The digest is computed while writing and checked while reading; a
flipped bit fails loudly at load, not as a silently wrong posterior three
thousand epochs later.  A checkpoint is JSON plus raw arrays: every length
is checked against the file's real size before anything is allocated, and
nothing in the file is executed — the format asks for no trust.

Writes are atomic and durable: content lands in a ``<name>.tmp`` sibling
that is fsynced, renamed into place, and made durable by a directory fsync,
so a crash mid-checkpoint leaves either the previous checkpoint or a
``.tmp`` turd, never a half-written file that a restore would trust.

**Differential checkpoints** reuse the same layout with ``"kind": "delta"``
in the header: the arrays hold *delta capture* trees (dirty object blocks
plus the full id order — see :mod:`.delta`) and the header records the
chain — ``parent`` (the preceding checkpoint, full or delta), ``base`` (the
chain's full rebase) and ``chain_index``.  Loading a delta walks the chain
back to its base and replays every delta, verifying each link's digest and
capture-serial continuity, so the caller always receives fully materialized
state trees.  ``LATEST`` is only moved once a link is durable — a crash
mid-delta leaves it on the previous complete, restorable checkpoint.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import (
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    SupervisorConfig,
    inference_config_from_dict,
)
from ..errors import ConfigurationError, InferenceError, QueryError, StateError
from ..faults import fault_point
from .delta import apply_shard_delta, is_delta_state
from .snapshot import (
    index_arrays,
    join_state_tree,
    read_indexed_arrays,
    split_state_tree,
)

#: Bump when the file layout, header or state-tree layout changes
#: incompatibly.  Version 1 was a directory per checkpoint; version 2 put
#: the query-operator state after the arrays in a format that executes;
#: version 3 kept the spatial index's regions as dicts in the JSON skeleton;
#: version 4 kept a capture serial per shard part, clean markers in delta
#: links and a ``partitioner`` in the runtime config (version 5: one serial
#: per shard tree, neither of the others).
FORMAT_VERSION = 5

MAGIC = b"RPROCKPT"

#: magic, format version, header bytes, body bytes.
PREAMBLE = struct.Struct("<8sIQQ")

TRAILER_BYTES = hashlib.sha256().digest_size

#: Ceiling on the header / body lengths a preamble may claim (each is also
#: checked against the file's real size).
MAX_SECTION_BYTES = 1 << 40

#: Header ``kind`` values: a self-contained snapshot, or a differential
#: one that must be materialized against its ``parent``/``base`` chain.
CHECKPOINT_KINDS = ("full", "delta")

#: What decoding a wrongly-shaped header or state tree raises; it leaves
#: this package as ``StateError``.
_MALFORMED = (
    AttributeError, LookupError, TypeError, ValueError, OverflowError,
    RecursionError, ConfigurationError, QueryError,
)  # fmt: skip


# ---------------------------------------------------------------------------
# Config (de)serialization
# ---------------------------------------------------------------------------
def runtime_config_from_dict(data: dict) -> RuntimeConfig:
    data = dict(data)
    try:
        # asdict() serialized the supervisor section as a nested dict.
        supervisor = data.get("supervisor")
        data["supervisor"] = (
            SupervisorConfig(**supervisor) if supervisor is not None else None
        )
        # JSON round-trips tuples as lists.
        if data.get("shard_hosts") is not None:
            data["shard_hosts"] = tuple(data["shard_hosts"])
        return RuntimeConfig(**data)
    except (TypeError, ConfigurationError) as exc:
        raise StateError(f"checkpoint runtime config is invalid: {exc}") from exc


def config_hash(
    config: InferenceConfig, policy: OutputPolicyConfig, initial_heading: float
) -> str:
    """Digest of everything that must match between capture and restore.

    The runtime config is deliberately excluded: shard count, executor, and
    checkpoint cadence are *deployment* choices a restore may change
    (elastic re-sharding); the inference semantics live in the engine and
    policy configs.
    """
    payload = json.dumps(
        {
            "inference": dataclasses.asdict(config),
            "policy": dataclasses.asdict(policy),
            "initial_heading": float(initial_heading),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@functools.lru_cache(maxsize=8)
def _config_section(
    config: InferenceConfig,
    policy: OutputPolicyConfig,
    runtime_config: RuntimeConfig,
    initial_heading: float,
) -> dict:
    """The header's configuration members (shared by every caller with the
    same frozen configs — read-only; a runtime pays for it once)."""
    return {
        "config_hash": config_hash(config, policy, initial_heading),
        "inference_config": dataclasses.asdict(config),
        "output_policy": dataclasses.asdict(policy),
        "runtime_config": dataclasses.asdict(runtime_config),
        "initial_heading": float(initial_heading),
    }


# ---------------------------------------------------------------------------
# Loaded-checkpoint model
# ---------------------------------------------------------------------------
@dataclass
class CheckpointManifest:
    """Parsed header plus fully re-joined per-shard state trees.

    For a delta checkpoint the ``shard_states`` are already *materialized*
    (base + every delta replayed in order), so consumers — the restore
    path, the elastic re-sharder — never see differential trees; ``kind``
    and ``chain`` record what was on disk (``chain`` lists the file names
    replayed, base first, empty for a full checkpoint).
    """

    version: int
    config: InferenceConfig
    policy: OutputPolicyConfig
    runtime: RuntimeConfig
    initial_heading: float
    epochs_processed: int
    bus_last_time: Optional[float]
    bus_published: int
    config_digest: str
    shard_states: List[dict]
    kind: str = "full"
    chain: List[str] = dataclasses.field(default_factory=list)
    #: Operator state tree of each query engine attached to the runtime at
    #: capture time, by attachment name: register the same standing queries,
    #: then :func:`~repro.state.apply_query_states`.
    query_states: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Free-form JSON payload captured from ``runtime.manifest_extras()``
    #: at save time (empty when the runtime declares none).  The ingest
    #: service records its exactly-once offsets here: per-source consumed
    #: sequence numbers, the epoch grid origin, and the delivery sink's
    #: next/acked emission offsets.  Like ``query_states``, the newest link
    #: of a delta chain carries the complete payload.
    extras: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.shard_states)


@dataclass(frozen=True)
class ChainHead:
    """A checkpoint file's path and what chaining and rotation read of its
    header (``kind`` / ``parent`` / ``base`` / ``chain_index`` /
    ``config_hash`` / each shard's ``capture_serial``; no state skeleton), held
    in memory: :func:`save_checkpoint` returns the head of the file it just
    wrote, so the periodic path hands it back as the next delta's ``parent``
    (and to :func:`rotate_checkpoints`) without re-reading its own output.
    """

    path: str
    header: dict

    @classmethod
    def of(cls, path: str, header: dict) -> "ChainHead":
        keys = ("kind", "parent", "base", "chain_index", "config_hash")
        try:
            links = {key: header[key] for key in keys if key in header}
            links["capture_serials"] = [
                record["state"].get("capture_serial") for record in header["shards"]
            ]
        except _MALFORMED as exc:
            raise StateError(f"{path}: malformed shard record: {exc!r}") from exc
        return cls(path, links)

    @classmethod
    def read(cls, path) -> "ChainHead":
        return cls.of(os.fspath(path), read_checkpoint_header(path))


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------
def collect_shard_snapshots(shards, mode: str = "full") -> List[dict]:
    """Snapshot every shard through the split-phase ``snapshot_async`` /
    ``collect_snapshot`` pair.

    Requesting all shards before collecting any lets worker shards
    serialize their state trees concurrently instead of one at a time.
    Every pending reply is always collected — even after a failure — so the
    links stay in sync; the first error is re-raised once the sweep
    completes.
    """
    for shard in shards:
        shard.snapshot_async(mode)
    states: List[Optional[dict]] = []
    failure: Optional[BaseException] = None
    for shard in shards:
        try:
            states.append(shard.collect_snapshot())
        except (StateError, InferenceError) as exc:
            # Keep draining: a reply left behind on a healthy worker's link
            # would be misread by the next request after the caller handles
            # this checkpoint failure and keeps streaming.
            failure = failure if failure is not None else exc
            states.append(None)
    if failure is not None:
        raise failure
    return states


def _check_delta_chains(parent: ChainHead, states: List[dict]) -> None:
    """Prove each delta capture chains onto the parent checkpoint's capture.

    Compares each shard's ``parent_capture_serial`` in the fresh delta
    trees against the ``capture_serial`` the parent recorded for it.  A
    mismatch means a capture happened between the parent checkpoint and this one (an
    explicit ``checkpoint()`` call, a test snapshot, …) — writing the delta
    anyway would persist a torn chain.
    """
    parents = parent.header["capture_serials"]
    if len(parents) != len(states):
        raise StateError(
            f"delta checkpoint has {len(states)} shards but its parent "
            f"{parent.path} has {len(parents)}"
        )
    for index, (have, state) in enumerate(zip(parents, states)):
        want = state.get("parent_capture_serial")
        if have is None or want != have:
            raise StateError(
                f"shard {index} delta does not chain onto {parent.path}: "
                f"delta parent serial {want!r}, checkpoint serial {have!r} "
                "(a state capture happened in between; rebase with a full "
                "checkpoint)"
            )


def save_checkpoint(runtime, path, mode: str = "full", parent=None) -> ChainHead:
    """Write a coordinated snapshot of a :class:`ShardedRuntime`.

    ``runtime`` is duck-typed (needs ``shards``, ``config``, ``policy``,
    ``runtime_config``, ``initial_heading``, ``epochs_processed``, ``bus``)
    so this module does not import the runtime layer.  Returns the
    :class:`ChainHead` of the file written at ``path``.

    ``mode="delta"`` writes a *differential* checkpoint: each shard ships
    only its dirty object blocks since ``parent`` (a sibling checkpoint,
    full or delta, as a path or as the :class:`ChainHead` an earlier save
    returned — the chain's base plus every intermediate delta must stay on
    disk until the next full rebase; :func:`rotate_checkpoints` knows not
    to break chains).  The delta is refused — never silently mis-written —
    when the shards' capture serials show it would not chain onto
    ``parent``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    if mode not in CHECKPOINT_KINDS:
        raise StateError(f"unknown checkpoint mode {mode!r}")
    if os.path.exists(path):
        raise StateError(f"checkpoint target already exists: {path}")
    configs = (runtime.config, runtime.policy, runtime.runtime_config)
    header = dict(_config_section(*configs, runtime.initial_heading), kind=mode)
    if mode == "delta":
        if parent is None:
            raise StateError("a delta checkpoint needs a parent checkpoint")
        if not isinstance(parent, ChainHead):
            parent = ChainHead.read(parent)
        if os.path.dirname(os.path.abspath(parent.path)) != directory:
            raise StateError(
                "a delta checkpoint must live beside its parent "
                f"({parent.path} vs {path})"
            )
        if parent.header.get("config_hash") != header["config_hash"]:
            raise StateError(
                f"cannot chain a delta onto {parent.path}: its configuration "
                "differs from the running one"
            )
        header["parent"] = os.path.basename(parent.path)
        header["base"] = parent.header.get("base", header["parent"])
        header["chain_index"] = int(parent.header.get("chain_index", 0)) + 1

    # Query-engine operator state (shared windows, streamer counters,
    # pending tick), one tree per attached engine.  Captured whole in every
    # link (small next to the shard slabs), and before the shards: a tuple
    # value the codec refuses fails the save with no capture serial moved.
    engines = getattr(runtime, "query_engines", None) or {}
    queries = {name: e.snapshot_state() for name, e in sorted(engines.items())}
    states = collect_shard_snapshots(runtime.shards, mode=mode)
    if mode == "delta":
        _check_delta_chains(parent, states)
    # Every array of every tree goes into the body back to back, written
    # straight from its own buffer; the header indexes them.
    buffers: List[np.ndarray] = []
    records = []
    cursor = 0
    for state in (*states, queries):
        skeleton, arrays = split_state_tree(state)
        index, cursor = index_arrays(arrays, cursor, buffers)
        records.append({"state": skeleton, "arrays": index})
    header.update(
        shards=records[:-1],
        queries=records[-1],
        epochs_processed=int(runtime.epochs_processed),
        bus_last_time=runtime.bus.last_time,
        bus_published=int(runtime.bus.published),
    )
    # Runtime-attached extras (duck-typed like the rest of the runtime
    # surface): a serving layer hangs a callable off the runtime to record
    # its own offsets — ingest sequence numbers, sink delivery offsets —
    # inside the same coordinated cut as the shard state.  Must be JSON.
    extras_fn = getattr(runtime, "manifest_extras", None)
    extras = extras_fn() if callable(extras_fn) else None
    if extras is not None and not isinstance(extras, dict):
        raise StateError(
            f"runtime.manifest_extras() must return a dict, got {type(extras).__name__}"
        )
    if extras:
        header["extras"] = extras
    try:
        encoded = json.dumps(header, separators=(",", ":")).encode()
    except (TypeError, ValueError) as exc:
        raise StateError(
            f"checkpoint header (manifest_extras?) is not JSON-serializable: {exc}"
        ) from exc

    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    digest = hashlib.sha256()
    preamble = PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(encoded), cursor)
    try:
        with open(tmp, "wb") as fp:
            for chunk in (preamble, encoded, *buffers):
                fp.write(chunk)
                digest.update(chunk)
            fp.write(digest.digest())
            fp.flush()
            # Chaos harness: simulated EIO / power loss / torn write once
            # the payload is out but before it is durable or visible.
            fault_point("checkpoint.write", path=tmp)
            os.fsync(fp.fileno())
        os.rename(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    # The rename itself is only durable once the directory is.
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return ChainHead.of(path, header)


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------
def _read_head(fp, path: str) -> Tuple[bytes, dict, int]:
    """Read and validate the preamble and JSON header: ``(raw bytes read,
    header, body bytes)``.  Both lengths are checked against a fixed cap
    and the file's real size *before* anything is allocated for them."""
    raw = fp.read(PREAMBLE.size)
    if len(raw) != PREAMBLE.size:
        raise StateError(f"{path} is truncated inside its preamble")
    magic, version, header_bytes, body_bytes = PREAMBLE.unpack(raw)
    if magic != MAGIC:
        raise StateError(f"{path} is not a repro checkpoint")
    if version != FORMAT_VERSION:
        raise StateError(
            f"checkpoint format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION} only)"
        )
    expected = PREAMBLE.size + header_bytes + body_bytes + TRAILER_BYTES
    actual = os.fstat(fp.fileno()).st_size
    if max(header_bytes, body_bytes) > MAX_SECTION_BYTES or actual != expected:
        raise StateError(
            f"{path} is {actual} bytes but its preamble describes a "
            f"{header_bytes}-byte header and a {body_bytes}-byte body "
            "(truncated, torn or corrupt)"
        )
    raw += fp.read(header_bytes)
    try:
        header = json.loads(raw[PREAMBLE.size :])
    except (ValueError, RecursionError) as exc:
        raise StateError(f"corrupt checkpoint header in {path}: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("shards"), list):
        raise StateError(f"corrupt checkpoint header in {path}: no shard listing")
    return raw, header, body_bytes


def _open_checkpoint(path: str):
    try:
        return open(path, "rb")
    except IsADirectoryError:
        raise StateError(
            f"{path} is a directory: checkpoint format version 1 is not "
            f"supported (this build reads version {FORMAT_VERSION}, one file each)"
        ) from None
    except OSError as exc:
        raise StateError(f"cannot open checkpoint {path}: {exc}") from None


def read_checkpoint_header(path) -> dict:
    """A checkpoint's JSON header, without reading its body: ``kind``, the
    three configs, ``epochs_processed``, chain links (``parent`` / ``base``
    / ``chain_index``), ``extras`` and the shard / query skeletons.  Lengths are
    validated against the file size; the digest is *not* checked — use
    :func:`load_checkpoint` for a verified read."""
    path = os.fspath(path)
    with _open_checkpoint(path) as fp:
        return _read_head(fp, path)[1]


def _load_file(path: str, verify: bool) -> Tuple[dict, List[dict], dict]:
    """Read one file: ``(header, the full or delta shard trees it holds,
    {engine name: query state tree})``.  With ``verify`` the digest
    accumulates while reading and must match the trailer before anything is
    returned."""
    digest = hashlib.sha256()
    update = digest.update if verify else (lambda chunk: None)
    states = []
    with _open_checkpoint(path) as fp:
        raw, header, body_bytes = _read_head(fp, path)
        update(raw)
        cursor = 0
        for record in (*header["shards"], header.get("queries")):
            try:
                arrays, cursor = read_indexed_arrays(
                    fp, record["arrays"], cursor, body_bytes, update
                )
                state = join_state_tree(record["state"], arrays)
                if not isinstance(state, dict):
                    raise TypeError(f"state is a {type(state).__name__}, not a dict")
            except _MALFORMED as exc:
                what = "shard" if len(states) < len(header["shards"]) else "query"
                raise StateError(f"{path}: malformed {what} record: {exc!r}") from exc
            states.append(state)
        if cursor != body_bytes:
            raise StateError(
                f"{path}: the array indexes cover {cursor} of the "
                f"{body_bytes}-byte body"
            )
        trailer = fp.read(TRAILER_BYTES)
    if verify and trailer != digest.digest():
        raise StateError(
            f"checksum mismatch for {path}: trailer says "
            f"{trailer.hex()[:12]}…, content is {digest.hexdigest()[:12]}…"
        )
    query_states = states.pop()
    return header, states, query_states


def load_checkpoint(path, verify: bool = True) -> CheckpointManifest:
    """Parse a checkpoint file back into configs + shard state trees.

    A *delta* checkpoint is transparently materialized: the chain is walked
    back to its full base (all within the same directory), every link is
    integrity-checked and its capture serials proven to chain onto its
    parent's, and the deltas are replayed in order — the returned
    ``shard_states`` are bit-for-bit the trees a full checkpoint at the
    same epoch would hold.  Any chain defect — a missing or outside parent,
    a cycle, a root that is not full, a configuration or shard-count change
    mid-chain — raises :class:`StateError`, never a half-right state.

    ``verify`` checks each file's SHA-256 trailer.  Skipping it can change
    *what* state a damaged file loads as (or which ``StateError`` refuses
    it), never whether anything in the file is executed: nothing is.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    header, states, query_states = _load_file(path, verify)
    try:
        kind = header.get("kind")
        if kind not in CHECKPOINT_KINDS:
            raise StateError(f"unknown checkpoint kind {kind!r} at {path}")
        chain = [os.path.basename(os.path.abspath(path))]
        overlays = []  # delta trees still to replay, newest first
        link_path, link = path, header
        while link.get("kind") == "delta":
            name = link.get("parent")
            if not isinstance(name, str) or not name or os.path.basename(name) != name:
                raise StateError(f"delta checkpoint {link_path} has no valid parent")
            if name in chain:
                raise StateError(f"delta checkpoint chain at {path} contains a cycle")
            parent_path = os.path.join(directory, name)
            try:
                parent, parent_states, _ = _load_file(parent_path, verify)
            except StateError as exc:
                raise StateError(
                    f"delta checkpoint {link_path} needs its parent "
                    f"{parent_path}, which cannot be read: {exc}"
                ) from exc
            if parent.get("config_hash") != header.get("config_hash"):
                raise StateError(
                    f"delta chain at {path} crosses a configuration change "
                    f"(at {parent_path})"
                )
            if len(parent_states) != len(states):
                raise StateError(
                    f"delta checkpoint {link_path} changes the shard count mid-chain"
                )
            chain.append(name)
            overlays.append(states)
            link_path, link, states = parent_path, parent, parent_states
        if link.get("kind") != "full" or any(is_delta_state(s) for s in states):
            raise StateError(
                f"delta chain at {path} does not terminate in a full checkpoint"
            )
        for deltas in reversed(overlays):
            states = [apply_shard_delta(s, d) for s, d in zip(states, deltas)]
        return CheckpointManifest(
            version=FORMAT_VERSION,
            config=inference_config_from_dict(header["inference_config"]),
            policy=OutputPolicyConfig(**header["output_policy"]),
            runtime=runtime_config_from_dict(header["runtime_config"]),
            initial_heading=float(header["initial_heading"]),
            epochs_processed=int(header["epochs_processed"]),
            bus_last_time=header["bus_last_time"],
            bus_published=int(header["bus_published"]),
            config_digest=str(header["config_hash"]),
            shard_states=states,
            kind=kind,
            chain=chain[::-1] if kind == "delta" else [],
            query_states=query_states,
            extras=dict(header.get("extras", {})),
        )
    except _MALFORMED as exc:
        raise StateError(f"{path}: malformed header: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Periodic-checkpoint housekeeping
# ---------------------------------------------------------------------------
def checkpoint_size_bytes(path) -> int:
    """On-disk size of a checkpoint file."""
    return os.path.getsize(path)


def write_latest_pointer(directory, name: str) -> None:
    """Point ``LATEST`` at the (already durable) checkpoint ``name``.

    Atomic (tmp + fsync + replace): a kill -9 between a truncate and a
    write would otherwise leave an empty LATEST and strand resume.
    """
    directory = os.fspath(directory)
    pointer_tmp = os.path.join(directory, "LATEST.tmp")
    with open(pointer_tmp, "w") as fp:
        fp.write(name + "\n")
        fp.flush()
        os.fsync(fp.fileno())
    os.replace(pointer_tmp, os.path.join(directory, "LATEST"))


def latest_checkpoint(directory) -> Optional[str]:
    """Resolve the ``LATEST`` pointer the runtime maintains, if present.

    A crash can tear the pointer (empty, or naming a checkpoint that never
    finished its rename) or, on storage that reorders writes, the newest
    file.  A candidate only counts when its preamble and header parse and
    it is exactly as long as the preamble says; otherwise resolution falls
    back to the newest complete ``epoch_*`` file, not stranding recovery.
    """
    directory = os.fspath(directory)
    try:
        with open(os.path.join(directory, "LATEST")) as fp:
            pointed = fp.read().strip()
    except OSError:
        pointed = ""
    try:
        entries = sorted(os.listdir(directory), reverse=True)
    except OSError:
        return None
    candidates = [
        name
        for name in entries
        if name.startswith("epoch_") and not name.endswith(".tmp")
    ]
    if pointed and os.path.basename(pointed) == pointed:
        candidates.insert(0, pointed)
    for name in candidates:
        target = os.path.join(directory, name)
        try:
            read_checkpoint_header(target)
        except StateError:
            continue
        return target
    return None


def rotate_checkpoints(
    directory, keep: int, heads: Optional[Dict[str, ChainHead]] = None
) -> List[str]:
    """Delete the oldest ``epoch_*`` checkpoints beyond ``keep``.

    Ordering is by the zero-padded epoch index in the file name, so it is
    stable regardless of filesystem timestamps.  A checkpoint that a
    *retained* checkpoint still depends on — the full base of a delta
    chain, or any intermediate delta — is never deleted, no matter how old:
    deleting it would leave the newest checkpoints unrestorable.  Such
    stragglers are reclaimed by a later rotation, once the next full rebase
    has freed the chain.  A stale ``epoch_*.tmp`` left by a crash never
    counts toward ``keep`` and is removed.  Returns removed paths.

    ``heads`` caches ``{name: ChainHead}`` (the writer's own saves): only a
    retained name missing from it has its header read — an unreadable one
    contributes no dependencies, it cannot be restored anyway — and deleted
    names are dropped.  Only names are followed: a header can never pull in
    a file outside ``directory``.
    """
    directory = os.fspath(directory)
    heads = {} if heads is None else heads
    with os.scandir(directory) as listing:
        names = sorted(
            entry.name
            for entry in listing
            if entry.name.startswith("epoch_") and entry.is_file()
        )
    entries = [name for name in names if not name.endswith(".tmp")]
    kept = set(entries[-keep:] if keep > 0 else [])
    stack = list(kept)
    while stack:
        name = stack.pop()
        if name not in heads:
            try:
                heads[name] = ChainHead.read(os.path.join(directory, name))
            except StateError:
                continue
        for key in ("parent", "base"):
            dep = heads[name].header.get(key)
            if isinstance(dep, str) and os.path.basename(dep) == dep and dep not in kept:
                kept.add(dep)
                stack.append(dep)
    removed = []
    for name in names:
        if name in kept:
            continue
        heads.pop(name, None)
        target = os.path.join(directory, name)
        try:
            os.unlink(target)
        except FileNotFoundError:
            # Already gone — e.g. a drain-time rotation racing the periodic
            # one after a signal.  Rotation is housekeeping; a missing
            # victim is success, not failure.
            continue
        removed.append(target)
    return removed
