"""Durable state: checkpoint, restore, replay, and elastic re-sharding.

The cleaning pipeline is a long-running stateful stream operator; this
package makes its state survive the process.  A *checkpoint* is a
coordinated, versioned, integrity-checked snapshot of every filter shard —
belief-arena slabs (compacted on write), RNG bit-generator states, reader
beliefs, output-policy bookkeeping, and the stream offset — written as one
file: a fixed preamble, a compact JSON header (shard and query-operator
state trees as skeletons), every array as raw bytes, and a SHA-256 trailer
over all of it — nothing in it is executed on load.  Order: the epoch's
output (the service's log flushed, fsynced, delivered), payload ``fsync`` →
``rename`` → directory ``fsync``, then ``LATEST`` (``.tmp`` ``fsync`` →
``replace``).

* :func:`save_checkpoint` / :meth:`ShardedRuntime.checkpoint` write one;
  ``RuntimeConfig(checkpoint_every_s=..., checkpoint_dir=...)`` makes
  :meth:`ShardedRuntime.checkpoint_if_due` write them periodically at
  epoch boundaries, with rotation.
  ``checkpoint_mode="delta"`` turns the periodic checkpoints into
  *differential* chains — dirty object blocks only, rebased with a full
  snapshot every ``checkpoint_full_every``-th link (:mod:`.delta`).
* :func:`load_checkpoint` parses one back into configs + state trees,
  transparently materializing delta chains bitwise-identically to a full
  snapshot at the same epoch; :func:`read_checkpoint_header` peeks at the
  JSON header (kind, configs, offsets, chain links) without the body.
* :func:`restore_runtime` rebuilds a live runtime from one: exact (bitwise
  resume) at the recorded shard layout, or *elastically re-sharded* to a
  different shard count without replaying from epoch 0.

See the module docstrings of :mod:`.checkpoint` (on-disk format),
:mod:`.restore` (resume/re-shard semantics and guarantees) and
:mod:`.tables` (the per-object table shape that delta overlay and re-shard
both ``select`` + ``concat`` over, and its consistency check).
"""

from .checkpoint import (
    CHECKPOINT_KINDS,
    FORMAT_VERSION,
    ChainHead,
    CheckpointManifest,
    checkpoint_size_bytes,
    config_hash,
    latest_checkpoint,
    load_checkpoint,
    read_checkpoint_header,
    rotate_checkpoints,
    save_checkpoint,
    write_latest_pointer,
)
from .delta import apply_shard_delta, is_delta_state
from .restore import apply_query_states, reshard_states, restore_runtime
from .snapshot import (
    generator_from_state,
    join_state_tree,
    split_state_tree,
)

__all__ = [
    "CHECKPOINT_KINDS",
    "FORMAT_VERSION",
    "ChainHead",
    "CheckpointManifest",
    "apply_query_states",
    "apply_shard_delta",
    "checkpoint_size_bytes",
    "config_hash",
    "is_delta_state",
    "generator_from_state",
    "join_state_tree",
    "latest_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
    "reshard_states",
    "restore_runtime",
    "rotate_checkpoints",
    "save_checkpoint",
    "split_state_tree",
    "write_latest_pointer",
]
