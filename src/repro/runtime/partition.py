"""Tag partitioning: which shard owns which object tag.

The sharded runtime needs a stationary, deterministic map from object-tag
numbers to shards — the same tag must land on the same shard on every epoch
and every run, or beliefs would be split across filters.
:func:`hash_partition` applies a splitmix64-style integer mix before the
modulus: real tag populations are rarely uniform in their low bits (EPC
blocks are strided, simulators number tags consecutively per shelf), and a
plain modulus maps any stride that shares a factor with the shard count
onto a subset of shards.  The mix decorrelates the assignment from the
numbering scheme.

Per-shard seeding lives here too: each shard's filter must draw from an
independent RNG stream, derived deterministically from the root seed so a
sharded run is reproducible end-to-end.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a cheap, well-distributed 64-bit mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_partition(number: int, n_shards: int) -> int:
    """The shard (``0 .. n_shards - 1``) that owns object tag ``number``."""
    return _mix64(int(number)) % n_shards


def shard_seed(root_seed: int, shard_index: int, n_shards: int) -> int:
    """Deterministic per-shard RNG seed derived from the root seed.

    With one shard the root seed is returned unchanged, so a
    ``ShardedRuntime(n_shards=1)`` is *bitwise identical* to an unsharded
    pipeline built from the same :class:`~repro.config.InferenceConfig` —
    the degenerate case costs nothing and parity is exact.  With several
    shards, seeds come from a :class:`numpy.random.SeedSequence` keyed on
    ``(root_seed, shard_index)``: independent streams, stable across runs
    and platforms.
    """
    if n_shards == 1:
        return int(root_seed)
    return int(
        np.random.SeedSequence([int(root_seed), int(shard_index)]).generate_state(1)[0]
    )
