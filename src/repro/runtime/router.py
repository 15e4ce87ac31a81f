"""Epoch routing: split each synchronized epoch across filter shards.

A shard owns a subset of the object-tag population but still needs the full
epoch *context* to run correct inference: the reader's reported position and
heading drive the reader particle filter, and the shelf-tag reads anchor it
(Section III's shelf-tag evidence).  So the router sends every shard one
epoch per input epoch — same time, same reported pose, same shelf tags —
with only the object-tag reads filtered down to the tags that shard owns.

Empty per-shard read sets are *not* skipped: an epoch with no reads still
propagates the reader belief, applies negative evidence to in-range objects,
and advances the output policy's clock, exactly as in the unsharded
pipeline.  Skipping them would desynchronize shard clocks and break parity.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..streams.records import Epoch
from .partition import hash_partition


class EpochRouter:
    """Splits epochs by tag ownership, broadcasting reader/shelf context."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards

    def shard_of(self, number: int) -> int:
        """The shard that owns object tag ``number``."""
        return hash_partition(number, self.n_shards)

    def split(self, epoch: Epoch) -> List[Epoch]:
        """One epoch per shard: owned object tags + broadcast context."""
        if self.n_shards == 1:
            return [epoch]
        n = self.n_shards
        buckets: List[List] = [[] for _ in range(n)]
        for tag in epoch.object_tags:
            buckets[hash_partition(tag.number, n)].append(tag)
        return [
            replace(epoch, object_tags=frozenset(bucket)) for bucket in buckets
        ]
