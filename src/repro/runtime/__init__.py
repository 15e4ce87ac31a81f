"""Sharded streaming runtime: partitioned filter shards, an event bus, and
the bridge into the continuous-query engine.

``epochs -> EpochRouter -> [FilterShard ...] -> EventBus -> QueryBridge``

See :class:`ShardedRuntime` for the end-to-end driver.
"""

from .bridge import QueryBridge
from .bus import EventBus
from .partition import hash_partition, shard_seed
from .router import EpochRouter
from .runtime import ShardedRuntime
from .shard import FilterShard
from .workers import ShardWorkerProxy

__all__ = [
    "EpochRouter",
    "EventBus",
    "FilterShard",
    "QueryBridge",
    "ShardWorkerProxy",
    "ShardedRuntime",
    "hash_partition",
    "shard_seed",
]
