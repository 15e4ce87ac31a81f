"""Stream layer: raw record types, epoch synchronization, trace storage and
event sinks (Section II-A of the paper)."""

from .records import (
    Epoch,
    LocationEvent,
    LocationStatistics,
    ReaderLocationReport,
    TagId,
    TagKind,
    TagReading,
    make_epoch,
)
from .sinks import (
    CollectingSink,
    CsvSink,
    EventSink,
)
from .sources import GroundTruth, ObjectMove, Trace, merge_traces
from .synchronize import EpochSynchronizer, synchronize

__all__ = [
    "CollectingSink",
    "CsvSink",
    "Epoch",
    "EpochSynchronizer",
    "EventSink",
    "GroundTruth",
    "LocationEvent",
    "LocationStatistics",
    "ObjectMove",
    "ReaderLocationReport",
    "TagId",
    "TagKind",
    "TagReading",
    "Trace",
    "make_epoch",
    "merge_traces",
    "synchronize",
]
