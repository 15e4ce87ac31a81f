"""Event sinks: consumers of the cleaned location-event stream.

The cleaning pipeline pushes :class:`~repro.streams.records.LocationEvent`
objects into a sink; sinks either buffer them (for evaluation and for feeding
the query engine) or serialize them.
"""

from __future__ import annotations

import csv
from typing import Dict, List, TextIO

from .records import LocationEvent, TagId


class EventSink:
    """Interface for location-event consumers."""

    def emit(self, event: LocationEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush any buffered state.  Default: nothing to do."""


class CollectingSink(EventSink):
    """Buffers every event in memory; the default sink for experiments."""

    def __init__(self) -> None:
        self.events: List[LocationEvent] = []

    def emit(self, event: LocationEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def latest_by_tag(self) -> Dict[TagId, LocationEvent]:
        """Most recent event for each object tag."""
        out: Dict[TagId, LocationEvent] = {}
        for event in self.events:
            current = out.get(event.tag)
            if current is None or event.time >= current.time:
                out[event.tag] = event
        return out


class CsvSink(EventSink):
    """Writes events as CSV rows ``time,tag,x,y,z,confidence_radius``."""

    HEADER = ("time", "tag", "x", "y", "z", "confidence_radius")

    def __init__(self, fp: TextIO, write_header: bool = True):
        self._writer = csv.writer(fp)
        if write_header:
            self._writer.writerow(self.HEADER)

    def emit(self, event: LocationEvent) -> None:
        radius = ""
        if event.statistics is not None:
            radius = f"{event.statistics.confidence_radius:.6f}"
        x, y, z = event.position
        self._writer.writerow(
            [f"{event.time:.3f}", str(event.tag), f"{x:.6f}", f"{y:.6f}", f"{z:.6f}", radius]
        )
