"""Bus → query bridge: feed cleaned events to the CQL-lite engine.

The last seam in the paper's pipeline: the runtime publishes merged
:class:`LocationEvent`s on the bus; continuous queries consume
:class:`~repro.query.tuples.StreamTuple`s.  The bridge subscribes to a bus,
adapts each event with :func:`~repro.query.tuples.tuple_from_event`, and
pushes it into a :class:`~repro.query.engine.QueryEngine` — then flushes the
engine's final tick when the bus closes, so Rstream/Dstream outputs for the
last timestamp are not lost.

The bus's non-decreasing-time guarantee is exactly the query engine's input
contract, so no buffering or reordering happens here.
"""

from __future__ import annotations

from typing import Optional

from ..query.engine import QueryEngine
from ..query.tuples import tuple_from_event
from ..streams.records import LocationEvent
from .bus import EventBus


class QueryBridge:
    """Subscribes a :class:`QueryEngine` to an :class:`EventBus`.

    Passing ``runtime`` additionally attaches the engine to the runtime's
    coordinated checkpoints under ``name``.
    """

    def __init__(
        self,
        engine: QueryEngine,
        bus: Optional[EventBus] = None,
        runtime=None,
        name: str = "query",
    ):
        self.engine = engine
        self.name = name
        #: Tuples pushed into the query engine so far (diagnostics).
        self.tuples_pushed = 0
        if bus is not None:
            self.attach(bus)
        if runtime is not None:
            runtime.attach_query_engine(name, engine)

    def attach(self, bus: EventBus) -> None:
        """Start feeding the engine from ``bus`` (close flushes the engine)."""
        bus.subscribe(self.push_event, on_close=self.engine.finish)

    def push_event(self, event: LocationEvent) -> None:
        self.engine.push(tuple_from_event(event))
        self.tuples_pushed += 1
