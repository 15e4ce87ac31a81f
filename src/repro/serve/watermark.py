"""Multi-source low-watermark alignment into epochs.

The batch pipeline hands :class:`~repro.streams.synchronize.EpochSynchronizer`
two globally time-sorted streams.  A live service instead sees K independent
socket sources, each internally time-ordered but mutually interleaved by
network luck.  :class:`WatermarkAligner` restores the batch contract:

* each source's frames are buffered in arrival order and validated — strict
  ``+1`` sequence numbers (gaps mean lost frames: protocol violation) and
  non-decreasing per-source times;
* the **low watermark** is the minimum frontier (time of the newest accepted
  record) over all sources that have not sent ``SOURCE_END`` — every record
  at or below it can no longer be preceded by unseen data, so those records
  are fed to one shared :class:`EpochSynchronizer` in global ``(time,
  source, seq)`` order, reproducing exactly the epochs the batch path would
  build from the union of the streams;
* when every source has ended, the remaining buffer is drained and the
  synchronizer flushed — the terminal state.

Exactly-once ingest bookkeeping rides on top: every emitted epoch carries a
``source_seqs`` snapshot — for each source, the highest sequence number
consumed into this or an earlier epoch.  Per-source times are monotone, so
``seq > snapshot[source]`` holds exactly for the records belonging to later
epochs; a service checkpoint at epoch E stores the snapshot, and a client
reconnecting after a crash is told to resend from ``snapshot[source] + 1`` —
no lost records, and replays of older sequences are deduplicated here.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ServeError, StreamError
from ..streams.records import Epoch, ReaderLocationReport, TagReading
from ..streams.synchronize import EpochSynchronizer

Record = object  # TagReading | ReaderLocationReport


@dataclass
class AlignedEpoch:
    """One epoch released by the watermark, with its resume bookkeeping."""

    epoch: Epoch
    #: Index on the synchronizer's epoch grid (resume seeks past these).
    index: int
    #: Highest consumed sequence number per source *after* this epoch.
    source_seqs: Dict[str, int]
    #: ``time.perf_counter()`` at release — frame-to-emission latency base.
    stamp: float = field(default_factory=_time.perf_counter)


class _Source:
    __slots__ = (
        "name",
        "last_seq",
        "frontier",
        "ended",
        "pending",
        "infly",
        "consumed_seq",
        "unclaimed",
        "deduped",
    )

    def __init__(self, name: str, start_seq: int):
        self.name = name
        #: Highest sequence accepted (dedupe floor for reconnects).
        self.last_seq = int(start_seq)
        #: Time of the newest accepted record (-inf before the first).
        self.frontier = -float("inf")
        self.ended = False
        #: Accepted records not yet fed to the synchronizer.
        self.pending: Deque[Tuple[int, float, Record]] = deque()
        #: (seq, time) of records fed but not yet attributed to an epoch.
        self.infly: Deque[Tuple[int, float]] = deque()
        #: Highest sequence attributed to an emitted epoch.
        self.consumed_seq = int(start_seq)
        #: Frames consumed since the last ``take_consumed`` (credit refill).
        self.unclaimed = 0
        self.deduped = 0

    @property
    def buffered(self) -> int:
        return len(self.pending) + len(self.infly)


class WatermarkAligner:
    """Order K live sources behind a low watermark into one epoch stream.

    Parameters
    ----------
    epoch_length:
        Epoch width handed to the underlying synchronizer.
    origin / start_epoch_index / resume_seqs:
        The resume triple, read from a checkpoint manifest's extras: the
        recorded epoch-grid origin, the next epoch index to emit, and each
        source's consumed sequence number.  Fresh services pass none of
        them.
    emit_empty:
        Forwarded to the synchronizer (empty epochs are negative evidence).
    """

    def __init__(
        self,
        epoch_length: float = 1.0,
        origin: Optional[float] = None,
        start_epoch_index: int = 0,
        resume_seqs: Optional[Dict[str, int]] = None,
        emit_empty: bool = True,
    ):
        self._len = float(epoch_length)
        self._sync = EpochSynchronizer(
            epoch_length=epoch_length, start_time=origin, emit_empty=emit_empty
        )
        if start_epoch_index:
            self._sync.seek(start_epoch_index)
        self._resume_seqs = dict(resume_seqs or {})
        self._sources: Dict[str, _Source] = {}
        self._finished = False
        #: Everything at or below this time has been fed downstream; a
        #: record below it can never be placed (its epoch may already be
        #: emitted), so pushes below it are that source's protocol error.
        self._fed_upto = -float("inf")

    # ------------------------------------------------------------------
    # Source lifecycle
    # ------------------------------------------------------------------
    def register(self, name: str) -> int:
        """Admit (or re-admit) a source; returns its resume sequence.

        The return value is the highest sequence this aligner already holds
        for the source — buffered or consumed — so a (re)connecting client
        must send ``resume + 1`` next.  A brand-new source starts at the
        checkpointed sequence when one was recorded, else 0.
        """
        if self._finished:
            raise ServeError("stream already flushed; no new sources")
        source = self._sources.get(name)
        if source is None:
            source = _Source(name, self._resume_seqs.get(name, 0))
            self._sources[name] = source
        elif source.ended:
            raise ServeError(f"source {name!r} already ended its stream")
        return source.last_seq

    def unregister(self, name: str) -> None:
        """Forget a source that holds no data — the admission-failure path.

        ``register`` precedes admission control in the service's HELLO
        handling; when admission then rejects the source the registration
        must be rolled back, or its ``-inf`` frontier would pin the low
        watermark forever (nothing ever unregisters a rejected connection).
        Only pristine sources are removed: one with buffered or in-flight
        records, an accepted frontier, or an ended stream holds real state
        a reconnect must resume, and is kept.
        """
        source = self._sources.get(name)
        if source is None or source.ended:
            return
        if source.pending or source.infly or source.frontier > -float("inf"):
            return
        del self._sources[name]

    def end_source(self, name: str) -> None:
        """The source's stream is complete; it stops holding the watermark."""
        source = self._require(name)
        source.ended = True

    def _require(self, name: str) -> _Source:
        try:
            return self._sources[name]
        except KeyError:
            raise ServeError(f"unknown source {name!r}") from None

    # ------------------------------------------------------------------
    # Pushing frames
    # ------------------------------------------------------------------
    def push(self, name: str, seq: int, record: Record) -> bool:
        """Buffer one validated record.  Returns False for a deduplicated
        replay (sequence at or below the resume floor), True when buffered
        — only buffered frames count against the source's credit window."""
        source = self._require(name)
        if source.ended:
            raise ServeError(f"source {name!r} sent data after SOURCE_END")
        if seq <= source.last_seq:
            source.deduped += 1
            return False
        if seq != source.last_seq + 1:
            raise ServeError(
                f"source {name!r} skipped sequences: expected "
                f"{source.last_seq + 1}, got {seq}"
            )
        time = float(record.time)
        if time < source.frontier:
            raise StreamError(
                f"source {name!r} went backwards in time: {time} < "
                f"{source.frontier}"
            )
        if time < self._fed_upto:
            # A source that registered after the watermark already passed
            # its data (other sources raced ahead before this one's HELLO)
            # cannot be merged — its epochs may already be emitted.  Fail
            # the *source*, not the service; coordinated clients avoid this
            # by completing every HELLO before any session sends data.
            raise ServeError(
                f"source {name!r} joined behind the stream: record at "
                f"{time} is below the fed watermark {self._fed_upto}"
            )
        source.last_seq = seq
        source.frontier = time
        source.pending.append((seq, time, record))
        return True

    # ------------------------------------------------------------------
    # Pulling epochs
    # ------------------------------------------------------------------
    def watermark(self) -> float:
        """Low watermark: min frontier over active sources (+inf when all
        have ended, -inf while any active source has sent nothing)."""
        active = [s.frontier for s in self._sources.values() if not s.ended]
        if not active:
            return float("inf")
        return min(active)

    def poll(self) -> List[AlignedEpoch]:
        """Feed everything at or below the watermark; return released epochs.

        When every source has ended, the terminal flush runs exactly once
        and the aligner refuses further sources.
        """
        if self._finished or not self._sources:
            return []
        watermark = self.watermark()
        all_ended = watermark == float("inf")
        batch: List[Tuple[float, str, int, Record]] = []
        for source in self._sources.values():
            while source.pending and source.pending[0][1] <= watermark:
                seq, time, record = source.pending.popleft()
                source.infly.append((seq, time))
                batch.append((time, source.name, seq, record))
        batch.sort(key=itemgetter(0, 1, 2))
        for _, _, _, record in batch:
            if isinstance(record, TagReading):
                self._sync.push_reading(record)
            else:
                self._sync.push_report(record)
        first_index = self._sync.next_epoch_index
        if all_ended:
            epochs = self._sync.ready_epochs()
            epochs.extend(self._sync.flush())
            self._finished = True
        else:
            self._fed_upto = max(self._fed_upto, watermark)
            # The aligner's watermark is a stronger release guarantee than
            # the synchronizer's per-kind one: everything at or below it has
            # been fed, even when one record kind lags behind the other.
            epochs = self._sync.ready_epochs(upto=watermark)
        out: List[AlignedEpoch] = []
        for i, epoch in enumerate(epochs):
            end = epoch.time + self._len
            for source in self._sources.values():
                while source.infly and source.infly[0][1] < end:
                    seq, _ = source.infly.popleft()
                    source.consumed_seq = seq
                    source.unclaimed += 1
            out.append(
                AlignedEpoch(
                    epoch=epoch,
                    index=first_index + i,
                    source_seqs={
                        s.name: s.consumed_seq for s in self._sources.values()
                    },
                )
            )
        if all_ended and out:
            # The flush's last epoch covers every remaining record; any
            # straggler attribution (exact boundary ties) folds into it.
            for source in self._sources.values():
                while source.infly:
                    seq, _ = source.infly.popleft()
                    source.consumed_seq = seq
                    source.unclaimed += 1
                out[-1].source_seqs[source.name] = source.consumed_seq
        return out

    def has_releasable(self) -> bool:
        """True when another :meth:`poll` would release work right now.

        That is the case when some pending record sits at or below the
        current watermark, when the watermark advanced past what was last
        fed (already-fed records may complete an epoch the synchronizer was
        holding), or when every source has ended and the terminal flush is
        still owed.  The service's pause release is gated on this: a global
        pause persists while the backlog can still drain, and is only
        force-cleared once the residue above the watermark is all that
        remains (which no amount of waiting shrinks).
        """
        if self._finished or not self._sources:
            return False
        watermark = self.watermark()
        if watermark == float("inf"):
            return True  # terminal flush pending
        if watermark > self._fed_upto:
            return True
        return any(
            s.pending and s.pending[0][1] <= watermark
            for s in self._sources.values()
        )

    def take_consumed(self) -> Dict[str, int]:
        """Frames consumed into epochs since the last call, per source —
        the ingest controller turns these into CREDIT grants."""
        out: Dict[str, int] = {}
        for source in self._sources.values():
            if source.unclaimed:
                out[source.name] = source.unclaimed
                source.unclaimed = 0
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def origin(self) -> Optional[float]:
        return self._sync.origin

    @property
    def next_epoch_index(self) -> int:
        return self._sync.next_epoch_index

    def buffered(self, name: str) -> int:
        return self._require(name).buffered

    def total_buffered(self) -> int:
        return sum(s.buffered for s in self._sources.values())

    def source_names(self) -> List[str]:
        return sorted(self._sources)

    def stats(self) -> Dict[str, object]:
        watermark = self.watermark()
        frontiers = [s.frontier for s in self._sources.values()]
        newest = max(frontiers, default=-float("inf"))
        lag = (
            newest - watermark
            if newest > -float("inf") and watermark not in (float("inf"), -float("inf"))
            else 0.0
        )
        return {
            "sources": {
                s.name: {
                    "queue_depth": s.buffered,
                    "last_seq": s.last_seq,
                    "consumed_seq": s.consumed_seq,
                    "deduped": s.deduped,
                    "ended": s.ended,
                }
                for s in self._sources.values()
            },
            "watermark": None if watermark in (float("inf"), -float("inf")) else watermark,
            "watermark_lag_s": float(max(0.0, lag)),
            "buffered_frames": self.total_buffered(),
            "next_epoch_index": self.next_epoch_index,
            "origin": self.origin,
            "finished": self._finished,
        }
