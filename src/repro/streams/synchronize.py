"""Epoch synchronization of raw streams (Section II-A).

Real readers emit the RFID reading stream and the reader location stream
slightly out of sync.  The paper's low-level preprocessing "assign[s] the
same time to RFID readings produced in one epoch and tak[es the] average of
multiple location updates in an epoch to produce a single update"; this
module implements exactly that.

:class:`EpochSynchronizer` is an online operator: push readings and location
reports in any interleaving (non-decreasing time within each stream), and it
emits completed :class:`~repro.streams.records.Epoch` objects as soon as both
streams have advanced past an epoch boundary.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..errors import StreamError
from .records import Epoch, ReaderLocationReport, TagReading


class EpochSynchronizer:
    """Online alignment of raw reading/location streams into epochs.

    Parameters
    ----------
    epoch_length:
        Width of an epoch in seconds (the paper uses about one second).
    start_time:
        Time of the left edge of epoch 0.  Defaults to the first record's
        floor.
    emit_empty:
        When True, epochs with no readings and no location report are still
        emitted (the inference engine treats them as all-negative evidence).
        The paper's traces have a reading attempt every epoch, so True is
        the faithful default.
    """

    def __init__(
        self,
        epoch_length: float = 1.0,
        start_time: Optional[float] = None,
        emit_empty: bool = True,
    ):
        if epoch_length <= 0:
            raise StreamError(f"epoch_length must be positive, got {epoch_length}")
        self._len = float(epoch_length)
        self._start = start_time
        self._emit_empty = emit_empty
        self._readings: List[TagReading] = []
        self._reports: List[ReaderLocationReport] = []
        self._last_reading_time = -float("inf")
        self._last_report_time = -float("inf")
        self._next_epoch_index = 0
        self._flushed = False

    @property
    def origin(self) -> Optional[float]:
        """Left edge of epoch 0 (``None`` until the first record arrives)."""
        return self._start

    @property
    def next_epoch_index(self) -> int:
        """Index of the next epoch this synchronizer will emit."""
        return self._next_epoch_index

    def seek(self, epoch_index: int) -> None:
        """Prime a fresh synchronizer to resume emission at ``epoch_index``.

        The resume path for online serving: a restored run knows its epoch
        origin and how many epochs it already consumed, so a new
        synchronizer built with the recorded ``start_time`` seeks forward
        and the next emitted epoch lands on the original grid.  Only a
        pristine synchronizer (explicit ``start_time``, nothing pushed or
        emitted) may seek — anything else would silently renumber epochs.
        """
        if epoch_index < 0:
            raise StreamError(f"epoch seek index must be >= 0, got {epoch_index}")
        if self._start is None:
            raise StreamError("seek requires an explicit start_time")
        if self._readings or self._reports or self._next_epoch_index:
            raise StreamError("cannot seek a synchronizer already in use")
        self._next_epoch_index = int(epoch_index)

    # ------------------------------------------------------------------
    # Pushing raw records
    # ------------------------------------------------------------------
    def push_reading(self, reading: TagReading) -> None:
        self._admit("push_reading", "reading", reading.time, self._last_reading_time)
        self._last_reading_time = reading.time
        self._readings.append(reading)

    def push_report(self, report: ReaderLocationReport) -> None:
        self._admit("push_report", "location", report.time, self._last_report_time)
        self._last_report_time = report.time
        self._reports.append(report)

    def _admit(self, push: str, stream: str, time: float, last: float) -> None:
        if self._flushed:
            raise StreamError(
                f"synchronizer already flushed; {push} after flush() "
                "would corrupt epoch indexing"
            )
        if time < last:
            raise StreamError(f"{stream} stream went backwards: {time} < {last}")
        self._maybe_set_start(time)

    def _maybe_set_start(self, time: float) -> None:
        candidate = float(np.floor(time / self._len) * self._len)
        if self._start is None:
            self._start = candidate
        elif candidate < self._start and self._next_epoch_index == 0:
            # The two raw streams arrive independently; if the other stream
            # starts earlier, shift the epoch origin back — but only while
            # nothing has been emitted yet.
            self._start = candidate

    # ------------------------------------------------------------------
    # Pulling epochs
    # ------------------------------------------------------------------
    def ready_epochs(self, upto: Optional[float] = None) -> List[Epoch]:
        """Epochs that can no longer receive records from either stream.

        ``upto`` substitutes an *external* (finite) watermark for the
        internal per-kind one: a caller multiplexing several live sources
        (:class:`repro.serve.watermark.WatermarkAligner`) can guarantee no
        record at or below ``upto`` will ever be pushed again even while
        one record *kind* lags, releasing epochs the conservative
        ``min(last reading, last report)`` rule would keep buffered.
        Records exactly at ``upto`` stay safe either way — a time-``t``
        record belongs to the epoch *starting* at ``t``, which ends after
        ``upto`` and is not released.
        """
        if self._start is None:
            return []
        watermark = (
            float(upto)
            if upto is not None
            else min(self._last_reading_time, self._last_report_time)
        )
        out: List[Epoch] = []
        while True:
            boundary = self._epoch_end(self._next_epoch_index)
            if boundary > watermark:
                break
            out.extend(self._emit(self._next_epoch_index))
            self._next_epoch_index += 1
        return out

    def flush(self) -> List[Epoch]:
        """Emit every remaining buffered epoch (end of stream).

        Idempotent: a second ``flush()`` returns ``[]``.  After a flush the
        synchronizer is closed — further pushes raise :class:`StreamError`
        (they could only land inside or before already-emitted epochs).
        """
        if self._flushed:
            return []
        self._flushed = True
        if self._start is None:
            return []
        last = max(self._last_reading_time, self._last_report_time)
        out: List[Epoch] = []
        while self._epoch_start(self._next_epoch_index) <= last:
            out.extend(self._emit(self._next_epoch_index))
            self._next_epoch_index += 1
        return out

    def _epoch_start(self, index: int) -> float:
        assert self._start is not None
        return self._start + index * self._len

    def _epoch_end(self, index: int) -> float:
        return self._epoch_start(index) + self._len

    @staticmethod
    def _take(buffer: list, lo: float, hi: float) -> list:
        """Pop ``buffer``'s records before ``hi``; return those from ``lo`` on.

        Buffers are time-sorted (enforced on push), so each epoch is a
        prefix split — scan from the front instead of re-filtering the
        whole buffer (which would be quadratic over a long trace).
        """
        cut = 0
        while cut < len(buffer) and buffer[cut].time < hi:
            cut += 1
        taken = [r for r in buffer[:cut] if r.time >= lo]
        del buffer[:cut]
        return taken

    def _emit(self, index: int) -> List[Epoch]:
        lo = self._epoch_start(index)
        readings = self._take(self._readings, lo, self._epoch_end(index))
        reports = self._take(self._reports, lo, self._epoch_end(index))
        if not readings and not reports and not self._emit_empty:
            return []
        position = None
        heading = None
        if reports:
            # The IEEE operations of np.mean(axis=0) without its dispatch:
            # a running sum from +0.0 in report order, then one division.
            x = y = z = 0.0
            for report in reports:
                px, py, pz = report.position
                x += float(px)
                y += float(py)
                z += float(pz)
            n = len(reports)
            position = (x / n, y / n, z / n)
            headings = [r.heading for r in reports if r.heading is not None]
            if headings:
                # Circular mean keeps +pi/-pi reports from averaging to 0.
                # ndarray.sum() is np.mean's own reduction (pairwise past 8).
                k = len(headings)
                heading = float(
                    np.arctan2(np.sin(headings).sum() / k, np.cos(headings).sum() / k)
                )
        return [
            Epoch(
                time=lo,
                reported_position=position,
                object_tags=frozenset({r.tag for r in readings if r.tag.is_object}),
                shelf_tags=frozenset({r.tag for r in readings if r.tag.is_shelf}),
                reported_heading=heading,
            )
        ]


def synchronize(
    readings: Iterable[TagReading],
    reports: Iterable[ReaderLocationReport],
    epoch_length: float = 1.0,
    emit_empty: bool = True,
) -> List[Epoch]:
    """Batch helper: synchronize two complete raw streams into epochs."""
    sync = EpochSynchronizer(epoch_length=epoch_length, emit_empty=emit_empty)
    for reading in readings:
        sync.push_reading(reading)
    for report in reports:
        sync.push_report(report)
    out = sync.ready_epochs()
    out.extend(sync.flush())
    return out
