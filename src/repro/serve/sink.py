"""Exactly-once downstream delivery of query emissions.

The delivery contract: every query emission is appended to a durable JSONL
log under a monotonically increasing offset, and **the log of a crashed and
resumed run is byte-identical to an uninterrupted run's** — no lost entries,
no duplicates, no reordering.  Subscribers replay the log from their last
acknowledged offset, so end-to-end delivery is exactly-once as long as acks
are durable on the subscriber side.

How it survives ``kill -9`` anywhere:

* **Append, flush, fsync, deliver, checkpoint, ``LATEST``.** Per epoch the
  service appends the emissions in ``step()``, flushes them to the OS
  (``fsync`` if configured), delivers them, and only then writes a due
  periodic checkpoint (``LATEST`` last), so a manifest recording
  ``next_offset = N`` proves offsets ``< N`` are on disk.  A ``kill -9``
  loses only entries after the last flush and checkpoint: regenerated.
* **Torn tails are dropped.** Recovery scans the log; a trailing line that
  is incomplete (no newline) or unparsable — the write the kill landed in —
  is truncated away, WAL-style.  Interior corruption fails loudly.
* **Replay is verified, not re-appended.** A resumed run restarts from the
  checkpoint at offset N while the log may already hold M >= N entries
  (generated between checkpoint and crash).  Deterministic replay
  regenerates those emissions bit-for-bit: each is checked against the
  logged line's SHA-256 and suppressed instead of re-appended (a mismatch
  means non-deterministic replay and raises — silently diverging delivery
  would be worse than crashing).  Offsets >= M append as normal.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import StateError
from ..faults import fault_point

#: Canonical JSON encoding of one emission record — a stable byte
#: representation is what makes replay verification exact.
def encode_emission(offset: int, payload: Dict[str, Any]) -> bytes:
    record = dict(payload)
    record["offset"] = int(offset)
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def _line_hash(line: bytes) -> bytes:
    return hashlib.sha256(line).digest()


class DeliverySink:
    """Offset-stamped, crash-consistent JSONL emission log.

    ``emit()`` assigns the next offset and either appends (new emission) or
    verifies-and-suppresses (deterministic replay of a logged entry).  The
    caller flushes per epoch batch; ``on_deliver`` fires only for appended
    lines — replayed entries reach late subscribers through ``replay()``.
    """

    def __init__(
        self,
        path: str,
        fsync: bool = False,
        on_deliver: Optional[Callable[[int, bytes], None]] = None,
    ):
        self.path = os.fspath(path)
        self._fsync = bool(fsync)
        self.on_deliver = on_deliver
        self._hashes: List[bytes] = []
        self._acked = -1
        self._suppressed = 0
        self._appended = 0
        self._closed = False
        self._recover()
        self._next = len(self._hashes)
        self._fp = open(self.path, "ab")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Scan an existing log, index line hashes, drop a torn tail."""
        if not os.path.exists(self.path):
            return
        good_end = 0
        with open(self.path, "rb") as fp:
            data = fp.read()
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                break  # torn tail: partial final write
            line = data[offset:newline]
            try:
                record = json.loads(line)
                logged = int(record["offset"])
            except (ValueError, KeyError, TypeError):
                if newline == len(data) - 1:
                    break  # torn final line that still got its newline
                raise StateError(
                    f"emission log {self.path} is corrupt at byte {offset} "
                    "(interior line unparsable)"
                )
            if logged != len(self._hashes):
                raise StateError(
                    f"emission log {self.path} skips from offset "
                    f"{len(self._hashes)} to {logged}"
                )
            self._hashes.append(_line_hash(line))
            good_end = newline + 1
            offset = newline + 1
        if good_end < len(data):
            with open(self.path, "ab") as fp:
                fp.truncate(good_end)

    def prime(self, next_offset: int, acked_offset: int) -> None:
        """Adopt checkpointed offsets on resume.

        ``next_offset`` is where deterministic replay restarts; it must not
        exceed what the log holds — a checkpoint claiming more emissions
        than were logged means the log and checkpoint are from different
        runs.
        """
        if next_offset > len(self._hashes):
            raise StateError(
                f"checkpoint expects {next_offset} logged emissions but "
                f"{self.path} holds {len(self._hashes)} — log/checkpoint "
                "mismatch"
            )
        self._next = int(next_offset)
        self._acked = max(self._acked, int(acked_offset))

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, payload: Dict[str, Any]) -> int:
        """Log one emission; returns its offset.

        Inside the replay window (offset below what recovery found) the
        regenerated line is verified against the logged one and suppressed;
        beyond it the line is appended and handed to ``on_deliver``.
        """
        if self._closed:
            raise StateError("delivery sink is closed")
        offset = self._next
        line = encode_emission(offset, payload)
        if offset < len(self._hashes):
            if _line_hash(line) != self._hashes[offset]:
                raise StateError(
                    f"replayed emission {offset} does not match the logged "
                    "line — resumed run diverged from the pre-crash run"
                )
            self._suppressed += 1
        else:
            fault_point("sink.append", path=self.path)
            self._fp.write(line + b"\n")
            self._hashes.append(_line_hash(line))
            self._appended += 1
            if self.on_deliver is not None:
                self.on_deliver(offset, line)
        self._next = offset + 1
        return offset

    def flush(self) -> None:
        """Push appended lines to the OS (the kill -9 durability point)."""
        if self._closed:
            return
        self._fp.flush()
        if self._fsync:
            os.fsync(self._fp.fileno())

    # ------------------------------------------------------------------
    # Delivery bookkeeping
    # ------------------------------------------------------------------
    def ack(self, offset: int) -> None:
        """A subscriber confirmed delivery through ``offset`` (inclusive)."""
        if offset >= self._next:
            raise StateError(
                f"ack of offset {offset} beyond the log ({self._next} emitted)"
            )
        self._acked = max(self._acked, int(offset))

    def replay(self, after_offset: int = -1) -> Iterator[Tuple[int, bytes]]:
        """Logged lines with offsets above ``after_offset``, in order.

        Reads the file (the log is append-only and flushed before replay is
        offered to a catching-up subscriber).
        """
        self.flush()
        with open(self.path, "rb") as fp:
            offset = 0
            for raw in fp:
                line = raw.rstrip(b"\n")
                if offset >= self._next:
                    break
                if offset > after_offset:
                    yield offset, line
                offset += 1

    # ------------------------------------------------------------------
    @property
    def next_offset(self) -> int:
        """Offset the next emission will receive."""
        return self._next

    @property
    def acked_offset(self) -> int:
        """Highest subscriber-acknowledged offset (-1: nothing acked)."""
        return self._acked

    @property
    def logged(self) -> int:
        """Entries on disk (recovered plus appended this run)."""
        return len(self._hashes)

    def stats(self) -> Dict[str, int]:
        return {
            "next_offset": self._next,
            "acked_offset": self._acked,
            "logged": len(self._hashes),
            "appended": self._appended,
            "replay_suppressed": self._suppressed,
            "pending_ack": self._next - 1 - self._acked,
        }

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._fp.close()
        self._closed = True
