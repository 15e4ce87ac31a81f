"""Shard supervision: respawn, restore, and replay failed workers.

The process executor's crash story through PR 4 was *containment*: a dead
worker raised :class:`~repro.errors.WorkerError`, the runtime aborted, and
a human restarted from the last checkpoint.  The supervisor closes that
loop in-process.  When a worker dies (link EOF / silent heartbeat gap) or
hangs (heartbeats flow, reply misses the op deadline), the supervisor:

1. **kills + respawns** the worker process (fresh fork, same re-seeded
   shard config — determinism comes from the seed, not the process);
2. **restores** just that shard from the last checkpoint's per-shard state
   (``manifest.shard_states[index]`` over the link, exactly the restore
   path explicit resume uses) — or starts it fresh from the seed when no
   checkpoint exists yet;
3. **replays** the journaled epoch suffix — every epoch routed since that
   checkpoint — through the router to the one recovered shard, discarding
   the replayed events (they were already published; the replay is
   deterministic, so they are byte-identical duplicates);
4. **re-issues** the in-flight sub-epoch and returns its events, so the
   merged output stream is byte-identical to a run that never crashed.

There is one step loop, the runtime's (:meth:`ShardedRuntime.step`): it
sends every shard its sub-epoch, collects every reply, hands each
:class:`WorkerError` with that shard's sub-epoch to :meth:`recover`, and
journals the epoch (:meth:`record`) once every shard's events are in.

Respawns happen under capped exponential backoff with a per-shard restart
budget (:class:`~repro.config.SupervisorConfig`); an exhausted budget or
an overflowed journal escalates: the runtime aborts and the original
:class:`WorkerError` propagates — never a hang, never silent divergence.

The epoch journal is cleared on every checkpoint (the runtime notifies via
:meth:`ShardSupervisor.note_checkpoint`), so its length is bounded by the
checkpoint cadence.  Recovery mid-delta-chain keeps the chain: the
restored shard takes the capture serial of the checkpoint it restores from,
and the replay re-marks every object the journal touched, so the next
periodic delta still chains onto that checkpoint and ships what changed
since it.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from ..config import SupervisorConfig
from ..errors import WorkerError
from ..streams.records import Epoch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ShardedRuntime


class ShardSupervisor:
    """Per-runtime supervisor for process-executor shard workers."""

    def __init__(self, runtime: "ShardedRuntime", config: SupervisorConfig):
        self.runtime = runtime
        self.config = config
        #: Epochs routed since the last checkpoint — the replay suffix.
        self._journal: List[Epoch] = []
        #: Set when replay is no longer possible (the journal overflowed
        #: ``max_journal_epochs``, or a live re-shard invalidated the
        #: baseline), so the next recovery escalates with ``_broken_reason``.
        self._journal_broken = False
        self._broken_reason = ""
        #: Path of the last checkpoint (periodic, explicit, or the one the
        #: runtime was restored from) — the recovery baseline.
        self._checkpoint_path: Optional[str] = None
        self._restarts: Dict[int, int] = {}
        self.restarts_total = 0
        self.last_recovery_ms: Optional[float] = None
        #: True while a recovery is in progress.  Read (cross-thread) by
        #: the serving layer to mark emissions/ticks as degraded.
        self.recovering = False
        #: Epochs whose events were produced through a recovery replay.
        self.degraded_epochs = 0

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------
    def note_checkpoint(self, path) -> None:
        """A coordinated checkpoint just landed: new baseline, empty journal."""
        self._checkpoint_path = os.fspath(path)
        self._journal.clear()
        self._journal_broken = False
        self._broken_reason = ""

    def note_reshard(self) -> None:
        """The runtime just migrated to a new shard layout live.

        Pre-reshard checkpoints cannot restore into the new layout, and a
        fresh-seed replay would diverge (migrated state carries re-derived
        RNG streams), so recovery has no baseline until the next checkpoint
        lands: the journal is dropped and marked broken — a worker death in
        the gap escalates loudly instead of silently diverging.  Runtimes
        with a ``checkpoint_dir`` close the gap immediately: the live
        re-shard writes a fresh checkpoint before ingest resumes.  Restart
        budgets reset — the new layout's workers are new processes.
        """
        self._checkpoint_path = None
        self._journal.clear()
        self._journal_broken = True
        self._broken_reason = (
            "the shard layout changed live and no post-reshard checkpoint "
            "has landed yet"
        )
        self._restarts.clear()

    def record(self, epoch: Epoch) -> None:
        """Journal one successfully processed epoch for future replay."""
        if self._journal_broken:
            return
        if len(self._journal) >= self.config.max_journal_epochs:
            # Checkpoints are not landing: drop the journal rather than
            # grow without bound.  Recovery escalates loudly from here on.
            self._journal.clear()
            self._journal_broken = True
            self._broken_reason = (
                "its epoch journal overflowed before a checkpoint landed"
            )
            return
        self._journal.append(epoch)

    def recover_dead_shards(self, cause: WorkerError) -> List[int]:
        """Respawn + catch up every dead worker (no in-flight epoch).

        Used by the periodic-checkpoint path: a snapshot collection that
        lost a worker recovers it here, then retries the save.
        """
        recovered = []
        for index, proxy in enumerate(self.runtime.shards):
            # Link-agnostic liveness: the proxy checks its socket and, for a
            # local worker, the forked process (ShardWorkerProxy.is_alive).
            if not proxy.is_alive():
                self.recover(index, cause)
                recovered.append(index)
        if not recovered:
            raise cause  # the failure was not a dead worker after all
        return recovered

    def stats(self) -> Dict[str, object]:
        return {
            "restarts": self.restarts_total,
            "restarts_by_shard": {
                str(index): count for index, count in sorted(self._restarts.items())
            },
            "last_recovery_ms": self.last_recovery_ms,
            "degraded_epochs": self.degraded_epochs,
            "recovering": self.recovering,
            "journal_epochs": len(self._journal),
        }

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(
        self, index: int, cause: WorkerError, sub_epoch: Optional[Epoch] = None
    ) -> list:
        """Respawn shard ``index``, catch it up, re-issue its in-flight
        ``sub_epoch`` (the runtime's step hands over the one it routed).

        Returns the re-issued sub-epoch's events — byte-identical to the
        lost reply — or an empty list when recovering without one.  Loops
        under backoff until success or escalation.
        """
        if self._journal_broken:
            self._escalate(index, cause, self._broken_reason)
        started = time.monotonic()
        self.recovering = True
        try:
            while True:
                count = self._restarts.get(index, 0) + 1
                self._restarts[index] = count
                self.restarts_total += 1
                if count > self.config.max_restarts:
                    self._escalate(
                        index,
                        cause,
                        f"exhausted its restart budget "
                        f"(max_restarts={self.config.max_restarts})",
                    )
                self._backoff(count)
                try:
                    self._respawn(index)
                    self._catch_up(index)
                    events: list = []
                    if sub_epoch is not None:
                        proxy = self.runtime.shards[index]
                        proxy.step_async(sub_epoch)
                        events = proxy.collect_events()
                except WorkerError as exc:
                    cause = exc  # died again: next lap, fatter backoff
                    continue
                self.degraded_epochs += 1
                self.last_recovery_ms = (time.monotonic() - started) * 1000.0
                return events
        finally:
            self.recovering = False

    def _backoff(self, attempt: int) -> None:
        delay = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2 ** (attempt - 1)),
        )
        if delay > 0:
            time.sleep(delay)

    def _respawn(self, index: int) -> None:
        old = self.runtime.shards[index]
        try:
            old.close(force=True)
        except Exception:
            pass  # reclamation is best-effort
        self.runtime.shards[index] = self.runtime._new_shard(index)

    def _catch_up(self, index: int) -> None:
        """Restore the respawned shard from the baseline, replay the journal."""
        proxy = self.runtime.shards[index]
        if self._checkpoint_path is not None:
            from ..state.checkpoint import load_checkpoint  # deferred: no cycle

            manifest = load_checkpoint(self._checkpoint_path)
            if manifest.n_shards != self.runtime.n_shards:
                raise WorkerError(
                    f"cannot recover shard {index}: checkpoint "
                    f"{self._checkpoint_path!r} holds {manifest.n_shards} "
                    f"shards, runtime has {self.runtime.n_shards}"
                )
            proxy.restore(manifest.shard_states[index])
        # else: no checkpoint yet — the fresh worker already sits at the
        # stream start (same seed), so the journal replays from epoch 0.
        split = self.runtime.router.split
        for past in self._journal:
            proxy.step_async(split(past)[index])
            proxy.collect_events()  # deterministic duplicates: discard

    def _escalate(self, index: int, cause: WorkerError, reason: str) -> None:
        self.runtime.abort()
        raise WorkerError(
            f"shard worker {index} is beyond recovery: {reason}; aborting run"
        ) from cause
