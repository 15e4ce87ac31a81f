"""Worker executors: persistent shard processes behind one framed link.

Shards that share one interpreter share its GIL, so routing, resampling
bookkeeping, and event merging cannot overlap.  This module moves each
:class:`~repro.runtime.shard.FilterShard` into its own long-lived worker
process — spawned once at runtime construction, not per epoch — behind the
framed stream-socket link of :mod:`repro.runtime.transport`.
``executor="process"`` forks the worker here, over a ``socket.socketpair()``;
``executor="remote"`` connects to a ``repro shard-host``, which forks the
same worker body holding the accepted socket.  Either way the parent holds
one :class:`ShardWorkerProxy` and the worker runs one :func:`_worker_main`;
opening the link is the only executor-specific code.  The proxy speaks the
split-phase surface an in-process :class:`~repro.runtime.shard.FilterShard`
speaks, so the runtime drives both through one code path; the proxy is the
only shard that retires at ``finish`` (it caches the post-run query answers
first).  Two rules keep the steady-state cost per epoch tiny:

* **The link carries control, not arrays.**  Per epoch the proxy packs the
  routed sub-epoch into one ``STEP`` frame — its object-tag *numbers* plus
  the broadcast reader pose/shelf context, never a whole
  :class:`~repro.streams.records.Epoch` — and the worker replies with the
  epoch's emitted events (one ``EVENTS`` frame).
* **Beliefs stay in the worker.**  Its
  :class:`~repro.inference.arena.BeliefArena` is the same private arena the
  serial executor uses; checkpoint state trees cross the link only on
  explicit ``snapshot`` / ``restore`` requests — never in the hot loop.

Determinism: a worker builds its shard from exactly the same re-seeded
config the in-process executors use (its boot document is that config, the
policy and the world model as JSON — floats round-trip exactly) and
reconstructs each epoch from the same routed content, so both worker
executors are **bitwise identical** to the serial executor at equal shard
counts.

Lifecycle: ``boot`` → ``ready`` handshake, graceful ``stop`` → ``bye`` at
teardown, and a terminate-and-join fallback for a worker beyond talking to.

Liveness: every worker runs a heartbeat thread that sends ``HB`` frames
between replies (and exits the process if its forker vanishes), and every
parent-side receive is deadline-bounded — there are no unbounded waits in
this protocol.  A dead or corrupt link or a silent worker (no frames
within the heartbeat grace) surfaces promptly as
:class:`~repro.errors.WorkerError`; a worker whose heartbeats still flow
but whose reply misses the op deadline surfaces as
:class:`~repro.errors.WorkerTimeout` (hung, not dead).  Both subclass
:class:`~repro.errors.InferenceError`, so without a supervisor the
runtime's abort path reaps every worker exactly as before; with one
(``RuntimeConfig.supervisor``) the shard is respawned and replayed.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import signal
import socket
import threading
import time as _time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import InferenceConfig, OutputPolicyConfig, inference_config_from_dict
from ..errors import InferenceError, StateError, WorkerError, WorkerTimeout
from ..faults import fault_point
from ..inference.estimates import LocationEstimate
from ..models.joint import RFIDWorldModel
from ..streams.records import Epoch, LocationEvent, make_epoch
from . import transport
from .shard import FilterShard
from .transport import FramedConnection, parse_endpoint

#: Cadence of worker heartbeat frames (and the parent's poll slice).
HEARTBEAT_INTERVAL_S = 0.25
#: No frame of any kind (reply or heartbeat) for this long ⇒ the worker is
#: unreachable — declared dead even without an EOF on the link.
HEARTBEAT_GRACE_S = 10.0
#: Per-op deadline when no supervisor sets a tighter one.  Generous — it
#: exists to turn "hangs forever" into a typed error, not to race real ops.
DEFAULT_OP_TIMEOUT_S = 300.0


def worker_context() -> mp.context.BaseContext:
    """The multiprocessing context workers run under (fork when available)."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _final_reply(shard: FilterShard) -> dict:
    """Bulk post-run summary: one reply instead of one round-trip per
    object, so the parent can retire the worker while staying queryable
    after finish().  The estimates ride as arrays parallel to ``known``."""
    known = shard.known_objects()
    estimates = [shard.object_estimate(number) for number in known]
    return {
        "stats": shard.stats(),
        "known": known,
        "means": np.array([e.mean for e in estimates], dtype=float).reshape(-1, 3),
        "covariances": np.array(
            [e.covariance for e in estimates], dtype=float
        ).reshape(-1, 3, 3),
        "sample_sizes": [e.sample_size for e in estimates],
    }


def _boot_shard(conn: FramedConnection):
    """Read the boot frame and build the shard it describes.

    Until a valid boot frame is decoded the link is bounded in size (the
    connection was opened with ``PRE_BOOT_MAX_BYTES``) and in time.
    Returns ``(shard, heartbeat interval)``.
    """
    if not conn.poll(transport.CONNECT_TIMEOUT_S):
        raise WorkerError(f"no boot frame within {transport.CONNECT_TIMEOUT_S:.1f}s")
    message = conn.recv()
    if message[0] != "boot" or len(message) != 2 or not isinstance(message[1], dict):
        raise WorkerError("expected a boot frame first")
    doc = message[1]
    try:
        model = RFIDWorldModel.from_dict(doc["model"])
        config = inference_config_from_dict(doc["config"])
        policy = OutputPolicyConfig(**doc["policy"])
        index = int(doc["index"])
        initial_heading = float(doc["initial_heading"])
        heartbeat_interval_s = float(doc["heartbeat_interval_s"])
        if not heartbeat_interval_s > 0.0:
            raise ValueError("heartbeat_interval_s must be positive")
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkerError(f"malformed boot document: {exc!r}") from exc
    conn.raise_limit(transport.MAX_MESSAGE_BYTES)
    shard = FilterShard(index, model, config, policy, initial_heading)
    return shard, heartbeat_interval_s


def _worker_main(
    sock: socket.socket,
    parent_pid: Optional[int] = None,
    inherited: Sequence[socket.socket] = (),
) -> None:
    """Body of one worker process: boot from the link, serve the message loop.

    ``sock`` is the worker's end of the link (a socketpair end, or a
    connection a shard host accepted); ``inherited`` are the forker's
    sockets this process must not hold (the other socketpair end, a
    listener) — closed first, so our copy cannot mask the peer's EOF.

    Request errors are caught and replied as ``("error", kind, text)`` so a
    failed snapshot (say, a delta capture with no baseline) leaves the worker
    serving — matching the in-process executors, where a failed checkpoint
    does not kill the runtime.  Anything that escapes the loop (or the
    process) surfaces to the parent as a dead link.
    """
    for other in inherited:
        other.close()
    try:
        # Whatever handlers the forker installed, SIGTERM kills a worker.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - not this process's main thread
        pass
    conn = FramedConnection(sock, transport.PRE_BOOT_MAX_BYTES)
    try:
        shard, heartbeat_interval_s = _boot_shard(conn)
        conn.send(("ready",))
    except BaseException as exc:  # boot failed: one error frame, then close
        try:
            conn.send(("error", type(exc).__name__, str(exc)))
        except OSError:
            pass
        conn.close()
        return
    # Heartbeats prove liveness between replies: the parent treats a silent
    # link as a dead worker, and a heartbeating-but-late reply as a hang.
    hb_stop = threading.Event()

    def _heartbeat() -> None:
        while not hb_stop.wait(heartbeat_interval_s):
            if parent_pid is not None and os.getppid() != parent_pid:
                # The forker was SIGKILLed: nobody is left to stop or reap
                # this process, so it must not outlive its owner.
                os._exit(1)
            try:
                conn.send(("hb",))
            except OSError:
                return

    threading.Thread(
        target=_heartbeat, name=f"repro-shard-{shard.index}-hb", daemon=True
    ).start()
    send = conn.send
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, WorkerError):
                break
            op = message[0]
            if op == "stop":
                send(("bye",))
                break
            try:
                if op == "step":
                    fault_point("worker.step")
                    _, time, position, heading, object_numbers, shelf_numbers = message
                    shard.step(
                        make_epoch(
                            time,
                            position,
                            object_tags=object_numbers,
                            shelf_tags=shelf_numbers,
                            reported_heading=heading,
                        )
                    )
                    send(("events", shard.drain()))
                elif op == "finish":
                    shard.finish()
                    send(("events", shard.drain()))
                elif op == "snapshot":
                    send(("ok", shard.snapshot(message[1])))
                elif op == "restore":
                    shard.restore(message[1])
                    send(("ok", None))
                elif op == "stats":
                    send(("ok", shard.stats()))
                elif op == "known":
                    send(("ok", shard.known_objects()))
                elif op == "final":
                    send(("ok", _final_reply(shard)))
                elif op == "estimate":
                    estimate = shard.object_estimate(message[1])
                    send(
                        ("ok", estimate.mean, estimate.covariance, estimate.sample_size)
                    )
                else:
                    send(
                        ("error", "InferenceError", f"unknown worker op {op!r}")
                    )
            except BaseException as exc:
                send(("error", type(exc).__name__, str(exc)))
    finally:
        hb_stop.set()
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class ShardWorkerProxy:
    """Parent-side handle to one persistent shard worker, local or remote.

    With ``endpoint=None`` the worker is forked here behind a socketpair;
    with a ``host:port`` endpoint the link is a TCP connection to a ``repro
    shard-host``, which forks it there.  Everything after opening the link
    is shared: ship a ``boot`` frame, await ``ready``, then speak the
    split-phase step protocol and the
    :class:`~repro.runtime.shard.FilterShard` query/snapshot surface
    through a heartbeat-aware, deadline-bounded receive.  A refused or
    dropped connection surfaces as :class:`~repro.errors.WorkerError`, so
    the supervisor's respawn path retries through its usual backoff —
    reconnecting to a restarted shard host heals a remote death exactly
    like a local one.
    """

    def __init__(
        self,
        index: int,
        model: RFIDWorldModel,
        config: InferenceConfig,
        policy: OutputPolicyConfig,
        initial_heading: float = 0.0,
        endpoint: Optional[str] = None,
        op_timeout_s: float = DEFAULT_OP_TIMEOUT_S,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        heartbeat_grace_s: float = HEARTBEAT_GRACE_S,
    ):
        self.index = index
        self.endpoint = None if endpoint is None else str(endpoint)
        #: Deadline for one op (send → final reply).  Supervised runtimes
        #: tighten this (and the heartbeat pair) from their SupervisorConfig.
        self.op_timeout_s = float(op_timeout_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_grace_s = float(heartbeat_grace_s)
        self._dead = False
        #: The forked worker (local link) or ``None`` (remote link, where
        #: the shard host owns the process) — and ``None`` once closed.
        self.process: Optional[mp.process.BaseProcess] = None
        self._conn: Optional[FramedConnection] = None
        #: A ``finish`` whose events (and ``final`` reply) are uncollected.
        self._finishing = False
        #: Post-run query answers, cached at finish (see ``_keep_final``).
        self._final_stats: Optional[Dict[str, float]] = None
        self._final_estimates: Optional[Dict[int, LocationEstimate]] = None
        if self.endpoint is None:
            self._fork_link()
        else:
            self._connect_link()
        try:
            self._conn.send(
                (
                    "boot",
                    {
                        "index": index,
                        "model": model.to_dict(),
                        "config": dataclasses.asdict(config),
                        "policy": dataclasses.asdict(policy),
                        "initial_heading": float(initial_heading),
                        "heartbeat_interval_s": self.heartbeat_interval_s,
                    },
                )
            )
            reply = self._recv()  # ready handshake (or construction error)
            if reply[0] != "ready":
                raise InferenceError(
                    f"shard worker {index} sent {reply[0]!r} instead of ready"
                )
        except BaseException:
            self.close(force=True)
            raise

    # -- the two link openers -------------------------------------------
    def _fork_link(self) -> None:
        """Fork a local worker holding one end of a socketpair."""
        ours, theirs = socket.socketpair()
        self.process = worker_context().Process(
            target=_worker_main,
            args=(theirs, os.getpid(), (ours,)),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        self.process.start()
        theirs.close()
        self._conn = FramedConnection(ours)

    def _connect_link(self) -> None:
        """Connect to a shard host, which forks the worker on accept."""
        try:
            sock = socket.create_connection(
                parse_endpoint(self.endpoint), timeout=transport.CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            raise WorkerError(
                f"shard worker {self.index}: cannot reach shard host "
                f"{self.endpoint}: {exc}"
            ) from exc
        sock.settimeout(None)
        self._conn = FramedConnection(sock)

    # -- liveness -------------------------------------------------------
    def is_alive(self) -> bool:
        """Whether the worker behind this proxy is believed reachable."""
        return (
            not self._dead
            and self._conn is not None
            and self._conn.alive
            and (self.process is None or self.process.is_alive())
        )

    def _where(self) -> str:
        if self.endpoint is not None:
            return f" (shard host {self.endpoint})"
        return "" if self.process is None else f" (exit code {self.process.exitcode})"

    # -- plumbing ------------------------------------------------------
    def _send(self, message: tuple) -> None:
        if self._dead or self._conn is None:
            raise WorkerError(f"shard worker {self.index} is not running")
        fault_point("worker.send")
        try:
            self._conn.send(message)
        except OSError as exc:
            self._dead = True
            raise WorkerError(
                f"shard worker {self.index} died (connection closed on send)"
            ) from exc

    def _recv(self, timeout: Optional[float] = None) -> tuple:
        """Deadline-bounded receive; heartbeat frames are consumed silently.

        Never blocks forever: a dead or corrupt link raises
        :class:`WorkerError` immediately, a silent worker (no frame within
        ``heartbeat_grace_s``) raises :class:`WorkerError`, and a worker
        whose heartbeats flow but whose reply misses the op deadline
        raises :class:`WorkerTimeout`.  All three mark the proxy dead.
        """
        fault_point("worker.recv")
        conn = self._conn
        if self._dead or conn is None:
            raise WorkerError(f"shard worker {self.index} is not running")
        limit = self.op_timeout_s if timeout is None else float(timeout)
        start = _time.monotonic()
        last_frame = start
        while True:
            now = _time.monotonic()
            if now - start >= limit:
                self._dead = True
                raise WorkerTimeout(
                    f"shard worker {self.index} hung: no reply within "
                    f"{limit:.1f}s (heartbeats still arriving)"
                )
            try:
                ready = conn.poll(min(self.heartbeat_interval_s, limit - (now - start)))
                reply = conn.recv() if ready else None
            except (EOFError, OSError, WorkerError) as exc:
                self._dead = True
                raise WorkerError(
                    f"shard worker {self.index} died mid-request{self._where()}"
                    + (f": {exc}" if isinstance(exc, WorkerError) else "")
                ) from exc
            if reply is None:
                if _time.monotonic() - last_frame >= self.heartbeat_grace_s:
                    self._dead = True
                    raise WorkerError(
                        f"shard worker {self.index} died silently: no "
                        f"frames for {self.heartbeat_grace_s:.1f}s{self._where()}"
                    )
                continue
            last_frame = _time.monotonic()
            if reply[0] == "hb":
                continue
            if reply[0] == "error":
                _, kind, text = reply
                if kind == "StateError":
                    raise StateError(f"shard worker {self.index}: {text}")
                raise InferenceError(f"shard worker {self.index}: {kind}: {text}")
            return reply

    def _request(self, message: tuple) -> tuple:
        self._send(message)
        return self._recv()

    # -- the split-phase shard surface ---------------------------------
    def step_async(self, epoch: Epoch) -> None:
        """Ship one routed sub-epoch; the worker rebuilds it from the tag
        numbers (tag sets are unordered, so its content is identical)."""
        self._send(
            (
                "step",
                epoch.time,
                epoch.reported_position,
                epoch.reported_heading,
                [tag.number for tag in epoch.object_tags],
                [tag.number for tag in epoch.shelf_tags],
            )
        )

    def finish_async(self) -> None:
        """Flush the worker, with the post-run summary requested right
        behind it: every worker's is in flight before any is collected."""
        self._send(("finish",))
        self._send(("final",))
        self._finishing = True

    def collect_events(self) -> List[LocationEvent]:
        reply = self._recv()
        if reply[0] != "events":
            raise InferenceError(
                f"shard worker {self.index} sent {reply[0]!r} instead of events"
            )
        events = reply[1]
        if self._finishing:
            self._finishing = False
            self._keep_final(self._recv()[1])
        return events

    def _keep_final(self, final: dict) -> None:
        """Cache the post-run query answers, so the proxy stays queryable
        once ``close`` retires the worker."""
        self._final_stats = final["stats"]
        self._final_estimates = {  # in ``known`` order
            number: LocationEstimate(
                mean=mean, covariance=covariance, sample_size=int(sample_size)
            )
            for number, mean, covariance, sample_size in zip(
                final["known"],
                final["means"],
                final["covariances"],
                final["sample_sizes"],
            )
        }

    # -- FilterShard queries -------------------------------------------
    def known_objects(self) -> List[int]:
        if self._final_estimates is not None:
            return list(self._final_estimates)
        return self._request(("known",))[1]

    def object_estimate(self, number: int) -> LocationEstimate:
        if self._final_estimates is not None:
            try:
                return self._final_estimates[number]
            except KeyError:
                raise InferenceError(f"unknown object {number}") from None
        mean, covariance, sample_size = self._request(("estimate", number))[1:]
        return LocationEstimate(
            mean=np.asarray(mean, dtype=float),
            covariance=np.asarray(covariance, dtype=float),
            sample_size=int(sample_size),
        )

    def stats(self) -> Dict[str, float]:
        if self._final_stats is not None:
            return dict(self._final_stats)
        row = self._request(("stats",))[1]
        row["wire_bytes_sent"] = self._conn.bytes_sent
        row["wire_bytes_recv"] = self._conn.bytes_received
        return row

    def snapshot_async(self, mode: str = "full") -> None:
        self._send(("snapshot", mode))

    def collect_snapshot(self) -> dict:
        return self._recv()[1]

    def snapshot(self, mode: str = "full") -> dict:
        """Capture the worker shard's state tree over the link.

        ``mode="delta"`` makes the worker ship only its dirty blocks —
        delta-mode checkpoints cut link traffic the same way they cut disk
        bytes.
        """
        self.snapshot_async(mode)
        return self.collect_snapshot()

    def restore(self, state: dict) -> None:
        self._request(("restore", state))

    # -- teardown -------------------------------------------------------
    def close(self, force: bool = False, timeout: float = 5.0) -> None:
        """Stop the worker and reclaim its resources.  Idempotent.

        Graceful by default (``stop``, drain to ``bye``); ``force`` — or a
        dead link — skips the goodbye and terminates a local worker at once.
        Closing the link stops a remote worker (its host reaps it); a local
        one is joined here.
        """
        conn, self._conn = self._conn, None
        process, self.process = self.process, None
        if conn is None:
            return
        if not force and not self._dead and conn.alive:
            try:
                conn.send(("stop",))
                # Drain queued replies (e.g. an uncollected step) and
                # heartbeat frames until the goodbye; a deadline bounds a
                # wedged worker even while its heartbeats keep arriving.
                deadline = _time.monotonic() + timeout
                while _time.monotonic() < deadline and conn.poll(
                    max(0.0, deadline - _time.monotonic())
                ):
                    if conn.recv()[0] == "bye":
                        break
            except (EOFError, OSError, WorkerError):
                pass
        elif process is not None and process.is_alive():
            # Forced (or already-dead-link) close: don't wait out a hung
            # worker's join timeout before killing it — the caller already
            # decided this process is beyond talking to.
            process.terminate()
        conn.close()
        self._dead = True
        if process is not None:
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout)
