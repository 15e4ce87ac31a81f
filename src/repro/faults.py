"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s, each naming a
*fault point* — a stable string identifier compiled into the production
code path (``fault_point("worker.step")`` in the worker request loop,
``fault_point("checkpoint.write", path=...)`` once a checkpoint's payload
is written, and so on).  When no plan is installed a fault point is a
dictionary miss — cheap enough to leave in the hot path permanently.

Install a plan with :func:`install` (or via the ``REPRO_FAULTS``
environment variable, parsed by the CLI at startup) and every process
forked afterwards shares the plan *and its hit counters*: counters are
``multiprocessing.Value`` slots created at install time, so a rule that
fires "on the 3rd hit of worker.step" fires exactly once across the
original worker, its respawned replacement, and any sibling shards —
replayed work does not re-trigger the fault.  That property is what makes
supervised-recovery tests deterministic.

Actions:

* ``raise`` — raise ``OSError(message)`` at the fault point (simulated
  EIO / power loss; the same exception the retired monkeypatch harness
  injected).
* ``exit`` — ``os._exit(exit_code)``: the process vanishes without
  cleanup, indistinguishable from SIGKILL to its parent.
* ``delay`` — sleep ``delay_s`` then continue; with a deadline-bounded
  protocol this simulates a hung-but-alive worker.
* ``torn`` — truncate the file handed to the fault point to half its
  size, then raise ``OSError`` (a torn write caught mid-flush).  Falls
  back to ``raise`` when the call site passes no path.

Fault-point catalogue (kept in sync with README):

====================== ======================================================
``worker.step``        inside the worker process, before executing a step op
``worker.recv``        in the parent proxy, before receiving a reply
``worker.send``        in the parent proxy, before sending a request
``checkpoint.write``   once per checkpoint: payload written to its ``.tmp``
                       (= path), before fsync/rename
``checkpoint.durable`` once per periodic checkpoint, after ``LATEST`` moves
``serve.frame``        in the service, before dispatching a decoded frame
``sink.append``        in the delivery sink, before appending a log line
``client.connect``     in serve clients, before each connect attempt
====================== ======================================================
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "clear",
    "fault_point",
    "hits",
    "install",
    "install_from_env",
]

#: Known fault points (documentation + ``FaultPlan.random`` catalogue).
#: ``fault_point`` accepts any name so new points need no registry edit.
FAULT_POINTS = (
    "worker.step",
    "worker.recv",
    "worker.send",
    "checkpoint.write",
    "checkpoint.durable",
    "serve.frame",
    "sink.append",
    "client.connect",
)

FAULT_ACTIONS = ("raise", "exit", "delay", "torn")

#: Environment variable holding a JSON-encoded plan (see FaultPlan.to_json).
ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultRule:
    """Fire ``action`` on hits ``nth .. nth+count-1`` of ``point``."""

    point: str
    nth: int = 1
    count: int = 1
    action: str = "raise"
    delay_s: float = 0.0
    message: str = "injected fault"
    exit_code: int = 43

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; choose from {FAULT_ACTIONS}"
            )
        if self.nth < 1:
            raise ConfigurationError("fault rule nth must be >= 1 (1-based hits)")
        if self.count < 1:
            raise ConfigurationError("fault rule count must be >= 1")
        if self.action == "delay" and self.delay_s <= 0:
            raise ConfigurationError("delay fault needs a positive delay_s")

    def fires_on(self, hit: int) -> bool:
        return self.nth <= hit < self.nth + self.count


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of fault rules."""

    rules: Tuple[FaultRule, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_json(self) -> str:
        doc: Dict[str, Any] = {"rules": [asdict(rule) for rule in self.rules]}
        if self.seed is not None:
            doc["seed"] = self.seed
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed fault plan JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("rules"), list):
            raise ConfigurationError(
                'fault plan JSON must be {"rules": [...], "seed"?: int}'
            )
        try:
            rules = tuple(FaultRule(**rule) for rule in doc["rules"])
        except TypeError as exc:
            raise ConfigurationError(f"malformed fault rule: {exc}") from exc
        return cls(rules=rules, seed=doc.get("seed"))

    @classmethod
    def random(
        cls,
        seed: int,
        catalogue: Optional[Sequence[Tuple[str, Sequence[str]]]] = None,
        n_rules: int = 1,
        max_nth: int = 6,
        delay_s: float = 0.2,
    ) -> "FaultPlan":
        """Draw a reproducible plan: same seed, same rules, forever."""
        rng = random.Random(seed)
        if catalogue is None:
            catalogue = [(point, ("raise", "delay")) for point in FAULT_POINTS]
        rules = []
        for _ in range(n_rules):
            point, actions = catalogue[rng.randrange(len(catalogue))]
            action = actions[rng.randrange(len(actions))]
            rules.append(
                FaultRule(
                    point=point,
                    nth=rng.randint(1, max_nth),
                    action=action,
                    delay_s=delay_s if action == "delay" else 0.0,
                    message=f"injected fault (seed {seed})",
                )
            )
        return cls(rules=tuple(rules), seed=seed)


class _ActivePlan:
    """An installed plan plus its shared (fork-inherited) hit counters."""

    def __init__(self, plan: FaultPlan):
        import multiprocessing

        self.plan = plan
        self.rules_by_point: Dict[str, List[FaultRule]] = {}
        for rule in plan.rules:
            self.rules_by_point.setdefault(rule.point, []).append(rule)
        # One shared counter per point: forked children (workers, and
        # respawned workers) inherit the same memory, so hits accumulate
        # globally and an "nth hit" rule cannot re-fire during replay.
        self.counters = {
            point: multiprocessing.Value("q", 0) for point in self.rules_by_point
        }


_active: Optional[_ActivePlan] = None


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (and into every process forked later)."""
    global _active
    _active = _ActivePlan(plan)


def clear() -> None:
    """Remove the installed plan; fault points become no-ops again."""
    global _active
    _active = None


def active_plan() -> Optional[FaultPlan]:
    return _active.plan if _active is not None else None


def hits(name: str) -> int:
    """Recorded hits of fault point ``name`` under the installed plan.

    Counts accumulate across every process forked since ``install`` (the
    counters are shared memory); 0 when no plan names the point.
    """
    state = _active
    if state is None or name not in state.counters:
        return 0
    return int(state.counters[name].value)


def install_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    """Install the plan serialized in ``REPRO_FAULTS``, if any.

    Called by the CLI at startup so subprocess-driven chaos runs (CI
    smokes, the kill-9 harness) can inject faults without code changes.
    """
    env = os.environ if environ is None else environ
    text = env.get(ENV_VAR)
    if not text:
        return None
    plan = FaultPlan.from_json(text)
    install(plan)
    return plan


def fault_point(name: str, path: Optional[str] = None) -> None:
    """Declare a named fault point; fires the installed plan's rules, if any.

    ``path`` optionally hands the file being written to ``torn`` rules.
    No-op (one dict probe) when no plan is installed or no rule names
    this point.
    """
    state = _active
    if state is None:
        return
    rules = state.rules_by_point.get(name)
    if not rules:
        return
    counter = state.counters[name]
    with counter.get_lock():
        counter.value += 1
        hit = counter.value
    for rule in rules:
        if rule.fires_on(hit):
            _fire(rule, path)


def _fire(rule: FaultRule, path: Optional[str]) -> None:
    if rule.action == "delay":
        time.sleep(rule.delay_s)
        return
    if rule.action == "exit":
        os._exit(rule.exit_code)
    if rule.action == "torn" and path is not None:
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)
        except OSError:
            pass  # the point still raises below: the write "failed"
        raise OSError(f"{rule.message} (torn write: {path})")
    raise OSError(rule.message)
