"""The benchmark's workloads: one seeded trace + one ``repro serve`` flag set each.

A workload is *data*: the simulator configuration that generates its trace
from ``--seed``, the ``repro serve`` flags the child process is launched
with, and ``rate_eps`` — the fixed stream-seconds-per-wall-second rate of the
open-loop (paced) pass.  ``rate_eps`` is an absolute constant (about 30 % of
the flood capacity measured on the reference box when this benchmark was
defined: one epoch per wakeup costs more than the flood pass's batches, and
the box slows by up to half for tens of seconds at a time, which must not
tip the paced pass into overload); it is never derived at run time, or a
faster commit would be handed a heavier load.

Sizes are the issue's shapes shrunk uniformly to fit the driver's time cap
(92 runs in 3420 s): tag counts are scaled down, particle counts, flags and
round structure are kept.  BENCHMARK.json and README.md say why each exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.simulation.layout import LayoutConfig
from repro.simulation.movement import ScheduledMove
from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator
from repro.streams.sources import Trace


@dataclass(frozen=True)
class Workload:
    name: str
    n_objects: int
    spacing_ft: float
    n_rounds: int
    #: Share of objects relocated between consecutive rounds (0 = static).
    churn: float
    #: ``repro serve`` flags after the fixed positional/socket/log arguments.
    serve_flags: Tuple[str, ...]
    #: Paced-pass rate: stream seconds replayed per wall second.
    rate_eps: float

    @property
    def checkpoints(self) -> bool:
        """Periodic checkpoints are on, so ``--checkpoint-dir`` is needed."""
        return "--checkpoint-every" in self.serve_flags

    def simulator(self, seed: int) -> WarehouseSimulator:
        layout = LayoutConfig(
            n_objects=self.n_objects,
            object_spacing_ft=self.spacing_ft,
            n_shelf_tags=4,
        )
        return WarehouseSimulator(
            WarehouseConfig(
                layout=layout,
                n_rounds=self.n_rounds,
                moves=self._moves(layout, seed),
                seed=seed,
            )
        )

    def _moves(self, layout: LayoutConfig, seed: int) -> Tuple[ScheduledMove, ...]:
        """Relocate ``churn`` of the tags at every round boundary.

        Moved tags swap places pairwise along the shelf, so every target is
        a legal shelf position and the tag population is unchanged — the
        filter sees a read where it expected none (revive + post-move
        resampling) and silence where it expected a read (decay).
        """
        if not self.churn or self.n_rounds < 2:
            return ()
        span = (self.n_objects - 1) * self.spacing_ft
        epochs_per_round = int(round((span + 2.0) / 0.1))
        n_moved = max(2, int(self.n_objects * self.churn) // 2 * 2)
        rng = np.random.default_rng(seed + 7919)
        slot = list(range(self.n_objects))  # slot[obj]: shelf position it occupies
        moves: List[ScheduledMove] = []
        for boundary in range(1, self.n_rounds):
            numbers = rng.choice(self.n_objects, size=n_moved, replace=False)
            targets: Dict[int, Tuple[float, float, float]] = {}
            for a, b in zip(numbers[0::2].tolist(), numbers[1::2].tolist()):
                slot[a], slot[b] = slot[b], slot[a]
                for obj in (a, b):
                    targets[obj] = (layout.shelf_x_ft, slot[obj] * self.spacing_ft, 0.0)
            moves.append(
                ScheduledMove(
                    epoch_index=boundary * epochs_per_round,
                    numbers=tuple(sorted(targets)),
                    targets=targets,
                )
            )
        return tuple(moves)

    def generate(self, seed: int) -> Trace:
        return self.simulator(seed).generate()

    def serve_argv(
        self, trace_path: str, socket_path: str, log_path: str, checkpoint_dir: str
    ) -> List[str]:
        """The resolved ``repro serve`` argv (without the leading verb)."""
        argv = [
            trace_path,
            "--socket",
            socket_path,
            "--emissions",
            log_path,
            "--executor",
            "serial",
            "--delay",
            "5",
            *self.serve_flags,
        ]
        if self.checkpoints:
            argv += ["--checkpoint-dir", checkpoint_dir]
        return argv


_FULL = ("--particles", "100", "--reader-particles", "100")
_SMALL = ("--particles", "20", "--reader-particles", "20")

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="dense_scan",
        n_objects=200,
        spacing_ft=0.2,
        n_rounds=1,
        churn=0.0,
        serve_flags=_FULL + ("--index", "--compress"),
        rate_eps=150.0,
    ),
    Workload(
        name="churn_durable",
        n_objects=40,
        spacing_ft=0.15,
        n_rounds=3,
        churn=0.05,
        serve_flags=_FULL
        + (
            "--adaptive",
            "--arena-dtype",
            "float32",
            "--index",
            "--shards",
            "2",
            "--checkpoint-every",
            "5",
            "--checkpoint-mode",
            "delta",
            "--checkpoint-full-every",
            "8",
            "--fsync",
        ),
        rate_eps=75.0,
    ),
    Workload(
        name="query_fanout",
        n_objects=48,
        spacing_ft=0.2,
        n_rounds=5,
        churn=0.0,
        serve_flags=_SMALL + ("--standing-queries", "1000"),
        rate_eps=170.0,
    ),
    Workload(
        name="ingest_small",
        n_objects=20,
        spacing_ft=0.5,
        n_rounds=8,
        churn=0.0,
        serve_flags=_SMALL,
        rate_eps=320.0,
    ),
)

#: The tier-1 smoke test's trace: ~200 epochs, every layer touched once
#: (index, 2 shards, standing queries, checkpoints), never reported.
SMOKE = Workload(
    name="smoke",
    n_objects=36,
    spacing_ft=0.5,
    n_rounds=1,
    churn=0.0,
    serve_flags=(
        "--particles",
        "40",
        "--reader-particles",
        "40",
        "--index",
        "--shards",
        "2",
        "--standing-queries",
        "50",
        "--checkpoint-every",
        "40",
        "--checkpoint-mode",
        "delta",
    ),
    rate_eps=150.0,
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS + (SMOKE,)}
