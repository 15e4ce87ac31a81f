"""Seeded output must not depend on ``PYTHONHASHSEED``.

``Epoch.object_tags`` is a ``frozenset[TagId]`` and ``TagId`` hashes through
an ``Enum`` (whose hash is a string hash), so the set's iteration order
changes with the interpreter's hash seed.  Anything that lets that order
reach the RNG stream (the filter's read loop) or the order of same-epoch
emissions (the pipeline's visit table) makes a seeded run reproducible only
when the hash seed is pinned too.  Each case runs the CLI over one stored
trace in two subprocesses with different hash seeds and compares the bytes
it wrote.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.simulation.layout import LayoutConfig
from repro.simulation.movement import ScheduledMove
from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
# More than 32 tags: a set of small ints iterates in insertion order only
# where two members collide in its hash table, which needs tag numbers
# beyond the table size (32 slots for 5-10 reads per shard and epoch).
N_OBJECTS = 48
SPACING_FT = 0.2
PARTICLES = ["--particles", "40", "--reader-particles", "40", "--delay", "5"]

# Two tags swap shelf slots between the rounds, so the adaptive case sees a
# read where it expected none (revive, post-move re-initialization).
SWAP = ScheduledMove(
    epoch_index=114,
    numbers=(5, 37),
    targets={5: (2.0, 37 * SPACING_FT, 0.0), 37: (2.0, 5 * SPACING_FT, 0.0)},
)

CASES = {
    "index-compress": (
        (),
        ["clean", "--index", "--compress"],
        "--events",
    ),
    "adaptive-float32-2shards": (
        (SWAP,),
        # Adaptive budgets need more particles than the largest parked tier (50).
        ["query", "--adaptive", "--arena-dtype", "float32", "--shards", "2", "--particles", "60"],
        "--emissions",
    ),
}


def _digest(argv, out_path, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        check=True,
        capture_output=True,
        timeout=120,
    )
    with open(out_path, "rb") as handle:
        data = handle.read()
    assert data, "the run wrote no output"
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_identical_across_hash_seeds(case, tmp_path):
    moves, command, out_flag = CASES[case]
    simulator = WarehouseSimulator(
        WarehouseConfig(
            layout=LayoutConfig(
                n_objects=N_OBJECTS, object_spacing_ft=SPACING_FT, n_shelf_tags=3
            ),
            n_rounds=2,
            moves=moves,
            seed=5,
        )
    )
    trace_path = tmp_path / "trace.json"
    with open(trace_path, "w") as handle:
        simulator.generate().dump(handle)
    digests = []
    for hash_seed in (1, 2):
        out_path = tmp_path / f"out-{hash_seed}"
        # The case's own flags come last: a repeated flag overrides PARTICLES.
        argv = [command[0], str(trace_path), *PARTICLES, *command[1:], out_flag, str(out_path)]
        digests.append(_digest(argv, out_path, hash_seed))
    assert digests[0] == digests[1]
