"""Seeded output must not depend on ``PYTHONHASHSEED``.

``Epoch.object_tags`` is a ``frozenset[TagId]`` and ``TagId`` hashes through
an ``Enum`` (whose hash is a string hash), so the set's iteration order
changes with the interpreter's hash seed.  Anything that lets that order
reach the RNG stream (the filter's read loop) or the order of same-epoch
emissions (the pipeline's visit table) makes a seeded run reproducible only
when the hash seed is pinned too.  Each case runs the CLI over one stored
trace in two subprocesses with different hash seeds and compares the bytes
it wrote.

A checkpoint file is such bytes too: query-operator state may hold
``frozenset`` values, which the state-tree encoding writes in a canonical
order (a pickled ``frozenset`` was written in iteration order).
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


def _run(python_argv, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, *python_argv],
        env=env,
        check=True,
        capture_output=True,
        timeout=120,
    )


def _digest(argv, out_path, hash_seed):
    _run(["-m", "repro", *argv], hash_seed)
    with open(out_path, "rb") as handle:
        data = handle.read()
    assert data, "the run wrote no output"
    return hashlib.sha256(data).hexdigest()


def _write_trace(tmp_path, moves=()):
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
    return trace_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_identical_across_hash_seeds(case, tmp_path):
    moves, command, out_flag = CASES[case]
    trace_path = _write_trace(tmp_path, moves)
    digests = []
    for hash_seed in (1, 2):
        out_path = tmp_path / f"out-{hash_seed}"
        # The case's own flags come last: a repeated flag overrides PARTICLES.
        argv = [command[0], str(trace_path), *PARTICLES, *command[1:], out_flag, str(out_path)]
        digests.append(_digest(argv, out_path, hash_seed))
    assert digests[0] == digests[1]


# What each subprocess runs: standing queries (one whose rows carry a
# ``frozenset`` of strings) over a 2-shard runtime, stopped with a tick
# pending (``save``), picked up again (``resume``) or never stopped (``full``).
CHECKPOINT_SCRIPT = """
import json, sys
from repro import cli
from repro.config import InferenceConfig, OutputPolicyConfig, RuntimeConfig
from repro.query import (
    ContinuousQuery, Extend, Istream, MultiplexedQueryEngine, PartitionRowsWindow,
    Project, location_update_query, standing_region_queries,
)
from repro.runtime import QueryBridge, ShardedRuntime
from repro.state import apply_query_states, restore_runtime

mode, trace_path, checkpoint, out = sys.argv[1:]
trace = cli._load_trace(trace_path)
model, _, _ = cli._default_model(trace)
epochs = trace.epochs()
engine = MultiplexedQueryEngine()
engine.register(location_update_query())
for query in standing_region_queries(16, cli._trace_bounds(epochs)):
    engine.register(query)
engine.register(ContinuousQuery(
    PartitionRowsWindow(("tag_id",), rows=1),
    [
        Extend(labels=lambda t: frozenset({t["tag_id"], "seen", "warm", "shelf-%d" % t["y"]})),
        Project("labels"),
    ],
    Istream(),
    name="labelled",
))
if mode == "resume":
    runtime, manifest = restore_runtime(checkpoint, model)
    QueryBridge(engine, runtime.bus, runtime=runtime)
    apply_query_states(runtime, manifest)
    runtime.run(epochs[manifest.epochs_processed:])
else:
    runtime = ShardedRuntime(
        model,
        InferenceConfig(reader_particles=40, object_particles=40, seed=3),
        RuntimeConfig(n_shards=2),
        OutputPolicyConfig(delay_s=5.0),
    )
    QueryBridge(engine, runtime.bus, runtime=runtime)
    if mode == "save":
        for epoch in epochs[:150]:
            runtime.step(epoch)
        assert engine.snapshot_state()["pending"], "no tick pending at the cut"
        runtime.checkpoint(checkpoint)
    else:
        runtime.run(epochs)
with open(out, "w") as handle:
    for name, tuples in sorted(engine.outputs.items()):
        for t in tuples:
            row = {k: sorted(v) if isinstance(v, frozenset) else v for k, v in t.items()}
            handle.write(json.dumps([name, t.time, row], sort_keys=True) + "\\n")
if mode == "save":
    runtime.abort()
"""


def test_checkpoint_file_identical_across_hash_seeds_and_resumes_under_another(tmp_path):
    trace_path = _write_trace(tmp_path)
    script = tmp_path / "standing.py"
    script.write_text(CHECKPOINT_SCRIPT)

    def run(mode, hash_seed, checkpoint, out):
        out = tmp_path / out
        _run([str(script), mode, str(trace_path), str(checkpoint), str(out)], hash_seed)
        return out.read_text()

    full = run("full", 3, "unused", "full.jsonl")
    prefixes = [
        run("save", seed, tmp_path / f"ck-{seed}", f"prefix-{seed}.jsonl") for seed in (1, 2)
    ]
    saved = [(tmp_path / f"ck-{seed}").read_bytes() for seed in (1, 2)]
    assert saved[0] == saved[1]
    assert b'"frozenset"' in saved[0]
    assert prefixes[0] == prefixes[1] and prefixes[0]
    # Written under one seed, resumed under another.
    tails = [
        run("resume", seed, tmp_path / f"ck-{3 - seed}", f"tail-{seed}.jsonl") for seed in (1, 2)
    ]
    assert tails[0] == tails[1] and tails[0]
    assert sorted((prefixes[0] + tails[0]).splitlines()) == sorted(full.splitlines())
