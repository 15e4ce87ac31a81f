"""Tier-1 self-test of the end-to-end benchmark.

Plain pytest: no ``pytest-benchmark``, none of ``benchmarks/conftest.py``'s
fixtures.  One ``bench.py run --smoke`` (a ~200-epoch trace through all
three passes) plus checks that need no server.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return bench.load_spec()


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= spec["end_to_end"][0].items()
    # The workloads the file promises are the workloads the benchmark runs.
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]
    assert all(set(w) == {"name", "why"} and "\n" not in w["why"] for w in spec["workloads"])


def test_smoke_run_reports_every_metric(spec):
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "run", "--smoke"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(out["metrics"][m["name"]]["value"])
        assert printed[m["name"]] == m["unit"]  # every metric printed by name, with its unit
    for m in spec["end_to_end"]:
        assert out["metrics"][m["name"]]["value"] > 0
    # Spans nest (bench.py refuses to report otherwise) and account for the wall clock.
    assert out["metrics"]["trace.attributed_share"]["value"] >= 0.95
    assert out["metrics"]["trace.spans"]["value"] > 1000
    assert out["metrics"]["state.checkpoint.count"]["value"] >= 1
    assert not (ROOT / bench.WORK).exists()  # scratch removed


def test_wrappers_are_absent_unless_installed():
    import server_main  # noqa: F401  (importing the child's entry point installs nothing)
    from repro.serve.protocol import FrameDecoder
    from repro.runtime.runtime import ShardedRuntime

    assert spans.installed() == []
    for fn in (FrameDecoder.feed_frames, ShardedRuntime.step):
        assert not hasattr(fn, "__wrapped__") and not hasattr(fn, "__bench_original__")
    # ...and present once installed; checked in a child so this process stays clean.
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import spans; spans.install(); "
        "print(len(spans.installed()), len(spans.TARGETS))" % (str(HERE), str(ROOT / "src"))
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    installed, targets = map(int, done.stdout.split())
    assert done.returncode == 0 and installed == targets > 0


def test_latency_maths_returns_the_injected_delay():
    close = np.array([1, 2, 5, 5, 5, 6])  # epochs 2-4 all wait for second 5
    produced_by = np.array([0, 0, 2, 3, 5])
    t0, rate, delay_s = 1000.0, 200.0, 0.0125
    recv_t = t0 + close[produced_by] / rate + delay_s
    latencies, due = bench.emission_latencies_ms(recv_t, produced_by, close, t0, rate)
    assert np.allclose(latencies, delay_s * 1e3)
    assert np.allclose(due, [0.005, 0.005, 0.025, 0.025, 0.03])


def test_self_time_subtracts_direct_children_only():
    #   span 0: [0, 10]   children 1: [1, 4] (child 2: [2, 3]) and 3: [5, 9]
    duration = np.array([10.0, 3.0, 1.0, 4.0])
    parent = np.array([-1, 0, 1, 0])
    assert spans.self_times(duration, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_compare_verdicts():
    assert bench.judge(100, 2, 103, 2, "lower", 0.1)[0] == "within-bound"
    assert bench.judge(100, 2, 115, 2, "lower", 0.1)[0] == "worse"
    assert bench.judge(100, 2, 115, 2, "higher", 0.1)[0] == "better"
    assert bench.judge(100, 30, 115, 2, "lower", 0.1)[0] == "unresolved"
