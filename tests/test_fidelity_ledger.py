"""The fidelity ledger's checker, against the committed ``BENCH_fidelity.json``.

No simulation runs here: ``fidelity.verify`` is handed the ledger's own rows,
untouched and doctored, as if a ``--check`` run had produced them.
"""

import copy
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import fidelity  # noqa: E402


@pytest.fixture(scope="module")
def ledger():
    return json.loads((ROOT / "BENCH_fidelity.json").read_text())


def rows_of(ledger):
    return {name: copy.deepcopy(entry["series"]) for name, entry in ledger["experiments"].items()}


def test_stamped_with_ten_seeds_per_row(ledger):
    stamp = ledger["provenance"]
    assert stamp["git_sha"] and stamp["host_class"] and stamp["cpu_count"] >= 1
    # A dirty tree is named by the diff of the code measured against that commit.
    assert not stamp["git_dirty"] or re.fullmatch("[0-9a-f]{64}", stamp["git_diff_sha256"])
    assert len(ledger["seeds"]) >= 10
    assert list(ledger["experiments"]) == [e.name for e in fidelity.EXPERIMENTS]
    for experiment in fidelity.EXPERIMENTS:
        relative = ledger["experiments"][experiment.name]["relative"]
        assert relative == {s: {"better": b, "share": share} for s, (b, share) in experiment.relative.items()}
    for entry in ledger["experiments"].values():
        for points in entry["series"].values():
            for row in points.values():
                assert len(row["values"]) >= 10
                if "mean" in row:
                    assert row["mean"] == pytest.approx(np.mean(row["values"]))
                    assert row["min"] == min(row["values"]) and row["max"] == max(row["values"])


def test_recorded_statuses_reproduce_from_the_committed_means(ledger):
    for experiment in fidelity.EXPERIMENTS:
        entry = ledger["experiments"][experiment.name]
        recorded = {name: check["holds"] for name, check in entry["checks"].items()}
        assert fidelity.evaluate(experiment, entry["series"]) == recorded
    assert fidelity.verify(ledger, rows_of(ledger)) == []


def test_workload_verdicts_reproduce_from_before_and_after(ledger):
    workloads = ledger["experiments"]["workloads"]
    verdicts = fidelity.verdicts(workloads["before"]["series"], workloads["series"])
    assert verdicts == workloads["verdicts"]
    # The log-likelihood is negative: a rise toward zero is the better fit.
    before, after = (
        side["fit log-likelihood"]["churn_durable"]["values"]
        for side in (workloads["before"]["series"], workloads["series"])
    )
    better = sum(a > b for b, a in zip(before, after))
    assert verdicts["fit log-likelihood"]["churn_durable"].endswith(f"{better}/10 moved seeds better")


def test_a_flipped_ordering_fails(ledger):
    fresh = rows_of(ledger)
    # A timing row is never range-checked, so the flip is the only complaint.
    fresh["fig5ij"]["naive ms/reading"]["10"]["mean"] = 0.0
    (problem,) = fidelity.verify(ledger, fresh)
    assert "naive slower than factored" in problem


def test_a_mean_outside_the_per_seed_range_fails(ledger):
    fresh = rows_of(ledger)
    row = fresh["workloads"]["mean xy error"]["dense_scan"]
    row["mean"] = row["max"] + 0.01
    (problem,) = fidelity.verify(ledger, fresh)
    assert "mean xy error @ dense_scan" in problem


def test_timing_rows_are_judged_only_by_their_checks(ledger):
    fresh = rows_of(ledger)
    fresh["fig5ij"]["compressed ms/reading"]["10"]["mean"] *= 100.0  # in no check
    fresh["sharding"]["epochs/s @ 2000 tags"]["4 process"]["mean"] *= 0.01  # no check, no floor
    assert fidelity.verify(ledger, fresh) == []


def as_checked(row, factor):
    """``row`` as ``--check`` makes it: the first three seeds, their mean
    scaled by ``factor``."""
    row["values"] = row["values"][:3]
    row["mean"] = float(np.mean(row["values"])) * factor


@pytest.mark.parametrize("drop, reported", [(0.31, True), (0.29, False)])
def test_a_timing_row_is_judged_by_its_relative_floor(ledger, drop, reported):
    """hot_loop's epochs/s may fall 30 % under the same seeds' committed mean."""
    fresh = rows_of(ledger)
    as_checked(fresh["hot_loop"]["epochs/s"]["2000"], 1.0 - drop)
    problems = fidelity.verify(ledger, fresh)
    assert len(problems) == reported
    assert all("hot_loop: epochs/s @ 2000" in p and "floor" in p for p in problems)


def test_a_lower_is_better_row_is_judged_by_a_ceiling(ledger):
    """checkpoint's full save s may rise 100 % over the committed mean; any
    speed-up passes."""
    fresh = rows_of(ledger)
    row = fresh["checkpoint"]["full save s"]["1 shards"]
    for factor in (0.01, 1.99):
        as_checked(row, factor)
        assert fidelity.verify(ledger, fresh) == []
    as_checked(row, 2.01)
    (problem,) = fidelity.verify(ledger, fresh)
    assert "checkpoint: full save s @ 1 shards" in problem and "ceiling" in problem
