"""The CI workflow parses, and every step does something."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def test_every_step_has_run_or_uses():
    doc = yaml.safe_load(WORKFLOW.read_text())
    assert doc["jobs"]
    for job, spec in doc["jobs"].items():
        assert spec["steps"], job
        for step in spec["steps"]:
            assert isinstance(step, dict) and ("run" in step or "uses" in step), (job, step)


def test_the_fidelity_ledger_is_checked():
    doc = yaml.safe_load(WORKFLOW.read_text())
    runs = [step.get("run", "") for spec in doc["jobs"].values() for step in spec["steps"]]
    assert any("benchmarks/fidelity.py --check BENCH_fidelity.json" in run for run in runs)


def test_every_script_a_step_runs_exists():
    """A deleted script takes its step with it: each ``benchmarks/...`` or
    ``examples/...`` path a ``run:`` step names is in the repository."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    runs = [step.get("run", "") for spec in doc["jobs"].values() for step in spec["steps"]]
    named = {path for run in runs for path in re.findall(r"\b(?:benchmarks|examples)/[\w./-]+", run)}
    assert named
    assert sorted(p for p in named if not (WORKFLOW.parents[2] / p).exists()) == []


def guard_hits(marker):
    """Lines of the package source matched by the ``grep -rnE`` guard step
    whose pattern contains ``marker``."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    runs = [step.get("run", "") for spec in doc["jobs"].values() for step in spec["steps"]]
    (guard,) = [run for run in runs if marker in run]
    pattern = re.search(r'grep -rnE "([^"]+)" src/', guard).group(1)
    src = WORKFLOW.parents[2] / "src"
    return [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]


def test_the_belief_read_guard_finds_nothing_in_src():
    """The guard step's pattern matches no line of the package source."""
    assert guard_hits("shared_memory|") == []


def test_the_region_table_guard_finds_nothing_in_src():
    """No R*-tree survives in the package: the Case-2 index is one table."""
    assert guard_hits("RStarTree|") == []


def test_the_engine_seam_guard_finds_nothing_in_src():
    """Shards build one engine, the factored filter: no factory survives."""
    assert guard_hits("engine_factory|") == []


def test_the_batch_loop_guard_finds_nothing_in_src():
    """clean and query share one run loop: the checkpoint and restore verbs'
    handlers and the unverified-resume knob are gone."""
    assert guard_hits("_cmd_checkpoint|") == []


def test_the_factored_run_path_guard_finds_nothing_in_src():
    """The eval harness runs the factored filter one way, through the
    sharded runtime: no second runner, no private event-to-query tee."""
    assert guard_hits("def run_sharded|") == []


def test_the_line_ratchet_holds_for_src():
    """The package source is no longer than the ratchet step allows."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    runs = [step.get("run", "") for spec in doc["jobs"].values() for step in spec["steps"]]
    (ratchet,) = [run for run in runs if "| wc -l" in run and "-le" in run]
    limit = int(re.search(r"-le (\d+)", ratchet).group(1))
    src = WORKFLOW.parents[2] / "src"
    lines = sum(path.read_text().count("\n") for path in src.rglob("*.py"))
    assert lines <= limit
