"""Tests for the command-line interface."""

import argparse

import pytest

from repro import cli
from repro.cli import main
from repro.config import RuntimeConfig
from repro.state import read_checkpoint_header


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    code = main(
        [
            "simulate",
            "--objects",
            "6",
            "--shelf-tags",
            "3",
            "--seed",
            "11",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_trace(self, trace_path, capsys):
        assert trace_path.exists()
        text = trace_path.read_text()
        assert '"type": "header"' in text
        assert '"type": "truth"' in text

    def test_roundtrips(self, trace_path):
        from repro.streams import Trace

        with open(trace_path) as fp:
            trace = Trace.load(fp)
        assert trace.truth is not None
        assert len(trace.truth.initial_positions) == 6


class TestClean:
    def test_prints_events(self, trace_path, capsys):
        code = main(["clean", str(trace_path), "--particles", "150", "--delay", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "object:" in out

    def test_writes_csv(self, trace_path, tmp_path, capsys):
        events = tmp_path / "events.csv"
        code = main(
            [
                "clean",
                str(trace_path),
                "--events",
                str(events),
                "--particles",
                "150",
                "--index",
            ]
        )
        assert code == 0
        lines = events.read_text().strip().splitlines()
        assert lines[0].startswith("time,tag")
        assert len(lines) >= 7  # header + one event per object


class TestExecutorFlag:
    def _clean(self, trace_path, csv_path, *extra):
        return main(
            [
                "clean",
                str(trace_path),
                "--events",
                str(csv_path),
                "--particles",
                "150",
                "--delay",
                "20",
                "--shards",
                "2",
                *extra,
            ]
        )

    def test_process_executor_output_matches_serial(self, trace_path, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        process = tmp_path / "process.csv"
        assert self._clean(trace_path, serial, "--executor", "serial") == 0
        assert self._clean(trace_path, process, "--executor", "process") == 0
        assert process.read_text() == serial.read_text()

    def test_invalid_executor_name_exits_2(self, trace_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["clean", str(trace_path), "--executor", "fiber"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_invalid_executor_on_query_exits_2(self, trace_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", str(trace_path), "--executor", "green-thread"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestEvaluate:
    def test_scores_three_systems(self, trace_path, capsys):
        code = main(["evaluate", str(trace_path), "--particles", "150"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("factored", "smurf", "uniform"):
            assert name in out
        assert "XY (ft)" in out


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice" in err

    def test_unknown_option_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--bogus-flag"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_version_exits_0_and_prints(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


# flag -> (argv, config it lands in, field path, value the field must hold)
CONFIG_FLAGS = {
    "--particles": (["--particles", "77"], "inference", "object_particles", 77),
    "--reader-particles": (
        ["--reader-particles", "33"], "inference", "reader_particles", 33
    ),
    "--index": (["--index"], "inference", "spatial_index.enabled", True),
    "--compress": (["--compress"], "inference", "compression.enabled", True),
    "--adaptive": (["--adaptive"], "inference", "budget.enabled", True),
    "--arena-dtype": (["--arena-dtype", "float32"], "inference", "arena.dtype", "float32"),
    "--delay": (["--delay", "12.5"], "policy", "delay_s", 12.5),
    "--shards": (["--shards", "3"], "runtime", "n_shards", 3),
    "--executor": (["--executor", "process"], "runtime", "executor", "process"),
    "--shard-host": (
        ["--executor", "remote", "--shard-host", "10.0.0.1:7000", "--shard-host", "10.0.0.2:7000"],
        "runtime",
        "shard_hosts",
        ("10.0.0.1:7000", "10.0.0.2:7000"),
    ),
    "--checkpoint-every": (
        ["--checkpoint-every", "2.5", "--checkpoint-dir", "ck"], "runtime", "checkpoint_every_s", 2.5
    ),
    "--checkpoint-dir": (["--checkpoint-dir", "ck"], "runtime", "checkpoint_dir", "ck"),
    "--checkpoint-mode": (["--checkpoint-mode", "delta"], "runtime", "checkpoint_mode", "delta"),
    "--checkpoint-full-every": (
        ["--checkpoint-full-every", "5"], "runtime", "checkpoint_full_every", 5
    ),
    "--supervise": (["--supervise"], "runtime", "supervisor.max_restarts", 3),
    "--max-restarts": (
        ["--supervise", "--max-restarts", "9"], "runtime", "supervisor.max_restarts", 9
    ),
    "--op-timeout": (
        ["--supervise", "--op-timeout", "1.5"], "runtime", "supervisor.op_timeout_s", 1.5
    ),
    "--epoch-length": (["--epoch-length", "0.5"], "serve", "epoch_length", 0.5),
    "--max-sources": (["--max-sources", "5"], "serve", "max_sources", 5),
    "--queue-capacity": (["--queue-capacity", "500"], "serve", "queue_capacity", 500),
    "--credit-batch": (["--credit-batch", "16"], "serve", "credit_batch", 16),
    "--pause-high-water": (["--pause-high-water", "9000"], "serve", "pause_high_water", 9000),
    "--pause-low-water": (["--pause-low-water", "100"], "serve", "pause_low_water", 100),
    "--fsync": (["--fsync"], "serve", "fsync", True),
    "--objects": (["--objects", "5"], "simulation", "layout.n_objects", 5),
    "--spacing": (["--spacing", "0.75"], "simulation", "layout.object_spacing_ft", 0.75),
    "--shelf-tags": (["--shelf-tags", "2"], "simulation", "layout.n_shelf_tags", 2),
    "--read-rate": (["--read-rate", "0.5"], "simulation", "sensor.rr_major", 0.5),
    "--rounds": (["--rounds", "3"], "simulation", "n_rounds", 3),
    "--seed": (["--seed", "9"], "simulation", "seed", 9),
}
FLAG_GROUPS = [g for g in vars(cli).values() if isinstance(g, cli._FlagGroup)]
#: The verbs that build configs (serve-reshard's --shards is a request field).
CONFIG_VERBS = ("simulate", "clean", "query", "serve", "evaluate", "lab")
#: The batch verbs, which share one run loop.
BATCH_VERBS = ("clean", "query")
#: The verbs that run the runtime: their engine, policy, checkpoint,
#: sharding and supervisor flags stay off the namespace unless given.
RUN_VERBS = BATCH_VERBS + ("serve",)


def _verb_parsers():
    (sub,) = (
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


VERB_PARSERS = _verb_parsers()


def _follow(config, path):
    for name in path.split("."):
        config = getattr(config, name)
    return config


class _Handover(Exception):
    """Raised in place of the engine a verb hands its configs to."""


class TestConfigFlags:
    """Every knob is declared in ``config.py`` and only spelled in ``cli.py``:
    whatever verb accepts a config-backed flag delivers its value."""

    @pytest.fixture()
    def verb_argv(self, trace_path, tmp_path):
        """The shortest valid argv of each config-building verb."""

        def argv(verb):
            required = {
                "simulate": ["--out", str(tmp_path / "new.jsonl")],
                "lab": [],
                "serve": [str(trace_path), "--socket", str(tmp_path / "s"), "--emissions", str(tmp_path / "e")],
            }
            return [verb, *required.get(verb, [str(trace_path)])]

        return argv

    @pytest.fixture()
    def handed_over(self, monkeypatch, verb_argv):
        """Run a verb up to where it hands its configs to the engine."""

        def stop(*args, **kwargs):
            raise _Handover(args, kwargs)

        def run(verb, flags):
            argv = verb_argv(verb) + flags
            monkeypatch.setattr(cli, "ShardedRuntime", stop)  # clean, query
            monkeypatch.setattr(cli, "run_factored", stop)  # evaluate
            monkeypatch.setattr(cli, "WarehouseSimulator", stop)  # simulate
            monkeypatch.setattr(cli, "LabDeployment", stop)  # lab
            monkeypatch.setattr("repro.serve.ReproService", stop)
            with pytest.raises(_Handover) as handover:
                main(argv)
            args, kwargs = handover.value.args
            if argv[0] == "serve":
                return kwargs
            if argv[0] in ("simulate", "lab"):
                return {"simulation": args[0]}
            if argv[0] == "evaluate":
                return {"inference": args[2]}
            return dict(zip(("inference", "runtime", "policy"), args[1:]))

        return run

    @pytest.mark.parametrize("verb", ["clean", "query", "serve"])
    def test_removed_partitioner_flag_is_refused(self, verb, verb_argv, capsys):
        """Only the hash partitioner exists: an old ``--partitioner`` command
        line is a usage error, not a flag that is silently ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(verb_argv(verb) + ["--partitioner", "mod"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro" in err
        assert "unrecognized arguments: --partitioner mod" in err

    def test_table_covers_every_config_backed_flag(self):
        declared = {
            spec.split()[0] for group in FLAG_GROUPS for spec, _ in group.flags.values()
        }
        assert declared | {"--supervise"} == set(CONFIG_FLAGS)

    @pytest.mark.parametrize(
        "verb,flag",
        [
            (verb, flag)
            for verb in CONFIG_VERBS
            for flag in CONFIG_FLAGS
            if flag in VERB_PARSERS[verb]._option_string_actions
        ],
    )
    def test_flag_reaches_the_verbs_config(self, verb, flag, handed_over):
        argv, section, path, expected = CONFIG_FLAGS[flag]
        configs = handed_over(verb, argv)
        assert _follow(configs[section], path) == expected

    @pytest.mark.parametrize("verb", CONFIG_VERBS)
    def test_a_fresh_run_builds_the_default_instances_fields(self, verb, handed_over):
        """The parser default is the default instance's field — or, on the
        verbs that run the runtime, absent (serve's own knobs excepted), so
        ``--resume`` can tell a given flag — and a fresh run without the flag
        builds the default instance's field."""
        parser = VERB_PARSERS[verb]
        supervise = ["--supervise"] if "--supervise" in parser._option_string_actions else []
        built = list(handed_over(verb, supervise).values())
        built += [c.supervisor for c in built if isinstance(c, RuntimeConfig)]
        for group in FLAG_GROUPS:
            configs = [c for c in built if type(c) is type(group.default)]
            for path, (spec, _) in group.flags.items():
                action = parser._option_string_actions.get(spec.split()[0])
                if action is None or not configs:  # another group's --seed
                    continue
                expected = _follow(group.default, path)
                suppressed = verb in RUN_VERBS and group is not cli._SERVE
                assert action.default == (argparse.SUPPRESS if suppressed else expected)
                assert _follow(configs[0], path) == expected

    def test_type_hints_resolved_once_per_config_class(self):
        cli._type_hints.cache_clear()
        cli._build_parser()
        first = cli._type_hints.cache_info()
        owners = set()  # the dataclass each flag's field belongs to
        for group in FLAG_GROUPS:
            for path in group.flags:
                head = path.rpartition(".")[0]  # "a.b" is a field of the sub-config a
                owners.add(type(_follow(group.default, head) if head else group.default))
        assert first.misses == len(owners) < first.hits
        cli._build_parser()
        assert cli._type_hints.cache_info().misses == first.misses

    def test_cli_profile(self, handed_over):
        configs = handed_over("clean", [])
        inference, runtime = configs["inference"], configs["runtime"]
        assert (inference.object_particles, inference.reader_particles) == (400, 120)
        assert configs["policy"].delay_s == 30.0
        assert (runtime.executor, runtime.n_shards, runtime.shard_hosts) == ("serial", 1, None)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["clean", "--shards", "0"],
            ["serve", "--socket", "s", "--emissions", "e", "--credit-batch", "5000"],
            ["clean", "--adaptive", "--particles", "40"],
            ["clean", "--executor", "remote"],
            ["clean", "--executor", "thread"],
        ],
    )
    def test_invalid_value_is_a_usage_error_not_a_traceback(
        self, trace_path, capsys, argv
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], str(trace_path), *argv[1:]])
        assert excinfo.value.code == 2
        assert f"repro {argv[0]}: error: " in capsys.readouterr().err

    @pytest.mark.parametrize("verb", RUN_VERBS)
    def test_supervisor_flag_without_supervise_exits_2(
        self, trace_path, tmp_path, capsys, monkeypatch, verb
    ):
        """A fresh run refuses ``--max-restarts`` / ``--op-timeout`` without
        ``--supervise`` instead of dropping them."""
        argv = [verb, str(trace_path), "--max-restarts", "9"]
        if verb == "serve":
            argv += ["--socket", str(tmp_path / "s"), "--emissions", str(tmp_path / "e")]
            monkeypatch.setattr("repro.serve.ReproService.run", lambda service: 0)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {verb}: error: " in err and "--supervise" in err

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--checkpoint-every", "10"], "checkpoint_dir"),
            (["--resume"], "--resume requires --checkpoint-dir"),
        ],
        ids=["checkpoint-every", "resume"],
    )
    def test_serve_checkpoint_flag_without_dir_exits_2(
        self, trace_path, tmp_path, capsys, flags, named
    ):
        argv = ["serve", str(trace_path), "--socket", str(tmp_path / "s")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--emissions", str(tmp_path / "e"), *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve: error: " in err and named in err

    @pytest.mark.parametrize("verb", sorted(VERB_PARSERS))
    def test_help_exits_0(self, verb, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--help"])
        assert excinfo.value.code == 0
        assert f"usage: repro {verb}" in capsys.readouterr().out

    def test_eleven_verbs(self):
        assert len(VERB_PARSERS) == 11


class TestCheckpointRestore:
    CLEAN_OPTS = ["--particles", "150", "--delay", "20", "--shards", "2"]

    @pytest.mark.parametrize("mode", ["full", "delta"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_checkpoint_at_then_resume_matches_full_run(
        self, trace_path, tmp_path, capsys, executor, mode
    ):
        """The kill-and-resume drill through the CLI: prefix events plus
        resumed events must equal the uninterrupted run byte for byte."""
        opts = self.CLEAN_OPTS + ["--executor", executor]
        full = tmp_path / "full.csv"
        assert main(["clean", str(trace_path), "--events", str(full)] + opts) == 0
        ck = tmp_path / "ck"
        prefix = tmp_path / "prefix.csv"
        assert main(
            [
                "clean", str(trace_path),
                "--checkpoint-at", "10,20",
                "--checkpoint-out", str(ck),
                "--checkpoint-mode", mode,
                "--events", str(prefix),
            ]
            + opts
        ) == 0
        assert read_checkpoint_header(ck / "epoch_00000020")["epochs_processed"] == 20
        assert read_checkpoint_header(ck / "epoch_00000020")["kind"] == mode
        assert f"checkpointed at epochs 10,20 ({mode})" in capsys.readouterr().out
        suffix = tmp_path / "suffix.csv"
        assert main(
            ["clean", str(trace_path), "--resume", str(ck), "--events", str(suffix)]
        ) == 0
        assert "resumed from epoch 20, 2 shards" in capsys.readouterr().out
        resumed_rows = (
            prefix.read_text().splitlines()
            + suffix.read_text().splitlines()[1:]  # drop duplicate header
        )
        assert resumed_rows == full.read_text().splitlines()

    def test_resume_resharded(self, trace_path, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert main(
            ["clean", str(trace_path), "--checkpoint-at", "20", "--checkpoint-out", str(ck)]
            + self.CLEAN_OPTS
        ) == 0
        capsys.readouterr()
        assert main(["clean", str(trace_path), "--resume", str(ck), "--shards", "1"]) == 0
        # Without --events the resumed events print to stdout.
        assert "object:" in capsys.readouterr().out

    def test_clean_periodic_checkpoint_and_resume(self, trace_path, tmp_path, capsys):
        directory = tmp_path / "periodic"
        assert main(
            [
                "clean",
                str(trace_path),
                "--checkpoint-every",
                "10",
                "--checkpoint-dir",
                str(directory),
            ]
            + self.CLEAN_OPTS
        ) == 0
        assert (directory / "LATEST").exists()
        capsys.readouterr()
        events = tmp_path / "resumed.csv"
        assert main(
            [
                "clean",
                str(trace_path),
                "--resume",
                str(directory),
                "--events",
                str(events),
            ]
        ) == 0
        assert "resumed from epoch" in capsys.readouterr().out
        assert events.read_text().startswith("time,tag")

    def test_clean_periodic_delta_checkpoints_and_resume(
        self, trace_path, tmp_path, capsys
    ):
        """``--checkpoint-mode delta`` writes a chain (full rebase + delta
        links) that ``--resume`` transparently materializes."""
        import os

        directory = tmp_path / "periodic"
        assert main(
            [
                "clean",
                str(trace_path),
                "--checkpoint-every",
                "8",
                "--checkpoint-dir",
                str(directory),
                "--checkpoint-mode",
                "delta",
                "--checkpoint-full-every",
                "3",
            ]
            + self.CLEAN_OPTS
        ) == 0
        kinds = [
            read_checkpoint_header(directory / name)["kind"]
            for name in sorted(os.listdir(directory))
            if name.startswith("epoch_")
        ]
        assert "delta" in kinds and "full" in kinds
        capsys.readouterr()
        events = tmp_path / "resumed.csv"
        assert main(
            [
                "clean",
                str(trace_path),
                "--resume",
                str(directory),
                "--events",
                str(events),
            ]
        ) == 0
        assert "resumed from epoch" in capsys.readouterr().out
        assert events.read_text().startswith("time,tag")

    def test_clean_checkpoint_every_requires_dir(self, trace_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["clean", str(trace_path), "--checkpoint-every", "10"])
        assert excinfo.value.code == 2
        assert "checkpoint_dir" in capsys.readouterr().err

    def test_resume_from_non_checkpoint_fails(self, trace_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["clean", str(trace_path), "--resume", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "neither a checkpoint file" in capsys.readouterr().err


class TestResumeFlags:
    """On ``--resume`` every given flag is applied (sharding, supervisor,
    checkpoints) or refused (an engine or policy value other than the
    recorded one) — none is silently dropped."""

    OPTS = ["--particles", "150", "--delay", "20", "--shards", "2"]
    QUERY_OPTS = OPTS + ["--standing-queries", "16"]

    @pytest.fixture()
    def periodic(self, trace_path, tmp_path, capsys):
        """A ``clean`` run's periodic-checkpoint directory."""
        directory = tmp_path / "periodic"
        assert main(
            [
                "clean", str(trace_path),
                "--checkpoint-every", "8", "--checkpoint-dir", str(directory),
                "--events", str(tmp_path / "full.csv"),
            ]
            + self.OPTS
        ) == 0
        capsys.readouterr()
        return directory

    @staticmethod
    def _library_resume(trace_path, directory, n_shards, engine=None):
        """What ``restore_runtime`` makes of the checkpoint, re-sharded."""
        from dataclasses import replace

        from repro.runtime import QueryBridge
        from repro.state import apply_query_states, latest_checkpoint, restore_runtime
        from repro.state.checkpoint import runtime_config_from_dict

        path = latest_checkpoint(directory)
        trace = cli._load_trace(str(trace_path))
        model, _, _ = cli._default_model(trace)
        recorded = runtime_config_from_dict(read_checkpoint_header(path)["runtime_config"])
        runtime, manifest = restore_runtime(
            path, model, runtime_config=replace(recorded, n_shards=n_shards)
        )
        if engine is not None:
            QueryBridge(engine, runtime.bus, runtime=runtime)
            apply_query_states(runtime, manifest)
        runtime.run(trace.epochs(start=manifest.epochs_processed))
        return runtime

    def test_clean_resume_reshards(self, trace_path, tmp_path, periodic, capsys):
        events = tmp_path / "resumed.csv"
        assert main(
            [
                "clean", str(trace_path), "--resume", str(periodic),
                "--shards", "3", "--events", str(events),
            ]
        ) == 0
        assert "re-sharded 2 -> 3 shards" in capsys.readouterr().out
        runtime = self._library_resume(trace_path, periodic, 3)
        expected = tmp_path / "expected.csv"
        cli._print_or_write_events(runtime.sink.events, str(expected), "")
        assert events.read_text() == expected.read_text()

    def test_query_resume_reshards(self, trace_path, tmp_path, capsys):
        from repro.query import (
            MultiplexedQueryEngine,
            fire_code_query,
            location_update_query,
            standing_region_queries,
        )

        ck = tmp_path / "ck"
        assert main(
            ["query", str(trace_path), "--checkpoint-at", "20", "--checkpoint-out", str(ck)]
            + self.QUERY_OPTS
        ) == 0
        capsys.readouterr()
        emissions = tmp_path / "resumed.jsonl"
        assert main(
            [
                "query", str(trace_path), "--resume", str(ck),
                "--standing-queries", "16", "--shards", "3",
                "--emissions", str(emissions),
            ]
        ) == 0
        assert "re-sharded 2 -> 3 shards" in capsys.readouterr().out
        engine = MultiplexedQueryEngine()  # the queries `query` registers by default
        engine.register(location_update_query())
        engine.register(
            fire_code_query(weight_fn=lambda tag_id: 90.0, threshold_lbs=200.0, window_s=5.0)
        )
        epochs = cli._load_trace(str(trace_path)).epochs()
        for q in standing_region_queries(16, cli._trace_bounds(epochs)):
            engine.register(q)
        self._library_resume(trace_path, ck, 3, engine)
        expected = tmp_path / "expected.jsonl"
        cli._write_emissions(engine, str(expected))
        assert emissions.read_text() == expected.read_text()

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--particles", "7"], "--particles 7"),
            (["--delay", "5"], "--delay 5.0"),
            (["--index"], "--index True"),
            (["--arena-dtype", "float32"], "--arena-dtype float32"),
        ],
        ids=["particles", "delay", "index", "arena-dtype"],
    )
    def test_conflicting_engine_or_policy_flag_exits_2(
        self, trace_path, periodic, capsys, flags, named
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["clean", str(trace_path), "--resume", str(periodic), *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro clean: error: " in err and named in err

    def test_equal_engine_and_policy_flags_are_accepted(
        self, trace_path, tmp_path, periodic
    ):
        bare, repeated = tmp_path / "bare.csv", tmp_path / "repeated.csv"
        resume = ["clean", str(trace_path), "--resume", str(periodic), "--events"]
        assert main(resume + [str(bare)]) == 0
        assert main(resume + [str(repeated), "--particles", "150", "--delay", "20"]) == 0
        assert repeated.read_text() == bare.read_text()

    def test_layout_and_supervisor_flags_apply_on_resume(
        self, trace_path, periodic, monkeypatch
    ):
        def stop(path, model, runtime_config):
            raise _Handover(runtime_config)

        monkeypatch.setattr("repro.state.restore_runtime", stop)
        with pytest.raises(_Handover) as handover:
            main(
                [
                    "clean", str(trace_path), "--resume", str(periodic),
                    "--shards", "3", "--executor", "process",
                    "--supervise", "--max-restarts", "9",
                ]
            )
        (target,) = handover.value.args
        assert (target.n_shards, target.executor) == (3, "process")
        assert target.supervisor.max_restarts == 9
        assert target.checkpoint_dir == str(periodic)  # not given: recorded

    def test_supervisor_flag_without_supervision_exits_2(
        self, trace_path, periodic, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["clean", str(trace_path), "--resume", str(periodic), "--max-restarts", "9"])
        assert excinfo.value.code == 2
        assert "--supervise" in capsys.readouterr().err

    def test_checkpoint_flags_apply_on_resume(self, trace_path, tmp_path, periodic):
        """Periodic checkpoints of the resumed run go where the flags say."""
        moved = tmp_path / "moved"
        assert main(
            [
                "clean", str(trace_path), "--resume", str(periodic),
                "--checkpoint-every", "1", "--checkpoint-dir", str(moved),
                "--events", str(tmp_path / "resumed.csv"),
            ]
        ) == 0
        header = read_checkpoint_header(moved / (moved / "LATEST").read_text().strip())
        assert header["runtime_config"]["checkpoint_dir"] == str(moved)
        assert header["runtime_config"]["n_shards"] == 2

    @staticmethod
    def _serve_argv(trace_path, tmp_path, directory):
        return [
            "serve", str(trace_path), "--socket", str(tmp_path / "s"),
            "--emissions", str(tmp_path / "e.jsonl"),
            "--checkpoint-dir", str(directory), "--resume",
        ]

    def _serve_resumed(self, trace_path, tmp_path, periodic, monkeypatch, *flags):
        """The service ``serve --resume`` builds, stopped before it serves."""
        from repro.serve import ReproService

        def stop(service):
            raise _Handover(service)

        monkeypatch.setattr(ReproService, "run", stop)
        with pytest.raises(_Handover) as handover:
            main(self._serve_argv(trace_path, tmp_path, periodic) + list(flags))
        (service,) = handover.value.args
        service.runtime.abort()
        return service

    @pytest.mark.parametrize(
        "flags,n_shards", [([], 2), (["--shards", "3"], 3)], ids=["recorded", "given"]
    )
    def test_serve_resume_keeps_the_recorded_layout_unless_given(
        self, trace_path, tmp_path, periodic, monkeypatch, flags, n_shards
    ):
        service = self._serve_resumed(trace_path, tmp_path, periodic, monkeypatch, *flags)
        assert service.resumed_from is not None
        assert service.runtime.n_shards == n_shards
        assert service.runtime.config.object_particles == 150

    def test_serve_resume_refuses_a_conflicting_engine_flag(
        self, trace_path, tmp_path, periodic, capsys, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.ReproService.run", lambda service: 0)
        with pytest.raises(SystemExit) as excinfo:
            main(self._serve_argv(trace_path, tmp_path, periodic) + ["--particles", "7"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve: error: " in err and "--particles 7" in err

    @pytest.mark.parametrize("verb", RUN_VERBS)
    def test_refused_checkpoint_is_a_usage_error(
        self, trace_path, tmp_path, periodic, capsys, monkeypatch, verb
    ):
        """A checkpoint whose bytes fail verification ends in one usage
        line, not a traceback; its header still parses, so a checkpoint
        directory resolves to it."""
        latest = periodic / (periodic / "LATEST").read_text().strip()
        data = bytearray(latest.read_bytes())
        data[-1] ^= 0xFF  # the SHA-256 trailer no longer matches
        latest.write_bytes(bytes(data))
        if verb == "serve":
            argv = self._serve_argv(trace_path, tmp_path, periodic)
            monkeypatch.setattr("repro.serve.ReproService.run", lambda service: 0)
        else:
            argv = [verb, str(trace_path), "--resume", str(periodic)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {verb}: error: " in err and "Traceback" not in err

    def test_truncated_checkpoint_file_is_a_usage_error(
        self, trace_path, tmp_path, periodic, capsys
    ):
        latest = periodic / (periodic / "LATEST").read_text().strip()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(latest.read_bytes()[:300])
        with pytest.raises(SystemExit) as excinfo:
            main(["clean", str(trace_path), "--resume", str(bad)])
        assert excinfo.value.code == 2
        assert "repro clean: error: " in capsys.readouterr().err


class TestQueryServing:
    """The multiplexed standing-query path through the CLI: fan-out,
    emission dumps, mid-stream operator checkpoints, and exact resume."""

    QUERY_OPTS = [
        "--particles", "150", "--delay", "20", "--shards", "2",
        "--standing-queries", "16",
    ]

    @staticmethod
    def _emissions_by_query(path):
        import json

        grouped = {}
        for line in path.read_text().splitlines():
            record = json.loads(line)
            grouped.setdefault(record["query"], []).append(
                (record["time"], tuple(sorted(record["row"].items())))
            )
        return grouped

    def test_standing_queries_and_emissions(self, trace_path, tmp_path, capsys):
        emissions = tmp_path / "emissions.jsonl"
        assert main(
            ["query", str(trace_path), "--emissions", str(emissions)]
            + self.QUERY_OPTS
        ) == 0
        out = capsys.readouterr().out
        assert "standing queries: 16 registered" in out
        assert "multiplexer: 18 queries" in out
        assert "cache:" in out and "serve:" in out
        grouped = self._emissions_by_query(emissions)
        assert "location_updates" in grouped
        assert any(name.startswith("region_") for name in grouped)

    def test_queries_file_registers_spec(self, trace_path, tmp_path, capsys):
        import json

        spec = tmp_path / "queries.json"
        spec.write_text(json.dumps([
            {"kind": "region", "name": "dock", "lo": [0, 0], "hi": [60, 40]},
            {"kind": "location_updates", "name": "all_moves"},
        ]))
        emissions = tmp_path / "emissions.jsonl"
        assert main(
            [
                "query", str(trace_path),
                "--queries-file", str(spec),
                "--emissions", str(emissions),
                "--particles", "150", "--delay", "20",
            ]
        ) == 0
        assert "standing queries: 2 registered" in capsys.readouterr().out
        grouped = self._emissions_by_query(emissions)
        assert "dock" in grouped and "all_moves" in grouped
        # A duplicate of the built-in location-update plan answers from the
        # shared operator: identical rows under both names.
        assert grouped["all_moves"] == grouped["location_updates"]

    def test_checkpoint_at_then_resume_matches_full_run(
        self, trace_path, tmp_path, capsys
    ):
        """Kill-and-resume for query serving: per query, prefix emissions
        plus resumed emissions equal the uninterrupted run's exactly."""
        full = tmp_path / "full.jsonl"
        assert main(
            ["query", str(trace_path), "--emissions", str(full)]
            + self.QUERY_OPTS
        ) == 0
        ck = tmp_path / "ck"
        prefix = tmp_path / "prefix.jsonl"
        assert main(
            [
                "query", str(trace_path),
                "--checkpoint-at", "20",
                "--checkpoint-out", str(ck),
                "--emissions", str(prefix),
            ]
            + self.QUERY_OPTS
        ) == 0
        # The pointer is moved atomically (tmp + replace), never truncated.
        assert sorted(p.name for p in ck.iterdir()) == ["LATEST", "epoch_00000020"]
        assert (ck / "LATEST").read_text() == "epoch_00000020\n"
        assert "checkpointed at epoch 20" in capsys.readouterr().out
        resumed = tmp_path / "resumed.jsonl"
        assert main(
            [
                "query", str(trace_path),
                "--resume", str(ck),
                "--emissions", str(resumed),
            ]
            + self.QUERY_OPTS
        ) == 0
        assert "resumed from epoch 20" in capsys.readouterr().out
        full_q = self._emissions_by_query(full)
        prefix_q = self._emissions_by_query(prefix)
        resumed_q = self._emissions_by_query(resumed)
        assert set(full_q) == set(prefix_q) | set(resumed_q)
        for name in full_q:
            assert prefix_q.get(name, []) + resumed_q.get(name, []) == full_q[name]

    @pytest.mark.parametrize("verb", BATCH_VERBS)
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--checkpoint-at", "10"], "--checkpoint-at requires --checkpoint-out"),
            (["--checkpoint-at", "10", "--checkpoint-out", "ck", "--resume", "other"], "exclusive"),
            (["--checkpoint-at", "100000", "--checkpoint-out", "ck"], "must be in [1,"),
            (["--checkpoint-at", "x", "--checkpoint-out", "ck"], "bad --checkpoint-at: 'x'"),
            (["--resume", "nowhere"], "nowhere is neither a checkpoint file"),
        ],
        ids=["without-out", "with-resume", "out-of-range", "malformed", "resume-nowhere"],
    )
    def test_refused_flag_is_a_usage_error(
        self, trace_path, tmp_path, monkeypatch, capsys, verb, flags, message
    ):
        """``repro <verb>: error: ...`` and exit 2; a bad ``--checkpoint-at``
        is refused before the sensor fit runs."""
        if flags[0] == "--checkpoint-at":
            monkeypatch.setattr(cli, "_default_model", pytest.fail)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([verb, str(trace_path)] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {verb}: error: " in err and message in err
