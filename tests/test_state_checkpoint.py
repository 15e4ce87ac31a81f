"""Integration tests for the checkpoint format and runtime restore.

The acceptance guarantees of the durable-state subsystem:

* a run checkpointed mid-trace and restored *at the same shard count* emits
  bitwise-identical events (tags, timestamps, positions) to the
  uninterrupted run — for 1 and 2 shards, with and without compression;
* restoring a 4-shard checkpoint into 2 shards (elastic re-shard) completes
  the trace with the exact (time, tag) stream and positions within the
  sharded-parity tolerance (0.6 ft);
* corruption — flipped body bytes, edited headers, wrong versions,
  truncation, lying lengths — fails loudly with :class:`StateError` at
  load, never silently and never as another exception type;
* the write is ordered for power loss (payload fsync, rename, directory
  fsync, pointer fsync, pointer replace) and rotation ignores crash debris.
"""

import hashlib
import json
import os
import pickle  # only to forge the version-2 file this build must refuse

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
)
from repro.errors import ConfigurationError, StateError, StreamError
from repro.query import (
    ContinuousQuery,
    Dstream,
    Extend,
    Istream,
    MultiplexedQueryEngine,
    PartitionRowsWindow,
    Project,
    QueryEngine,
    RangeWindow,
    fire_code_query,
    location_update_query,
    standing_region_queries,
)
from repro.query.tuples import encode_value
from repro.runtime import EventBus, QueryBridge, ShardedRuntime, ShardWorkerProxy
from repro.state import (
    FORMAT_VERSION,
    CheckpointManifest,
    apply_query_states,
    checkpoint_size_bytes,
    latest_checkpoint,
    load_checkpoint,
    read_checkpoint_header,
    restore_runtime,
    rotate_checkpoints,
    save_checkpoint,
)

POLICY = OutputPolicyConfig(delay_s=20.0)


@pytest.fixture(scope="module")
def scenario():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    simulator = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=8, n_shelf_tags=3), seed=11)
    )
    trace = simulator.generate()
    config = InferenceConfig(reader_particles=60, object_particles=120, seed=7)
    return simulator.world_model(), trace, config


def run_full(model, trace, config, n_shards):
    runtime = ShardedRuntime(
        model, config, RuntimeConfig(n_shards=n_shards), POLICY
    )
    return runtime.run(trace.epochs()).events


def checkpoint_at(model, trace, config, n_shards, split, path):
    """Run a prefix, checkpoint, and abandon the runtime (simulated kill)."""
    runtime = ShardedRuntime(
        model, config, RuntimeConfig(n_shards=n_shards), POLICY
    )
    for epoch in trace.epochs()[:split]:
        runtime.step(epoch)
    runtime.checkpoint(path)
    prefix = list(runtime.sink.events)
    runtime.abort()
    return prefix


def assert_bitwise_equal(events, reference):
    assert len(events) == len(reference)
    for ours, ref in zip(events, reference):
        assert ours.time == ref.time and ours.tag == ref.tag
        np.testing.assert_array_equal(ours.position, ref.position)


def tree_equal(a, b, path=""):
    """First differing path between two state trees (None if identical):
    dict key order, array dtype and contents, scalars."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return f"{path}: keys {list(a)} != {list(b)}"
        for key in a:
            diff = tree_equal(a[key], b[key], f"{path}/{key}")
            if diff:
                return diff
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = tree_equal(x, y, f"{path}/{i}")
            if diff:
                return diff
        return None
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype:
            return f"{path}: dtype {a.dtype} != {b.dtype}"
        if not np.array_equal(a, b):
            return f"{path}: arrays differ"
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


class TestCheckpointFormat:
    def test_manifest_round_trip(self, scenario, tmp_path):
        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 2, 15, path)
        manifest = load_checkpoint(path)
        assert manifest.version == FORMAT_VERSION
        assert manifest.n_shards == 2
        assert manifest.epochs_processed == 15
        assert manifest.config == config  # exact dataclass round trip
        assert manifest.policy == POLICY
        assert manifest.runtime.n_shards == 2
        assert checkpoint_size_bytes(path) > 0
        for state in manifest.shard_states:
            assert state["engine"]["engine"] == "factored"
            assert state["engine"]["epoch_index"] == 14

    def test_refuses_existing_target(self, scenario, tmp_path):
        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 1, 5, path)
        runtime = ShardedRuntime(model, config, RuntimeConfig(), POLICY)
        runtime.step(trace.epochs()[0])
        with pytest.raises(StateError, match="already exists"):
            save_checkpoint(runtime, path)
        runtime.abort()

    def test_checksum_mismatch_detected(self, scenario, tmp_path, checkpoint_files):
        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 1, 5, path)
        start, end = checkpoint_files.sections(path)["body"]
        checkpoint_files.flip_bit(path, (start + end) // 2)
        with pytest.raises(StateError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_edited_header_config_detected(self, scenario, tmp_path, checkpoint_files):
        """A tamperer who re-seals the file (lengths and digest consistent)
        is still caught: the config hash covers the config payload."""
        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 1, 5, path)

        def tamper(header):
            header["inference_config"]["seed"] = 999

        checkpoint_files.edit_header(path, tamper)
        with pytest.raises(StateError, match="config hash"):
            restore_runtime(path, model)

    @pytest.mark.parametrize("version", [3, 4, FORMAT_VERSION + 1])
    def test_unsupported_version_rejected(self, scenario, tmp_path, version):
        """Version 3 held the spatial index's regions as per-region JSON
        dicts; version 4 a capture serial per engine and pipeline part, clean
        markers and a partitioner name.  A build reads its own version only
        and names the one it refuses."""
        from repro.state.checkpoint import MAGIC, PREAMBLE

        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config.with_index(), 1, 5, path)
        blob = path.read_bytes()
        _, _, header_bytes, body_bytes = PREAMBLE.unpack(blob[: PREAMBLE.size])
        path.write_bytes(
            PREAMBLE.pack(MAGIC, version, header_bytes, body_bytes)
            + blob[PREAMBLE.size :]
        )
        refusal = f"version {version} is not supported.*reads version {FORMAT_VERSION}"
        for verify in (True, False):
            with pytest.raises(StateError, match=refusal):
                load_checkpoint(path, verify=verify)
        with pytest.raises(StateError, match=refusal):
            restore_runtime(path, model)

    def test_version_1_directory_rejected(self, tmp_path):
        """Format version 1 was a directory per checkpoint: refused, not
        read by a second code path."""
        with pytest.raises(StateError, match="version 1 is not supported.*reads version 5"):
            load_checkpoint(tmp_path)
        with pytest.raises(StateError, match="cannot open"):
            load_checkpoint(tmp_path / "missing")

    def test_checkpoint_after_finish_raises_state_error(self, scenario, tmp_path):
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(), POLICY)
        runtime.run(trace.epochs())
        with pytest.raises(StateError, match="finished"):
            runtime.checkpoint(tmp_path / "ck")

    def test_undrained_shard_refuses_snapshot(self, scenario):
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(), POLICY)
        for epoch in trace.epochs()[:25]:
            runtime.step(epoch)
        shard = runtime.shards[0]
        from repro.streams.records import LocationEvent, TagId

        shard._buffer.emit(
            LocationEvent(time=1.0, tag=TagId.object(0), position=(0, 0, 0))
        )
        with pytest.raises(StateError, match="undrained"):
            shard.snapshot()
        runtime.abort()


@pytest.fixture(scope="module")
def sample_checkpoint(scenario, tmp_path_factory, checkpoint_files):
    """Bytes of a 2-shard checkpoint with a query section (array leaf
    included), the state it loads to, and the section boundaries tampering
    tests aim at."""
    class Engine:
        def snapshot_state(self):
            return {
                "window": [encode_value((1.0, frozenset({"a", "b"})))],
                "ticks": 3,
                "weights": np.arange(4.0),
            }

    model, trace, config = scenario
    path = tmp_path_factory.mktemp("sample") / "ck"
    runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
    runtime.attach_query_engine("q", Engine())
    for epoch in trace.epochs()[:12]:
        runtime.step(epoch)
    runtime.checkpoint(path)
    runtime.abort()
    return path.read_bytes(), load_checkpoint(path), checkpoint_files.sections(path)


def manifests_equal(ours, reference):
    return (
        ours.epochs_processed == reference.epochs_processed
        and ours.config == reference.config
        and tree_equal(ours.query_states, reference.query_states) is None
        and len(ours.shard_states) == len(reference.shard_states)
        and all(
            tree_equal(a, b) is None
            for a, b in zip(ours.shard_states, reference.shard_states)
        )
    )


class TestMalformedFiles:
    """Every way a file can lie raises :class:`StateError` — never another
    exception type, never a wrong state."""

    def test_round_trip_sections(self, sample_checkpoint):
        blob, manifest, sections = sample_checkpoint
        assert sections["trailer"][1] == len(blob)
        assert sections["body"][1] > sections["body"][0]
        assert manifest.query_states["q"]["ticks"] == 3
        assert manifest.query_states["q"]["window"] == [
            ["tuple", [1.0, ["frozenset", ["a", "b"]]]]
        ]
        np.testing.assert_array_equal(manifest.query_states["q"]["weights"], np.arange(4.0))

    def test_truncation_at_every_section_boundary(self, sample_checkpoint, tmp_path):
        blob, _, sections = sample_checkpoint
        path = tmp_path / "ck"
        cuts = {0, 1, len(blob) - 1}
        for start, end in sections.values():
            cuts.update((start, (start + end) // 2, end - 1))
        for cut in sorted(cuts):
            path.write_bytes(blob[:cut])
            with pytest.raises(StateError):
                load_checkpoint(path)
            with pytest.raises(StateError):
                read_checkpoint_header(path)

    @pytest.mark.parametrize("header_bytes,body_bytes", [
        (1 << 20, None),  # header longer than the file
        (None, 1 << 30),  # body longer than the file
        (1 << 50, None),  # beyond the fixed cap
        (None, (1 << 64) - 1),
        (0, None),
    ])
    def test_lying_lengths_refused_before_allocation(
        self, sample_checkpoint, tmp_path, monkeypatch, header_bytes, body_bytes
    ):
        from repro.state.checkpoint import MAGIC, PREAMBLE

        blob, _, _ = sample_checkpoint
        _, _, real_header, real_body = PREAMBLE.unpack(blob[: PREAMBLE.size])
        path = tmp_path / "ck"
        path.write_bytes(
            PREAMBLE.pack(
                MAGIC,
                FORMAT_VERSION,
                real_header if header_bytes is None else header_bytes,
                real_body if body_bytes is None else body_bytes,
            )
            + blob[PREAMBLE.size :]
        )
        # Nothing may be sized from the lie: the refusal comes first.
        monkeypatch.setattr(
            np, "empty", lambda *a, **k: pytest.fail("allocated from a lying length")
        )
        with pytest.raises(StateError, match="preamble describes"):
            load_checkpoint(path)

    def test_unknown_magic_refused(self, sample_checkpoint, tmp_path):
        blob, _, _ = sample_checkpoint
        path = tmp_path / "ck"
        path.write_bytes(b"NOTACKPT" + blob[8:])
        with pytest.raises(StateError, match="not a repro checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [
        ["<f8", [4], 1 << 40, 32],  # offset outside the body
        ["<f8", [1 << 40], 0, 8 << 40],  # larger than the body
        ["<f8", [4], 0, 16],  # nbytes disagrees with shape
        ["<f8", [-4], 0, -32],
        ["O", [4], 0, 32],  # object dtype
        ["not-a-dtype", [4], 0, 32],
        [7, [4], 0, 32],
        ["<f8", "4", 0, 32.0],
        "junk",
    ])
    def test_array_index_entry_outside_the_body(
        self, sample_checkpoint, tmp_path, checkpoint_files, entry
    ):
        blob, _, _ = sample_checkpoint
        path = tmp_path / "ck"
        path.write_bytes(blob)

        def tamper(header):
            index = header["shards"][0]["arrays"]
            index[next(iter(index))] = entry

        checkpoint_files.edit_header(path, tamper)  # digest stays valid
        with pytest.raises(StateError, match="malformed shard record"):
            load_checkpoint(path)

    def test_overlapping_and_gapped_indexes_refused(
        self, sample_checkpoint, tmp_path, checkpoint_files
    ):
        blob, _, _ = sample_checkpoint
        path = tmp_path / "ck"
        for shift in (-8, 8):
            path.write_bytes(blob)

            def tamper(header):
                for entry in header["shards"][1]["arrays"].values():
                    entry[2] += shift

            checkpoint_files.edit_header(path, tamper)
            with pytest.raises(StateError, match="does not fit"):
                load_checkpoint(path)

    @pytest.mark.parametrize("section", ["header", "body", "query", "trailer"])
    def test_one_flipped_bit(self, sample_checkpoint, tmp_path, checkpoint_files, section):
        blob, _, sections = sample_checkpoint
        path = tmp_path / "ck"
        path.write_bytes(blob)
        if section == "query":
            offset = blob.index(b'"frozenset"') + 3  # inside the query skeleton
            assert sections["header"][0] < offset < sections["header"][1]
        else:
            start, end = sections[section]
            offset = (start + end) // 2
        checkpoint_files.flip_bit(path, offset, bit=3)
        with pytest.raises(StateError):
            load_checkpoint(path)

    @pytest.mark.parametrize("verify", [True, False])
    def test_hostile_version_2_file_never_runs_its_pickle(
        self, sample_checkpoint, tmp_path, verify
    ):
        """A version-2 file carried its query state as a pickle after the
        arrays.  This one is complete — real configs, real shard records and
        arrays, a valid digest (whoever can write the file can write a
        matching one) — so the build that wrote version 2 unpickles it, with
        or without ``verify``.  This build refuses the version before
        reading anything else: the payload's side effect never happens."""
        from repro.state.checkpoint import MAGIC, PREAMBLE

        blob, _, sections = sample_checkpoint
        victim = tmp_path / "pwned"

        class Payload:
            def __reduce__(self):
                return (os.mkdir, (str(victim),))

        header = json.loads(blob[slice(*sections["header"])])
        del header["queries"]
        shard_bytes = sum(
            entry[3] for record in header["shards"] for entry in record["arrays"].values()
        )
        pickled = pickle.dumps({"q": Payload()})
        header["query_bytes"] = len(pickled)
        body = blob[sections["body"][0] :][:shard_bytes] + pickled
        encoded = json.dumps(header).encode()
        content = PREAMBLE.pack(MAGIC, 2, len(encoded), len(body)) + encoded + body
        path = tmp_path / "epoch_00000012"
        path.write_bytes(content + hashlib.sha256(content).digest())
        (tmp_path / "LATEST").write_text("epoch_00000012\n")

        with pytest.raises(StateError, match="version 2 is not supported.*reads version 5"):
            load_checkpoint(path, verify=verify)
        with pytest.raises(StateError, match="version 2 is not supported"):
            read_checkpoint_header(path)
        assert latest_checkpoint(tmp_path) is None
        assert not victim.exists()

    @pytest.mark.parametrize("tamper", [
        lambda header: header.pop("queries"),
        lambda header: header.update(queries=[]),
        lambda header: header.update(queries="junk"),
        lambda header: header["queries"].pop("arrays"),
        lambda header: header["queries"].update(state=[1, 2]),
        lambda header: header["queries"].update(state=None),
        lambda header: header["queries"]["arrays"].update(extra=["<f8", [2], 0, 16]),
        lambda header: header["queries"]["state"]["q"].update(
            weights={"__array__": "q/nowhere"}
        ),
    ], ids=[
        "missing", "list", "string", "no-index", "state-list", "state-null",
        "index-past-body", "array-without-entry",
    ])
    def test_malformed_query_section(
        self, sample_checkpoint, tmp_path, checkpoint_files, tamper
    ):
        blob, _, _ = sample_checkpoint
        path = tmp_path / "ck"
        path.write_bytes(blob)
        checkpoint_files.edit_header(path, tamper)  # digest stays valid
        for verify in (True, False):
            with pytest.raises(StateError, match="query record|missing array"):
                load_checkpoint(path, verify=verify)

    def test_body_bytes_no_index_covers_are_refused(
        self, sample_checkpoint, tmp_path, checkpoint_files
    ):
        blob, _, _ = sample_checkpoint
        path = tmp_path / "ck"
        path.write_bytes(blob)

        def tamper(header):
            del header["queries"]["arrays"]["q/weights"]
            header["queries"]["state"]["q"]["weights"] = None

        checkpoint_files.edit_header(path, tamper)
        with pytest.raises(StateError, match="cover .* of the"):
            load_checkpoint(path)

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_damage_is_state_error_or_bitwise_equal(
        self, sample_checkpoint, tmp_path, data
    ):
        """Random truncations and bit flips: the verified load either
        refuses with ``StateError`` or returns exactly the state that was
        saved; the unverified one may load *different* state, but ends in
        ``StateError`` or a manifest — never another exception type."""
        blob, reference, _ = sample_checkpoint
        damaged = bytearray(blob)
        for _ in range(data.draw(st.integers(0, 3), label="flips")):
            offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
            damaged[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        if data.draw(st.booleans(), label="truncate"):
            del damaged[data.draw(st.integers(0, len(blob)), label="cut") :]
        path = tmp_path / "ck"
        path.write_bytes(bytes(damaged))
        try:
            unverified = load_checkpoint(path, verify=False)
        except StateError:
            unverified = None
        assert unverified is None or isinstance(unverified, CheckpointManifest)
        try:
            loaded = load_checkpoint(path)
        except StateError:
            return
        assert manifests_equal(loaded, reference)
        assert unverified is not None and manifests_equal(unverified, reference)


def tagged_queries():
    """Standing queries whose operator state holds every value kind the
    codec knows: tuples (``area``), frozensets, numpy scalars, Counters of
    value keys (Istream / Dstream) and a nested query's window."""
    return [
        location_update_query(),
        fire_code_query(lambda _: 90.0, 100.0, 5.0),
        *standing_region_queries(4, ((1.0, -1.0), (3.0, 3.0))),
        ContinuousQuery(
            PartitionRowsWindow(("tag_id",), rows=2),
            [
                Extend(
                    cell=lambda t: (np.int64(np.floor(t["x"])), np.float64(round(t["y"]))),
                    seen=lambda t: frozenset({t["tag_id"], np.int64(1), None}),
                    odd=lambda t: float("inf") if t["y"] > 1.0 else np.bool_(True),
                ),
                Project("cell", "seen", "odd"),
            ],
            Istream(),
            name="tagged",
        ),
        ContinuousQuery(
            RangeWindow(6.0),
            [Extend(row=lambda t: int(round(t["y"]))), Project("row")],
            Dstream(),
            name="left",
        ),
    ]


def emissions_of(engine):
    return {
        name: [(t.time, sorted(t.items(), key=lambda kv: kv[0])) for t in tuples]
        for name, tuples in engine.outputs.items()
    }


def serve_queries(model, trace, config, engine, queries, upto=None, runtime=None):
    """Feed ``engine`` from a 2-shard runtime (a fresh one unless given)."""
    for query in queries:
        engine.register(query)
    if runtime is None:
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
    QueryBridge(engine, runtime.bus, runtime=runtime)
    for epoch in trace.epochs(start=runtime.epochs_processed)[:upto]:
        runtime.step(epoch)
    return runtime


@pytest.mark.parametrize("engine_cls", [QueryEngine, MultiplexedQueryEngine])
class TestQuerySection:
    """Query-operator state rides in the header as a plain state tree."""

    SPLIT = 40  # five of the scenario's eight events are out, a tick pending

    def _checkpoint(self, scenario, engine_cls, path):
        model, trace, config = scenario
        engine = engine_cls()
        runtime = serve_queries(model, trace, config, engine, tagged_queries(), self.SPLIT)
        runtime.checkpoint(path)
        prefix = emissions_of(engine)
        runtime.abort()
        return prefix

    def _resume(self, scenario, engine_cls, path):
        model, trace, config = scenario
        runtime, manifest = restore_runtime(path, model)
        engine = engine_cls()
        serve_queries(model, trace, config, engine, tagged_queries(), 0, runtime)
        apply_query_states(runtime, manifest)
        runtime.run(trace.epochs(start=manifest.epochs_processed))
        return engine

    def test_resume_emits_what_the_uninterrupted_run_does(
        self, scenario, tmp_path, engine_cls
    ):
        """Numpy scalars are saved as the Python scalars they equal (and
        hash like), so differencing and emissions are unchanged."""
        model, trace, config = scenario
        reference = engine_cls()
        serve_queries(model, trace, config, reference, tagged_queries()).finish()
        full = emissions_of(reference)
        assert all(full[name] for name in ("tagged", "left", "fire_code")), full.keys()

        prefix = self._checkpoint(scenario, engine_cls, tmp_path / "ck")
        header = read_checkpoint_header(tmp_path / "ck")
        text = json.dumps(header["queries"], allow_nan=False)  # strict JSON
        for tag in ('["tuple"', '["frozenset"', '["float","inf"]'):
            assert tag in text.replace(" ", "")
        resumed = self._resume(scenario, engine_cls, tmp_path / "ck")
        tail = emissions_of(resumed)
        assert any(prefix.values()) and any(tail.values())
        assert {name: prefix[name] + tail[name] for name in full} == full
        assert tree_equal(resumed.snapshot_state(), reference.snapshot_state()) is None

    def test_unencodable_value_fails_the_save_by_name(
        self, scenario, tmp_path, monkeypatch, engine_cls
    ):
        """The query runs; the checkpoint refuses, naming query and
        attribute, before any shard is captured or anything is written —
        and the runtime goes on."""
        import repro.state.checkpoint as checkpoint_module

        model, trace, config = scenario
        monkeypatch.setattr(
            checkpoint_module,
            "collect_shard_snapshots",
            lambda *args, **kwargs: pytest.fail("captured shards for a refused save"),
        )

        class Opaque:
            pass

        opaque = Opaque()
        for name, value in (("raw", b"bytes"), ("thing", opaque), ("deep", (1, frozenset({b"x"})))):
            engine = engine_cls()
            query = ContinuousQuery(
                PartitionRowsWindow(("tag_id",), rows=1),
                [Extend(**{name: lambda t, value=value: value}), Project("tag_id", name)],
                Istream(),
                name="narrow",
            )
            runtime = serve_queries(model, trace, config, engine, [query], self.SPLIT)
            assert engine.outputs["narrow"]  # it runs fine
            directory = tmp_path / name
            directory.mkdir()
            with pytest.raises(StateError, match=f"query 'narrow'.*attribute '{name}'"):
                runtime.checkpoint(directory / "ck")
            assert os.listdir(directory) == []  # no file, no .tmp
            runtime.step(trace.epochs()[self.SPLIT])
            runtime.abort()

    @pytest.mark.parametrize("damage", [
        lambda state: state.update(engine="other"),
        lambda state: state.update(pending=7),
        lambda state: state.update(pending=[[1.0]]),
        lambda state: state.update(pending=[[1.0, {"x": ["set", [1]]}]]),
        lambda state: state.update(pending=[[1.0, {"x": ["tuple", 3]}]]),
        lambda state: state.update(pending=[[1.0, {"x": {"a": 1}}]]),
        lambda state: state.update(pending=[["soon", {"x": 1}]]),
        lambda state: state.pop("pending_time"),
    ], ids=[
        "wrong-engine-tag", "pending-not-a-list", "tuple-without-attributes",
        "unknown-value-tag", "tuple-tag-without-list", "dict-value", "time-not-a-number",
        "missing-key",
    ])
    def test_malformed_engine_state_is_state_error(
        self, scenario, tmp_path, checkpoint_files, engine_cls, damage
    ):
        self._damaged_restore(scenario, tmp_path, checkpoint_files, engine_cls, damage)

    @pytest.mark.parametrize("where,value", [
        ("window", {"window": "bogus"}),
        ("window", 5),
        ("partitions", 5),
        ("partitions", [[]]),
        ("partitions", [[[0.0, {"no_key": 1}]]]),
        ("previous", {"a": 1}),
        ("previous", [[{"v": 1}, 1, 2]]),
        ("previous", [[5, 1]]),
        ("previous", [[{"v": ["frozenset", "ab"]}, 1]]),
        ("streamer", {"streamer": "rstream"}),
    ])
    def test_malformed_operator_state_is_state_error(
        self, scenario, tmp_path, checkpoint_files, engine_cls, where, value
    ):
        def damage(state):
            # The location-update query's record and its window's.
            if engine_cls is QueryEngine:
                record = holder = state["queries"]["location_updates"]
                key = "window"
            else:
                holder, key = state["windows"][0], "state"
                record = holder["plans"][0]["state"]
            if where == "window":
                holder[key] = value
            elif where == "partitions":
                holder[key]["partitions"] = value
            elif where == "previous":
                record["streamer"]["previous"] = value
            else:
                record["streamer"] = value

        self._damaged_restore(scenario, tmp_path, checkpoint_files, engine_cls, damage)

    def _damaged_restore(self, scenario, tmp_path, checkpoint_files, engine_cls, damage):
        model, trace, config = scenario
        path = tmp_path / "ck"
        self._checkpoint(scenario, engine_cls, path)
        checkpoint_files.edit_header(
            path, lambda header: damage(header["queries"]["state"]["query"])
        )
        runtime, manifest = restore_runtime(path, model)  # the file itself is sound
        serve_queries(model, trace, config, engine_cls(), tagged_queries(), 0, runtime)
        with pytest.raises(StateError):
            apply_query_states(runtime, manifest)
        runtime.abort()


class TestResumeParity:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_resume_is_bitwise_identical(self, scenario, tmp_path, n_shards):
        model, trace, config = scenario
        reference = run_full(model, trace, config, n_shards)
        split = len(trace.epochs()) // 2
        path = tmp_path / f"ck{n_shards}"
        prefix = checkpoint_at(model, trace, config, n_shards, split, path)
        runtime, manifest = restore_runtime(path, model)
        assert manifest.epochs_processed == split
        sink = runtime.run(trace.epochs(start=split))
        assert_bitwise_equal(prefix + sink.events, reference)

    @pytest.mark.parametrize("executor", ["thread", "fiber"])
    def test_recorded_unknown_executor_is_refused(
        self, scenario, tmp_path, checkpoint_files, executor
    ):
        """A header recording an executor this build does not have — the
        removed ``thread`` one (no genuine version-3 file can: it was gone
        before the format existed) or one that never was — is a StateError,
        not a bare ConfigurationError."""
        from repro.state.checkpoint import runtime_config_from_dict

        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 2, len(trace.epochs()) // 2, path)

        def mutate(header):
            header["runtime_config"]["executor"] = executor

        checkpoint_files.edit_header(path, mutate)
        with pytest.raises(StateError, match="runtime config is invalid"):
            runtime_config_from_dict(read_checkpoint_header(path)["runtime_config"])
        with pytest.raises(StateError):
            restore_runtime(path, model)

    def test_resume_with_compression_is_bitwise_identical(self, scenario, tmp_path):
        from dataclasses import replace

        from repro.config import ArenaConfig

        model, trace, _ = scenario
        config = replace(
            InferenceConfig(
                reader_particles=50, object_particles=100, seed=5
            ).with_compression(unread_epochs=3),
            arena=ArenaConfig(initial_capacity=128, compaction_threshold=0.1),
        )
        reference = run_full(model, trace, config, 1)
        split = int(len(trace.epochs()) * 0.7)
        path = tmp_path / "ck"
        prefix = checkpoint_at(model, trace, config, 1, split, path)
        manifest = load_checkpoint(path)
        assert manifest.shard_states[0]["engine"]["arena_stats"]["compactions"] > 0
        runtime, _ = restore_runtime(path, model)
        sink = runtime.run(trace.epochs(start=split))
        assert_bitwise_equal(prefix + sink.events, reference)

    def test_restored_runtime_reports_offsets(self, scenario, tmp_path):
        model, trace, config = scenario
        split = 20
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 2, split, path)
        runtime, manifest = restore_runtime(path, model)
        assert runtime.epochs_processed == split
        assert runtime.bus.last_time == manifest.bus_last_time
        assert runtime.known_objects()  # beliefs came back

    def test_restore_into_custom_bus(self, scenario, tmp_path):
        model, trace, config = scenario
        split = 20
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 2, split, path)
        times = []
        bus = EventBus()
        bus.subscribe(lambda e: times.append(e.time))
        runtime, manifest = restore_runtime(path, model, bus=bus)
        runtime.run(trace.epochs(start=split))
        assert times == sorted(times)
        assert all(
            manifest.bus_last_time is None or t >= manifest.bus_last_time
            for t in times
        )


class TestElasticReshard:
    def test_reshard_4_to_2_within_tolerance(self, scenario, tmp_path):
        """The acceptance criterion: a 4-shard checkpoint restored into 2
        shards completes the trace with the exact (time, tag) stream and
        positions within the sharded-parity tolerance."""
        model, trace, config = scenario
        reference = run_full(model, trace, config, 1)
        split = len(trace.epochs()) // 2
        path = tmp_path / "ck4"
        prefix = checkpoint_at(model, trace, config, 4, split, path)
        runtime, manifest = restore_runtime(
            path, model, runtime_config=RuntimeConfig(n_shards=2)
        )
        assert manifest.n_shards == 4 and runtime.n_shards == 2
        sink = runtime.run(trace.epochs(start=split))
        resumed = prefix + sink.events
        assert sorted((e.time, str(e.tag)) for e in resumed) == sorted(
            (e.time, str(e.tag)) for e in reference
        )
        by_key = {(e.time, e.tag): np.asarray(e.position) for e in reference}
        for event in resumed:
            ref = by_key[(event.time, event.tag)]
            drift = float(
                np.hypot(event.position[0] - ref[0], event.position[1] - ref[1])
            )
            assert drift < 0.6, f"{event.tag} drifted {drift:.3f} ft"
        # Every new shard owns part of the population.
        counts = [s["objects"] for s in runtime.shard_stats()]
        assert all(c > 0 for c in counts) and sum(counts) == 8

    def test_reshard_2_to_4_scales_out(self, scenario, tmp_path):
        model, trace, config = scenario
        reference = run_full(model, trace, config, 1)
        split = len(trace.epochs()) // 2
        path = tmp_path / "ck2"
        prefix = checkpoint_at(model, trace, config, 2, split, path)
        runtime, _ = restore_runtime(
            path, model, runtime_config=RuntimeConfig(n_shards=4)
        )
        sink = runtime.run(trace.epochs(start=split))
        resumed = prefix + sink.events
        assert sorted((e.time, str(e.tag)) for e in resumed) == sorted(
            (e.time, str(e.tag)) for e in reference
        )
        by_key = {(e.time, e.tag): np.asarray(e.position) for e in reference}
        for event in resumed:
            ref = by_key[(event.time, event.tag)]
            assert (
                float(np.hypot(event.position[0] - ref[0], event.position[1] - ref[1]))
                < 0.6
            )

    def test_reshard_is_deterministic(self, scenario, tmp_path):
        model, trace, config = scenario
        split = len(trace.epochs()) // 2
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 4, split, path)
        runs = []
        for _ in range(2):
            runtime, _ = restore_runtime(
                path, model, runtime_config=RuntimeConfig(n_shards=2)
            )
            runs.append(runtime.run(trace.epochs(start=split)).events)
        assert_bitwise_equal(runs[0], runs[1])


class TestForeignEngineState:
    """A shard tree not tagged ``"factored"`` is refused before a runtime —
    and, for the worker executors, before any worker process — exists."""

    @pytest.mark.parametrize("tag", ["naive", "bogus"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("n_shards", [2, 3], ids=["exact", "reshard"])
    def test_refused_before_any_shard_is_built(
        self, scenario, tmp_path, checkpoint_files, monkeypatch, executor, n_shards, tag
    ):
        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 2, 5, path)

        def retag(header):
            header["shards"][1]["state"]["engine"]["engine"] = tag

        checkpoint_files.edit_header(path, retag)
        built = []
        for cls in (ShardedRuntime, ShardWorkerProxy):

            def recording(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", recording)
        target = RuntimeConfig(n_shards=n_shards, executor=executor)
        with pytest.raises(StateError, match="factored"):
            restore_runtime(path, model, runtime_config=target)
        assert built == []

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_every_executor_writes_factored_trees(self, scenario, tmp_path, executor):
        """Whatever executor ran the shards, each checkpointed tree is the
        factored filter's, which every restore path accepts."""
        model, trace, config = scenario
        runtime = ShardedRuntime(
            model, config, RuntimeConfig(n_shards=2, executor=executor), POLICY
        )
        try:
            for epoch in trace.epochs()[:5]:
                runtime.step(epoch)
            runtime.checkpoint(tmp_path / "ck")
        finally:
            runtime.abort()
        manifest = load_checkpoint(tmp_path / "ck")
        assert manifest.version == FORMAT_VERSION == 5
        assert [state["engine"]["engine"] for state in manifest.shard_states] == [
            "factored",
            "factored",
        ]

    @pytest.mark.parametrize("tag", ["naive", "bogus"])
    def test_refusal_names_the_shard_and_its_tag(
        self, scenario, tmp_path, checkpoint_files, tag
    ):
        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 2, 5, path)

        def retag(header):
            header["shards"][1]["state"]["engine"]["engine"] = tag

        checkpoint_files.edit_header(path, retag)
        with pytest.raises(StateError, match=f"shard 1 holds {tag!r} engine state"):
            restore_runtime(path, model)

    @pytest.mark.parametrize("n_shards", [2, 3], ids=["exact", "reshard"])
    def test_an_untagged_tree_is_refused(
        self, scenario, tmp_path, checkpoint_files, n_shards
    ):
        """A tree with no engine tag at all is not taken for a factored one."""
        model, trace, config = scenario
        path = tmp_path / "ck"
        checkpoint_at(model, trace, config, 2, 5, path)

        def untag(header):
            del header["shards"][0]["state"]["engine"]["engine"]

        checkpoint_files.edit_header(path, untag)
        with pytest.raises(StateError, match="shard 0 holds None engine state"):
            restore_runtime(path, model, runtime_config=RuntimeConfig(n_shards=n_shards))


class TestPeriodicCheckpoints:
    def test_periodic_rotation_and_resume(self, scenario, tmp_path):
        model, trace, config = scenario
        reference = run_full(model, trace, config, 2)
        directory = tmp_path / "periodic"
        runtime_config = RuntimeConfig(
            n_shards=2,
            checkpoint_every_s=10.0,
            checkpoint_dir=str(directory),
            checkpoint_keep=2,
        )
        runtime = ShardedRuntime(model, config, runtime_config, POLICY)
        runtime.run(trace.epochs())
        kept = sorted(
            name for name in os.listdir(directory) if name.startswith("epoch_")
        )
        assert len(kept) == 2  # rotation pruned the older ones
        latest = latest_checkpoint(directory)
        assert latest is not None and os.path.basename(latest) == kept[-1]
        # Crash-recovery drill: resume from the latest periodic checkpoint
        # and check the tail matches the uninterrupted run bitwise.
        manifest = load_checkpoint(latest)
        resumed, _ = restore_runtime(latest, model)
        sink = resumed.run(trace.epochs(start=manifest.epochs_processed))
        tail = [e for e in reference if e.time > (manifest.bus_last_time or -1)]
        assert_bitwise_equal(sink.events, tail)

    def test_run_writes_the_same_periodic_checkpoints(self, scenario, tmp_path):
        """``run()`` takes every due checkpoint right after its step: the
        names, kinds and LATEST a delta-chained run leaves are the ones the
        checkpoint-inside-step() runtime wrote."""
        model, trace, config = scenario
        runtime_config = RuntimeConfig(
            n_shards=2,
            checkpoint_every_s=8.0,
            checkpoint_dir=str(tmp_path),
            checkpoint_keep=100,
            checkpoint_mode="delta",
            checkpoint_full_every=4,
        )
        ShardedRuntime(model, config, runtime_config, POLICY).run(trace.epochs())
        names = sorted(n for n in os.listdir(tmp_path) if n.startswith("epoch_"))
        kinds = [read_checkpoint_header(tmp_path / n)["kind"] for n in names]
        assert names == [f"epoch_{n:08d}" for n in (9, 17, 25, 33, 41, 49)]
        assert kinds == ["full", "delta", "delta", "delta", "full", "delta"]
        assert os.path.basename(latest_checkpoint(tmp_path)) == names[-1]

    def test_step_refuses_to_pass_a_due_checkpoint(self, scenario, tmp_path):
        """``step()`` never writes a periodic checkpoint; a driver that steps
        on without taking the due one gets a StateError, not silently lost
        durability."""
        model, trace, config = scenario
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(
                n_shards=2, checkpoint_every_s=8.0, checkpoint_dir=str(tmp_path)
            ),
            POLICY,
        )
        epochs = trace.epochs()
        try:
            for epoch in epochs[:9]:  # the 9th epoch is 8 s past the first
                runtime.step(epoch)
            assert os.listdir(tmp_path) == []
            with pytest.raises(StateError, match="checkpoint_if_due"):
                runtime.step(epochs[9])
            assert runtime.epochs_processed == 9  # the refused epoch never ran
            path = runtime.checkpoint_if_due()
            assert os.path.basename(path) == "epoch_00000009"
            assert runtime.checkpoint_if_due() is None  # taken: not due again
            runtime.step(epochs[9])
            assert runtime.checkpoint_if_due() is None
        finally:
            runtime.abort()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(checkpoint_every_s=0.0, checkpoint_dir="x")
        with pytest.raises(ConfigurationError):
            RuntimeConfig(checkpoint_every_s=5.0)  # no directory
        with pytest.raises(ConfigurationError):
            RuntimeConfig(checkpoint_keep=0)

    def test_rotate_checkpoints_orders_by_epoch(self, tmp_path):
        for n in (3, 1, 12):
            self._fake_checkpoint(tmp_path, n, "full")
        removed = rotate_checkpoints(tmp_path, keep=1)
        assert [os.path.basename(p) for p in removed] == [
            "epoch_00000001",
            "epoch_00000003",
        ]
        assert sorted(os.listdir(tmp_path)) == ["epoch_00000012"]

    def test_rotate_keeps_everything_when_keep_exceeds_count(self, tmp_path):
        """keep larger than the number of checkpoints on disk must delete
        nothing (a negative slice once deleted from the wrong end)."""
        for n in (1, 2, 3):
            self._fake_checkpoint(tmp_path, n, "full")
        assert rotate_checkpoints(tmp_path, keep=5) == []
        assert len(list(tmp_path.iterdir())) == 3

    @pytest.fixture(autouse=True)
    def _files(self, checkpoint_files):
        self.files = checkpoint_files

    def _fake_checkpoint(self, directory, n, kind, parent=None, base=None):
        """A well-formed, empty checkpoint file carrying only chain links."""
        name = f"epoch_{n:08d}"
        header = {"kind": kind, "shards": []}
        if parent is not None:
            header["parent"] = f"epoch_{parent:08d}"
        if base is not None:
            header["base"] = f"epoch_{base:08d}"
        self.files.write(directory / name, header)
        return name

    def test_rotation_never_deletes_a_base_a_retained_chain_needs(self, tmp_path):
        """The rotation guard: a full base (and every intermediate delta)
        that a retained delta still chains through is kept no matter how
        old; once a later rebase frees the chain, the stragglers go."""
        self._fake_checkpoint(tmp_path, 1, "full")
        self._fake_checkpoint(tmp_path, 2, "delta", parent=1, base=1)
        self._fake_checkpoint(tmp_path, 3, "delta", parent=2, base=1)
        # keep=1 retains only epoch_3, whose chain needs 2 and 1: nothing
        # may be deleted.
        assert rotate_checkpoints(tmp_path, keep=1) == []
        assert len([n for n in os.listdir(tmp_path) if n.startswith("epoch_")]) == 3
        # A full rebase plus one delta on top frees the old chain.
        self._fake_checkpoint(tmp_path, 4, "full")
        self._fake_checkpoint(tmp_path, 5, "delta", parent=4, base=4)
        removed = rotate_checkpoints(tmp_path, keep=2)
        assert sorted(os.path.basename(p) for p in removed) == [
            "epoch_00000001",
            "epoch_00000002",
            "epoch_00000003",
        ]
        assert sorted(
            n for n in os.listdir(tmp_path) if n.startswith("epoch_")
        ) == ["epoch_00000004", "epoch_00000005"]

    def test_rotation_tolerates_concurrently_deleted_victim(
        self, tmp_path, monkeypatch
    ):
        """A rotation victim vanishing mid-delete (a drain-time rotation
        racing the periodic one) is success, not failure."""
        import repro.state.checkpoint as checkpoint_module

        for n in (1, 2, 3):
            self._fake_checkpoint(tmp_path, n, "full")
        real_unlink = os.unlink

        def racing_unlink(path, *args, **kwargs):
            if os.path.basename(str(path)) == "epoch_00000001":
                real_unlink(path)  # the other rotation got there first
                raise FileNotFoundError(path)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(checkpoint_module.os, "unlink", racing_unlink)
        removed = rotate_checkpoints(tmp_path, keep=1)
        assert [os.path.basename(p) for p in removed] == ["epoch_00000002"]
        assert sorted(os.listdir(tmp_path)) == ["epoch_00000003"]

    def test_stale_tmp_never_counts_toward_keep_and_is_removed(self, tmp_path):
        """A crash leaves ``epoch_3.tmp`` beside the finished ``epoch_3``;
        it sorts after its namesake, and once stole a ``keep`` slot from a
        restorable checkpoint."""
        for n in (1, 2, 3):
            self._fake_checkpoint(tmp_path, n, "full")
        (tmp_path / "epoch_00000003.tmp").write_bytes(b"half a checkpoint")
        removed = rotate_checkpoints(tmp_path, keep=2)
        assert sorted(os.path.basename(p) for p in removed) == [
            "epoch_00000001",
            "epoch_00000003.tmp",
        ]
        assert sorted(os.listdir(tmp_path)) == ["epoch_00000002", "epoch_00000003"]

    def test_rotation_reads_no_header_its_caller_already_holds(
        self, scenario, tmp_path, monkeypatch
    ):
        """The periodic path hands rotation the heads it got back from its
        own saves: a whole run of delta checkpoints parses no file."""
        import repro.state.checkpoint as checkpoint_module

        model, trace, config = scenario
        reads = []
        real = checkpoint_module.read_checkpoint_header
        monkeypatch.setattr(
            checkpoint_module,
            "read_checkpoint_header",
            lambda path: reads.append(path) or real(path),
        )
        runtime_config = RuntimeConfig(
            n_shards=2,
            checkpoint_every_s=8.0,
            checkpoint_dir=str(tmp_path),
            checkpoint_keep=1,
            checkpoint_mode="delta",
            checkpoint_full_every=4,
        )
        ShardedRuntime(model, config, runtime_config, POLICY).run(trace.epochs())
        assert len([n for n in os.listdir(tmp_path) if n.startswith("epoch_")]) >= 2
        assert reads == []
        # A fresh process (no heads) still rotates correctly from disk.
        rotate_checkpoints(tmp_path, keep=1)
        assert reads
        load_checkpoint(latest_checkpoint(tmp_path))

    def test_chain_heads_hold_links_not_state(self, scenario, tmp_path):
        """The rotation cache keeps ``checkpoint_keep`` heads alive: each
        holds what chaining and rotation read, never the state skeletons —
        a thousand-query server's query section is not pinned per head."""
        from repro.state import ChainHead

        model, trace, config = scenario
        runtime_config = RuntimeConfig(
            n_shards=2,
            checkpoint_every_s=8.0,
            checkpoint_dir=str(tmp_path),
            checkpoint_keep=3,
            checkpoint_mode="delta",
            checkpoint_full_every=4,
        )
        runtime = ShardedRuntime(model, config, runtime_config, POLICY)
        engine = MultiplexedQueryEngine()
        for query in standing_region_queries(50, ((1.0, -1.0), (3.0, 3.0))):
            engine.register(query)
        QueryBridge(engine, runtime.bus, runtime=runtime)
        runtime.run(trace.epochs())
        allowed = {"kind", "parent", "base", "chain_index", "config_hash", "capture_serials"}
        assert len(runtime._chain_heads) >= 2
        for name, head in runtime._chain_heads.items():
            assert set(head.header) <= allowed, name
            assert "region_0049" not in json.dumps(head.header)
            assert head == ChainHead.read(tmp_path / name)  # same links from disk
            assert "region_0049" in json.dumps(read_checkpoint_header(head.path)["queries"])

    def test_latest_checkpoint_survives_a_torn_pointer(self, tmp_path):
        """A kill -9 can leave LATEST empty (torn mid-write) or pointing at
        a checkpoint that never finished its rename; completed checkpoints
        are crash-consistent, so resolution falls back to the newest one."""
        self._fake_checkpoint(tmp_path, 3, "full")
        self._fake_checkpoint(tmp_path, 5, "full")
        (tmp_path / "epoch_00000007.tmp").write_bytes(b"RPRO")  # torn mid-save

        (tmp_path / "LATEST").write_text("")  # torn mid-write
        latest = latest_checkpoint(tmp_path)
        assert latest is not None
        assert os.path.basename(latest) == "epoch_00000005"

        (tmp_path / "LATEST").write_text("epoch_00000099\n")  # dangling
        assert os.path.basename(latest_checkpoint(tmp_path)) == "epoch_00000005"

        (tmp_path / "LATEST").write_text("epoch_00000003\n")  # intact wins
        assert os.path.basename(latest_checkpoint(tmp_path)) == "epoch_00000003"

    def test_latest_checkpoint_missing_pointer_finds_completed_save(self, tmp_path):
        """The crash window between a checkpoint's rename and the pointer
        move: no LATEST at all, but a complete checkpoint on disk."""
        self._fake_checkpoint(tmp_path, 2, "full")
        assert os.path.basename(latest_checkpoint(tmp_path)) == "epoch_00000002"
        assert latest_checkpoint(tmp_path / "missing") is None
        (tmp_path / "epoch_00000002").unlink()
        assert latest_checkpoint(tmp_path) is None

    def test_latest_checkpoint_skips_a_torn_newest_file(self, tmp_path):
        """Power loss can leave the newest file (and a LATEST naming it)
        shorter than its preamble says: resolution falls back to the
        previous complete checkpoint instead of failing at load."""
        self._fake_checkpoint(tmp_path, 3, "full")
        self._fake_checkpoint(tmp_path, 5, "full")
        whole = (tmp_path / "epoch_00000005").read_bytes()
        (tmp_path / "LATEST").write_text("epoch_00000005\n")
        for torn in (whole[:-1], whole[:20], b"", whole + b"x"):
            (tmp_path / "epoch_00000005").write_bytes(torn)
            assert os.path.basename(latest_checkpoint(tmp_path)) == "epoch_00000003"
        (tmp_path / "epoch_00000005").write_bytes(whole)
        assert os.path.basename(latest_checkpoint(tmp_path)) == "epoch_00000005"

    def test_write_order_is_payload_rename_directory_pointer(
        self, scenario, tmp_path, monkeypatch
    ):
        """The durability contract, pinned call by call: the payload is
        fsynced before it is renamed into place, the directory is fsynced
        before LATEST may name the file, and LATEST.tmp is fsynced before
        it replaces LATEST."""
        model, trace, config = scenario
        calls = []
        real_fsync, real_rename, real_replace = os.fsync, os.rename, os.replace

        def fsync(fd):
            calls.append(("fsync", os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))))
            return real_fsync(fd)

        def rename(src, dst):
            calls.append(("rename", os.path.basename(src), os.path.basename(dst)))
            return real_rename(src, dst)

        def replace(src, dst):
            calls.append(("replace", os.path.basename(src), os.path.basename(dst)))
            return real_replace(src, dst)

        directory = tmp_path / "ck"
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(n_shards=2, checkpoint_dir=str(directory)),
            POLICY,
        )
        for epoch in trace.epochs()[:5]:
            runtime.step(epoch)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "rename", rename)
        monkeypatch.setattr(os, "replace", replace)
        runtime.write_periodic_checkpoint()
        monkeypatch.undo()
        runtime.abort()
        assert calls == [
            ("fsync", "epoch_00000005.tmp"),
            ("rename", "epoch_00000005.tmp", "epoch_00000005"),
            ("fsync", "ck"),
            ("fsync", "LATEST.tmp"),
            ("replace", "LATEST.tmp", "LATEST"),
        ]

    def test_rotation_guard_end_to_end_with_periodic_deltas(
        self, scenario, tmp_path
    ):
        """keep=1 with a live delta chain: the base survives rotation and
        the LATEST delta still materializes after every rotation pass."""
        model, trace, config = scenario
        runtime_config = RuntimeConfig(
            n_shards=2,
            checkpoint_every_s=8.0,
            checkpoint_dir=str(tmp_path),
            checkpoint_keep=1,
            checkpoint_mode="delta",
            checkpoint_full_every=4,
        )
        runtime = ShardedRuntime(model, config, runtime_config, POLICY)
        runtime.run(trace.epochs())
        names = sorted(
            n for n in os.listdir(tmp_path) if n.startswith("epoch_")
        )
        kinds = {n: read_checkpoint_header(tmp_path / n)["kind"] for n in names}
        latest = latest_checkpoint(tmp_path)
        manifest = load_checkpoint(latest)  # materializes: chain is whole
        if manifest.kind == "delta":
            for link in manifest.chain:
                assert link in kinds  # every ancestor survived rotation
            assert kinds[manifest.chain[0]] == "full"


class TestBusResume:
    def test_resume_seeds_watermark(self):
        from repro.streams.records import LocationEvent, TagId

        bus = EventBus()
        bus.resume_from(40.0)
        with pytest.raises(StreamError):
            bus.publish(
                LocationEvent(time=39.0, tag=TagId.object(0), position=(0, 0, 0))
            )
        bus.publish(LocationEvent(time=41.0, tag=TagId.object(0), position=(0, 0, 0)))
        with pytest.raises(StreamError):
            bus.resume_from(50.0)  # already in use

    def test_resume_on_closed_bus_rejected(self):
        bus = EventBus()
        bus.close()
        with pytest.raises(StreamError):
            bus.resume_from(1.0)


class TestEpochSeek:
    def test_epochs_start_offset(self, scenario):
        _, trace, _ = scenario
        epochs = trace.epochs()
        assert trace.epochs(start=10) == epochs[10:]
        assert trace.epochs(start=0) == epochs
        assert trace.epochs(start=len(epochs)) == []
        with pytest.raises(StreamError):
            trace.epochs(start=-1)


class TestShardStats:
    def test_arena_health_in_shard_stats_and_harness(self, scenario):
        from repro.eval.harness import run_factored

        model, trace, config = scenario
        result = run_factored(
            trace, model, config, POLICY, runtime_config=RuntimeConfig(n_shards=2)
        )
        for key in ("arena_grows", "arena_compactions", "arena_memory_bytes"):
            assert key in result.extra
            assert f"shard0_{key}" in result.extra
            assert f"shard1_{key}" in result.extra
        assert result.extra["arena_memory_bytes"] > 0
        assert result.extra["arena_memory_bytes"] == (
            result.extra["shard0_arena_memory_bytes"]
            + result.extra["shard1_arena_memory_bytes"]
        )
