"""Configuration objects and paper-default constants.

Every tunable in the library lives in one of the dataclasses below, with
defaults taken from the paper's Section V.  Configurations validate eagerly
so that a bad sweep parameter fails at construction, not after minutes of
filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

from .errors import ConfigurationError

# ---------------------------------------------------------------------------
# Paper constants (Section V)
# ---------------------------------------------------------------------------

#: Epoch length in seconds (Section II-A: "fairly coarse-grained, e.g., a second").
EPOCH_LENGTH_S = 1.0

#: Robot speed in feet per epoch (Section V-A: "travels about 0.1 foot").
ROBOT_SPEED_FT_PER_EPOCH = 0.1

#: Default motion noise std-dev per axis (Section V-A: sigma_m = .01).
MOTION_SIGMA_FT = 0.01

#: Default location-sensing noise std-dev per axis (Section V-A: sigma_s = .01).
SENSING_SIGMA_FT = 0.01

#: Major detection range open angle, radians (Section V-A: 30 degrees).
MAJOR_OPEN_ANGLE_RAD = math.radians(30.0)

#: Additional minor detection range angle, radians (Section V-A: 15 degrees).
MINOR_EXTRA_ANGLE_RAD = math.radians(15.0)

#: Particles per object for the factored filter (Section V-B: 1000).
PARTICLES_PER_OBJECT = 1000

#: Particles used after decompression (Section V-D: "only 10").
PARTICLES_AFTER_DECOMPRESSION = 10

#: Accuracy requirement used in the scalability tests (Section V-D: .5 foot).
ACCURACY_REQUIREMENT_FT = 0.5

#: Output delay: event emitted this long after an object enters scope
#: (Section V-A: "60 seconds after an object came into the scope").
OUTPUT_DELAY_S = 60.0

#: Lab tag spacing (Section V-C: "spaced four inches apart").
LAB_TAG_SPACING_FT = 4.0 / 12.0

#: The small / large "imagined shelf" x-depths from Fig 6(b).
SMALL_SHELF_DEPTH_FT = 0.66
LARGE_SHELF_DEPTH_FT = 2.6
SHELF_LENGTH_FT = 4.0


# ---------------------------------------------------------------------------
# Inference configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionConfig:
    """Belief-compression policy (Section IV-D).

    ``unread_epochs`` triggers compression once a tag has gone unread that
    many epochs (the "object left the read range" policy used in the paper's
    scalability tests).  ``kl_threshold``, when set, switches to the
    rank-by-KL policy: an object is compressed only if the weighted mean
    squared deviation from its mean (the paper's KL surrogate, in sq ft) is
    below the threshold.
    """

    enabled: bool = False
    unread_epochs: int = 10
    kl_threshold: Optional[float] = None
    decompressed_particles: int = PARTICLES_AFTER_DECOMPRESSION
    min_particles_to_compress: int = 4

    def __post_init__(self) -> None:
        if self.unread_epochs < 1:
            raise ConfigurationError("unread_epochs must be >= 1")
        if self.decompressed_particles < 2:
            raise ConfigurationError("decompressed_particles must be >= 2")
        if self.kl_threshold is not None and self.kl_threshold <= 0:
            raise ConfigurationError("kl_threshold must be positive")


@dataclass(frozen=True)
class BudgetConfig:
    """Adaptive per-object particle budgets (ROADMAP item 4).

    In steady state most warehouse tags sit unread on a shelf; spending the
    full particle budget on them every epoch buys nothing.  When enabled,
    the budget controller in :class:`~repro.inference.FactoredParticleFilter`
    moves each object through a ladder of compute tiers driven by read
    recency, effective sample size, and compression error:

    ``full -> parked(tier k) -> parked(tier k-1) -> ... -> GaussianBelief``

    An object *parks* once it has gone unread ``decay_after_epochs`` epochs
    and its belief has settled (compression error at or below
    ``settle_error_sq_ft``): its particle set is downsampled to an
    intermediate tier chosen by ESS, and it stops being propagated/weighted
    (skip-propagation).  Every ``decay_every_epochs`` further unread epochs
    it steps down one tier; below the lowest tier it is compressed to a
    moment-matched Gaussian, freeing its arena block.  Any read revives the
    object to the full particle budget immediately.  Unsettled objects
    (high compression error) never park by the error criterion — they keep
    the full budget and keep receiving negative evidence — unless
    ``force_park_after_epochs`` is set, which reinstates the paper's pure
    unread-threshold policy (Section V-D) as a backstop: any object unread
    that long parks regardless of error, so a population with stubbornly
    diffuse beliefs still converges to a bounded active set.

    With ``enabled=False`` (the default) the engine's behaviour — including
    its RNG stream — is bitwise identical to the non-adaptive filter.
    """

    enabled: bool = False
    #: Intermediate particle tiers, ascending.  Parking picks the smallest
    #: tier that preserves the belief's ESS (capped at the largest tier);
    #: decay then steps down through the remaining tiers.
    tiers: Tuple[int, ...] = (25, 50)
    #: Unread epochs before a settled object parks (leaves the kernels).
    decay_after_epochs: int = 8
    #: Additional unread epochs between further tier steps / compression.
    decay_every_epochs: int = 4
    #: A belief is *settled* when its compression error (weighted mean
    #: squared deviation from the mean, sq ft) is at or below this.
    settle_error_sq_ft: float = 0.25
    #: When set, an object unread this many epochs parks even if its error
    #: never settles (the paper's unread-threshold compression policy).
    force_park_after_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(int(t) for t in self.tiers))
        if not self.tiers:
            raise ConfigurationError("tiers must be non-empty")
        if any(t < 2 for t in self.tiers):
            raise ConfigurationError("every tier must be >= 2 particles")
        if list(self.tiers) != sorted(set(self.tiers)):
            raise ConfigurationError("tiers must be strictly ascending")
        if self.decay_after_epochs < 1:
            raise ConfigurationError("decay_after_epochs must be >= 1")
        if self.decay_every_epochs < 1:
            raise ConfigurationError("decay_every_epochs must be >= 1")
        if self.settle_error_sq_ft <= 0:
            raise ConfigurationError("settle_error_sq_ft must be positive")
        if (
            self.force_park_after_epochs is not None
            and self.force_park_after_epochs < self.decay_after_epochs
        ):
            raise ConfigurationError(
                "force_park_after_epochs must be >= decay_after_epochs"
            )


def _check_choices(config) -> None:
    """Enforce every field declared with ``metadata={"choices": ...}`` (the
    same metadata the CLI reads its ``choices=`` from)."""
    for spec in fields(config):
        choices = spec.metadata.get("choices")
        if choices is not None and getattr(config, spec.name) not in choices:
            raise ConfigurationError(
                f"unknown {spec.name} {getattr(config, spec.name)!r}; "
                f"expected one of {choices}"
            )


#: Floating dtypes accepted by :class:`ArenaConfig`.
ARENA_DTYPES: Tuple[str, ...] = ("float64", "float32")


@dataclass(frozen=True)
class ArenaConfig:
    """Sizing policy of the contiguous belief arena (``inference.arena``).

    All uncompressed object particles live in one structure-of-arrays slab;
    these knobs control how the slab grows and when freed holes (left behind
    by compression or re-allocation) are squeezed out.
    """

    #: Rows (particles) allocated up front.  One row is one object particle;
    #: the default fits ~8 objects at the paper's 1000 particles each before
    #: the first growth.
    initial_capacity: int = 8192
    #: Capacity multiplier applied when an allocation does not fit.
    growth_factor: float = 2.0
    #: Compact (squeeze holes out of) the slab once freed rows exceed this
    #: fraction of the occupied prefix.
    compaction_threshold: float = 0.25
    #: Storage dtype of particle positions and log-weights.  ``"float32"``
    #: halves the slab's memory footprint and bandwidth; likelihood and
    #: normalization arithmetic still runs in float64, so only the stored
    #: representation is rounded.
    dtype: str = field(default="float64", metadata={"choices": ARENA_DTYPES})

    def __post_init__(self) -> None:
        if self.initial_capacity < 1:
            raise ConfigurationError("initial_capacity must be >= 1")
        _check_choices(self)
        if self.growth_factor <= 1.0:
            raise ConfigurationError("growth_factor must be > 1")
        if not (0.0 < self.compaction_threshold <= 1.0):
            raise ConfigurationError("compaction_threshold must be in (0, 1]")


@dataclass(frozen=True)
class SpatialIndexConfig:
    """Spatial-index behaviour (Section IV-C)."""

    enabled: bool = False
    max_regions: Optional[int] = 4096
    #: Extra padding added to sensing-region bounding boxes so that objects
    #: just outside the nominal range still count as Case 2 (the sensor model
    #: keeps a small read probability there).
    box_padding_ft: float = 0.25
    #: A new region is inserted only after the reader has moved this far
    #: from the last recorded region's center; interim epochs attach their
    #: objects to the last region instead.  Consecutive epochs differ by an
    #: epoch's travel (~0.1 ft), so per-epoch inserts would bloat the index
    #: with near-duplicate boxes; the padding absorbs the quantization.
    record_spacing_ft: float = 0.5

    def __post_init__(self) -> None:
        if self.box_padding_ft < 0:
            raise ConfigurationError("box_padding_ft must be >= 0")
        if self.record_spacing_ft < 0:
            raise ConfigurationError("record_spacing_ft must be >= 0")


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs of the factored particle filter (Section IV).

    The defaults reproduce the paper's configuration for the accuracy
    experiments: 1000 particles per object, factored representation, no
    spatial index, no compression.  The scalability variants are built with
    :meth:`with_index` / :meth:`with_compression`.
    """

    reader_particles: int = 200
    object_particles: int = PARTICLES_PER_OBJECT
    #: Resample a particle set when its effective sample size falls below
    #: this fraction of the particle count.
    ess_threshold: float = 0.5
    #: Feed object-particle likelihoods back into reader resampling
    #: (Section IV-B "instrument resampling to favor reader particles that
    #: are associated with good object particles").
    reader_feedback: bool = True
    #: Use consecutive reported-position deltas as the motion proposal's
    #: control input (odometry), instead of the model's constant average
    #: velocity.  Constant *systematic* location error cancels in deltas, so
    #: this is compatible with the paper's biased-sensing experiments; it is
    #: what makes turn-around scans (the lab robot) trackable.  Disable to
    #: get the paper's pure constant-velocity proposal.
    use_odometry_control: bool = True
    #: Distance (ft) beyond which negative evidence ("tag not read") is not
    #: evaluated; the paper rounds the tiny read probability to zero
    #: (Section IV-C Case 4).
    negative_evidence_range_ft: float = 6.0
    #: Initialization cone: half-angle and range are overestimates of the
    #: true sensing region (Section IV-A).
    init_cone_half_angle_rad: float = MAJOR_OPEN_ANGLE_RAD / 2 + MINOR_EXTRA_ANGLE_RAD
    init_cone_range_ft: float = 4.0
    #: Re-detection thresholds (Section IV-A), measured between the current
    #: reader position and the object's belief mean: within ``reinit_near_ft``
    #: (an overestimate of the read range — an ordinary in-range read) the
    #: existing particles are kept; between the two, half are moved; above
    #: ``reinit_far_ft`` all particles are recreated at the new location.
    reinit_near_ft: float = 4.5
    reinit_far_ft: float = 9.0
    #: Surprise trigger: a read whose probability under the current belief
    #: (belief mean scored at the current reader pose) falls below this value
    #: is inconsistent with the belief — the object likely moved — and forces
    #: a SPLIT even inside the KEEP zone.
    surprise_read_threshold: float = 0.005
    #: Minimum epochs between SPLITs of the same object, so that occasional
    #: low-probability fringe reads cannot repeatedly re-seed particles near
    #: the reader and make the belief "walk" with it.
    split_cooldown_epochs: int = 12
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    spatial_index: SpatialIndexConfig = field(default_factory=SpatialIndexConfig)
    arena: ArenaConfig = field(default_factory=ArenaConfig)
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.reader_particles < 1:
            raise ConfigurationError("reader_particles must be >= 1")
        if self.object_particles < 2:
            raise ConfigurationError("object_particles must be >= 2")
        if not (0.0 < self.ess_threshold <= 1.0):
            raise ConfigurationError("ess_threshold must be in (0, 1]")
        if self.negative_evidence_range_ft <= 0:
            raise ConfigurationError("negative_evidence_range_ft must be positive")
        if self.reinit_near_ft < 0 or self.reinit_far_ft <= self.reinit_near_ft:
            raise ConfigurationError(
                "need 0 <= reinit_near_ft < reinit_far_ft, got "
                f"{self.reinit_near_ft}, {self.reinit_far_ft}"
            )
        if not (0.0 < self.surprise_read_threshold < 1.0):
            raise ConfigurationError("surprise_read_threshold must be in (0, 1)")
        if self.split_cooldown_epochs < 0:
            raise ConfigurationError("split_cooldown_epochs must be >= 0")
        if not (0 < self.init_cone_half_angle_rad <= math.pi):
            raise ConfigurationError("init_cone_half_angle_rad out of range")
        if self.init_cone_range_ft <= 0:
            raise ConfigurationError("init_cone_range_ft must be positive")
        if self.budget.enabled and self.budget.tiers[-1] >= self.object_particles:
            raise ConfigurationError(
                "budget tiers must stay below object_particles "
                f"({self.budget.tiers[-1]} >= {self.object_particles})"
            )

    # Convenience builders for the paper's four engine variants -----------
    def with_index(self, **kwargs) -> "InferenceConfig":
        """Return a copy with the spatial index enabled."""
        return replace(self, spatial_index=SpatialIndexConfig(enabled=True, **kwargs))

    def with_compression(self, **kwargs) -> "InferenceConfig":
        """Return a copy with belief compression enabled."""
        return replace(self, compression=CompressionConfig(enabled=True, **kwargs))

    def with_budget(self, **kwargs) -> "InferenceConfig":
        """Return a copy with adaptive particle budgets enabled."""
        return replace(self, budget=BudgetConfig(enabled=True, **kwargs))


def inference_config_from_dict(data: dict) -> InferenceConfig:
    """Inverse of ``dataclasses.asdict``; raises ``KeyError``/``TypeError``
    on a malformed payload (checkpoint headers and worker boot documents
    both come from outside the program and report either as their own
    typed error)."""
    data = dict(data)
    data["compression"] = CompressionConfig(**data["compression"])
    data["spatial_index"] = SpatialIndexConfig(**data["spatial_index"])
    data["arena"] = ArenaConfig(**data["arena"])
    data["budget"] = BudgetConfig(**data["budget"])
    return InferenceConfig(**data)


#: Executor names accepted by :class:`RuntimeConfig`.  ``"remote"`` runs
#: each shard on a ``repro shard-host`` worker pool over TCP
#: (``repro.runtime.transport``); it needs :attr:`RuntimeConfig.shard_hosts`.
EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "process", "remote")

#: Checkpoint modes accepted by :class:`RuntimeConfig`: every periodic
#: checkpoint is a full snapshot, or a differential one chained to the last
#: full rebase (``repro.state``).
CHECKPOINT_MODES: Tuple[str, ...] = ("full", "delta")


@dataclass(frozen=True)
class SupervisorConfig:
    """Self-healing policy for process-executor shard workers.

    Attached to :class:`RuntimeConfig.supervisor`, this enables the shard
    supervisor (``repro.runtime.supervisor``): a worker that dies or hangs
    mid-protocol is killed, respawned, restored from the last checkpoint
    (or re-seeded from scratch when none exists yet), and caught up by
    replaying the epoch journal — instead of aborting the whole run.
    ``None`` (the default) keeps the PR 4 crash-*containment* semantics:
    a dead worker fails the run loudly with :class:`~repro.errors.WorkerError`.
    """

    #: Restarts allowed *per shard* before the supervisor gives up and
    #: aborts the run (escalation raises the original WorkerError).
    max_restarts: int = 3
    #: First backoff sleep before a respawn; doubles per consecutive
    #: restart of the same shard, capped at ``backoff_cap_s``.
    backoff_base_s: float = 0.05
    #: Ceiling for the exponential backoff between restarts.
    backoff_cap_s: float = 2.0
    #: Deadline for a single worker link op (send→reply).  A worker whose
    #: heartbeats still flow but whose reply misses this deadline is
    #: declared hung (:class:`~repro.errors.WorkerTimeout`) and recycled.
    op_timeout_s: float = 30.0
    #: Epochs the supervisor will journal between checkpoints before
    #: declaring recovery impossible (unbounded journals would hide a
    #: misconfigured checkpoint cadence).
    max_journal_epochs: int = 100_000
    #: Cadence of worker heartbeat frames (and the parent's poll slice).
    heartbeat_interval_s: float = 0.25
    #: No frame of any kind (reply or heartbeat) for this long ⇒ the worker
    #: is unreachable and declared dead.  Raise on slow hosts or WAN links
    #: so a live-but-laggy remote shard is not false-positived as dead.
    heartbeat_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigurationError("backoff_base_s must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError("backoff_cap_s must be >= backoff_base_s")
        if self.op_timeout_s <= 0:
            raise ConfigurationError("op_timeout_s must be positive")
        if self.max_journal_epochs < 1:
            raise ConfigurationError("max_journal_epochs must be >= 1")
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be positive")
        if self.heartbeat_grace_s <= self.heartbeat_interval_s:
            raise ConfigurationError(
                "heartbeat_grace_s must exceed heartbeat_interval_s "
                "(a grace shorter than one heartbeat declares every "
                "worker dead)"
            )


@dataclass(frozen=True)
class RuntimeConfig:
    """The sharded streaming runtime (``repro.runtime``).

    A :class:`~repro.runtime.ShardedRuntime` hash-partitions the object-tag
    population across ``n_shards`` independent filter shards (each its own
    particle filter + arena + cleaning pipeline, seeded deterministically
    from the inference config's root seed) and merges their cleaned events
    in timestamp order onto an event bus.
    """

    n_shards: int = 1
    #: How shards advance within one epoch: ``"serial"`` steps them in order
    #: in the calling thread; ``"process"`` steps them on persistent worker
    #: processes (``repro.runtime.workers``) — routed reads and emitted
    #: events cross a socketpair, belief arenas live in per-worker shared
    #: memory, and the GIL stops being the scaling limit; ``"remote"`` runs
    #: the same workers on ``shard_hosts`` over TCP.
    #: Output is identical across executors at equal shard counts — shards
    #: share no mutable state and the merge is deterministic.
    executor: str = field(default="serial", metadata={"choices": EXECUTOR_NAMES})
    #: Take a coordinated checkpoint of every shard (``repro.state``) once
    #: at least this much *stream time* has elapsed since the previous one,
    #: measured on epoch timestamps; ``ShardedRuntime.checkpoint_if_due()``
    #: writes it after that epoch's ``step()`` (``repro serve``: after its
    #: lines are flushed and delivered).  ``None`` disables periodic ones.
    checkpoint_every_s: Optional[float] = None
    #: Directory that periodic checkpoints are written into (one file per
    #: checkpoint, ``epoch_<n>``, plus a ``LATEST`` pointer file).
    #: Required when ``checkpoint_every_s`` is set.
    checkpoint_dir: Optional[str] = None
    #: Periodic checkpoints retained before the oldest is deleted (chain
    #: dependencies — the full base a retained delta needs — are always
    #: retained on top of this count).
    checkpoint_keep: int = 2
    #: Periodic-checkpoint persistence mode: ``"full"`` writes a complete
    #: snapshot every time; ``"delta"`` writes only the object blocks dirtied
    #: since the previous checkpoint, chained to the last full rebase —
    #: much cheaper in bytes and latency when few tags moved.
    checkpoint_mode: str = field(default="full", metadata={"choices": CHECKPOINT_MODES})
    #: In delta mode, rebase with a full checkpoint every Nth periodic
    #: checkpoint (1 = every checkpoint is full).  Bounds restore time
    #: (base + at most N-1 delta replays) and lets rotation reclaim space.
    checkpoint_full_every: int = 8
    #: Self-healing policy for the process executor: when set, a dead or
    #: hung shard worker is respawned, restored from the last checkpoint,
    #: and caught up by replaying the journaled epoch suffix — the run
    #: continues with byte-identical output.  ``None`` keeps loud
    #: crash-containment (the run aborts with a typed error).
    supervisor: Optional[SupervisorConfig] = None
    #: ``"host:port"`` endpoints of running ``repro shard-host`` pools for
    #: the ``"remote"`` executor; shard ``i`` connects to
    #: ``shard_hosts[i % len(shard_hosts)]``.  Required for (and only
    #: meaningful with) ``executor="remote"``.
    shard_hosts: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if self.checkpoint_every_s is not None and self.checkpoint_every_s <= 0:
            raise ConfigurationError("checkpoint_every_s must be positive")
        if self.checkpoint_every_s is not None and self.checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every_s requires checkpoint_dir"
            )
        if self.checkpoint_keep < 1:
            raise ConfigurationError("checkpoint_keep must be >= 1")
        _check_choices(self)
        if self.checkpoint_full_every < 1:
            raise ConfigurationError("checkpoint_full_every must be >= 1")
        if self.supervisor is not None and not isinstance(
            self.supervisor, SupervisorConfig
        ):
            raise ConfigurationError(
                "supervisor must be a SupervisorConfig (or None to disable)"
            )
        if self.executor == "remote":
            if not self.shard_hosts:
                raise ConfigurationError(
                    "executor='remote' requires shard_hosts "
                    "(host:port of running `repro shard-host` pools)"
                )
            for endpoint in self.shard_hosts:
                host, sep, port = str(endpoint).rpartition(":")
                if not sep or not host:
                    raise ConfigurationError(
                        f"shard host {endpoint!r} is not host:port"
                    )
                try:
                    port_num = int(port)
                except ValueError:
                    port_num = -1
                if not (1 <= port_num <= 65535):
                    raise ConfigurationError(
                        f"shard host {endpoint!r} has an invalid port"
                    )
        elif self.shard_hosts:
            raise ConfigurationError(
                "shard_hosts is only meaningful with executor='remote'"
            )


@dataclass(frozen=True)
class ServeConfig:
    """The online ingest service (``repro.serve``).

    A :class:`~repro.serve.ReproService` accepts live reading/report streams
    from many concurrent socket clients, aligns them into epochs behind a
    low watermark, and drives a :class:`~repro.runtime.ShardedRuntime` while
    delivering query emissions exactly once.  These knobs bound its memory
    (credit-based flow control over per-source queues) and tune delivery.
    """

    #: Epoch width fed to the service's :class:`EpochSynchronizer`.
    epoch_length: float = EPOCH_LENGTH_S
    #: Concurrent sources admitted; further HELLOs are rejected with an
    #: ERROR frame (admission control).
    max_sources: int = 64
    #: Frames one source may have buffered server-side (its credit window).
    #: A client that sends beyond its granted credit is disconnected.
    queue_capacity: int = 1024
    #: Replenish a source's credit only once at least this many of its
    #: frames were consumed into epochs (batches CREDIT frames).
    credit_batch: int = 64
    #: Total buffered frames (all sources) beyond which every source is
    #: PAUSEd even with per-source credit left...
    pause_high_water: int = 8192
    #: ...and below which RESUME frames go out again.
    pause_low_water: int = 2048
    #: Largest frame accepted on the wire.
    max_frame_bytes: int = 1 << 20
    #: Also fsync the emission log on every flush (kill -9 safety needs
    #: only flush-to-OS; fsync extends it to power loss at a latency cost).
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.epoch_length <= 0:
            raise ConfigurationError("epoch_length must be positive")
        if self.max_sources < 1:
            raise ConfigurationError("max_sources must be >= 1")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        if not (1 <= self.credit_batch <= self.queue_capacity):
            raise ConfigurationError(
                "credit_batch must be in [1, queue_capacity]"
            )
        if self.pause_low_water < 1 or self.pause_high_water <= self.pause_low_water:
            raise ConfigurationError(
                "need 1 <= pause_low_water < pause_high_water"
            )
        if self.max_frame_bytes < 64:
            raise ConfigurationError("max_frame_bytes must be >= 64")


@dataclass(frozen=True)
class OutputPolicyConfig:
    """When the pipeline emits location events (Section II-A / V-A).

    ``delay_s`` implements the paper's "within x seconds after an object was
    read" policy (default 60 s, Section V-A).  ``on_scan_complete`` also
    emits for every in-scope object when the trace ends (completion of a
    full area scan).
    """

    delay_s: float = OUTPUT_DELAY_S
    on_scan_complete: bool = True
    #: Also emit an event whenever the estimate moves by more than this
    #: distance since the last emission (None disables).
    movement_threshold_ft: Optional[float] = None
    #: Drop per-object visit bookkeeping once an object has been unread this
    #: long *and* its pending event was emitted.  Bounds the pipeline's
    #: memory on unbounded streams; a pruned object re-enters as a fresh
    #: visit on its next read.  ``None`` retains visit state forever.
    #: Ignored while ``movement_threshold_ft`` is set: movement re-emission
    #: keeps emitted visits live indefinitely, so pruning would silently
    #: cancel their future movement events.
    visit_retention_s: Optional[float] = 900.0

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be >= 0")
        if self.movement_threshold_ft is not None and self.movement_threshold_ft <= 0:
            raise ConfigurationError("movement_threshold_ft must be positive")
        if self.visit_retention_s is not None and self.visit_retention_s <= 0:
            raise ConfigurationError("visit_retention_s must be positive")
