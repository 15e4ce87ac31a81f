"""The factored particle filter (Section IV-B), with optional spatial
indexing (Section IV-C) and belief compression (Section IV-D).

Data structures follow Fig. 3 of the paper:

* a list of **reader particles** — reader pose hypotheses with weights;
* per object, a block of **object particles**, each holding a location
  hypothesis, a *pointer to a reader particle* (the ``parents`` array), and
  a weight;
* an index from tag id to the object's particles (the ``_beliefs`` dict of
  :class:`ObjectBelief` handles).

Factored weight semantics (Eq. 5): the implicit unfactored particle weight is
the reader weight times the product of per-object weights; the filter only
ever manipulates the factors, in log space.

**Storage and batching.**  All uncompressed particle blocks live in one
contiguous :class:`~repro.inference.arena.BeliefArena` (structure-of-arrays:
positions, parents, log weights), and the per-epoch update makes no
sensor-model call per tag.  What is batched:

* the *object kernels*, over the whole active set at once — one fused
  :meth:`~repro.models.objects.ObjectLocationModel.propagate_many` call, one
  fused :meth:`~repro.models.joint.RFIDWorldModel.object_evidence_log_likelihood`
  call with per-row read flags, and per-object (per-segment) weight
  normalization / ESS / feedback reductions via ``np.add.reduceat``;
* the *shelf-tag evidence* — one reader-particles-by-tags kernel
  (:meth:`~repro.models.joint.RFIDWorldModel.reader_evidence_log_likelihood`)
  with per-column read flags;
* the *re-detection decisions* of every read object — one segmented
  weighted mean over their arena blocks and one
  :meth:`~repro.models.sensor.SensorModel.read_probability_at` call; only
  ids read far from their belief, or as a surprise, are classified per id.

The reader's heading trig and normalized weights are computed once per
epoch and shared by both evidence kernels, the pose estimate and the
reader-ESS test.  What remains per object: re-initialization (create /
SPLIT / RESET / decompress / revive each draw that object's particles),
the resampling of segments whose ESS collapsed, and a compression-pass
scan on the epochs some object can have come due.  Read objects are
visited in tag-number order, so neither the RNG stream nor the output
depends on the iteration order of the epoch's tag set (``PYTHONHASHSEED``).
Semantics match the seed's per-object loops up to floating-point summation
order and random-number consumption order.

The resampling step is the paper's one omitted detail (deferred to a
now-unavailable tech report); this is the reconstruction implemented here:

* object particles resample per-object on low ESS, preserving parent
  pointers;
* reader particles resample on low ESS with *feedback-augmented* weights —
  each active object contributes the mean per-reader likelihood of its
  attached particles, favouring "reader particles that are associated with
  good object particles";
* after a reader resample, parent pointers are remapped through the ancestor
  map; pointers to dropped readers are re-pointed to a random surviving
  reader (post-resampling readers are i.i.d. posterior draws, so this is
  distributionally consistent).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..config import InferenceConfig
from ..errors import InferenceError, StateError
from ..geometry.cone import Cone
from ..models.joint import RFIDWorldModel
from ..models.priors import ReinitDecision, SensorBasedInitializer, classify_redetection
from ..streams.records import Epoch
from .arena import BeliefArena
from .base import (
    normalize_log_weights,
    resample_log_weights,
    segmented_ess,
    segmented_normalize,
    systematic_resample,
)
from .compression import (
    CompressionCandidate,
    GaussianBelief,
    park_tier,
    segmented_compression_errors,
    select_for_compression,
    settles,
    step_down_tier,
)
from .estimates import LocationEstimate
from .spatial import ActiveSetSelector

#: Bytes accounted per compressed Gaussian: 9 floats (symmetric covariance)
#: plus 3 for the mean (the Section V-D bookkeeping).
_GAUSSIAN_BYTES = (9 + 3) * 8


class ObjectBelief:
    """Belief handle for one object: arena-backed particle block or
    compressed Gaussian.

    ``particles`` / ``parents`` / ``log_weights`` are zero-copy views into
    the shared :class:`~repro.inference.arena.BeliefArena` (``None`` while
    compressed); they are re-fetched on every access, so handles stay valid
    across arena growth and compaction.
    """

    __slots__ = (
        "_arena",
        "number",
        "gaussian",
        "created_epoch",
        "last_read_epoch",
        "last_read_anchor",
        "last_split_epoch",
        "settled",
        "budget_epoch",
    )

    def __init__(
        self,
        arena: BeliefArena,
        number: int,
        created_epoch: int,
        last_read_epoch: int,
        last_read_anchor: np.ndarray,
    ):
        self._arena = arena
        self.number = number
        self.gaussian: Optional[GaussianBelief] = None
        self.created_epoch = created_epoch
        self.last_read_epoch = last_read_epoch
        self.last_read_anchor = last_read_anchor
        self.last_split_epoch = -(10**9)  # last SPLIT/RESET (cooldown bookkeeping)
        #: Adaptive-budget state (``BudgetConfig``): a settled belief has
        #: parked — its compression error passed the settle threshold and it
        #: is excluded from the per-epoch kernels until its next read.
        self.settled = False
        #: Epoch of the last budget-ladder transition (park, tier step, or
        #: revive); the decay scheduler rebuilds its timetable from this.
        self.budget_epoch = 0

    @property
    def compressed(self) -> bool:
        return self.gaussian is not None

    @property
    def particles(self) -> Optional[np.ndarray]:
        """(K, 3) view into the arena, None when compressed."""
        if self.gaussian is not None:
            return None
        return self._arena.positions(self.number)

    @property
    def parents(self) -> Optional[np.ndarray]:
        """(K,) int32 view of pointers into reader particles."""
        if self.gaussian is not None:
            return None
        return self._arena.parents(self.number)

    @property
    def log_weights(self) -> Optional[np.ndarray]:
        """(K,) view of per-particle log weight factors."""
        if self.gaussian is not None:
            return None
        return self._arena.log_weights(self.number)

    @property
    def particle_count(self) -> int:
        return 0 if self.gaussian is not None else self._arena.count(self.number)

    def estimate(self) -> LocationEstimate:
        if self.gaussian is not None:
            return self.gaussian.estimate()
        # Robust: ignores the thin uniform-over-shelves mixture component
        # that the object movement model injects into unobserved beliefs.
        return LocationEstimate.robust_from_particles(
            self.particles, self.log_weights
        )


def _segmented_reader_feedback(
    parents: np.ndarray,
    inc: np.ndarray,
    seg_starts: np.ndarray,
    lengths: np.ndarray,
    seg_weighted: np.ndarray | slice,
    n_readers: int,
) -> np.ndarray:
    """Sum over objects of the log mean-likelihood per reader.

    Per object (segment), readers with attached particles get the mean
    likelihood of those particles; readers with none get the object's
    overall mean (neutral — absence of pointers neither punishes nor
    rewards).  Segments with ``seg_weighted`` False (freshly created or
    reinitialized this epoch) contribute nothing; ``slice(None)`` keeps all.
    One ``bincount`` pass over (segment, reader) keys replaces the seed's loop.
    """
    lik = np.maximum(inc, -60.0)
    np.exp(np.minimum(lik, 0.0, out=lik), out=lik)
    n_seg = lengths.size
    bins = n_seg * n_readers
    keys = np.arange(0, bins, n_readers, dtype=np.int64).repeat(lengths)
    keys += parents
    sums = np.bincount(keys, weights=lik, minlength=bins).reshape(n_seg, n_readers)
    counts = np.bincount(keys, minlength=bins).reshape(n_seg, n_readers)
    overall = np.add.reduceat(lik, seg_starts) / lengths
    means = np.where(counts > 0, sums / np.maximum(counts, 1), overall[:, None])
    log_means = np.log(np.maximum(means, 1e-300, out=means), out=means)
    return np.add.reduce(log_means[seg_weighted], axis=0)


class FactoredParticleFilter:
    """Streaming inference engine over synchronized epochs.

    Parameters
    ----------
    model:
        The joint probabilistic model to invert.
    config:
        Particle counts, resampling thresholds, index/compression/arena
        policies.
    initial_position / initial_heading:
        Prior reader pose.  ``initial_position=None`` defers to the first
        epoch's reported position (the usual case).
    """

    def __init__(
        self,
        model: RFIDWorldModel,
        config: InferenceConfig = InferenceConfig(),
        initial_position=None,
        initial_heading: float = 0.0,
        heading_spread: float = 0.05,
        position_spread: float = 0.1,
    ):
        self.model = model
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._initial_position = (
            None if initial_position is None else np.asarray(initial_position, dtype=float)
        )
        self._initial_heading = float(initial_heading)
        self._heading_spread = float(heading_spread)
        self._position_spread = float(position_spread)

        self._reader_positions: Optional[np.ndarray] = None  # (J, 3)
        self._reader_headings: Optional[np.ndarray] = None  # (J,)
        self._reader_log_w: Optional[np.ndarray] = None  # (J,)
        self._last_reported: Optional[np.ndarray] = None  # odometry anchor
        self._last_reported_epoch: int = -(10**9)

        self.arena = BeliefArena(config.arena)
        self._beliefs: Dict[int, ObjectBelief] = {}
        self._known_cache: Optional[List[int]] = None
        self._active_count = 0
        #: Differential-checkpoint bookkeeping: objects whose belief
        #: *metadata* (read/split epochs, anchor, compression state) changed
        #: since the last snapshot capture.
        self._dirty_beliefs: Set[int] = set()
        self._selector = ActiveSetSelector(config.spatial_index)
        self._initializer = SensorBasedInitializer(config, model.shelves)
        # The Case-2 sensing region (Section IV-C) is sized to where the
        # sensor's read probability is non-negligible — NOT the (wider)
        # initialization cone: an oversized region makes past regions chain
        # into the current one and defeats the active-set restriction.
        self._sensing_range = max(
            0.5,
            min(
                config.init_cone_range_ft,
                model.sensor.effective_range(0.02) * 1.15,
            ),
        )
        self._epoch_index = -1
        #: First epoch at which a compression-pass scan can find a candidate.
        self._compression_due = 0
        #: ``_engaged`` are uncompressed, un-parked objects — the set the
        #: per-epoch kernels run over in every mode.  Adaptive-budget
        #: bookkeeping (empty unless ``config.budget.enabled``): ``_parked``
        #: are settled objects whose particle blocks are frozen at an
        #: intermediate tier awaiting decay or revival.  Every belief is in
        #: exactly one of engaged / parked / compressed.  The decay timetable
        #: is a lazy-deletion heap of ``(due_epoch, object)`` entries
        #: validated against ``_decay_due``.
        self._engaged: Set[int] = set()
        self._parked: Set[int] = set()
        self._engaged_order: Optional[List[int]] = None
        self._decay_heap: List[Tuple[int, int]] = []
        self._decay_due: Dict[int, int] = {}
        #: Diagnostics: counters the benchmarks and tests read.
        self.stats: Dict[str, int] = self._default_stats()

    @staticmethod
    def _default_stats() -> Dict[str, int]:
        return {
            "epochs": 0,
            "reader_resamples": 0,
            "object_resamples": 0,
            "compressions": 0,
            "decompressions": 0,
            "objects_processed": 0,
            "objects_skipped": 0,
            "objects_skipped_settled": 0,
            "budget_decays": 0,
            "budget_revives": 0,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch_index(self) -> int:
        return self._epoch_index

    @property
    def active_count(self) -> int:
        """Objects processed in the most recent epoch (O(1) — no re-scan)."""
        return self._active_count

    def known_objects(self) -> List[int]:
        """Sorted ids of every object seen so far.  The sorted list is
        cached (objects are only ever added), so repeated per-epoch calls
        don't re-sort."""
        if self._known_cache is None:
            self._known_cache = sorted(self._beliefs)
        return list(self._known_cache)

    def belief(self, object_number: int) -> ObjectBelief:
        try:
            return self._beliefs[object_number]
        except KeyError:
            raise InferenceError(f"no belief for object {object_number}") from None

    def object_estimate(self, object_number: int) -> LocationEstimate:
        return self.belief(object_number).estimate()

    def reader_estimate(self) -> Tuple[np.ndarray, float]:
        """Posterior mean reader position and circular-mean heading."""
        if self._reader_positions is None:
            raise InferenceError("filter has not processed any epoch yet")
        assert self._reader_log_w is not None and self._reader_headings is not None
        p, _ = normalize_log_weights(self._reader_log_w)
        return self._reader_pose(
            p, np.cos(self._reader_headings), np.sin(self._reader_headings)
        )

    def _reader_pose(
        self, p: np.ndarray, cos_headings: np.ndarray, sin_headings: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Weighted mean position and circular-mean heading from normalized
        reader weights and precomputed heading trig (both shared per epoch)."""
        heading = float(np.arctan2(p @ sin_headings, p @ cos_headings))
        return p @ self._reader_positions, heading

    def belief_memory_bytes(self) -> int:
        """Approximate bytes held by object beliefs (the Section V-D memory
        metric): 8 bytes per float plus 4 per parent pointer for live arena
        rows, 9 floats per compressed Gaussian (mean is 3 more)."""
        compressed = sum(1 for b in self._beliefs.values() if b.compressed)
        return self.arena.memory_bytes() + compressed * _GAUSSIAN_BYTES

    # ------------------------------------------------------------------
    # Main update
    # ------------------------------------------------------------------
    def step(self, epoch: Epoch) -> None:
        """Advance the filter by one synchronized epoch (Section IV-A Step 2)."""
        self._epoch_index += 1
        self.stats["epochs"] += 1
        reported = epoch.position_array

        if self._reader_positions is None:
            self._init_reader(reported, epoch.reported_heading)
        else:
            self._propagate_reader(epoch.reported_heading, reported)
        if reported is not None:
            self._last_reported = reported
            self._last_reported_epoch = self._epoch_index

        # --- reader weighting: p(R̂|R) * prod p(Ŝ|R,S)  (Eq. 5, w_rt) ----
        assert self._reader_positions is not None
        assert self._reader_headings is not None and self._reader_log_w is not None
        # Heading trig and the normalized reader weights are computed once
        # here and shared by both evidence kernels, the pose estimate and the
        # reader-ESS test (the weights do not change in between).
        cos_headings = np.cos(self._reader_headings)
        sin_headings = np.sin(self._reader_headings)
        self._reader_log_w = self._reader_log_w + (
            self.model.reader_evidence_log_likelihood(
                self._reader_positions,
                cos_headings,
                sin_headings,
                reported,
                epoch.shelf_tags,
                negative_evidence_range=self.config.negative_evidence_range_ft,
            )
        )
        self._reader_log_w -= np.maximum.reduce(self._reader_log_w)
        reader_p, _ = normalize_log_weights(self._reader_log_w)

        anchor, heading = self._reader_pose(reader_p, cos_headings, sin_headings)
        current_box = None  # the sensing region only feeds the spatial index
        if self._selector.enabled:
            current_box = self._selector.sensing_box(Cone.from_pose(
                anchor, heading, self.config.init_cone_half_angle_rad, self._sensing_range
            ))

        read_now = {tag.number for tag in epoch.object_tags}
        budget = self.config.budget

        # --- (re)initialize / decompress / revive read objects ------------
        # Three short passes in tag-number order (the epoch's frozenset
        # iterates in a PYTHONHASHSEED-dependent order, which must not reach
        # the RNG stream): (A) give every read object a live full-budget
        # block and stamp the read, (B) one segmented re-detection decision
        # for those that already had one, (C) apply the SPLITs and RESETs.
        skip_weighting: Set[int] = set()
        redetected: List[int] = []
        for number in sorted(read_now):
            belief = self._beliefs.get(number)
            if belief is None:
                self._create_belief(number, anchor, heading)
                skip_weighting.add(number)
                continue
            if belief.compressed:
                self._decompress(number)
            else:
                if budget.enabled and belief.particle_count < self.config.object_particles:
                    self._revive(number)
                redetected.append(number)
            if budget.enabled:
                self._engage(number)
            belief.last_read_epoch = self._epoch_index
            belief.last_read_anchor = anchor.copy()
            self._dirty_beliefs.add(number)
        decisions = self._redetection_decisions(redetected, anchor, heading)
        for number, decision in zip(redetected, decisions):
            if decision is ReinitDecision.KEEP:
                continue
            belief = self._beliefs[number]
            particles = self._initializer.reinitialize(
                belief.particles, decision, anchor, heading, self._rng
            )
            k = particles.shape[0]
            self.arena.set_object(number, particles, self._random_parents(k), np.zeros(k))
            belief.last_split_epoch = self._epoch_index
            skip_weighting.add(number)
            if decision is ReinitDecision.RESET:
                self._selector.forget_object(number)

        # --- active set (Cases 1 and 2) ----------------------------------
        # Selected over the engaged set — uncompressed, un-parked objects —
        # once the read loop has revived whoever it touched: compressed
        # Case-2 candidates and, under adaptive budgets, parked (settled,
        # unread) objects never enter the kernels, so the per-epoch cost
        # tracks the engaged set, not the known population.
        if self._selector.enabled:
            active = self._selector.select(read_now, self._engaged, current_box)
            batch_ids = [n for n in sorted(active) if n in self._engaged]
        else:
            batch_ids = self._engaged_ids()
        self.stats["objects_skipped_settled"] += len(self._parked)

        # --- propagate + weight active objects (Eq. 5, w_ti), batched -----
        # One gather builds a contiguous cross-object batch; every kernel
        # below runs once over all active objects.
        feedback: Optional[np.ndarray] = None
        self._active_count = len(batch_ids)
        self.stats["objects_processed"] += len(batch_ids)
        self.stats["objects_skipped"] += max(0, len(self._beliefs) - len(batch_ids))
        if batch_ids:
            pos, par, lw, rows, seg_starts, lengths = self.arena.gather(batch_ids)
            self.model.objects.propagate_many(pos, self._rng, in_place=True)

            # Fused likelihood: every particle against its own reader
            # hypothesis, per-row read flags expanded from per-segment ones.
            inc = self.model.object_evidence_log_likelihood(
                self._reader_positions,
                cos_headings,
                sin_headings,
                pos,
                par,
                np.array([n in read_now for n in batch_ids]).repeat(lengths),
            )
            seg_weighted = slice(None)
            if skip_weighting:
                # Freshly created / reinitialized objects keep their uniform
                # weights this epoch (the seed's skip_weighting semantics).
                seg_weighted = np.array([n not in skip_weighting for n in batch_ids])
                inc[(~seg_weighted).repeat(lengths)] = 0.0
            lw += inc
            lw -= np.maximum.reduceat(lw, seg_starts).repeat(lengths)

            if self.config.reader_feedback:
                feedback = _segmented_reader_feedback(
                    par, inc, seg_starts, lengths, seg_weighted,
                    self._reader_positions.shape[0],
                )

            # Vectorized per-segment ESS; only collapsed segments resample.
            p, _ = segmented_normalize(lw, seg_starts, lengths)
            ess = 1.0 / np.add.reduceat(np.square(p), seg_starts)
            need = (ess < self.config.ess_threshold * lengths).nonzero()[0]
            for start, k in zip(seg_starts[need].tolist(), lengths[need].tolist()):
                seg = slice(start, start + k)
                chosen = systematic_resample(p[seg], k, self._rng)
                pos[seg] = pos[seg].take(chosen, axis=0)
                par[seg] = par[seg].take(chosen)
                lw[seg] = 0.0
                p[seg] = 1.0 / k
            self.stats["object_resamples"] += need.size

            # --- record the sensing region (Fig 4b) -----------------------
            if current_box is not None:
                inside = current_box.contains_points(pos)
                # Attach by weight mass: stray teleported particles must not
                # pin an object to every region (see ActiveSetSelector).
                mass = np.add.reduceat(p * inside, seg_starts)
                attached = [batch_ids[s] for s in (mass >= 0.005).nonzero()[0].tolist()]
                self._selector.record_region(current_box, attached)

            self.arena.scatter(rows, pos, par, lw)
            self.arena.mark_dirty(batch_ids)
        elif current_box is not None:
            self._selector.record_region(current_box, [])

        # --- reader resampling --------------------------------------------
        self._maybe_resample_reader(reader_p, feedback)

        # --- adaptive budgets / compression policy ------------------------
        # The budget controller subsumes the plain compression pass (its
        # ladder ends at the same Gaussian); only one of the two runs.
        if budget.enabled:
            self._budget_pass()
        elif self.config.compression.enabled:
            self._compression_pass()

    def process_trace(self, epochs: Iterable[Epoch]) -> None:
        for epoch in epochs:
            self.step(epoch)

    # ------------------------------------------------------------------
    # Reader particle helpers
    # ------------------------------------------------------------------
    def _init_reader(
        self, reported: Optional[np.ndarray], reported_heading: Optional[float]
    ) -> None:
        start = reported if reported is not None else self._initial_position
        if start is None:
            raise InferenceError(
                "first epoch has no reported position and no initial_position "
                "was given"
            )
        j = self.config.reader_particles
        spread = self._position_spread
        self._reader_positions = start[None, :] + self._rng.normal(
            0.0, spread, size=(j, 3)
        ) * np.array([1.0, 1.0, 0.0])
        heading = (
            reported_heading if reported_heading is not None else self._initial_heading
        )
        self._reader_headings = heading + self._rng.normal(
            0.0, self._heading_spread, size=j
        )
        self._reader_log_w = np.zeros(j)

    def _propagate_reader(
        self, reported_heading: Optional[float], reported: Optional[np.ndarray]
    ) -> None:
        assert self._reader_positions is not None and self._reader_headings is not None
        velocity_override = None
        if (
            self.config.use_odometry_control
            and reported is not None
            and self._last_reported is not None
            # Only a consecutive report is a per-epoch velocity; a delta that
            # spans a positioning dropout would be applied as one huge step.
            and self._last_reported_epoch == self._epoch_index - 1
        ):
            velocity_override = reported - self._last_reported
        self._reader_positions, self._reader_headings = self.model.motion.propagate(
            self._reader_positions,
            self._reader_headings,
            self._rng,
            velocity_override=velocity_override,
        )
        if reported_heading is not None:
            # Dead-reckoning robots report their commanded orientation; treat
            # it as a control input and propose headings around it.
            j = self._reader_headings.shape[0]
            sigma = max(self.model.motion.params.heading_sigma, self._heading_spread)
            self._reader_headings = reported_heading + self._rng.normal(
                0.0, sigma, size=j
            )

    def _maybe_resample_reader(
        self, reader_p: np.ndarray, feedback: Optional[np.ndarray]
    ) -> None:
        """Resample the reader particles when the ESS of ``reader_p`` (this
        epoch's normalized reader weights) collapsed."""
        assert self._reader_log_w is not None
        j = self._reader_log_w.size
        if 1.0 / np.add.reduce(np.square(reader_p)) >= self.config.ess_threshold * j:
            return
        self.stats["reader_resamples"] += 1
        selection_log_w = self._reader_log_w
        if feedback is not None:
            selection_log_w = selection_log_w + feedback
        chosen = resample_log_weights(selection_log_w, j, self._rng)
        assert self._reader_positions is not None and self._reader_headings is not None
        self._reader_positions = self._reader_positions.take(chosen, axis=0)
        self._reader_headings = self._reader_headings.take(chosen)
        self._reader_log_w = np.zeros(j)
        # Remap parent pointers through the ancestor map.  All copies of a
        # surviving old reader are identical, so pointing at the last copy is
        # exact; dropped parents re-point to a random survivor.
        old_to_new = np.zeros(j, dtype=np.int64) - 1
        old_to_new[chosen] = np.arange(j)
        self.arena.remap_parents(old_to_new, self._rng)

    # ------------------------------------------------------------------
    # Object belief helpers
    # ------------------------------------------------------------------
    def _random_parents(self, k: int) -> np.ndarray:
        assert self._reader_positions is not None
        return self._rng.integers(
            0, self._reader_positions.shape[0], size=k
        ).astype(np.int32)

    def _redetection_decisions(
        self, numbers: List[int], anchor: np.ndarray, heading: float
    ) -> List[ReinitDecision]:
        """Section IV-A re-detection subtlety for every read object at once.

        Two triggers per object:

        * distance between the current reader and the belief mean (could the
          reader plausibly be reading the object where we think it is?), and
        * a *surprise* trigger — the read's probability under the belief is
          near zero, so the object very likely moved even though the reader
          is within the KEEP zone.

        SPLITs are rate-limited by ``split_cooldown_epochs``.  The belief
        means come from one segmented pass over the objects' arena blocks
        (plain weighted means: cheaper than the robust estimate and accurate
        enough for a threshold decision) and the read probabilities from one
        sensor-model call; only the thresholds run per id.
        """
        if not numbers:
            return []
        config = self.config
        pos, lw, seg_starts, lengths = self.arena.read_blocks(numbers)
        # float64 whatever the arena dtype: a threshold decision should not
        # move with the storage precision.
        p, _ = segmented_normalize(np.asarray(lw, dtype=float), seg_starts, lengths)
        means = np.add.reduceat(pos * p[:, None], seg_starts, axis=0)
        moved = np.hypot(anchor[0] - means[:, 0], anchor[1] - means[:, 1])
        p_read = self.model.sensor.read_probability_at(anchor, heading, means)
        # A read within the KEEP distance that is no surprise is a KEEP; only
        # the others go through the per-id thresholds and the cool-down.
        flagged = ~(moved <= config.reinit_near_ft) | (p_read < config.surprise_read_threshold)
        decisions = [ReinitDecision.KEEP] * len(numbers)
        for i in flagged.nonzero()[0].tolist():
            decision = classify_redetection(float(moved[i]), config)
            if (
                decision is ReinitDecision.KEEP
                and p_read[i] < config.surprise_read_threshold
            ):
                decision = ReinitDecision.SPLIT
            if decision is ReinitDecision.SPLIT:
                since_split = self._epoch_index - self._beliefs[numbers[i]].last_split_epoch
                if since_split < config.split_cooldown_epochs:
                    decision = ReinitDecision.KEEP
            decisions[i] = decision
        return decisions

    def _create_belief(self, number: int, anchor: np.ndarray, heading: float) -> None:
        k = self.config.object_particles
        particles = self._initializer.sample(anchor, heading, k, self._rng)
        self.arena.set_object(number, particles, self._random_parents(k), np.zeros(k))
        self._beliefs[number] = ObjectBelief(
            arena=self.arena,
            number=number,
            created_epoch=self._epoch_index,
            last_read_epoch=self._epoch_index,
            last_read_anchor=anchor.copy(),
        )
        self._known_cache = None
        self._dirty_beliefs.add(number)
        self._engaged.add(number)
        self._engaged_order = None

    def _decompress(self, number: int) -> None:
        belief = self._beliefs[number]
        assert belief.gaussian is not None
        # Under adaptive budgets a read revives straight to the full budget
        # ("tags with recent reads revive to full particle sets"); the plain
        # compression mode keeps the paper's 10-particle decompression.
        if self.config.budget.enabled:
            k = self.config.object_particles
        else:
            k = self.config.compression.decompressed_particles
        samples = belief.gaussian.sample(self._rng, k)
        self.arena.set_object(number, samples, self._random_parents(k), np.zeros(k))
        belief.gaussian = None
        self._dirty_beliefs.add(number)
        self._engaged.add(number)
        self._engaged_order = None
        self.stats["decompressions"] += 1

    # ------------------------------------------------------------------
    # Adaptive particle budgets (ROADMAP item 4)
    # ------------------------------------------------------------------
    def _engaged_ids(self) -> List[int]:
        """Sorted engaged objects — the per-epoch kernel batch.  Cached:
        with skip-propagation the engaged set is stable for long stretches,
        so re-sorting it every epoch would be pure overhead."""
        if self._engaged_order is None:
            self._engaged_order = sorted(self._engaged)
        return self._engaged_order

    def _engage(self, number: int) -> None:
        """A read touched this object: it rejoins the kernels at full budget."""
        belief = self._beliefs[number]
        belief.settled = False
        if number in self._engaged:
            return
        self._engaged.add(number)
        self._engaged_order = None
        self._parked.discard(number)
        self._decay_due.pop(number, None)
        belief.budget_epoch = self._epoch_index

    def _revive(self, number: int) -> None:
        """Resample a tiered block back up to the full particle budget.

        Systematic resampling from the current (small) weighted cloud: the
        duplicated particles re-diversify through the next propagation steps
        exactly as they do after an ordinary ESS-triggered resample.
        """
        belief = self._beliefs[number]
        k = self.config.object_particles
        p, _ = normalize_log_weights(belief.log_weights)
        chosen = systematic_resample(p, k, self._rng)
        positions = belief.particles[chosen]
        parents = belief.parents[chosen]
        self.arena.set_object(number, positions, parents, np.zeros(k))
        self._dirty_beliefs.add(number)
        self.stats["budget_revives"] += 1

    def _downsample(self, number: int, target: int) -> None:
        """Shrink an object's block to ``target`` rows (systematic resample)."""
        belief = self._beliefs[number]
        p, _ = normalize_log_weights(belief.log_weights)
        chosen = systematic_resample(p, target, self._rng)
        positions = belief.particles[chosen]
        parents = belief.parents[chosen]
        self.arena.set_object(number, positions, parents, np.zeros(target))
        belief.budget_epoch = self._epoch_index
        self._dirty_beliefs.add(number)
        self.stats["budget_decays"] += 1

    def _schedule_decay(self, number: int, due: int) -> None:
        self._decay_due[number] = due
        heapq.heappush(self._decay_heap, (due, number))

    def _budget_pass(self) -> None:
        """The per-epoch budget controller (runs after the kernels).

        Two phases, both deterministic in iteration order so the RNG stream
        is reproducible across checkpoint/restore:

        1. *Decay ladder* — parked objects whose timer expired step down one
           tier; below the lowest tier they compress to a Gaussian, freeing
           the arena block.  Lazy-deletion heap: entries whose object was
           revived (or re-parked at a different epoch) are skipped.
        2. *Parking scan* — engaged objects unread for ``decay_after_epochs``
           whose compression error has settled park at a tier chosen by ESS
           and leave the kernels.  Unsettled objects keep the full budget
           and keep receiving negative evidence; they are re-checked on the
           ``decay_every_epochs`` cadence (a function of each object's
           ``last_read_epoch``, so it replays identically after a restore)
           rather than every epoch, and — when
           ``force_park_after_epochs`` is configured — park unconditionally
           once unread that long.
        """
        budget = self.config.budget
        epoch = self._epoch_index
        while self._decay_heap and self._decay_heap[0][0] <= epoch:
            due, number = heapq.heappop(self._decay_heap)
            if self._decay_due.get(number) != due:
                continue  # stale: revived or rescheduled since this entry
            del self._decay_due[number]
            target = step_down_tier(self.arena.count(number), budget.tiers)
            if target is None:
                self._compress_belief(number)
            else:
                self._downsample(number, target)
                self._schedule_decay(number, epoch + budget.decay_every_epochs)
        force = budget.force_park_after_epochs
        candidates = []
        forced = []
        for number in self._engaged_ids():
            unread = epoch - self._beliefs[number].last_read_epoch
            if unread < budget.decay_after_epochs:
                continue
            is_forced = force is not None and unread >= force
            if (
                is_forced
                or (unread - budget.decay_after_epochs) % budget.decay_every_epochs
                == 0
            ):
                candidates.append(number)
                forced.append(is_forced)
        if not candidates:
            return
        # A side read: it must not evict the main batch's cached gather plan.
        pos, lw, seg_starts, lengths = self.arena.read_blocks(candidates)
        errors = segmented_compression_errors(pos, lw, seg_starts, lengths)
        ess = segmented_ess(lw, seg_starts, lengths)
        for i, number in enumerate(candidates):
            if not forced[i] and not settles(float(errors[i]), budget):
                continue
            belief = self._beliefs[number]
            target = park_tier(float(ess[i]), budget.tiers)
            if target < belief.particle_count:
                self._downsample(number, target)
            else:
                belief.budget_epoch = epoch
            belief.settled = True
            self._dirty_beliefs.add(number)
            self._engaged.discard(number)
            self._engaged_order = None
            self._parked.add(number)
            self._schedule_decay(number, epoch + budget.decay_every_epochs)

    def tier_summary(self) -> Dict[str, int]:
        """Where compute and memory went: object / particle counts by tier.

        ``objects_full`` are engaged at (or reviving toward) the full
        budget, ``objects_parked`` sit frozen at intermediate tiers
        (``objects_tier_<k>`` buckets them by configured tier), and
        ``objects_compressed`` are Gaussians.  Particle totals split the
        live arena rows the same way.
        """
        summary: Dict[str, int] = {
            "objects_full": 0,
            "objects_parked": 0,
            "objects_compressed": 0,
            "particles_full": 0,
            "particles_parked": 0,
        }
        for tier in self.config.budget.tiers:
            summary[f"objects_tier_{tier}"] = 0
        for number, belief in self._beliefs.items():
            if belief.compressed:
                summary["objects_compressed"] += 1
            elif number in self._parked:
                count = belief.particle_count
                summary["objects_parked"] += 1
                summary["particles_parked"] += count
                key = f"objects_tier_{count}"
                if key in summary:
                    summary[key] += 1
            else:
                summary["objects_full"] += 1
                summary["particles_full"] += belief.particle_count
        return summary

    def _compress_belief(self, number: int) -> None:
        """Replace a particle block by its moment-matched Gaussian."""
        belief = self._beliefs[number]
        # Moment-match the robust (dominant-mode) estimate rather than the
        # raw cloud: by compression time the cloud already carries a thin
        # teleported-uniform component that would bias the Gaussian.
        estimate = LocationEstimate.robust_from_particles(
            belief.particles, belief.log_weights
        )
        belief.gaussian = GaussianBelief(
            mean=estimate.mean, covariance=estimate.covariance
        )
        self.arena.free(number)
        self._dirty_beliefs.add(number)
        self._engaged.discard(number)
        self._engaged_order = None
        self._parked.discard(number)
        self._decay_due.pop(number, None)
        self.stats["compressions"] += 1

    def _compression_pass(self) -> None:
        """Compress what :func:`select_for_compression` picks.  Reads only move
        ``last_read_epoch`` forward: nothing is due before ``_compression_due``."""
        config = self.config.compression
        epoch = self._epoch_index
        if epoch < self._compression_due:
            return
        self._compression_due = epoch + 1 + config.unread_epochs
        eligible: List[Tuple[int, int, int]] = []  # (number, unread, count)
        for number, belief in self._beliefs.items():
            if belief.gaussian is not None:
                continue
            ready = belief.last_read_epoch + config.unread_epochs
            if ready > epoch:
                self._compression_due = min(self._compression_due, ready)
                continue
            eligible.append((number, epoch - belief.last_read_epoch, belief.particle_count))
        if not eligible:
            return
        if config.kl_threshold is not None:
            # One segmented pass computes every candidate's compression
            # error straight off the arena blocks.
            pos, lw, seg_starts, lengths = self.arena.read_blocks([e[0] for e in eligible])
            errors = segmented_compression_errors(pos, lw, seg_starts, lengths)
        else:
            errors = np.zeros(len(eligible))
        candidates = [
            CompressionCandidate(
                object_id=number,
                epochs_unread=unread,
                particle_count=count,
                error=float(error),
            )
            for (number, unread, count), error in zip(eligible, errors)
        ]
        chosen = select_for_compression(candidates, config)
        if len(chosen) < len(eligible):
            self._compression_due = epoch + 1  # the rest stay eligible
        for number in chosen:
            self._compress_belief(number)

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-state subsystem, ``repro.state``)
    # ------------------------------------------------------------------
    def _belief_rows(self, numbers: List[int]) -> dict:
        """Metadata arrays for an ordered subset of belief ids."""
        b = len(numbers)
        ids = np.empty(b, dtype=np.int64)
        created = np.empty(b, dtype=np.int64)
        last_read = np.empty(b, dtype=np.int64)
        last_split = np.empty(b, dtype=np.int64)
        anchors = np.zeros((b, 3), dtype=float)
        compressed = np.zeros(b, dtype=bool)
        gauss_mean = np.zeros((b, 3), dtype=float)
        gauss_cov = np.zeros((b, 3, 3), dtype=float)
        settled = np.zeros(b, dtype=bool)
        budget_epoch = np.zeros(b, dtype=np.int64)
        for i, number in enumerate(numbers):
            belief = self._beliefs[number]
            ids[i] = number
            created[i] = belief.created_epoch
            last_read[i] = belief.last_read_epoch
            last_split[i] = belief.last_split_epoch
            anchors[i] = belief.last_read_anchor
            settled[i] = belief.settled
            budget_epoch[i] = belief.budget_epoch
            if belief.gaussian is not None:
                compressed[i] = True
                gauss_mean[i] = belief.gaussian.mean
                gauss_cov[i] = belief.gaussian.covariance
        return {
            "ids": ids,
            "created": created,
            "last_read": last_read,
            "last_split": last_split,
            "anchors": anchors,
            "compressed": compressed,
            "gauss_mean": gauss_mean,
            "gauss_cov": gauss_cov,
            "settled": settled,
            "budget_epoch": budget_epoch,
        }

    def snapshot_state(self, delta: bool = False) -> dict:
        """Capture the mutable filter state — full, or changes only.

        The full tree holds the RNG bit-generator state, reader belief, the
        arena's particle blocks (compacted on write), per-object belief
        metadata in *dict insertion order* (the compression pass iterates
        ``_beliefs``, so order is semantically load-bearing), and the
        spatial-index state when enabled.  Restoring it into an engine built
        from the same config resumes bitwise-identically.

        With ``delta`` the belief and arena tables are
        :func:`~repro.state.tables.dirty_cut` s: the full id order plus
        rows for the objects changed since the previous capture (of either
        kind) only; everything else ships in full.  Every capture resets
        the dirty sets; the shard owns the serial that chains captures
        (:meth:`~repro.runtime.shard.FilterShard.snapshot`).
        """
        from ..state.tables import dirty_cut

        reader = None
        if self._reader_positions is not None:
            assert self._reader_headings is not None and self._reader_log_w is not None
            reader = {
                "positions": self._reader_positions.copy(),
                "headings": self._reader_headings.copy(),
                "log_w": self._reader_log_w.copy(),
            }
        state = {
            "engine": "factored",
            "rng_state": self._rng.bit_generator.state,
            "epoch_index": int(self._epoch_index),
            "active_count": int(self._active_count),
            "stats": {k: int(v) for k, v in self.stats.items()},
            "arena_stats": {k: int(v) for k, v in self.arena.stats.items()},
            "last_reported": (
                None if self._last_reported is None else self._last_reported.copy()
            ),
            "last_reported_epoch": int(self._last_reported_epoch),
            "reader": reader,
            "selector": self._selector.snapshot(),
        }
        if delta:
            state["arena"] = self.arena.delta_snapshot()
            order = np.fromiter(self._beliefs, dtype=np.int64, count=len(self._beliefs))
            state["beliefs"] = dirty_cut(
                {"ids": order}, self._dirty_beliefs, self._belief_rows
            )
        else:
            state["arena"] = self.arena.snapshot()
            state["beliefs"] = self._belief_rows(list(self._beliefs))
        self._dirty_beliefs.clear()
        self.arena.clear_dirty()
        return state

    def restore_state(self, state: dict) -> None:
        """Apply a :meth:`snapshot_state` tree to this (same-config) engine.

        The engine must have been constructed from the same
        :class:`~repro.config.InferenceConfig` the snapshot was taken under
        (the checkpoint layer enforces this via the manifest's config hash);
        derived quantities (initializer, sensing range) are left as built.
        """
        if state.get("engine") != "factored":
            raise StateError(
                f"snapshot is for engine {state.get('engine')!r}, not 'factored'"
            )
        from ..state.snapshot import generator_from_state

        self._rng = generator_from_state(state["rng_state"])
        self._epoch_index = int(state["epoch_index"])
        self._active_count = int(state["active_count"])
        # Merge over defaults so snapshots from before a counter existed
        # restore cleanly (the counter restarts at zero).
        self.stats = {
            **self._default_stats(),
            **{k: int(v) for k, v in state["stats"].items()},
        }
        last_reported = state["last_reported"]
        self._last_reported = (
            None if last_reported is None else np.asarray(last_reported, dtype=float)
        )
        self._last_reported_epoch = int(state["last_reported_epoch"])
        reader = state["reader"]
        if reader is None:
            self._reader_positions = None
            self._reader_headings = None
            self._reader_log_w = None
        else:
            self._reader_positions = np.asarray(reader["positions"], dtype=float)
            self._reader_headings = np.asarray(reader["headings"], dtype=float)
            self._reader_log_w = np.asarray(reader["log_w"], dtype=float)
        self.arena.load_snapshot(state["arena"])
        self.arena.stats = {k: int(v) for k, v in state["arena_stats"].items()}
        beliefs = state["beliefs"]
        ids = np.asarray(beliefs["ids"], dtype=np.int64)
        compressed = np.asarray(beliefs["compressed"], dtype=bool)
        anchors = np.asarray(beliefs["anchors"], dtype=float)
        gauss_mean = np.asarray(beliefs["gauss_mean"], dtype=float)
        gauss_cov = np.asarray(beliefs["gauss_cov"], dtype=float)
        settled = np.asarray(beliefs["settled"], dtype=bool)
        budget_epoch = np.asarray(beliefs["budget_epoch"], dtype=np.int64)
        self._beliefs = {}
        self._engaged = set()
        self._parked = set()
        self._engaged_order = None
        self._decay_heap = []
        self._decay_due = {}
        decay_every = self.config.budget.decay_every_epochs
        for i, number in enumerate(ids):
            number = int(number)
            belief = ObjectBelief(
                arena=self.arena,
                number=number,
                created_epoch=int(beliefs["created"][i]),
                last_read_epoch=int(beliefs["last_read"][i]),
                last_read_anchor=anchors[i].copy(),
            )
            belief.last_split_epoch = int(beliefs["last_split"][i])
            belief.settled = bool(settled[i])
            belief.budget_epoch = int(budget_epoch[i])
            if compressed[i]:
                belief.gaussian = GaussianBelief(
                    mean=gauss_mean[i].copy(), covariance=gauss_cov[i].copy()
                )
            elif number not in self.arena:
                raise StateError(
                    f"belief {number} is uncompressed but has no arena block"
                )
            elif belief.settled:
                # Parked mid-decay: rebuild the timetable from the epoch of
                # the last ladder transition.  Entry keys are unique per
                # object, so heap pop order — hence the RNG stream of every
                # future downsample — matches the uninterrupted run exactly.
                self._parked.add(number)
                self._schedule_decay(number, belief.budget_epoch + decay_every)
            else:
                self._engaged.add(number)
            self._beliefs[number] = belief
        self._known_cache = None
        self._compression_due = 0
        self._selector = ActiveSetSelector(self.config.spatial_index)
        self._selector.load_snapshot(state["selector"])
        # Fresh delta baseline: nothing is dirty relative to the restored tree.
        self._dirty_beliefs.clear()
        self.arena.clear_dirty()
