"""The naive (unfactorized) particle filter of Section IV-A.

Every particle is a hypothesis about the *entire* world: the reader pose plus
the location of every object.  This is the textbook particle filter the
paper starts from — and the one that "requires a prohibitively large number
of samples" as objects are added, because a joint particle is only as good as
its worst per-object component (Fig 3a).  It exists here as the baseline for
the scalability experiments (Fig 5i/5j) and as a correctness oracle for the
factored filter on tiny problems.

State layout: reader positions ``(J, 3)``, headings ``(J,)``, object
locations ``(J, n, 3)`` (one column per discovered object), joint log-weights
``(J,)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..config import InferenceConfig
from ..errors import InferenceError
from ..geometry.vec import delta_range_bearing
from ..models.joint import RFIDWorldModel
from ..models.priors import ReinitDecision, SensorBasedInitializer, classify_redetection
from ..streams.records import Epoch
from .base import (
    effective_sample_size,
    normalize_log_weights,
    resample_log_weights,
    stratified_heading_mean,
)
from .estimates import LocationEstimate


class NaiveParticleFilter:
    """Joint-state particle filter (the paper's "basic filter")."""

    def __init__(
        self,
        model: RFIDWorldModel,
        config: InferenceConfig = InferenceConfig(),
        n_particles: Optional[int] = None,
        initial_position=None,
        initial_heading: float = 0.0,
        heading_spread: float = 0.05,
        position_spread: float = 0.1,
    ):
        self.model = model
        self.config = config
        #: Joint particle count; defaults to ``object_particles`` (for the
        #: naive filter there is one knob — the paper used up to 100,000).
        self.n_particles = int(n_particles or config.object_particles)
        if self.n_particles < 2:
            raise InferenceError("need at least 2 joint particles")
        self._rng = np.random.default_rng(config.seed)
        self._initial_position = (
            None if initial_position is None else np.asarray(initial_position, dtype=float)
        )
        self._initial_heading = float(initial_heading)
        self._heading_spread = float(heading_spread)
        self._position_spread = float(position_spread)

        self._positions: Optional[np.ndarray] = None  # (J, 3)
        self._headings: Optional[np.ndarray] = None  # (J,)
        self._objects: Optional[np.ndarray] = None  # (J, n, 3)
        self._log_w: Optional[np.ndarray] = None  # (J,)
        self._last_reported: Optional[np.ndarray] = None  # odometry anchor
        self._last_reported_epoch: int = -(10**9)
        self._columns: Dict[int, int] = {}  # object number -> column
        self._last_read_epoch: Dict[int, int] = {}
        self._last_read_anchor: Dict[int, np.ndarray] = {}
        self._last_split_epoch: Dict[int, int] = {}
        self._initializer = SensorBasedInitializer(config, model.shelves)
        self._epoch_index = -1
        self.stats: Dict[str, int] = {"epochs": 0, "resamples": 0}

    # ------------------------------------------------------------------
    # Introspection (mirrors FactoredParticleFilter)
    # ------------------------------------------------------------------
    @property
    def epoch_index(self) -> int:
        return self._epoch_index

    @property
    def active_count(self) -> int:
        """The naive filter has no active-set machinery: every discovered
        object is processed every epoch (that is the point)."""
        return len(self._columns)

    def known_objects(self) -> List[int]:
        return sorted(self._columns)

    def reader_estimate(self) -> Tuple[np.ndarray, float]:
        if self._positions is None:
            raise InferenceError("filter has not processed any epoch yet")
        assert self._log_w is not None and self._headings is not None
        p, _ = normalize_log_weights(self._log_w)
        mean = p @ self._positions
        return mean, stratified_heading_mean(self._headings, self._log_w)

    def object_estimate(self, object_number: int) -> LocationEstimate:
        if object_number not in self._columns:
            raise InferenceError(f"no belief for object {object_number}")
        assert self._objects is not None and self._log_w is not None
        column = self._columns[object_number]
        return LocationEstimate.robust_from_particles(
            self._objects[:, column, :], self._log_w
        )

    # ------------------------------------------------------------------
    # Main update
    # ------------------------------------------------------------------
    def step(self, epoch: Epoch) -> None:
        self._epoch_index += 1
        self.stats["epochs"] += 1
        reported = epoch.position_array

        if self._positions is None:
            self._init_particles(reported, epoch.reported_heading)
        else:
            self._propagate(epoch.reported_heading, reported)
        if reported is not None:
            self._last_reported = reported
            self._last_reported_epoch = self._epoch_index

        assert self._positions is not None and self._headings is not None
        assert self._log_w is not None

        # Reader evidence (reported location + shelf tags); the heading trig
        # is shared with the object-evidence kernel below.
        cos_headings = np.cos(self._headings)
        sin_headings = np.sin(self._headings)
        self._log_w = self._log_w + self.model.reader_evidence_log_likelihood(
            self._positions,
            cos_headings,
            sin_headings,
            reported,
            epoch.shelf_tags,
            negative_evidence_range=self.config.negative_evidence_range_ft,
        )

        anchor, heading = self.reader_estimate()
        read_now = {tag.number for tag in epoch.object_tags}

        # Discover / reinitialize objects.
        skip = set()
        for number in sorted(read_now):
            if number not in self._columns:
                self._add_object(number, anchor, heading)
                skip.add(number)
            else:
                estimate_mean = self.object_estimate(number).mean
                moved = float(
                    np.hypot(anchor[0] - estimate_mean[0], anchor[1] - estimate_mean[1])
                )
                decision = classify_redetection(moved, self.config)
                if decision is ReinitDecision.KEEP:
                    p_read = float(
                        self.model.sensor.read_probability_at(
                            anchor, heading, estimate_mean[None, :]
                        )[0]
                    )
                    if p_read < self.config.surprise_read_threshold:
                        decision = ReinitDecision.SPLIT
                if decision is ReinitDecision.SPLIT:
                    since = self._epoch_index - self._last_split_epoch.get(
                        number, -(10**9)
                    )
                    if since < self.config.split_cooldown_epochs:
                        decision = ReinitDecision.KEEP
                if decision is not ReinitDecision.KEEP:
                    self._reinit_object(number, decision, anchor, heading)
                    self._last_split_epoch[number] = self._epoch_index
                    skip.add(number)
            self._last_read_epoch[number] = self._epoch_index
            self._last_read_anchor[number] = anchor.copy()

        # Object evidence: every known object, read or not (the naive filter
        # has no active-set machinery — that is the point).  All columns are
        # scored in one fused kernel over the (J, n) particle-by-object grid
        # instead of a per-column Python loop.
        if self._objects is not None and self._objects.shape[1]:
            self._log_w = self._log_w + self._all_columns_log_likelihood(
                cos_headings, sin_headings, read_now, skip
            )
        self._log_w -= self._log_w.max()

        self._maybe_resample()

    def process_trace(self, epochs: Iterable[Epoch]) -> None:
        for epoch in epochs:
            self.step(epoch)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _init_particles(
        self, reported: Optional[np.ndarray], reported_heading: Optional[float]
    ) -> None:
        start = reported if reported is not None else self._initial_position
        if start is None:
            raise InferenceError(
                "first epoch has no reported position and no initial_position"
            )
        j = self.n_particles
        self._positions = start[None, :] + self._rng.normal(
            0.0, self._position_spread, size=(j, 3)
        ) * np.array([1.0, 1.0, 0.0])
        heading = (
            reported_heading if reported_heading is not None else self._initial_heading
        )
        self._headings = heading + self._rng.normal(
            0.0, self._heading_spread, size=j
        )
        self._objects = np.zeros((j, 0, 3))
        self._log_w = np.zeros(j)

    def _propagate(
        self, reported_heading: Optional[float], reported: Optional[np.ndarray]
    ) -> None:
        assert self._positions is not None and self._headings is not None
        velocity_override = None
        if (
            self.config.use_odometry_control
            and reported is not None
            and self._last_reported is not None
            and self._last_reported_epoch == self._epoch_index - 1
        ):
            velocity_override = reported - self._last_reported
        self._positions, self._headings = self.model.motion.propagate(
            self._positions,
            self._headings,
            self._rng,
            velocity_override=velocity_override,
        )
        if reported_heading is not None:
            sigma = max(self.model.motion.params.heading_sigma, self._heading_spread)
            self._headings = reported_heading + self._rng.normal(
                0.0, sigma, size=self._headings.shape[0]
            )
        assert self._objects is not None
        j, n, _ = self._objects.shape
        if n:
            # The transition is i.i.d. per particle: propagate the whole
            # (J * n, 3) slab in place through one fused kernel.
            flat = self._objects.reshape(j * n, 3)
            self.model.objects.propagate_many(flat, self._rng, in_place=True)

    def _all_columns_log_likelihood(
        self, cos_headings, sin_headings, read_now, skip
    ) -> np.ndarray:
        """sum_i log p(Ô_i | R^(j), O^(j)_i) per joint particle, all object
        columns scored in one vectorized pass over the (J, n) grid."""
        assert self._positions is not None and self._objects is not None
        n = self._objects.shape[1]
        delta = self._objects - self._positions[:, None, :]  # (J, n, 3)
        d, theta = delta_range_bearing(
            delta, cos_headings[:, None], sin_headings[:, None]
        )
        read_columns = np.zeros(n, dtype=bool)
        weighted_columns = np.ones(n, dtype=bool)
        for number, column in self._columns.items():
            read_columns[column] = number in read_now
            weighted_columns[column] = number not in skip
        inc = self.model.sensor.log_likelihood_rows(d, theta, read_columns[None, :])
        if not weighted_columns.all():
            inc[:, ~weighted_columns] = 0.0
        return inc.sum(axis=1)

    def _add_object(self, number: int, anchor: np.ndarray, heading: float) -> None:
        assert self._objects is not None
        j = self.n_particles
        column = self._initializer.sample(anchor, heading, j, self._rng)
        self._objects = np.concatenate(
            [self._objects, column[:, None, :]], axis=1
        )
        self._columns[number] = self._objects.shape[1] - 1

    def _reinit_object(
        self, number: int, decision: ReinitDecision, anchor: np.ndarray, heading: float
    ) -> None:
        assert self._objects is not None
        column = self._columns[number]
        self._objects[:, column, :] = self._initializer.reinitialize(
            self._objects[:, column, :], decision, anchor, heading, self._rng
        )

    def _maybe_resample(self) -> None:
        assert self._log_w is not None
        j = self._log_w.size
        if effective_sample_size(self._log_w) >= self.config.ess_threshold * j:
            return
        self.stats["resamples"] += 1
        chosen = resample_log_weights(self._log_w, j, self._rng)
        assert self._positions is not None and self._headings is not None
        assert self._objects is not None
        self._positions = self._positions[chosen]
        self._headings = self._headings[chosen]
        self._objects = self._objects[chosen]
        self._log_w = np.zeros(j)
