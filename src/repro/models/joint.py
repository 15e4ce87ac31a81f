"""The joint data-generation model (Section III-B, Eq. 2, Fig. 1).

:class:`RFIDWorldModel` bundles the four component models — sensor, reader
motion, reader location sensing, object dynamics — together with the known
shelf-tag locations.  It is

* the *generative* model: :meth:`generate` samples complete synthetic runs by
  following the paper's five-step process (useful for model-based tests and
  for verifying learning code against data the model itself produced), and
* the *inference* model: every particle filter in ``repro.inference`` scores
  hypotheses against exactly this object.

Note the distinction from ``repro.simulation``: the simulator produces data
from a *cone-shaped ground-truth field* that is NOT in the model family —
that is the realistic setting where the logistic model must approximate
reality.  :meth:`generate` here samples from the model itself (well-specified
setting).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..geometry.box import Box
from ..geometry.shapes import ShelfRegion, ShelfSet
from ..geometry.vec import as_point, delta_range_bearing
from ..streams.records import ReaderLocationReport, TagId, TagReading
from ..streams.sources import GroundTruth, ObjectMove, Trace
from .motion import MotionParams, ReaderMotionModel
from .objects import ObjectDynamicsParams, ObjectLocationModel
from .sensing import LocationSensingModel, SensingNoiseParams
from .sensor import SensorModel, SensorParams, DEFAULT_SENSOR_PARAMS


@dataclass
class RFIDWorldModel:
    """Joint probabilistic model p(R, R̂, O, Ô | S) of Eq. (2)."""

    sensor: SensorModel
    motion: ReaderMotionModel
    sensing: LocationSensingModel
    objects: ObjectLocationModel
    #: Known shelf-tag locations (tag number -> (3,) position), the paper's S.
    shelf_tags: Dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.shelf_tags = {
            int(k): as_point(v) for k, v in self.shelf_tags.items()
        }
        # Array form of S for the batched shelf-evidence kernel (tag-number
        # order).  ``shelf_tags`` is fixed at construction; the ``with_*``
        # copies rebuild it.
        numbers = sorted(self.shelf_tags)
        self._shelf_columns = {n: i for i, n in enumerate(numbers)}
        self._shelf_positions = (
            np.stack([self.shelf_tags[n] for n in numbers])
            if numbers
            else np.zeros((0, 3))
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        shelves: ShelfSet,
        shelf_tags: Optional[Dict[int, np.ndarray]] = None,
        sensor_params: SensorParams = DEFAULT_SENSOR_PARAMS,
        motion_params: MotionParams = MotionParams(),
        sensing_params: SensingNoiseParams = SensingNoiseParams(),
        dynamics_params: ObjectDynamicsParams = ObjectDynamicsParams(),
    ) -> "RFIDWorldModel":
        return RFIDWorldModel(
            sensor=SensorModel(sensor_params),
            motion=ReaderMotionModel(motion_params),
            sensing=LocationSensingModel(sensing_params),
            objects=ObjectLocationModel(shelves, dynamics_params),
            shelf_tags=dict(shelf_tags or {}),
        )

    def to_dict(self) -> dict:
        """Everything :meth:`build` needs, as JSON types (floats round-trip
        exactly): the four parameter sets, the shelf boxes and S."""
        return {
            "sensor": asdict(self.sensor.params),
            "motion": asdict(self.motion.params),
            "sensing": asdict(self.sensing.params),
            "dynamics": asdict(self.objects.params),
            "shelves": [
                [shelf.shelf_id, *map(float, shelf.box.lo), *map(float, shelf.box.hi)]
                for shelf in self.shelves
            ],
            "shelf_tags": [
                [number, *position.tolist()]
                for number, position in self.shelf_tags.items()
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "RFIDWorldModel":
        """Inverse of :meth:`to_dict`; raises ``KeyError`` / ``TypeError`` /
        ``ValueError`` on a malformed document."""

        def params(cls, fields: dict):
            # JSON turned the coefficient tuples into lists.
            return cls(
                **{
                    key: tuple(value) if isinstance(value, list) else value
                    for key, value in fields.items()
                }
            )

        return RFIDWorldModel.build(
            ShelfSet(
                [
                    ShelfRegion(int(shelf_id), Box((x0, y0, z0), (x1, y1, z1)))
                    for shelf_id, x0, y0, z0, x1, y1, z1 in data["shelves"]
                ]
            ),
            {int(number): (x, y, z) for number, x, y, z in data["shelf_tags"]},
            params(SensorParams, data["sensor"]),
            params(MotionParams, data["motion"]),
            params(SensingNoiseParams, data["sensing"]),
            params(ObjectDynamicsParams, data["dynamics"]),
        )

    @property
    def shelves(self) -> ShelfSet:
        return self.objects.shelves

    def shelf_tag_array(self) -> Tuple[List[int], np.ndarray]:
        """Shelf tag numbers and their positions as an ``(m, 3)`` array."""
        return list(self._shelf_columns), self._shelf_positions.copy()

    # ------------------------------------------------------------------
    # Generative sampling (the five-step process of Section III-B)
    # ------------------------------------------------------------------
    def generate(
        self,
        n_epochs: int,
        initial_reader_position,
        initial_heading: float = 0.0,
        n_objects: int = 10,
        initial_object_positions: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        epoch_length: float = 1.0,
    ) -> Trace:
        """Sample a complete run from the joint model.

        Follows Section III-B verbatim: initial reader location known;
        initial object locations uniform over shelves (unless provided); then
        per epoch (1) move the reader, (2) observe a noisy reader location,
        (3) move objects, (4) sense objects, (5) sense shelf tags.
        """
        if n_epochs < 1:
            raise ConfigurationError("n_epochs must be >= 1")
        rng = rng or np.random.default_rng(0)
        reader_pos = as_point(initial_reader_position)
        heading = float(initial_heading)

        if initial_object_positions is None:
            object_pos = self.objects.initial_positions(rng, n_objects)
        else:
            object_pos = np.array(initial_object_positions, dtype=float)
            n_objects = object_pos.shape[0]

        shelf_numbers, shelf_positions = self.shelf_tag_array()

        readings: List[TagReading] = []
        reports: List[ReaderLocationReport] = []
        reader_path = np.zeros((n_epochs, 3))
        reader_headings = np.zeros(n_epochs)
        initial_positions = {i: object_pos[i].copy() for i in range(n_objects)}
        moves: List[ObjectMove] = []

        positions = reader_pos[None, :]
        headings = np.array([heading])
        for t in range(n_epochs):
            time = t * epoch_length
            if t > 0:
                positions, headings = self.motion.propagate(positions, headings, rng)
            reader_pos = positions[0]
            heading = float(headings[0])
            reader_path[t] = reader_pos
            reader_headings[t] = heading

            reported = self.sensing.observe(reader_pos, rng)
            reports.append(ReaderLocationReport(time, tuple(float(v) for v in reported)))

            if t > 0:
                previous = object_pos
                object_pos = self.objects.propagate(object_pos, rng)
                changed = np.flatnonzero(
                    np.abs(object_pos - previous).max(axis=1) > 1e-12
                )
                for i in changed:
                    moves.append(
                        ObjectMove(t, int(i), tuple(float(v) for v in object_pos[i]))
                    )

            read_prob = self.sensor.read_probability_at(reader_pos, heading, object_pos)
            read_mask = rng.uniform(size=n_objects) < read_prob
            for i in np.flatnonzero(read_mask):
                readings.append(TagReading(time, TagId.object(int(i))))

            if shelf_positions.shape[0]:
                shelf_prob = self.sensor.read_probability_at(
                    reader_pos, heading, shelf_positions
                )
                shelf_mask = rng.uniform(size=len(shelf_numbers)) < shelf_prob
                for j in np.flatnonzero(shelf_mask):
                    readings.append(TagReading(time, TagId.shelf(shelf_numbers[j])))

        truth = GroundTruth(
            initial_positions=initial_positions,
            moves=moves,
            reader_path=reader_path,
            reader_headings=reader_headings,
            shelf_tag_positions={n: self.shelf_tags[n] for n in shelf_numbers},
        )
        return Trace(
            readings=readings,
            reports=reports,
            epoch_length=epoch_length,
            truth=truth,
            metadata={"generator": "RFIDWorldModel.generate"},
        )

    # ------------------------------------------------------------------
    # Log-density pieces used by inference and by tests
    # ------------------------------------------------------------------
    def reader_evidence_log_likelihood(
        self,
        reader_positions: np.ndarray,
        cos_headings: np.ndarray,
        sin_headings: np.ndarray,
        reported_position: Optional[np.ndarray],
        shelf_tags_read: frozenset,
        negative_evidence_range: float = 6.0,
    ) -> np.ndarray:
        """Per-reader-particle log p(R̂_t, Ŝ_t | R_t).

        This is the reader particle's incremental weight in Eq. (5):
        ``p(R̂|R) * prod_shelf p(Ŝ|R, S)``.  Negative shelf evidence is
        evaluated only for shelf tags within ``negative_evidence_range`` of
        the *best available* location guess (reported position if present,
        else the particle cloud's mean) — farther tags have p(read) ~ 0 and
        contribute ~0 log-likelihood (the paper's Case-4 rounding).

        All shelf tags that pass that test are scored in one ``(J, S)``
        kernel — reader particles by tags, per-column read flags — with the
        heading trig precomputed once per epoch by the caller, exactly like
        :meth:`object_evidence_log_likelihood`.
        """
        out = np.zeros(reader_positions.shape[0])
        if reported_position is not None:
            out += self.sensing.log_likelihood(reported_position, reader_positions)
            anchor = np.asarray(reported_position, dtype=float)
        else:
            anchor = reader_positions.mean(axis=0)

        tags = self._shelf_positions
        read = np.zeros(tags.shape[0], dtype=bool)
        for tag in shelf_tags_read:
            column = self._shelf_columns.get(tag.number)
            if column is not None:
                read[column] = True
        offset = tags - anchor
        in_range = np.sqrt(np.einsum("ij,ij->i", offset, offset)) <= negative_evidence_range
        scored = read | in_range
        if not np.logical_or.reduce(scored):  # also a model without shelf tags
            return out
        if not np.logical_and.reduce(scored):
            tags, read = tags[scored], read[scored]
        delta = tags[None, :, :] - reader_positions[:, None, :]  # (J, S, 3)
        d, theta = delta_range_bearing(
            delta, cos_headings[:, None], sin_headings[:, None]
        )
        out += np.add.reduce(self.sensor.log_likelihood_rows(d, theta, read[None, :]), axis=1)
        return out

    def object_evidence_log_likelihood(
        self,
        reader_positions: np.ndarray,
        cos_headings: np.ndarray,
        sin_headings: np.ndarray,
        particles: np.ndarray,
        parents: np.ndarray,
        read_rows: np.ndarray,
    ) -> np.ndarray:
        """log p(Ô_i | R_parent, O_k) per object particle, batched across
        objects (Eq. 5's per-object factor, the factored filter's inner
        kernel).

        ``particles`` may concatenate many objects' clouds back-to-back (the
        belief arena's layout); ``parents`` points each row at its own
        reader hypothesis — scoring each particle against *its* reader is
        what keeps the representation factored rather than marginalized —
        and ``read_rows`` flags per row whether the owning tag was read this
        epoch (expand per-segment flags with ``np.repeat`` over the segment
        lengths).  Heading trig is precomputed once per epoch by the caller.
        """
        delta = particles - reader_positions.take(parents, axis=0)
        d, theta = delta_range_bearing(
            delta, cos_headings.take(parents), sin_headings.take(parents)
        )
        return self.sensor.log_likelihood_rows(d, theta, read_rows)
