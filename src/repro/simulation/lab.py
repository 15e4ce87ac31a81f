"""Lab-deployment emulation (Section V-C, Fig. 6).

The paper's physical setup: two parallel shelves along the y axis holding 80
EPC Gen2 tags spaced four inches apart, five evenly-spaced reference tags per
shelf with known positions, and a ThingMagic Mercury5 reader on an iRobot
Create that scans one row, turns around, and scans the other at 0.1 ft/s with
one read round per second.  The robot localizes by dead reckoning — reported
locations follow the commanded path while the true position drifts by up to a
foot.

We have no RFID hardware, so this module *emulates* that deployment: the
antenna is the spherical wide-minor-range field the paper's own Fig 5(d)
shows for this reader, drift is a constant-rate systematic error plus slip
noise, and the reader's *timeout* setting (0.25 / 0.50 / 0.75 s — more time
for marginal tags to respond) maps to a wider, hotter sensor field.  The qualitative structure Fig 6(b) reports (our system
beats SMURF beats uniform; x-errors of the baselines pinned at half the
imagined-shelf depth; y-errors of the baselines inflated by reader drift)
is produced by the same mechanisms as in the paper's lab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import LAB_TAG_SPACING_FT, LARGE_SHELF_DEPTH_FT, SMALL_SHELF_DEPTH_FT
from ..errors import SimulationError
from ..geometry.box import Box
from ..geometry.shapes import ShelfRegion, ShelfSet
from ..models.joint import RFIDWorldModel
from ..models.motion import MotionParams
from ..models.sensing import SensingNoiseParams
from ..models.sensor import SensorParams
from ..streams.records import ReaderLocationReport, TagId, TagReading
from ..streams.sources import GroundTruth, Trace
from .reader import DeadReckoningSensor, ScriptedReader, Waypoint
from .truth_sensor import SphericalTruthSensor

#: Timeout (seconds) -> spherical-field parameters.  Longer timeouts let
#: marginal (off-boresight / distant) tags respond, widening the field.
TIMEOUT_FIELDS: Dict[float, SphericalTruthSensor] = {
    0.25: SphericalTruthSensor(
        rr_peak=0.90, minor_gain=0.35, inner_range=1.0, max_range=2.6
    ),
    0.50: SphericalTruthSensor(
        rr_peak=0.94, minor_gain=0.55, inner_range=1.2, max_range=3.1
    ),
    0.75: SphericalTruthSensor(
        rr_peak=0.96, minor_gain=0.70, inner_range=1.3, max_range=3.4
    ),
}


@dataclass(frozen=True)
class LabConfig:
    """Geometry and kinematics of the emulated lab."""

    tags_per_shelf: int = 40
    reference_tags_per_shelf: int = 5
    tag_spacing_ft: float = LAB_TAG_SPACING_FT
    #: Aisle-to-shelf distance (both rows, mirrored across the aisle).
    shelf_x_ft: float = 1.5
    speed_ft_per_epoch: float = 0.1
    #: Systematic dead-reckoning drift, ft/epoch along the scan axis; at the
    #: default the drift reaches ~1 ft over a full out-and-back scan,
    #: matching the paper's "up to 1 foot".
    drift_per_epoch_ft: float = 0.0033
    slip_sigma_ft: float = 0.008
    lead_ft: float = 1.0
    epoch_length_s: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tags_per_shelf < 2 or self.reference_tags_per_shelf < 0:
            raise SimulationError("bad tag counts")
        if self.tag_spacing_ft <= 0 or self.shelf_x_ft <= 0:
            raise SimulationError("spacing and shelf_x must be positive")

    @property
    def shelf_length_ft(self) -> float:
        return (self.tags_per_shelf - 1) * self.tag_spacing_ft


class LabDeployment:
    """Builds lab geometry, generates traces, exposes imagined shelves."""

    def __init__(self, config: LabConfig = LabConfig()):
        self.config = config
        spacing = config.tag_spacing_ft
        length = config.shelf_length_ft
        # Object tags: shelf A (x = +shelf_x, read while heading 0) holds
        # numbers [0, tags_per_shelf); shelf B (x = -shelf_x, heading pi)
        # the rest.  Reference (shelf) tags interleave along each row.
        self.object_positions: Dict[int, np.ndarray] = {}
        for i in range(config.tags_per_shelf):
            self.object_positions[i] = np.array(
                [config.shelf_x_ft, i * spacing, 0.0]
            )
        for i in range(config.tags_per_shelf):
            self.object_positions[config.tags_per_shelf + i] = np.array(
                [-config.shelf_x_ft, i * spacing, 0.0]
            )
        self.reference_positions: Dict[int, np.ndarray] = {}
        n_ref = config.reference_tags_per_shelf
        for shelf_index, x in enumerate((config.shelf_x_ft, -config.shelf_x_ft)):
            for k in range(n_ref):
                y = length * k / max(n_ref - 1, 1)
                self.reference_positions[shelf_index * n_ref + k] = np.array(
                    [x, y, 0.0]
                )

    # ------------------------------------------------------------------
    # Imagined shelves (the sampling restriction of Fig 6b)
    # ------------------------------------------------------------------
    def imagined_shelves(self, depth_ft: float) -> ShelfSet:
        """Shelf boxes extending ``depth_ft`` behind each tag row.

        Tags sit on the row's front edge, so a uniform sample over the box
        has expected x-error of ``depth_ft / 2`` — which is exactly the
        behaviour the paper reports for SMURF and uniform sampling.
        """
        config = self.config
        length = config.shelf_length_ft
        margin = 0.3
        shelf_a = ShelfRegion(
            shelf_id=0,
            box=Box(
                (config.shelf_x_ft, -margin, 0.0),
                (config.shelf_x_ft + depth_ft, length + margin, 0.0),
            ),
        )
        shelf_b = ShelfRegion(
            shelf_id=1,
            box=Box(
                (-config.shelf_x_ft - depth_ft, -margin, 0.0),
                (-config.shelf_x_ft, length + margin, 0.0),
            ),
        )
        return ShelfSet([shelf_a, shelf_b])

    def small_shelves(self) -> ShelfSet:
        return self.imagined_shelves(SMALL_SHELF_DEPTH_FT)

    def large_shelves(self) -> ShelfSet:
        return self.imagined_shelves(LARGE_SHELF_DEPTH_FT)

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def sensor_for_timeout(self, timeout_s: float) -> SphericalTruthSensor:
        try:
            return TIMEOUT_FIELDS[round(timeout_s, 2)]
        except KeyError:
            raise SimulationError(
                f"no field calibrated for timeout {timeout_s}; "
                f"choose one of {sorted(TIMEOUT_FIELDS)}"
            ) from None

    def waypoints(self) -> List[Waypoint]:
        config = self.config
        length = config.shelf_length_ft
        start = (0.0, -config.lead_ft, 0.0)
        end = (0.0, length + config.lead_ft, 0.0)
        # Scan shelf A facing +x, turn around, scan shelf B facing -x.
        return [
            Waypoint(start, 0.0),
            Waypoint(end, 0.0),
            Waypoint(start, math.pi),
        ]

    def generate(self, timeout_s: float = 0.25, seed: Optional[int] = None) -> Trace:
        """One full out-and-back scan under a timeout setting."""
        config = self.config
        rng = np.random.default_rng(config.seed if seed is None else seed)
        sensor = self.sensor_for_timeout(timeout_s)
        robot = ScriptedReader(
            self.waypoints(),
            speed_ft_per_epoch=config.speed_ft_per_epoch,
            motion_sigma=(config.slip_sigma_ft, config.slip_sigma_ft, 0.0),
            drift_rate=(0.0, config.drift_per_epoch_ft, 0.0),
        )
        reporter = DeadReckoningSensor()

        all_tags = [
            (TagId.object(n), p) for n, p in self.object_positions.items()
        ] + [(TagId.shelf(n), p) for n, p in self.reference_positions.items()]
        tag_array = np.stack([p for _, p in all_tags])

        readings: List[TagReading] = []
        reports: List[ReaderLocationReport] = []
        reader_path: List[np.ndarray] = []
        reader_headings: List[float] = []

        epoch = 0
        while not robot.finished and epoch < 100_000:
            time = epoch * config.epoch_length_s
            if epoch > 0:
                robot.step(rng)
            reader_path.append(robot.true_position.copy())
            reader_headings.append(robot.true_heading)
            reported = reporter.report(robot.commanded, rng)
            reports.append(
                ReaderLocationReport(
                    time,
                    tuple(float(v) for v in reported),
                    heading=robot.heading,
                )
            )
            probs = sensor.read_probability(
                robot.true_position, robot.true_heading, tag_array
            )
            hits = rng.uniform(size=len(all_tags)) < probs
            for k in np.flatnonzero(hits):
                readings.append(TagReading(time, all_tags[k][0]))
            epoch += 1

        truth = GroundTruth(
            initial_positions=dict(self.object_positions),
            moves=[],
            reader_path=np.stack(reader_path),
            reader_headings=np.asarray(reader_headings),
            shelf_tag_positions=dict(self.reference_positions),
        )
        return Trace(
            readings=readings,
            reports=reports,
            epoch_length=config.epoch_length_s,
            truth=truth,
            metadata={
                "generator": "LabDeployment",
                "timeout_s": timeout_s,
            },
        )

    # ------------------------------------------------------------------
    # Inference model
    # ------------------------------------------------------------------
    def world_model(
        self,
        sensor_params: SensorParams,
        shelves: ShelfSet,
        sensing_params: Optional[SensingNoiseParams] = None,
    ) -> RFIDWorldModel:
        """Inference model for the lab: random-walk motion (the robot
        reverses direction), reference tags as shelf anchors.

        ``sensing_params`` defaults to a generous drift allowance — the whole
        point of the lab experiment is that dead-reckoning reports are off by
        up to a foot and the shelf tags must correct them.
        """
        config = self.config
        # Odometry control tracks the commanded path, so the motion noise
        # only needs to explore the *drift* (sigma * sqrt(T) should cover the
        # ~1 ft accumulated error); the sensing sigma must keep the drifted
        # truth plausible relative to the dead-reckoned reports.
        motion = MotionParams(
            velocity=(0.0, 0.0, 0.0),
            sigma=(0.02, 0.05, 0.0),
            heading_sigma=0.01,
        )
        sensing = sensing_params or SensingNoiseParams(
            mean=(0.0, 0.0, 0.0), sigma=(0.15, 0.6, 0.0)
        )
        return RFIDWorldModel.build(
            shelves,
            shelf_tags=dict(self.reference_positions),
            sensor_params=sensor_params,
            motion_params=motion,
            sensing_params=sensing,
        )
