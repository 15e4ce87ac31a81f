"""Simulated mobile readers: kinematics plus location sensing.

Two positioning behaviours cover the paper's settings:

* :class:`GaussianLocationSensor` — "reported = true + mu_s + noise", the
  model of Section III-A used for the synthetic experiments (Fig 5g sweeps
  mu_s^y and sigma_s^y);
* :class:`DeadReckoningSensor` — the lab robot (Section V-C): the *reported*
  location follows the commanded path exactly (wheel-revolution counting),
  while the *true* position drifts away ("the robot can drift sideways due
  to inertia or forward due to wheel slippage ... with error in reported
  location up to 1 foot").

The robot itself (:class:`ScriptedReader`) follows a waypoint script —
a straight scan for the warehouse, out-and-back with a turn for the lab.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import SimulationError
from ..geometry.vec import as_point, wrap_angle


@dataclass
class GaussianLocationSensor:
    """Reported = true + bias + N(0, sigma) per axis.

    Feed this sensor the robot's *true* position.
    """

    bias: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma: Tuple[float, float, float] = (0.01, 0.01, 0.0)

    def report(self, position: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noise = rng.normal(0.0, 1.0, size=3) * np.asarray(self.sigma)
        return position + np.asarray(self.bias) + noise


@dataclass
class DeadReckoningSensor:
    """Reported = commanded path + tiny encoder noise (lab robot).

    Feed this sensor the robot's *commanded* position: dead reckoning
    integrates wheel revolutions, so the report tracks the plan while the
    truth drifts away from it.
    """

    encoder_sigma: float = 0.005

    def report(self, position: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noise = rng.normal(0.0, self.encoder_sigma, size=3)
        noise[2] = 0.0
        return position + noise


@dataclass(frozen=True)
class Waypoint:
    """A target position plus the heading to hold while driving to it."""

    position: Tuple[float, float, float]
    heading: float


class ScriptedReader:
    """Waypoint-following robot with drift and slip.

    Tracks two positions per epoch:

    * ``commanded`` — where the motion plan says the robot is (exact);
    * ``true_position`` — commanded displacement plus accumulated systematic
      drift (``drift_rate`` per epoch) plus Gaussian slip noise.

    The warehouse robot uses zero drift (its positioning system reports
    truth plus noise); the lab robot uses non-zero drift with a
    :class:`DeadReckoningSensor` reporting the commanded path.
    """

    def __init__(
        self,
        waypoints: List[Waypoint],
        speed_ft_per_epoch: float = 0.1,
        motion_sigma: Tuple[float, float, float] = (0.01, 0.01, 0.0),
        drift_rate: Tuple[float, float, float] = (0.0, 0.0, 0.0),
        heading_sigma: float = 0.0,
    ):
        if len(waypoints) < 2:
            raise SimulationError("need at least two waypoints")
        if speed_ft_per_epoch <= 0:
            raise SimulationError("speed must be positive")
        self._waypoints = waypoints
        self._speed = float(speed_ft_per_epoch)
        self._motion_sigma = np.asarray(motion_sigma, dtype=float)
        self._drift_rate = np.asarray(drift_rate, dtype=float)
        self._heading_sigma = float(heading_sigma)
        self._segment = 1
        self.commanded = as_point(waypoints[0].position).copy()
        self.true_position = self.commanded.copy()
        self.heading = float(waypoints[0].heading)
        self.true_heading = self.heading
        self.finished = False

    def step(self, rng: np.random.Generator) -> None:
        """Advance one epoch along the waypoint path."""
        if self.finished:
            return
        previous_commanded = self.commanded.copy()
        budget = self._speed
        while budget > 0 and not self.finished:
            target = as_point(self._waypoints[self._segment].position)
            self.heading = self._waypoints[self._segment].heading
            direction = target - self.commanded
            dist = float(np.linalg.norm(direction))
            if dist <= budget:
                self.commanded = target.copy()
                budget -= dist
                if self._segment == len(self._waypoints) - 1:
                    self.finished = True
                else:
                    self._segment += 1
            else:
                self.commanded = self.commanded + direction / dist * budget
                budget = 0.0
        slip = rng.normal(0.0, 1.0, size=3) * self._motion_sigma
        self.true_position = (
            self.true_position
            + (self.commanded - previous_commanded)
            + self._drift_rate
            + slip
        )
        if self._heading_sigma > 0:
            self.true_heading = wrap_angle(
                self.heading + rng.normal(0.0, self._heading_sigma)
            )
        else:
            self.true_heading = self.heading
