"""Monte-Carlo EM self-calibration (Section III-C).

"An important benefit of having a flexible parametric model is that we can
automatically learn the model parameters using a small training data set
collected from the same environment in which the system is to be fielded.
The training data includes the observed reader locations and readings of a
small set of tags, some of which are shelf tags with known locations."

The hidden variables are the true reader trajectory and the unknown tag
locations, so EM interleaves:

* **E-step** — run the factored particle filter under the current parameters
  over the training trace, drawing posterior samples of the reader pose at
  every epoch and taking each unknown tag's final posterior mean as its
  location estimate (training tags are stationary);
* **M-step** — refit (i) the sensor coefficients by weighted IRLS on the
  ``(distance, bearing, read?)`` examples induced by those samples,
  (ii) the motion parameters from posterior trajectory increments, and
  (iii) the sensing-noise parameters from reported-minus-inferred residuals.

The E-step uses *filtered* (not smoothed) posteriors — the streaming-system
approximation; with a handful of anchor shelf tags the filtered trajectory is
accurate enough, and with zero anchors EM is unidentifiable and can land in
local maxima, exactly as the paper reports for its 0-shelf-tag condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import InferenceConfig
from ..errors import LearningError
from ..geometry.shapes import ShelfSet
from ..geometry.vec import as_point
from ..inference.base import normalize_log_weights
from ..inference.factored import FactoredParticleFilter
from ..models.joint import RFIDWorldModel
from ..models.motion import MotionParams, ReaderMotionModel
from ..models.sensing import SensingNoiseParams
from ..models.sensor import SensorParams, DEFAULT_SENSOR_PARAMS
from ..streams.records import Epoch, TagId, TagReading
from ..streams.sources import ObjectMove, Trace
from .examples import sensor_examples
from .logistic import fit_sensor_model
from .motion_fit import fit_motion_params, fit_sensing_params


@dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM driver."""

    iterations: int = 6
    #: Reader-pose posterior samples drawn per epoch for the M-step dataset.
    posterior_samples: int = 5
    #: Negative examples ("tag not read") are included only for tags within
    #: this distance of the sampled reader position.  Generous on purpose:
    #: far negatives anchor the logit's distance tail, which is otherwise
    #: free to rise again beyond the observed-read range (the quadratic is
    #: not monotone).  Inference rounds far reads to zero (Case 4); the
    #: *fit* must not.
    negative_cutoff_ft: float = 12.0
    ridge: float = 1e-3
    learn_sensor: bool = True
    learn_motion: bool = True
    learn_sensing: bool = True
    #: Inference configuration for the E-step filter (small counts keep EM
    #: fast; the training traces are short).
    inference: InferenceConfig = field(
        default_factory=lambda: InferenceConfig(
            reader_particles=150, object_particles=400
        )
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise LearningError("iterations must be >= 1")
        if self.posterior_samples < 1:
            raise LearningError("posterior_samples must be >= 1")
        if self.negative_cutoff_ft <= 0:
            raise LearningError("negative_cutoff_ft must be positive")


@dataclass
class CalibrationResult:
    """Outcome of a calibration run."""

    sensor_params: SensorParams
    motion_params: MotionParams
    sensing_params: SensingNoiseParams
    model: RFIDWorldModel
    #: Per-iteration weighted log-likelihood of the sensor fit (diagnostic).
    sensor_log_likelihoods: List[float]
    iterations_run: int


def relabel_tags(trace: Trace, known_numbers: Sequence[int]) -> Trace:
    """Rewrite a trace so that ``known_numbers`` become shelf tags.

    The Fig 5(e) experiment varies how many of a calibration trace's tags
    have known locations; physically the tags are identical, only the
    labelling changes.  Tag numbers are preserved.
    """
    known = set(int(n) for n in known_numbers)
    readings = [
        TagReading(
            r.time,
            TagId.shelf(r.tag.number)
            if r.tag.number in known
            else TagId.object(r.tag.number),
        )
        for r in trace.readings
    ]
    return Trace(
        readings=readings,
        reports=list(trace.reports),
        epoch_length=trace.epoch_length,
        truth=trace.truth,
        metadata=dict(trace.metadata, relabelled_known=sorted(known)),
    )


def initial_motion_guess(trace: Trace, heading_sigma: float = 0.01) -> MotionParams:
    """Bootstrap the motion model from the *reported* trajectory.

    The reported positions are noisy but unbiased enough to seed Delta; EM
    refines from there.
    """
    reported = np.array([r.array for r in trace.reports])
    if reported.shape[0] < 2:
        raise LearningError("trace too short to estimate motion")
    return fit_motion_params(reported, heading_sigma=heading_sigma)


# ---------------------------------------------------------------------------
# Supervised fitting (true poses known) — used for lab-style calibration
# where reference tags and a motion-capture-grade trajectory exist, and to
# produce the "true model" comparison curves.
# ---------------------------------------------------------------------------


def fit_sensor_supervised(
    trace: Trace,
    tag_positions: Dict[int, np.ndarray],
    reader_path: np.ndarray,
    reader_headings: np.ndarray,
    negative_cutoff_ft: float = 12.0,
    ridge: float = 1e-3,
    initial: Optional[SensorParams] = None,
    moves: Sequence[ObjectMove] = (),
):
    """Fit the sensor model with fully-known geometry.

    ``tag_positions`` maps tag number to true location at the first epoch,
    and ``moves`` (in epoch order) relocate tags later on; ``reader_path`` /
    ``reader_headings`` give the true reader pose per epoch.  Builds one
    (d, theta, read?) example per (epoch, tag) pair — negatives only within
    the cutoff — and runs IRLS.
    """
    epochs = trace.epochs()[: reader_path.shape[0]]
    n = len(epochs)
    poses = np.column_stack([reader_path[:n], reader_headings[:n]])[:, None]
    examples = sensor_examples(epochs, poses, tag_positions, negative_cutoff_ft, moves)
    return fit_sensor_model(*examples, ridge=ridge, initial=initial)


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------


def calibrate(
    trace: Trace,
    shelves: ShelfSet,
    known_tags: Dict[int, np.ndarray],
    config: EMConfig = EMConfig(),
    initial_sensor: SensorParams = DEFAULT_SENSOR_PARAMS,
    initial_heading: float = 0.0,
) -> CalibrationResult:
    """Self-calibrate all model parameters from a training trace.

    Parameters
    ----------
    trace:
        Training trace (raw streams).  Tags whose numbers appear in
        ``known_tags`` are treated as shelf tags with the given locations;
        every other tag is an unknown-location object tag.
    shelves:
        Shelf geometry of the deployment (bounds the object prior).
    known_tags:
        Tag number -> true (3,) location for the anchor tags.
    """
    known_positions = {int(k): as_point(v) for k, v in known_tags.items()}
    labelled = relabel_tags(trace, list(known_positions))
    epochs = labelled.epochs()
    if not epochs:
        raise LearningError("training trace has no epochs")

    rng = np.random.default_rng(config.seed)
    sensor_params = initial_sensor
    motion_params = initial_motion_guess(labelled)
    # The initial sensing prior is deliberately LOOSE: if the first E-step
    # trusted the reported locations tightly, a systematic reporting bias
    # could never be discovered (the filtered trajectory would sit on the
    # biased reports and the residuals would vanish — a classic EM local
    # maximum).  A wide sigma lets the shelf-tag evidence pull the E-step
    # trajectory toward the truth, after which the M-step reads the bias off
    # the residuals and later iterations tighten sigma.
    sensing_params = SensingNoiseParams(mean=(0.0, 0.0, 0.0), sigma=(0.3, 0.3, 0.0))
    history: List[float] = []

    model = RFIDWorldModel.build(
        shelves,
        shelf_tags=known_positions,
        sensor_params=sensor_params,
        motion_params=motion_params,
        sensing_params=sensing_params,
    )

    iterations_run = 0
    for _ in range(config.iterations):
        iterations_run += 1
        pose_samples, reader_means, tag_estimates = _e_step(
            model, epochs, config, initial_heading, rng
        )
        d, theta, label, weight = _assemble_sensor_dataset(
            epochs,
            pose_samples,
            known_positions,
            tag_estimates,
            config,
        )
        if config.learn_sensor:
            fit = fit_sensor_model(
                d, theta, label, sample_weights=weight, ridge=config.ridge,
                initial=sensor_params,
            )
            sensor_params = fit.sensor_params
            history.append(fit.final_log_likelihood)
        if config.learn_motion and reader_means.shape[0] >= 2:
            motion_params = fit_motion_params(
                reader_means, heading_sigma=motion_params.heading_sigma
            )
        if config.learn_sensing:
            reported = _reported_matrix(epochs)
            mask = ~np.isnan(reported).any(axis=1)
            if mask.sum() >= 2:
                sensing_params = fit_sensing_params(
                    reported[mask], reader_means[mask]
                )
        model = RFIDWorldModel.build(
            shelves,
            shelf_tags=known_positions,
            sensor_params=sensor_params,
            motion_params=motion_params,
            sensing_params=sensing_params,
        )

    return CalibrationResult(
        sensor_params=sensor_params,
        motion_params=motion_params,
        sensing_params=sensing_params,
        model=model,
        sensor_log_likelihoods=history,
        iterations_run=iterations_run,
    )


def _reported_matrix(epochs: Sequence[Epoch]) -> np.ndarray:
    out = np.full((len(epochs), 3), np.nan)
    for t, epoch in enumerate(epochs):
        if epoch.reported_position is not None:
            out[t] = epoch.reported_position
    return out


def _e_step(
    model: RFIDWorldModel,
    epochs: Sequence[Epoch],
    config: EMConfig,
    initial_heading: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """Run the filter; return (T, S, 4) per-epoch pose samples, the filtered mean
    trajectory, and final location estimates for unknown tags.

    The E-step filter gets extra *exploration*: a wide initial particle
    spread and a floored motion noise, so that a systematic offset between
    the reported and true trajectories is inside the particle support and
    shelf-tag evidence can select it.  Without this, EM can only ever learn
    "the reports are exact".
    """
    explore_motion = MotionParams(
        velocity=model.motion.params.velocity,
        sigma=(
            max(model.motion.params.sigma[0], 0.03),
            max(model.motion.params.sigma[1], 0.03),
            model.motion.params.sigma[2],
        ),
        heading_sigma=model.motion.params.heading_sigma,
    )
    e_model = RFIDWorldModel(
        sensor=model.sensor,
        motion=ReaderMotionModel(explore_motion),
        sensing=model.sensing,
        objects=model.objects,
        shelf_tags=dict(model.shelf_tags),
    )
    filter_ = FactoredParticleFilter(
        e_model,
        replace(config.inference, seed=int(rng.integers(0, 2**31 - 1))),
        initial_heading=initial_heading,
        position_spread=0.4,
    )
    pose_samples = np.empty((len(epochs), config.posterior_samples, 4))  # x, y, z, phi
    reader_means = np.zeros((len(epochs), 3))
    for t, epoch in enumerate(epochs):
        filter_.step(epoch)
        positions = filter_._reader_positions  # noqa: SLF001 - same package
        headings = filter_._reader_headings  # noqa: SLF001
        log_w = filter_._reader_log_w  # noqa: SLF001
        assert positions is not None and headings is not None and log_w is not None
        p, _ = normalize_log_weights(log_w)
        idx = rng.choice(positions.shape[0], size=config.posterior_samples, p=p)
        pose_samples[t, :, :3] = positions[idx]
        pose_samples[t, :, 3] = headings[idx]
        reader_means[t] = p @ positions
    tag_estimates = {
        number: filter_.object_estimate(number).mean
        for number in filter_.known_objects()
    }
    return pose_samples, reader_means, tag_estimates


def _assemble_sensor_dataset(
    epochs: Sequence[Epoch],
    pose_samples: np.ndarray,
    known_positions: Dict[int, np.ndarray],
    tag_estimates: Dict[int, np.ndarray],
    config: EMConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the weighted (d, theta, read?) dataset for the sensor M-step."""
    tags = {**tag_estimates, **known_positions}  # known anchors override estimates
    examples = sensor_examples(epochs, pose_samples, tags, config.negative_cutoff_ft)
    return (*examples, np.full_like(examples[0], 1.0 / config.posterior_samples))
