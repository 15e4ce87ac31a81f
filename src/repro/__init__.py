"""repro — Probabilistic inference over RFID streams in mobile environments.

A from-scratch reproduction of Tran, Sutton, Cocci, Nie, Diao & Shenoy,
*Probabilistic Inference over RFID Streams in Mobile Environments* (ICDE
2009): a probabilistic model of mobile RFID data generation, self-calibration
via EM, and scalable particle-filter inference (particle factorization,
spatial indexing, belief compression) that translates noisy raw RFID streams
into clean location-event streams — plus the warehouse/lab simulators,
SMURF and uniform baselines, and a CQL-style stream query engine.

Typical use::

    from repro import (
        WarehouseSimulator, WarehouseConfig, InferenceConfig,
        FactoredParticleFilter, CleaningPipeline,
    )

    sim = WarehouseSimulator(WarehouseConfig())
    trace = sim.generate()
    model = sim.world_model()
    engine = FactoredParticleFilter(model, InferenceConfig())
    events = CleaningPipeline(engine).run(trace.epochs())
"""

from .baselines import (
    SmurfConfig,
    SmurfFilter,
    SmurfLocationConfig,
    SmurfLocationEstimator,
    UniformConfig,
    UniformSampler,
)
from .config import (
    CompressionConfig,
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    ServeConfig,
    SpatialIndexConfig,
    SupervisorConfig,
)
from .errors import (
    ClientConnectError,
    ConfigurationError,
    GeometryError,
    InferenceError,
    LearningError,
    QueryError,
    ReproError,
    ServeError,
    SimulationError,
    StateError,
    StreamError,
    WorkerError,
    WorkerTimeout,
)
from .eval import (
    ErrorSummary,
    SystemResult,
    error_reduction,
    inference_error,
    run_factored,
    run_naive,
    run_smurf,
    run_uniform,
)
from .faults import FaultPlan, FaultRule
from .geometry import Box, Cone, ShelfRegion, ShelfSet
from .inference import (
    CleaningPipeline,
    FactoredParticleFilter,
    GaussianBelief,
    LocationEstimate,
    NaiveParticleFilter,
)
from .learning import (
    CalibrationResult,
    EMConfig,
    calibrate,
    fit_sensor_model,
    fit_sensor_supervised,
    fit_sensor_to_field,
)
from .models import (
    DEFAULT_SENSOR_PARAMS,
    LocationSensingModel,
    MotionParams,
    ObjectDynamicsParams,
    ObjectLocationModel,
    RFIDWorldModel,
    ReaderMotionModel,
    SensingNoiseParams,
    SensorModel,
    SensorParams,
)
from .query import (
    ContinuousQuery,
    QueryEngine,
    fire_code_query,
    location_update_query,
    tuple_from_event,
)
from .runtime import EventBus, QueryBridge, ShardedRuntime
from .simulation import (
    ConeTruthSensor,
    LabConfig,
    LabDeployment,
    LayoutConfig,
    ScheduledMove,
    SphericalTruthSensor,
    WarehouseConfig,
    WarehouseSimulator,
)
from .spatial import SensingRegionIndex
from .state import (
    CheckpointManifest,
    load_checkpoint,
    restore_runtime,
    save_checkpoint,
)
from .streams import (
    CollectingSink,
    Epoch,
    LocationEvent,
    ReaderLocationReport,
    TagId,
    TagReading,
    Trace,
    make_epoch,
)

__version__ = "1.1.0"

__all__ = [
    "Box",
    "CalibrationResult",
    "CheckpointManifest",
    "CleaningPipeline",
    "CollectingSink",
    "CompressionConfig",
    "Cone",
    "ConeTruthSensor",
    "ClientConnectError",
    "ConfigurationError",
    "ContinuousQuery",
    "DEFAULT_SENSOR_PARAMS",
    "EMConfig",
    "Epoch",
    "EventBus",
    "ErrorSummary",
    "FaultPlan",
    "FaultRule",
    "FactoredParticleFilter",
    "GaussianBelief",
    "GeometryError",
    "InferenceConfig",
    "InferenceError",
    "LabConfig",
    "LabDeployment",
    "LayoutConfig",
    "LearningError",
    "LocationEstimate",
    "LocationEvent",
    "LocationSensingModel",
    "MotionParams",
    "NaiveParticleFilter",
    "ObjectDynamicsParams",
    "ObjectLocationModel",
    "OutputPolicyConfig",
    "QueryBridge",
    "QueryEngine",
    "QueryError",
    "RFIDWorldModel",
    "ReaderLocationReport",
    "ReaderMotionModel",
    "ReproError",
    "RuntimeConfig",
    "ScheduledMove",
    "ShardedRuntime",
    "SensingNoiseParams",
    "SensingRegionIndex",
    "SensorModel",
    "SensorParams",
    "ServeConfig",
    "ServeError",
    "ShelfRegion",
    "ShelfSet",
    "SimulationError",
    "SmurfConfig",
    "SmurfFilter",
    "SmurfLocationConfig",
    "SmurfLocationEstimator",
    "SpatialIndexConfig",
    "SphericalTruthSensor",
    "StateError",
    "StreamError",
    "SupervisorConfig",
    "SystemResult",
    "TagId",
    "TagReading",
    "Trace",
    "UniformConfig",
    "UniformSampler",
    "WarehouseConfig",
    "WarehouseSimulator",
    "WorkerError",
    "WorkerTimeout",
    "calibrate",
    "error_reduction",
    "fire_code_query",
    "fit_sensor_model",
    "fit_sensor_supervised",
    "fit_sensor_to_field",
    "inference_error",
    "load_checkpoint",
    "location_update_query",
    "make_epoch",
    "restore_runtime",
    "run_factored",
    "run_naive",
    "run_smurf",
    "run_uniform",
    "save_checkpoint",
    "tuple_from_event",
    "__version__",
]
