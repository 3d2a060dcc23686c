"""repro: completely distributed particle filters for target tracking in WSNs.

A full reproduction of Jiang & Ravindran, "Completely Distributed Particle
Filters for Target Tracking in Sensor Networks" (IPDPS 2011): the CDPF and
CDPF-NE algorithms, the CPF and SDPF baselines, the WSN simulation substrate
they run on, and the harness that regenerates every table and figure of the
paper's evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import make_paper_scenario, make_tracker, make_trajectory, run_tracking
>>> rng = np.random.default_rng(7)
>>> scenario = make_paper_scenario(density_per_100m2=20.0, rng=rng)
>>> trajectory = make_trajectory(n_iterations=50, rng=rng)
>>> tracker = make_tracker("CDPF", scenario, rng=rng)
>>> result = run_tracking(tracker, scenario, trajectory, rng=rng)
>>> result.rmse < 10.0
True

The stable public surface is exactly ``__all__`` below, snapshotted in
``docs/api.txt`` and pinned by ``tests/test_public_api.py``: changing the
exports without updating the snapshot fails CI.
"""

from .baselines import CPFTracker, DPFTracker, SDPFTracker
from .core import CDPFTracker, PropagationConfig
from .experiments import (
    CheckpointPolicy,
    JsonlStore,
    RunOptions,
    RunSummary,
    StepOutcome,
    StoreLoadError,
    TrackingResult,
    TrackingRun,
    density_sweep,
    iteration_subscriber,
    run_tracking,
)
from .factory import make_tracker, register_tracker, tracker_factory, tracker_names
from .filters import ParticleSet, SIRFilter
from .models import BearingMeasurement, ConstantVelocityModel, random_turn_trajectory
from .network import DataSizes, Medium, RadioModel, uniform_deployment
from .runtime import (
    Checkpointable,
    CheckpointError,
    EventBus,
    IterationEvent,
    Phase,
    PhaseEvent,
    PhasePipeline,
    PhaseProfile,
    RunCheckpoint,
    TrackerStats,
)
from .scenario import Scenario, StepContext, make_paper_scenario, make_trajectory

# .config imports large parts of the package above, so it comes last
from .config import (
    ConfigError,
    ScenarioConfig,
    load_config,
    run_config,
    run_fingerprint,
    save_config,
)

# .service builds on .config, so it comes after it
from .service import ServiceConfig, SessionManager, TrackingService

__version__ = "1.0.0"

__all__ = [
    "CPFTracker", "DPFTracker", "SDPFTracker", "CDPFTracker", "PropagationConfig",
    "JsonlStore", "RunSummary", "StoreLoadError", "TrackingResult", "density_sweep", "run_tracking",
    "CheckpointPolicy", "RunOptions", "StepOutcome", "TrackingRun", "iteration_subscriber",
    "make_tracker", "register_tracker", "tracker_factory", "tracker_names",
    "ParticleSet", "SIRFilter",
    "BearingMeasurement", "ConstantVelocityModel", "random_turn_trajectory",
    "DataSizes", "Medium", "RadioModel", "uniform_deployment",
    "CheckpointError", "Checkpointable", "RunCheckpoint",
    "EventBus", "IterationEvent", "Phase", "PhaseEvent", "PhasePipeline",
    "PhaseProfile", "TrackerStats",
    "Scenario", "StepContext", "make_paper_scenario", "make_trajectory",
    "ConfigError", "ScenarioConfig", "load_config", "run_config",
    "run_fingerprint", "save_config",
    "ServiceConfig", "SessionManager", "TrackingService",
    "__version__",
]
