"""Movable-antenna beamforming with a self-evolving maintenance loop.

The package is layered bottom-up: array geometry and gains (`arrays`),
beamforming optimizers (`optimize`), channel synthesis (`channel`),
direction finding (`estimation`), scenario configuration (`scenario`),
the agent lifecycle (`lifecycle`), optional LLM routing (`llm`), file
formats (`reporting`), and the command line (`cli`).
"""

from __future__ import annotations

from evobeam.arrays import (
    ArrayConstraints,
    ArrayGeometry,
    BeamGain,
    DoASet,
    steering_matrix,
    steering_vector,
    sum_beam_gain,
)
from evobeam.channel import (
    CsiSnapshotBatch,
    RandomWalkDrift,
    ScriptedDrift,
    TrajectoryConfig,
    generate_trajectory,
    synthesize_csi,
)
from evobeam.errors import (
    ConfigurationError,
    EvobeamError,
    ProtocolError,
    ValidationError,
)
from evobeam.estimation import DoaEstimate, estimate_doas, sample_covariance
from evobeam.lifecycle import (
    AgentRole,
    EpisodeResult,
    EvolutionEvent,
    MetricsRecord,
    TriggerReason,
    monitoring_check,
    run_episode,
)
from evobeam.optimize import (
    BeamformingSolution,
    OptimizerConfig,
    Strategy,
    fixed_baseline,
    optimal_weights,
    optimize_movable,
    project_positions,
)
from evobeam.scenario import ScenarioConfig, default_scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "AgentRole",
    "ArrayConstraints",
    "ArrayGeometry",
    "BeamGain",
    "BeamformingSolution",
    "ConfigurationError",
    "CsiSnapshotBatch",
    "DoASet",
    "DoaEstimate",
    "EpisodeResult",
    "EvobeamError",
    "EvolutionEvent",
    "MetricsRecord",
    "OptimizerConfig",
    "ProtocolError",
    "RandomWalkDrift",
    "ScenarioConfig",
    "ScriptedDrift",
    "Strategy",
    "TrajectoryConfig",
    "TriggerReason",
    "ValidationError",
    "default_scenario",
    "estimate_doas",
    "fixed_baseline",
    "generate_trajectory",
    "load_scenario",
    "monitoring_check",
    "optimal_weights",
    "optimize_movable",
    "project_positions",
    "run_episode",
    "sample_covariance",
    "steering_matrix",
    "steering_vector",
    "sum_beam_gain",
    "synthesize_csi",
    "__version__",
]
