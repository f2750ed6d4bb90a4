"""Scenario configuration: what an episode runs, loadable from YAML.

The schema is a nested mapping with a mandatory ``schema_version: 1``:

.. code-block:: yaml

    schema_version: 1
    seed: 42
    trajectory:
      num_steps: 50
      initial_angles: [60.0, 90.0, 120.0]
      angle_bounds: [5.0, 175.0]        # optional
      drift:
        kind: random_walk               # or scripted
        sigma_deg_per_step: 1.0         # random_walk only
        # waypoints: [[60, 90, 120], ...]   scripted only
    constraints:                        # optional, defaults shown
      wavelength: 0.125
      num_elements: 8
      min_spacing: 0.0625
      position_bound: 0.625
    optimizer:                          # optional OptimizerConfig fields
      strategy: gradient
      restarts: 16
    monitoring:
      relative_drop_threshold_db: 3.0
    csi:
      snr_db: 10.0
      num_snapshots: 200
    estimation:
      grid_resolution_deg: 0.5
    llm:                                # optional routing endpoint
      base_url: "http://127.0.0.1:8080"
      model_name: "gpt-4o"
      api_key_env: EVOBEAM_API_KEY

Loader errors carry the dotted path of the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import yaml

from .arrays import ArrayConstraints, DoASet
from .channel import (
    DEFAULT_ANGLE_BOUNDS,
    DEFAULT_SNAPSHOTS,
    RandomWalkDrift,
    ScriptedDrift,
    TrajectoryConfig,
)
from .errors import ConfigurationError, EvobeamError
from .estimation import DEFAULT_GRID_RESOLUTION_DEG
from .optimize import OptimizerConfig, Strategy

SCHEMA_VERSION = 1

DEFAULT_INITIAL_ANGLES = (60.0, 90.0, 120.0)
DEFAULT_NUM_STEPS = 50
DEFAULT_DRIFT_SIGMA = 1.0
DEFAULT_SNR_DB = 10.0
DEFAULT_API_KEY_ENV = "EVOBEAM_API_KEY"


@dataclass(frozen=True)
class LlmSettings:
    """Where the optional routing endpoint lives and how to reach it.

    The key itself is never stored here, only the name of the environment
    variable that holds it.
    """

    base_url: str
    model_name: str
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout_s: float = 30.0
    max_retries: int = 2

    def __post_init__(self):
        if not self.base_url:
            raise ConfigurationError("llm.base_url must be a nonempty string")
        if not self.model_name:
            raise ConfigurationError("llm.model_name must be a nonempty string")
        if not self.api_key_env:
            raise ConfigurationError("llm.api_key_env must be a nonempty string")
        if not self.timeout_s > 0:
            raise ConfigurationError("llm.timeout_s must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("llm.max_retries must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything run_episode needs, validated at construction.

    seed drives every random stream of the episode (trajectory, CSI noise,
    optimizer restarts); per-object seeds inside nested configs are
    ignored by the episode runner.
    """

    trajectory: TrajectoryConfig
    constraints: ArrayConstraints = field(default_factory=ArrayConstraints)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    relative_drop_threshold_db: float = 3.0
    snr_db: float = DEFAULT_SNR_DB
    num_snapshots: int = DEFAULT_SNAPSHOTS
    grid_resolution_deg: float = DEFAULT_GRID_RESOLUTION_DEG
    llm: LlmSettings | None = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.relative_drop_threshold_db) and self.relative_drop_threshold_db >= 0):
            raise ConfigurationError("monitoring.relative_drop_threshold_db must be finite and >= 0")
        if not math.isfinite(self.snr_db):
            raise ConfigurationError("csi.snr_db must be finite")
        if self.num_snapshots < 1:
            raise ConfigurationError("csi.num_snapshots must be >= 1")
        if not self.grid_resolution_deg > 0:
            raise ConfigurationError("estimation.grid_resolution_deg must be positive")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        if len(self.trajectory.initial_angles) >= self.constraints.num_elements:
            raise ConfigurationError(
                "trajectory.initial_angles: source count must be below num_elements"
            )


def default_scenario(num_steps: int = DEFAULT_NUM_STEPS, seed: int = 0) -> ScenarioConfig:
    """Three drifting users in front of the default 8-element array."""
    trajectory = TrajectoryConfig(
        num_steps=num_steps,
        initial_angles=DoASet(DEFAULT_INITIAL_ANGLES),
        drift=RandomWalkDrift(DEFAULT_DRIFT_SIGMA),
    )
    return ScenarioConfig(trajectory=trajectory, seed=seed)


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a YAML scenario file.

    Raises:
        ConfigurationError: malformed document; the message names the
            offending field by its dotted path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"config is not valid YAML: {exc}") from exc
    return scenario_from_mapping(data)


_TOP_LEVEL_KEYS = {
    "schema_version",
    "seed",
    "trajectory",
    "constraints",
    "optimizer",
    "monitoring",
    "csi",
    "estimation",
    "llm",
}


def scenario_from_mapping(data) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed YAML mapping."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigurationError(f"{key}: unknown configuration section")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )

    trajectory = _build_trajectory(_section(data, "trajectory", required=True))
    constraints = _build_dataclass(
        ArrayConstraints, _section(data, "constraints"), "constraints"
    )
    optimizer = _build_optimizer(_section(data, "optimizer"))
    monitoring = _section(data, "monitoring")
    csi = _section(data, "csi")
    estimation = _section(data, "estimation")
    llm_section = _section(data, "llm")
    llm = _build_dataclass(LlmSettings, llm_section, "llm") if llm_section else None

    kwargs = dict(
        trajectory=trajectory,
        constraints=constraints,
        optimizer=optimizer,
        llm=llm,
        seed=_number(data, "seed", "seed", default=0, integer=True),
    )
    if monitoring:
        kwargs["relative_drop_threshold_db"] = _number(
            monitoring, "relative_drop_threshold_db", "monitoring.relative_drop_threshold_db", default=3.0
        )
        _reject_unknown(monitoring, {"relative_drop_threshold_db"}, "monitoring")
    if csi:
        kwargs["snr_db"] = _number(csi, "snr_db", "csi.snr_db", default=DEFAULT_SNR_DB)
        kwargs["num_snapshots"] = _number(
            csi, "num_snapshots", "csi.num_snapshots", default=DEFAULT_SNAPSHOTS, integer=True
        )
        _reject_unknown(csi, {"snr_db", "num_snapshots"}, "csi")
    if estimation:
        kwargs["grid_resolution_deg"] = _number(
            estimation, "grid_resolution_deg", "estimation.grid_resolution_deg",
            default=DEFAULT_GRID_RESOLUTION_DEG,
        )
        _reject_unknown(estimation, {"grid_resolution_deg"}, "estimation")
    try:
        return ScenarioConfig(**kwargs)
    except ConfigurationError:
        raise
    except EvobeamError as exc:
        raise ConfigurationError(str(exc)) from exc


def _section(data, key, required=False):
    value = data.get(key)
    if value is None:
        if required:
            raise ConfigurationError(f"{key}: section is required")
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key}: expected a mapping")
    return value


def _reject_unknown(section, known, path):
    for key in section:
        if key not in known:
            raise ConfigurationError(f"{path}.{key}: unknown field")


def _number(section, key, path, default=None, integer=False):
    value = section.get(key, default)
    if value is None:
        raise ConfigurationError(f"{path}: field is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _angle_list(section, key, path, required=False):
    value = section.get(key)
    if value is None:
        if required:
            raise ConfigurationError(f"{path}: field is required")
        return None
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigurationError(f"{path}: expected a nonempty list of angles")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigurationError(f"{path}[{i}]: expected a number, got {item!r}")
        out.append(float(item))
    return tuple(out)


def _build_trajectory(section) -> TrajectoryConfig:
    _reject_unknown(section, {"num_steps", "initial_angles", "angle_bounds", "drift"}, "trajectory")
    initial = _angle_list(section, "initial_angles", "trajectory.initial_angles", required=True)
    try:
        initial_set = DoASet(initial)
    except EvobeamError as exc:
        raise ConfigurationError(f"trajectory.initial_angles: {exc}") from exc
    bounds = _angle_list(section, "angle_bounds", "trajectory.angle_bounds")
    drift_section = _section(section, "drift")
    kind = drift_section.get("kind", "random_walk")
    if kind == "random_walk":
        _reject_unknown(drift_section, {"kind", "sigma_deg_per_step"}, "trajectory.drift")
        drift = RandomWalkDrift(
            _number(drift_section, "sigma_deg_per_step", "trajectory.drift.sigma_deg_per_step",
                    default=DEFAULT_DRIFT_SIGMA)
        )
    elif kind == "scripted":
        _reject_unknown(drift_section, {"kind", "waypoints"}, "trajectory.drift")
        raw = drift_section.get("waypoints")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigurationError("trajectory.drift.waypoints: expected a nonempty list")
        waypoints = tuple(
            _angle_list({"w": w}, "w", f"trajectory.drift.waypoints[{i}]", required=True)
            for i, w in enumerate(raw)
        )
        drift = ScriptedDrift(waypoints)
    else:
        raise ConfigurationError(f"trajectory.drift.kind: unknown kind {kind!r}")
    kwargs = dict(
        num_steps=_number(section, "num_steps", "trajectory.num_steps",
                          default=DEFAULT_NUM_STEPS, integer=True),
        initial_angles=initial_set,
        drift=drift,
    )
    if bounds is not None:
        if len(bounds) != 2:
            raise ConfigurationError("trajectory.angle_bounds: expected [low, high]")
        kwargs["angle_bounds"] = bounds
    try:
        return TrajectoryConfig(**kwargs)
    except EvobeamError as exc:
        raise ConfigurationError(f"trajectory: {exc}") from exc


def _build_optimizer(section) -> OptimizerConfig:
    if section and "strategy" in section:
        section = dict(section)
        raw = section.pop("strategy")
        try:
            section["strategy"] = Strategy(raw)
        except ValueError:
            raise ConfigurationError(
                f"optimizer.strategy: expected gradient or coordinate, got {raw!r}"
            ) from None
        cfg = _build_dataclass(OptimizerConfig, section, "optimizer")
        return cfg
    return _build_dataclass(OptimizerConfig, section, "optimizer")


def _build_dataclass(cls, section, path):
    """Instantiate a config dataclass from a mapping, checking field names."""
    known = {f.name for f in fields(cls)}
    _reject_unknown(section, known, path)
    try:
        return cls(**section)
    except (EvobeamError, TypeError) as exc:
        message = str(exc)
        if not message.startswith(f"{path}."):
            message = f"{path}: {message}"
        raise ConfigurationError(message) from exc
