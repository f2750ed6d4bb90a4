"""Scenario configuration: what an episode runs, loadable from YAML.

The schema is a nested mapping with a mandatory ``schema_version: 1``:

.. code-block:: yaml

    schema_version: 1
    seed: 42
    trajectory:
      num_steps: 50                     # optional, default shown
      initial_angles: [60.0, 90.0, 120.0]
      drift:                            # optional, default shown
        kind: random_walk               # or scripted
        sigma_deg_per_step: 1.0         # random_walk only
        # waypoints: [[60, 90, 120], ...]   scripted only
    constraints:                        # optional, defaults shown
      wavelength: 0.125
      num_elements: 8
      min_spacing: 0.0625
      position_bound: 0.625
    optimizer:                          # optional search budget, default shown
      restarts: 16                      # at most optimize.MAX_RESTARTS (1024)
    csi:                                # optional, default shown
      snr_db: 10.0
    llm:                                # optional routing endpoint
      base_url: "http://127.0.0.1:8080"
      model_name: "gpt-4o"
      api_key_env: EVOBEAM_API_KEY      # optional, default shown
      timeout_s: 30.0                   # optional, at most MAX_TIMEOUT_S (3600)
      max_retries: 2                    # optional, at most MAX_RETRIES (10)

The optimizer section sets the budget of the one position search, projected
gradient ascent: its number of restarts. The step schedule is fixed (see
the constants in evobeam.optimize). It takes no seed: every Training run
draws its seed from the scenario seed. The llm section builds an
EndpointConfig; it names the environment variable that holds the API key,
never the key, which EndpointConfig.from_settings reads at run time.
Sensing is fixed too: users stay inside channel.ANGLE_BOUNDS, every CSI
batch holds channel.DEFAULT_SNAPSHOTS snapshots, the estimator scans a
fixed grid, and Monitoring fires on a drop of
lifecycle.DEFAULT_RELATIVE_DROP_DB.
Loader errors carry the dotted path of the offending field.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields, replace

import yaml

from .arrays import ArrayConstraints, DoASet
from .channel import (
    DEFAULT_NUM_STEPS,
    RandomWalkDrift,
    ScriptedDrift,
    TrajectoryConfig,
    noise_power,
)
from .errors import (
    ConfigurationError,
    EvobeamError,
    check_count,
    check_finite,
    check_positive_finite,
)
from .optimize import OptimizerConfig

SCHEMA_VERSION = 1

DEFAULT_INITIAL_ANGLES = (60.0, 90.0, 120.0)
DEFAULT_SNR_DB = 10.0
DEFAULT_API_KEY_ENV = "EVOBEAM_API_KEY"
# socket.settimeout raises OverflowError from about 9.2e9 s, which would
# fail only inside the run; no routing answer is worth an hour's wait
MAX_TIMEOUT_S = 3600.0
# every attempt may wait timeout_s, so an unbounded count could hold one
# transition for days; at both caps it waits at most eleven hours
MAX_RETRIES = 10


@dataclass(frozen=True)
class EndpointConfig:
    """Where the optional routing endpoint lives and how to reach it.

    The llm section fills every field but api_key, so a config file names
    only the environment variable that holds the key; from_settings reads
    it. api_key is kept out of repr and must never appear in logs or
    serialized output.
    """

    base_url: str
    model_name: str
    api_key: str = field(repr=False, default="")
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout_s: float = 30.0
    max_retries: int = 2

    def __post_init__(self):
        for name in ("base_url", "model_name", "api_key_env"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value):
                raise ConfigurationError(f"llm.{name} must be a nonempty string, got {value!r}")
        check_positive_finite("llm.timeout_s", self.timeout_s, MAX_TIMEOUT_S)
        retries = check_count("llm.max_retries", self.max_retries, 0, MAX_RETRIES)
        object.__setattr__(self, "max_retries", retries)

    @classmethod
    def from_settings(cls, config: EndpointConfig) -> EndpointConfig:
        """config with api_key read from the variable named by api_key_env."""
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise ConfigurationError(
                f"environment variable {config.api_key_env} is not set; "
                "it must hold the endpoint API key"
            )
        return replace(config, api_key=key)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything run_episode needs, validated at construction.

    seed drives every random stream of the episode: trajectory, CSI noise
    and optimizer restarts. run_episode and Training replace
    trajectory.seed and optimizer.seed with streams derived from it, so the
    episode never reads those two.
    """

    trajectory: TrajectoryConfig
    constraints: ArrayConstraints = field(default_factory=ArrayConstraints)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    snr_db: float = DEFAULT_SNR_DB
    llm: EndpointConfig | None = None
    seed: int = 0

    def __post_init__(self):
        noise_power(self.snr_db, "csi.snr_db")
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))
        if len(self.trajectory.initial_angles) >= self.constraints.num_elements:
            raise ConfigurationError(
                "trajectory.initial_angles: source count must be below num_elements"
            )


def default_scenario(num_steps: int = DEFAULT_NUM_STEPS, seed: int = 0) -> ScenarioConfig:
    """Three drifting users in front of the default 8-element array."""
    trajectory = TrajectoryConfig(
        initial_angles=DoASet(DEFAULT_INITIAL_ANGLES), num_steps=num_steps
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


# YAML section -> (the config class it builds, the keys it takes), each key
# the name of the field it fills. The ScenarioConfig sections fill its own
# fields. optimizer takes no seed; see ScenarioConfig. llm takes no api_key,
# so the key can only come from the environment.
_SECTIONS = {
    "trajectory": (TrajectoryConfig, ("num_steps", "initial_angles", "drift")),
    "constraints": (
        ArrayConstraints,
        ("wavelength", "num_elements", "min_spacing", "position_bound"),
    ),
    "optimizer": (OptimizerConfig, ("restarts",)),
    "csi": (ScenarioConfig, ("snr_db",)),
    "llm": (EndpointConfig, ("base_url", "model_name", "api_key_env", "timeout_s", "max_retries")),
}

_DRIFTS = {"random_walk": RandomWalkDrift, "scripted": ScriptedDrift}


def scenario_from_mapping(data) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed YAML mapping.

    A missing or empty section keeps the ScenarioConfig default.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    for key in data:
        if key not in {"schema_version", "seed", *_SECTIONS}:
            raise ConfigurationError(f"{key}: unknown configuration section")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    kwargs = {"seed": data["seed"]} if "seed" in data else {}
    for name, (cls, keys) in _SECTIONS.items():
        section = _mapping(data.get(name), name)
        if cls is ScenarioConfig:
            kwargs.update(_values(section, name, keys))
        elif section:
            kwargs[name] = _build(cls, section, name, keys)
    if "trajectory" not in kwargs:
        raise ConfigurationError("trajectory: section is required")
    try:
        return ScenarioConfig(**kwargs)
    except EvobeamError as exc:
        raise ConfigurationError(str(exc)) from exc


def _mapping(value, path):
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: expected a mapping")
    return value


def _angles(value, path):
    """A nonempty YAML list of angles as a tuple of floats."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigurationError(f"{path}: expected a nonempty list of angles")
    return tuple(check_finite(f"{path}[{i}]", a) for i, a in enumerate(value))


def _waypoints(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigurationError(f"{path}: expected a nonempty list")
    return tuple(_angles(w, f"{path}[{i}]") for i, w in enumerate(value))


def _drift(value, path):
    section = dict(_mapping(value, path))
    kind = section.pop("kind", "random_walk")
    cls = _DRIFTS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"{path}.kind: unknown kind {kind!r}")
    return _build(cls, section, path, tuple(f.name for f in fields(cls)))


# keys whose YAML value is reshaped before its dataclass sees it
_CONVERTERS = {
    "trajectory.initial_angles": lambda value, path: DoASet(_angles(value, path)),
    "trajectory.drift": _drift,
    "trajectory.drift.waypoints": _waypoints,
}


def _values(section, path, keys):
    """The section's values by field name, reshaped where _CONVERTERS says."""
    values = {}
    for key, value in section.items():
        if key not in keys:
            raise ConfigurationError(f"{path}.{key}: unknown field")
        convert = _CONVERTERS.get(f"{path}.{key}")
        if convert is not None:
            try:
                value = convert(value, f"{path}.{key}")
            except EvobeamError as exc:
                raise _located(exc, f"{path}.{key}") from exc
        values[key] = value
    return values


def _build(cls, section, path, keys):
    """cls from one section; every error names its field by dotted path."""
    values = _values(section, path, keys)
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in values:
            raise ConfigurationError(f"{path}.{f.name}: field is required")
    try:
        return cls(**values)
    except (EvobeamError, TypeError) as exc:
        raise _located(exc, path, keys) from exc


def _located(exc, path, names=()):
    """exc as a ConfigurationError whose message starts with its field path.

    A message that already carries the path is kept; one that opens with
    a field name from names gets that field's dotted path; any other
    message is put under path.
    """
    message = str(exc)
    if message.startswith(path):
        return ConfigurationError(message)
    if message.split(" ", 1)[0] in names:
        return ConfigurationError(f"{path}.{message}")
    return ConfigurationError(f"{path}: {message}")
