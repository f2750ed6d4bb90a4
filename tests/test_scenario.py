"""Scenario loader: field validation with dotted error paths."""

import math
import re
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evobeam.arrays import MAX_ELEMENTS
from evobeam.channel import MAX_STEPS, MIN_SNR_DB
from evobeam.errors import ConfigurationError
from evobeam import scenario
from evobeam.lifecycle import run_episode
from evobeam.optimize import MAX_RESTARTS
from evobeam.scenario import (
    MAX_RETRIES,
    MAX_TIMEOUT_S,
    EndpointConfig,
    ScenarioConfig,
    scenario_from_mapping,
)


def minimal_mapping(**sections):
    return {
        "schema_version": 1,
        "trajectory": {"num_steps": 3, "initial_angles": [60.0, 90.0, 120.0]},
        **sections,
    }


def test_whole_float_optimizer_count_is_accepted_as_int():
    config = scenario_from_mapping(minimal_mapping(optimizer={"restarts": 2.0}))
    assert config.optimizer.restarts == 2
    assert type(config.optimizer.restarts) is int


def with_value(path, value):
    """minimal_mapping with the field at the dotted path set to value."""
    mapping = minimal_mapping()
    *sections, key = path.split(".")
    node = mapping
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return mapping


NUMBER_FIELDS = [
    "seed",
    "trajectory.num_steps",
    "trajectory.drift.sigma_deg_per_step",
    "optimizer.restarts",
    "csi.snr_db",
]
NON_FINITE = [math.inf, -math.inf, math.nan, 10**400]


@pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("path", NUMBER_FIELDS)
def test_non_finite_number_is_rejected_with_its_path(path, value):
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(path)}\b"):
        scenario_from_mapping(with_value(path, value))


@pytest.mark.parametrize(
    "path, named",
    [
        ("monitoring.relative_drop_threshold_db", "monitoring"),
        ("estimation.grid_resolution_deg", "estimation"),
        ("csi.num_snapshots", "csi.num_snapshots"),
        ("trajectory.angle_bounds", "trajectory.angle_bounds"),
    ],
)
def test_fixed_sensing_setting_is_rejected_with_its_path(path, named):
    # these are constants now; a config that sets one is refused, not ignored
    value = [5.0, 175.0] if path == "trajectory.angle_bounds" else 3
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(named)}: unknown"):
        scenario_from_mapping(with_value(path, value))


@pytest.mark.parametrize(
    "path, value",
    [
        ("optimizer.restarts", 1.5),
        ("optimizer.restarts", MAX_RESTARTS + 1),
        ("optimizer.restarts", 10**15),
        ("constraints.num_elements", MAX_ELEMENTS + 1),
        ("constraints.num_elements", 10**9),
        ("csi.snr_db", -1e308),
        ("csi.snr_db", -3100.0),
        # the noise power is finite here, but a batch's covariance is not
        ("csi.snr_db", -3060.0),
        ("csi.snr_db", MIN_SNR_DB - 1.0),
        ("trajectory.num_steps", 0),
        ("trajectory.num_steps", MAX_STEPS + 1),
        ("trajectory.num_steps", 10**9),
        ("trajectory.initial_angles", [2.0, 90.0, 120.0]),
        ("trajectory.drift.waypoints", [[60.0, 90.0, 120.0]] * 2),
        ("trajectory.drift.waypoints", [[60.0, 90.0, 120.0], [60.0, 90.0], [60.0, 90.0, 120.0]]),
        ("trajectory.drift.waypoints", [[61.0, 90.0, 120.0]] * 3),
        # inside (0, 180), but outside the range the scan covers
        (
            "trajectory.drift.waypoints",
            [[60.0, 90.0, 120.0], [1.0, 90.0, 179.5], [0.5, 90.0, 179.9]],
        ),
    ],
)
def test_value_that_cannot_run_is_rejected_with_its_path(path, value):
    # the loader builds no arrays, so a huge count costs nothing here; the
    # wide bound fits any element count, so only the cap can reject one
    mapping = with_value(path, value)
    mapping.setdefault("constraints", {})["position_bound"] = 1e9
    if path == "trajectory.drift.waypoints":
        mapping["trajectory"]["drift"]["kind"] = "scripted"
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(path)}\b"):
        scenario_from_mapping(mapping)


def test_values_at_the_caps_load():
    mapping = minimal_mapping(
        trajectory={"num_steps": MAX_STEPS, "initial_angles": [60.0, 90.0, 120.0]},
        optimizer={"restarts": MAX_RESTARTS},
        constraints={"num_elements": MAX_ELEMENTS, "position_bound": 1e9},
        csi={"snr_db": -3000.0},
        llm={**LLM, "timeout_s": MAX_TIMEOUT_S, "max_retries": MAX_RETRIES},
    )
    config = scenario_from_mapping(mapping)
    assert config.optimizer.restarts == MAX_RESTARTS
    assert (config.llm.timeout_s, config.llm.max_retries) == (MAX_TIMEOUT_S, MAX_RETRIES)
    assert config.constraints.num_elements == MAX_ELEMENTS
    assert config.trajectory.num_steps == MAX_STEPS


@pytest.mark.parametrize(
    "field, value",
    [
        ("strategy", "coordinate"),
        ("seed", 3),
        ("grid_resolution", 0.01),
        ("step_size", 0.05),
        ("max_outer_iterations", 500),
        ("gain_tolerance_db", 1e-6),
        ("max_step_halvings", 20),
    ],
)
def test_unknown_optimizer_field_is_rejected_with_its_path(field, value):
    # there is one position search, with no grid and a fixed step schedule;
    # Training derives its own seed, so a seed here would be silently replaced
    with pytest.raises(ConfigurationError, match=rf"^optimizer\.{field}\b"):
        scenario_from_mapping(minimal_mapping(optimizer={field: value, "restarts": 2}))


@pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("path", ["trajectory.initial_angles"])
def test_non_finite_angle_is_rejected_with_its_index(path, value):
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(path)}\[1\]"):
        scenario_from_mapping(with_value(path, [60.0, value]))


@pytest.mark.parametrize(
    "path, value",
    [
        ("constraints.num_elements", math.inf),
        ("constraints.num_elements", math.nan),
        ("constraints.num_elements", 10**400),
        ("constraints.num_elements", 2.5),
        ("constraints.num_elements", True),
        ("constraints.wavelength", math.inf),
        ("constraints.min_spacing", -1.0),
        ("constraints.position_bound", 10**400),
    ],
)
def test_bad_constraint_is_rejected_with_its_path(path, value):
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(path)}\b"):
        scenario_from_mapping(with_value(path, value))


LLM = {"base_url": "http://127.0.0.1:1/v1", "model_name": "m"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_retries", 1.5),
        ("max_retries", True),
        ("max_retries", -1),
        ("max_retries", math.inf),
        ("max_retries", MAX_RETRIES + 1),
        ("max_retries", 10**9),
        ("timeout_s", math.inf),
        ("timeout_s", MAX_TIMEOUT_S * 2),
        ("timeout_s", 1.0e300),
        ("timeout_s", math.nan),
        ("timeout_s", 0),
        ("timeout_s", True),
        ("timeout_s", "30"),
        ("base_url", 5),
        ("model_name", ["m"]),
        ("api_key_env", 7),
    ],
)
def test_bad_llm_setting_is_rejected_with_its_path(field, value):
    with pytest.raises(ConfigurationError, match=rf"^llm\.{field}\b"):
        scenario_from_mapping(minimal_mapping(llm={**LLM, field: value}))


def test_llm_counts_accept_whole_numbers():
    config = scenario_from_mapping(minimal_mapping(llm={**LLM, "max_retries": 3.0}))
    assert config.llm.max_retries == 3
    assert type(config.llm.max_retries) is int


def test_llm_section_cannot_carry_the_key():
    # the key comes only from the variable api_key_env names
    with pytest.raises(ConfigurationError, match=r"^llm\.api_key: unknown field"):
        scenario_from_mapping(minimal_mapping(llm={**LLM, "api_key": "sk-in-a-file"}))
    assert scenario_from_mapping(minimal_mapping(llm=LLM)).llm.api_key == ""


LLM_FIELDS = {
    "base_url": (st.just("http://127.0.0.1:1/v1"), st.one_of(st.just(""), st.integers())),
    "model_name": (st.text(min_size=1, max_size=6), st.one_of(st.just(""), st.none())),
    "api_key_env": (st.just("EVOBEAM_API_KEY"), st.one_of(st.just(""), st.booleans())),
    "timeout_s": (
        st.floats(min_value=1e-3, max_value=MAX_TIMEOUT_S),
        st.one_of(
            st.floats(max_value=0.0),
            st.floats(min_value=MAX_TIMEOUT_S, exclude_min=True),
            st.just(math.nan),
            st.booleans(),
            st.text(max_size=3),
        ),
    ),
    "max_retries": (
        st.integers(0, MAX_RETRIES),
        st.one_of(
            st.integers(max_value=-1),
            st.integers(min_value=MAX_RETRIES + 1),
            st.floats(min_value=0.1, max_value=0.9),
            st.just(math.inf),
            st.booleans(),
        ),
    ),
}


@st.composite
def llm_sections(draw):
    """An llm section with each field left out, drawn valid or drawn invalid."""
    section, bad = {}, set()
    for name, (good, wrong) in LLM_FIELDS.items():
        choice = draw(st.sampled_from(["absent", "valid", "invalid"]))
        if choice != "absent":
            section[name] = draw(good if choice == "valid" else wrong)
        if choice == "invalid":
            bad.add(name)
    return section, bad


@settings(max_examples=300, deadline=None)
@given(drawn=llm_sections())
def test_llm_section_loads_or_names_a_bad_field(drawn):
    section, bad = drawn
    try:
        config = scenario_from_mapping(minimal_mapping(llm=section))
    except ConfigurationError as exc:
        missing = {"base_url", "model_name"} - set(section)
        named = re.match(r"llm\.(\w+)\b", str(exc))
        assert named is not None and named.group(1) in bad | missing, str(exc)
    else:
        assert not bad
        assert not section or config.llm == EndpointConfig(**section)


# The schema as nested mappings; each leaf holds one valid value.
ANGLES = [60.0, 90.0, 120.0]
SCHEMA = {
    "schema_version": 1,
    "seed": 3,
    "trajectory": {
        "num_steps": 3,
        "initial_angles": ANGLES,
        "drift": {"kind": "scripted", "sigma_deg_per_step": 1.0, "waypoints": [ANGLES] * 3},
    },
    "constraints": {
        "wavelength": 0.125,
        "num_elements": 8,
        "min_spacing": 0.0625,
        "position_bound": 0.625,
    },
    "optimizer": {"restarts": 2},
    "csi": {"snr_db": 10.0},
    "llm": {
        "base_url": "http://127.0.0.1:1/v1",
        "model_name": "m",
        "api_key_env": "EVOBEAM_API_KEY",
        "timeout_s": 1.0,
        "max_retries": 0,
    },
}

SCALARS = st.one_of(
    st.integers(),
    st.sampled_from([0, 1, 2, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1.0, max_value=179.0),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["gradient", "random_walk", "scripted"]),
    st.none(),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.lists(st.lists(st.floats(min_value=1.0, max_value=179.0), max_size=4), max_size=4),
)


def valid_values(valid):
    """The field's valid value, mapping or drawn valid value."""
    if isinstance(valid, dict):
        return valid_mappings(valid)
    return valid if isinstance(valid, st.SearchStrategy) else st.just(valid)


def valid_mappings(schema):
    """Mappings over the schema's field names, each field optional and valid."""
    return st.fixed_dictionaries(
        {}, optional={name: valid_values(valid) for name, valid in schema.items()}
    )


def field_values(valid):
    """The field's valid value (or mapping, or drawn valid value) three times
    in four, any value otherwise."""
    good = schema_mappings(valid) if isinstance(valid, dict) else valid_values(valid)
    return st.integers(0, 3).flatmap(lambda draw: good if draw else VALUES)


def schema_mappings(schema):
    """Mappings over the schema's field names, each field optional."""
    return st.fixed_dictionaries(
        {}, optional={name: field_values(valid) for name, valid in schema.items()}
    )


PATH_HEAD = re.compile(r"([A-Za-z_]\w*)(?:\.\w+|\[\d+\])*(?::| |$)")


# SCHEMA with its numeric leaves drawn over wide valid ranges; the loader
# builds no arrays and no trajectory, so large counts cost nothing
LOADABLE = {
    **SCHEMA,
    "seed": st.integers(0, 2**63),
    "trajectory": {
        **SCHEMA["trajectory"],
        "num_steps": st.integers(1, MAX_STEPS),
        # the scripted drift holds three waypoints, so only a random walk
        # loads at the other step counts
        "drift": st.one_of(
            schema_mappings({"kind": "random_walk", "sigma_deg_per_step": st.floats(0.0, 1e3)}),
            schema_mappings(SCHEMA["trajectory"]["drift"]),
        ),
    },
    "constraints": {
        # spacings up to 1 and bounds from 1 fit most drawn element counts
        "wavelength": st.floats(1e-3, 10.0),
        "num_elements": st.integers(1, MAX_ELEMENTS),
        "min_spacing": st.floats(1e-3, 1.0),
        "position_bound": st.floats(1.0, 1e4),
    },
    "optimizer": {"restarts": st.integers(1, MAX_RESTARTS)},
    "csi": {"snr_db": st.floats(MIN_SNR_DB, 1e3)},
    "llm": {
        **SCHEMA["llm"],
        "timeout_s": st.floats(1e-3, MAX_TIMEOUT_S),
        "max_retries": st.integers(0, MAX_RETRIES),
    },
}


@settings(max_examples=400, deadline=None)
@given(drawn=schema_mappings(LOADABLE))
def test_loader_returns_a_config_or_names_the_field(drawn):
    """Any schema-shaped mapping loads or fails with a dotted field path,
    nothing else; what loads carries the values the mapping gave."""
    mapping = {**minimal_mapping(), **drawn}
    try:
        config = scenario_from_mapping(mapping)
    except ConfigurationError as exc:
        head = PATH_HEAD.match(str(exc))
        assert head is not None and head.group(1) in set(SCHEMA) | set(mapping), str(exc)
    else:
        assert isinstance(config, ScenarioConfig)
        built = {"constraints": config.constraints, "optimizer": config.optimizer}
        for section, target in built.items():
            for key, value in (mapping.get(section) or {}).items():
                # a null spacing or bound asks for its default
                assert value is None or getattr(target, key) == value, (section, key)
        csi = mapping.get("csi") or {}
        if "snr_db" in csi:
            assert config.snr_db == csi["snr_db"]


def run_without_warnings(config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_episode(config)


@pytest.mark.parametrize("elements, bound", [(8, 2.5), (128, 16.0)])
def test_the_snr_floor_runs_without_an_abort(elements, bound):
    assert MIN_SNR_DB == -3000.0
    config = scenario_from_mapping(
        minimal_mapping(
            constraints={"num_elements": elements, "position_bound": bound},
            optimizer={"restarts": 2},
            csi={"snr_db": MIN_SNR_DB},
        )
    )
    result = run_without_warnings(config)
    assert len(result.metrics_history) == 3
    assert not result.abort_log


# SCHEMA with the fields a run depends on drawn over valid values. The
# trajectory and llm sections are drawn whole, since their fields depend on
# each other, and 21 elements fit the default bound, so every mapping loads:
# the invalid side is the loader property's.
RUNNABLE = {
    **SCHEMA,
    "seed": st.integers(0, 2**16),
    "trajectory": st.one_of(
        st.fixed_dictionaries(
            {"num_steps": st.integers(1, 3), "initial_angles": st.just(ANGLES)},
            optional={
                "drift": valid_mappings(
                    {"kind": "random_walk", "sigma_deg_per_step": st.floats(0.0, 30.0)}
                )
            },
        ),
        st.just({**SCHEMA["trajectory"], "drift": {"kind": "scripted", "waypoints": [ANGLES] * 3}}),
    ),
    "constraints": {
        **SCHEMA["constraints"],
        "num_elements": st.integers(4, 21),
        "position_bound": st.floats(0.625, 2.0),
    },
    "optimizer": {"restarts": st.integers(1, 2)},
    "csi": {"snr_db": st.floats(MIN_SNR_DB, 100.0)},
    "llm": st.fixed_dictionaries(
        {name: st.just(SCHEMA["llm"][name]) for name in ("base_url", "model_name")},
        optional={
            name: st.just(value)
            for name, value in SCHEMA["llm"].items()
            if name not in ("base_url", "model_name")
        },
    ),
}


# each example runs up to 3 steps of 2 restarts; the count bounds the work
@settings(max_examples=100, deadline=None)
@given(drawn=valid_mappings(RUNNABLE))
@example(drawn={"csi": {"snr_db": MIN_SNR_DB}})
def test_an_accepted_config_runs_without_an_abort(drawn):
    """A config of valid values loads and runs: nothing escapes, and no
    cycle aborts."""
    config = scenario_from_mapping({**minimal_mapping(), **drawn})
    assert config.trajectory.num_steps <= 3
    # a missing optimizer section asks for the default 16 restarts
    restarts = min(config.optimizer.restarts, 2)
    config = replace(config, optimizer=replace(config.optimizer, restarts=restarts))
    result = run_without_warnings(config)
    assert [record.step for record in result.metrics_history] == list(
        range(config.trajectory.num_steps)
    )
    assert not result.abort_log


def test_documented_scenarios_load():
    """The YAML of the scenario docstring and the README is what the loader takes."""
    block = re.search(r"code-block:: yaml\n\n((?:    .*\n)+)", scenario.__doc__).group(1)
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    minimal, llm = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    documents = [
        yaml.safe_load(textwrap.dedent(block)),
        yaml.safe_load(minimal),
        {**minimal_mapping(), **yaml.safe_load(llm)},
    ]
    for document in documents:
        assert isinstance(scenario_from_mapping(document), ScenarioConfig)
