"""Scenario loader: field validation with dotted error paths."""

import pytest

from evobeam.errors import ConfigurationError
from evobeam.scenario import scenario_from_mapping


def minimal_mapping(**sections):
    return {
        "schema_version": 1,
        "trajectory": {"num_steps": 3, "initial_angles": [60.0, 90.0, 120.0]},
        **sections,
    }


@pytest.mark.parametrize("field", ["restarts", "max_outer_iterations", "max_step_halvings"])
def test_non_integer_optimizer_count_is_rejected_with_its_path(field):
    with pytest.raises(ConfigurationError, match=rf"optimizer\.{field}\b"):
        scenario_from_mapping(minimal_mapping(optimizer={field: 1.5}))


def test_whole_float_optimizer_count_is_accepted_as_int():
    config = scenario_from_mapping(minimal_mapping(optimizer={"restarts": 2.0}))
    assert config.optimizer.restarts == 2
    assert type(config.optimizer.restarts) is int


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", ["step_size", "grid_resolution", "gain_tolerance_db"])
def test_non_finite_optimizer_float_is_rejected_with_its_path(field, value):
    with pytest.raises(ConfigurationError, match=rf"optimizer\.{field}\b"):
        scenario_from_mapping(minimal_mapping(optimizer={field: value}))
