"""Round-trip fidelity of the metrics CSV and events JSON formats."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evobeam.errors import ValidationError
from evobeam.lifecycle import (
    AbortRecord,
    AgentRole,
    EvolutionEvent,
    MetricsRecord,
    TriggerReason,
    run_episode,
)
from evobeam.reporting import (
    METRICS_COLUMNS,
    read_events_json,
    read_metrics_csv,
    write_events_json,
    write_metrics_csv,
)
from evobeam.scenario import default_scenario

FULL_SEQUENCE = (
    AgentRole.DATA_COLLECTION,
    AgentRole.MODEL_SELECTION,
    AgentRole.TRAINING,
    AgentRole.EVALUATION,
    AgentRole.DEPLOYMENT,
)


def sample_records():
    return [
        MetricsRecord(
            step=0,
            true_angles=(60.0, 90.0, 120.0),
            estimated_angles=(60.5, 89.5, 120.0),
            movable_gain_db=12.805324,
            fixed_gain_db=9.148026,
            evolved=True,
            trigger_reason=TriggerReason.HARDWARE_CHANGE,
        ),
        MetricsRecord(
            step=1,
            true_angles=(60.123456789, 90.0, 119.87654321),
            estimated_angles=(),
            movable_gain_db=12.4,
            fixed_gain_db=9.1,
            evolved=False,
            trigger_reason=None,
        ),
    ]


def sample_events():
    return [
        EvolutionEvent(
            trigger_step=0,
            reason=TriggerReason.HARDWARE_CHANGE,
            pre_gain_db=9.148026,
            post_gain_db=12.805324,
            baseline_gain_db=9.148026,
            agent_sequence=FULL_SEQUENCE,
            training_rounds=1,
        ),
        EvolutionEvent(
            trigger_step=9,
            reason=TriggerReason.BELOW_BASELINE,
            pre_gain_db=float("-inf"),
            post_gain_db=12.218,
            baseline_gain_db=9.254,
            agent_sequence=FULL_SEQUENCE[:3] + (AgentRole.TRAINING,) + FULL_SEQUENCE[3:],
            training_rounds=2,
            degraded=True,
        ),
    ]


class TestMetricsCsv:
    def test_header_matches_the_declared_column_order(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(sample_records(), path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(METRICS_COLUMNS)
        assert header == (
            "step,movable_gain_db,fixed_gain_db,evolved,trigger_reason,"
            "true_angles,estimated_angles"
        )

    def test_round_trip_preserves_structure(self, tmp_path):
        path = tmp_path / "metrics.csv"
        records = sample_records()
        write_metrics_csv(records, path)
        parsed = read_metrics_csv(path)
        assert len(parsed) == 2
        assert parsed[0].step == 0
        assert parsed[0].evolved is True
        assert parsed[0].trigger_reason is TriggerReason.HARDWARE_CHANGE
        assert parsed[1].trigger_reason is None
        assert parsed[1].true_angles == records[1].true_angles  # full precision
        assert parsed[0].movable_gain_db == pytest.approx(12.805324, abs=1e-6)

    def test_serialization_is_idempotent(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_metrics_csv(sample_records(), first)
        write_metrics_csv(read_metrics_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_gains_have_six_decimal_places(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(sample_records(), path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[1] == "12.805324"
        assert row[2] == "9.148026"

    def test_minus_inf_gain_survives(self, tmp_path):
        record = MetricsRecord(
            step=0,
            true_angles=(90.0,),
            estimated_angles=(90.0,),
            movable_gain_db=float("-inf"),
            fixed_gain_db=9.0,
            evolved=False,
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv([record], path)
        parsed = read_metrics_csv(path)
        assert parsed[0].movable_gain_db == float("-inf")

    def test_bad_header_is_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("step,who,knows\n")
        with pytest.raises(ValidationError):
            read_metrics_csv(path)


class TestEventsJson:
    def test_round_trip_restores_dataclasses(self, tmp_path):
        path = tmp_path / "events.json"
        events = sample_events()
        aborts = [
            AbortRecord(
                trigger_step=4,
                reason=TriggerReason.RELATIVE_DROP,
                failed_role=AgentRole.TRAINING,
                error="solver offline",
                agent_sequence=(AgentRole.DATA_COLLECTION, AgentRole.TRAINING),
            ),
            AbortRecord(
                trigger_step=5,
                reason=None,
                failed_role=AgentRole.MONITORING,
                error="no signal",
            ),
        ]
        write_events_json(events, path, aborts=aborts)
        parsed_events, parsed_aborts = read_events_json(path)
        assert list(parsed_events) == events
        assert list(parsed_aborts) == aborts

    def test_document_is_strict_json(self, tmp_path):
        path = tmp_path / "events.json"
        write_events_json(sample_events(), path)
        document = json.loads(path.read_text())  # would fail on bare -Infinity
        assert document["schema_version"] == 1
        assert document["events"][1]["pre_gain_db"] == "-inf"
        assert document["events"][0]["agent_sequence"][0] == "DataCollection"

    def test_unknown_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text('{"schema_version": 99, "events": [], "aborts": []}')
        with pytest.raises(ValidationError):
            read_events_json(path)

    @pytest.mark.parametrize("document", ["[]", '"text"', "null"])
    def test_document_that_is_not_an_object_is_rejected(self, tmp_path, document):
        path = tmp_path / "events.json"
        path.write_text(document)
        with pytest.raises(ValidationError, match="must be a JSON object"):
            read_events_json(path)


class TestEpisodeSerialization:
    def test_full_episode_round_trips(self, tmp_path):
        result = run_episode(default_scenario(num_steps=4, seed=19))
        metrics_path = tmp_path / "metrics.csv"
        events_path = tmp_path / "events.json"
        write_metrics_csv(result.metrics_history, metrics_path)
        write_events_json(result.event_log, events_path, aborts=result.abort_log)
        parsed = read_metrics_csv(metrics_path)
        assert [m.step for m in parsed] == [m.step for m in result.metrics_history]
        for read, orig in zip(parsed, result.metrics_history):
            assert read.true_angles == orig.true_angles
            assert read.movable_gain_db == pytest.approx(orig.movable_gain_db, abs=1e-6)
            assert read.evolved == orig.evolved
        events, aborts = read_events_json(events_path)
        assert len(events) == len(result.event_log)
        for read, orig in zip(events, result.event_log):
            assert read.reason is orig.reason
            assert read.agent_sequence == tuple(orig.agent_sequence)
            assert read.post_gain_db == orig.post_gain_db  # json floats are exact
        assert aborts == result.abort_log


# ------------------------------------------------ round trips of generated records

roles = st.sampled_from(AgentRole)
reasons = st.sampled_from(TriggerReason)
steps = st.integers(0, 10**6)
gains = st.one_of(st.just(float("-inf")), st.floats(-400.0, 400.0))
angle_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5).map(tuple)
sequences = st.lists(roles, max_size=8).map(tuple)

metrics_records = st.builds(
    MetricsRecord,
    step=steps,
    true_angles=angle_lists,
    estimated_angles=angle_lists,
    movable_gain_db=gains,
    fixed_gain_db=gains,
    evolved=st.booleans(),
    trigger_reason=st.none() | reasons,
)
evolution_events = st.builds(
    EvolutionEvent,
    trigger_step=steps,
    reason=reasons,
    pre_gain_db=gains,
    post_gain_db=gains,
    baseline_gain_db=gains,
    agent_sequence=sequences,
    training_rounds=st.integers(0, 10),
    degraded=st.booleans(),
)
abort_records = st.builds(
    AbortRecord,
    trigger_step=steps,
    reason=st.none() | reasons,
    failed_role=roles,
    error=st.text(max_size=40),
    agent_sequence=sequences,
)


@pytest.fixture(scope="module")
def roundtrip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


def _same_gain(read, written):
    # the CSV keeps 6 decimals; parsing the decimal adds at most half an ulp
    return read == written or abs(read - written) <= 5e-7 + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(metrics_records, max_size=6))
def test_generated_metrics_round_trip(roundtrip_dir, records):
    first, second = roundtrip_dir / "first.csv", roundtrip_dir / "second.csv"
    write_metrics_csv(records, first)
    parsed = read_metrics_csv(first)
    write_metrics_csv(parsed, second)
    assert second.read_bytes() == first.read_bytes()
    assert len(parsed) == len(records)
    for read, orig in zip(parsed, records):
        assert (read.step, read.evolved, read.trigger_reason) == (
            orig.step,
            orig.evolved,
            orig.trigger_reason,
        )
        assert read.true_angles == orig.true_angles
        assert read.estimated_angles == orig.estimated_angles
        assert _same_gain(read.movable_gain_db, orig.movable_gain_db)
        assert _same_gain(read.fixed_gain_db, orig.fixed_gain_db)


@settings(max_examples=60, deadline=None)
@given(st.lists(evolution_events, max_size=4), st.lists(abort_records, max_size=4))
def test_generated_events_round_trip(roundtrip_dir, events, aborts):
    first, second = roundtrip_dir / "first.json", roundtrip_dir / "second.json"
    write_events_json(events, first, aborts=aborts)
    parsed_events, parsed_aborts = read_events_json(first)
    write_events_json(parsed_events, second, aborts=parsed_aborts)
    assert second.read_bytes() == first.read_bytes()
    # json floats are exact, so the gains come back unrounded
    assert list(parsed_events) == events
    assert list(parsed_aborts) == aborts
