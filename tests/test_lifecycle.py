"""Agent cycle, supervisor routing, and full-episode behavior."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import evobeam.lifecycle as lifecycle
from evobeam.arrays import ArrayConstraints, DoASet, sum_beam_gain
from evobeam.channel import RandomWalkDrift, ScriptedDrift, TrajectoryConfig, generate_trajectory
from evobeam.errors import EvobeamError, ProtocolError, ValidationError
from evobeam.estimation import estimate_doas
from evobeam.lifecycle import (
    BASELINE_MEMO_SIZE,
    DEFAULT_RELATIVE_DROP_DB,
    IDLE,
    MAX_TRAINING_ROUNDS,
    AgentReport,
    AgentRole,
    Blackboard,
    TriggerDecision,
    TriggerReason,
    _STREAM_OPTIMIZER,
    _STREAM_TRAJECTORY,
    _append_step_record,
    _derive_seed,
    agent_execute,
    monitoring_check,
    run_episode,
    supervisor_next,
)
from evobeam.optimize import BeamformingSolution, OptimizerConfig, fixed_baseline, optimize_movable
from evobeam.scenario import ScenarioConfig, default_scenario

THREE_USERS = DoASet((60.0, 90.0, 120.0))
FOUR_USERS = DoASet((40.0, 70.0, 100.0, 130.0))

# legal consecutive role pairs in an event's agent sequence; a role may
# repeat itself once through the retry rule, and Evaluation may send the
# cycle back to Training
LEGAL_PAIRS = {
    (AgentRole.DATA_COLLECTION, AgentRole.DATA_COLLECTION),
    (AgentRole.DATA_COLLECTION, AgentRole.MODEL_SELECTION),
    (AgentRole.MODEL_SELECTION, AgentRole.MODEL_SELECTION),
    (AgentRole.MODEL_SELECTION, AgentRole.TRAINING),
    (AgentRole.TRAINING, AgentRole.TRAINING),
    (AgentRole.TRAINING, AgentRole.EVALUATION),
    (AgentRole.EVALUATION, AgentRole.EVALUATION),
    (AgentRole.EVALUATION, AgentRole.TRAINING),
    (AgentRole.EVALUATION, AgentRole.DEPLOYMENT),
    (AgentRole.DEPLOYMENT, AgentRole.DEPLOYMENT),
}


def assert_valid_sequence(sequence):
    assert sequence[0] is AgentRole.DATA_COLLECTION
    assert sequence[-1] is AgentRole.DEPLOYMENT
    for pair in zip(sequence, sequence[1:]):
        assert pair in LEGAL_PAIRS, f"illegal transition {pair}"


def cold_fixed_gain_db(record, constraints):
    """The fixed baseline at the record's estimate (at the true directions
    before any estimate), scored at the true directions."""
    cold = fixed_baseline(DoASet(record.estimated_angles or record.true_angles), constraints)
    return sum_beam_gain(cold.geometry, cold.weights, DoASet(record.true_angles)).db


def make_pair(constraints=None, true_angles=THREE_USERS):
    """A blackboard at true_angles with an open HardwareChange cycle, plus a
    scenario, for direct agent calls."""
    trajectory = TrajectoryConfig(initial_angles=true_angles, num_steps=1)
    scenario = ScenarioConfig(
        trajectory=trajectory,
        constraints=constraints or ArrayConstraints(),
        optimizer=OptimizerConfig(restarts=4),
    )
    blackboard = Blackboard(
        true_angles=true_angles,
        trigger_decision=TriggerDecision(True, TriggerReason.HARDWARE_CHANGE),
        cycle_roles=[],
    )
    return blackboard, scenario


def open_cycle(blackboard, step, reason, pre_gain_db, roles=()):
    """Open a cycle by hand as a step's triggering Monitoring would."""
    blackboard.step_index = step
    blackboard.trigger_decision = TriggerDecision(True, reason, pre_gain_db)
    blackboard.cycle_roles = list(roles)


def swing_scenario():
    """Users hold for 10 steps, then swing by 40 degrees at step 10."""
    before, after = (60.0, 85.0, 110.0), (100.0, 125.0, 150.0)
    waypoints = tuple([before] * 10 + [after] * 5)
    trajectory = TrajectoryConfig(
        num_steps=15, initial_angles=DoASet(before), drift=ScriptedDrift(waypoints)
    )
    return ScenarioConfig(trajectory=trajectory, seed=11)


def ok_report(role):
    return AgentReport(role=role, ok=True, message="ok")


def fail_report(role, message="boom"):
    return AgentReport(role=role, ok=False, message=message)


class TestMonitoringCheck:
    def test_reported_degradation_vector_triggers_below_baseline(self):
        decision = monitoring_check(3.9847, 7.8169, 11.105, 3.0)
        assert decision.trigger
        assert decision.reason is TriggerReason.BELOW_BASELINE

    def test_recovered_gain_does_not_trigger(self):
        decision = monitoring_check(11.105, 7.8169, 11.105, 3.0)
        assert not decision.trigger
        assert decision.reason is None

    def test_equal_gains_do_not_trigger(self):
        decision = monitoring_check(7.8169, 7.8169, 7.8169, 3.0)
        assert not decision.trigger

    def test_four_db_drop_triggers_relative_drop(self):
        decision = monitoring_check(10.0, 7.0, 14.0, 3.0)
        assert decision.trigger
        assert decision.reason is TriggerReason.RELATIVE_DROP

    def test_drop_exactly_at_threshold_does_not_trigger(self):
        assert not monitoring_check(11.0, 7.0, 14.0, 3.0).trigger
        assert monitoring_check(10.999, 7.0, 14.0, 3.0).trigger

    @pytest.mark.parametrize("deployed, trigger", [(11.0, False), (10.999, True)])
    def test_default_threshold_is_a_three_db_drop(self, deployed, trigger):
        assert DEFAULT_RELATIVE_DROP_DB == 3.0
        assert monitoring_check(deployed, 7.0, 14.0).trigger is trigger

    def test_below_baseline_takes_precedence_over_relative_drop(self):
        decision = monitoring_check(6.0, 7.0, 14.0, 3.0)
        assert decision.reason is TriggerReason.BELOW_BASELINE

    def test_minus_inf_deployed_triggers(self):
        decision = monitoring_check(float("-inf"), 7.0, 7.0, 3.0)
        assert decision.trigger
        assert decision.reason is TriggerReason.BELOW_BASELINE

    def test_both_dead_gains_do_not_trigger(self):
        neg = float("-inf")
        assert not monitoring_check(neg, neg, neg, 3.0).trigger

    def test_nan_and_plus_inf_rejected(self):
        with pytest.raises(ValidationError):
            monitoring_check(float("nan"), 7.0, 7.0, 3.0)
        with pytest.raises(ValidationError):
            monitoring_check(7.0, float("inf"), 7.0, 3.0)
        with pytest.raises(ValidationError, match="last_deployed_gain_db"):
            monitoring_check(7.0, 7.0, None, 3.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            monitoring_check(7.0, 7.0, 7.0, -1.0)


class TestAgents:
    def test_wrong_stage_is_a_protocol_error(self):
        blackboard, scenario = make_pair()
        blackboard.stage = AgentRole.MONITORING
        with pytest.raises(ProtocolError):
            agent_execute(AgentRole.TRAINING, blackboard, scenario)

    @pytest.mark.parametrize(
        "role",
        [role for role in AgentRole if role is not AgentRole.MONITORING],
        ids=lambda role: role.value,
    )
    def test_cycle_role_outside_a_cycle_is_a_protocol_error(self, role):
        blackboard, scenario = make_pair()
        blackboard.cycle_roles = None
        blackboard.stage = role
        with pytest.raises(ProtocolError, match="outside an evolution cycle"):
            agent_execute(role, blackboard, scenario)

    @pytest.mark.parametrize(
        "text, message",
        # an empty error text falls back to "<Role> failed"
        [("no signal", "no signal"), ("", "{} failed")],
        ids=["error-text", "empty-error"],
    )
    @pytest.mark.parametrize("role", list(AgentRole), ids=lambda role: role.value)
    def test_a_raising_agent_reports_its_error_and_aborts_with_it(
        self, monkeypatch, role, text, message
    ):
        message = message.format(role.value)

        def raising(blackboard, scenario):
            raise EvobeamError(text)

        monkeypatch.setitem(lifecycle._HANDLERS, role, raising)
        blackboard, scenario = make_pair()
        if role is AgentRole.MONITORING:
            # as at a step's start: no decision yet and no cycle open
            blackboard.trigger_decision = blackboard.cycle_roles = None
        blackboard.stage = role
        for nxt in (role, IDLE):
            report = agent_execute(role, blackboard, scenario)
            assert report == AgentReport(role=role, ok=False, message=message)
            assert supervisor_next(blackboard, report) is nxt
        (record,) = blackboard.abort_log
        assert (record.failed_role, record.error) == (role, message)
        assert blackboard.cycle_roles is None

    def test_data_collection_writes_what_it_reports(self):
        blackboard, scenario = make_pair()
        blackboard.stage = AgentRole.DATA_COLLECTION
        report = agent_execute(AgentRole.DATA_COLLECTION, blackboard, scenario)
        assert report.ok
        assert blackboard.latest_estimate is not None
        est = blackboard.latest_estimate.angles.angles_deg
        for estimated, true in zip(est, THREE_USERS.angles_deg):
            assert abs(estimated - true) <= 2.0

    @pytest.mark.parametrize(
        "elements, angles, size",
        [(8, THREE_USERS, "3x8"), (20, FOUR_USERS, "4x20")],
    )
    def test_model_selection_reports_the_problem_size_and_budget(
        self, elements, angles, size
    ):
        blackboard, scenario = make_pair(ArrayConstraints(num_elements=elements), angles)
        blackboard.stage = AgentRole.DATA_COLLECTION
        agent_execute(AgentRole.DATA_COLLECTION, blackboard, scenario)
        blackboard.stage = AgentRole.MODEL_SELECTION
        report = agent_execute(AgentRole.MODEL_SELECTION, blackboard, scenario)
        assert report.ok
        assert size in report.message
        # +-5 wavelengths at 32 points per wavelength
        assert "search on a 321-point grid with 4 restarts" in report.message

    def test_training_runs_the_one_search_on_a_wide_problem(self):
        # 4 users on 20 elements: the problem size no longer picks the search
        blackboard, scenario = make_pair(ArrayConstraints(num_elements=20), FOUR_USERS)
        for role in (AgentRole.DATA_COLLECTION, AgentRole.MODEL_SELECTION, AgentRole.TRAINING):
            blackboard.stage = role
            assert agent_execute(role, blackboard, scenario).ok
        angles = blackboard.latest_estimate.angles
        seed = _derive_seed(scenario.seed, _STREAM_OPTIMIZER, 0, 0)
        expected = optimize_movable(
            angles, replace(scenario.optimizer, seed=seed), scenario.constraints
        )
        candidate = blackboard.candidate_solution
        assert candidate.gain_history_db == expected.gain_history_db
        assert candidate.geometry.positions == expected.geometry.positions
        assert candidate.gain_db >= fixed_baseline(angles, scenario.constraints).gain_db - 1e-9

    def test_training_keeps_the_best_candidate_of_the_cycle(self, monkeypatch):
        blackboard, scenario = make_pair()
        for role in (AgentRole.DATA_COLLECTION, AgentRole.MODEL_SELECTION, AgentRole.TRAINING):
            blackboard.stage = role
            assert agent_execute(role, blackboard, scenario).ok
        first = blackboard.candidate_solution
        worse = replace(first, gain_db=first.gain_db - 1.0)
        better = replace(first, gain_db=first.gain_db + 1.0)
        for offered, kept in ((worse, first), (replace(first), first), (better, better)):
            monkeypatch.setattr(lifecycle, "optimize_movable", lambda *args: offered)
            report = agent_execute(AgentRole.TRAINING, blackboard, scenario)
            # the summary names this round's candidate, kept or not
            assert f"gain {offered.gain_db:.4f} dB" in report.message
            # only a strictly higher gain replaces the best so far
            assert blackboard.candidate_solution is kept

    def test_full_manual_cycle_deploys_a_dominating_solution(self):
        blackboard, scenario = make_pair()
        blackboard.stage = AgentRole.DATA_COLLECTION
        order = [
            AgentRole.DATA_COLLECTION,
            AgentRole.MODEL_SELECTION,
            AgentRole.TRAINING,
            AgentRole.EVALUATION,
            AgentRole.DEPLOYMENT,
        ]
        for role in order:
            report = agent_execute(role, blackboard, scenario)
            assert report.ok, report.message
            supervisor_next(blackboard, report)
        assert blackboard.stage is IDLE
        assert blackboard.deployed_solution is not None
        assert len(blackboard.event_log) == 1
        event = blackboard.event_log[0]
        assert event.reason is TriggerReason.HARDWARE_CHANGE
        assert event.post_gain_db >= event.baseline_gain_db - 1e-9
        assert tuple(event.agent_sequence) == tuple(order)
        assert event.training_rounds == 1

    def test_evaluation_rejects_candidate_below_baseline(self):
        blackboard, scenario = make_pair()
        blackboard.stage = AgentRole.DATA_COLLECTION
        agent_execute(AgentRole.DATA_COLLECTION, blackboard, scenario)
        geometry = scenario.constraints.uniform_geometry()
        weights = [1.0] + [0.0] * (geometry.num_elements - 1)
        gain = sum_beam_gain(geometry, weights, blackboard.latest_estimate.angles)
        blackboard.candidate_solution = BeamformingSolution(
            geometry=geometry,
            weights=weights,
            gain_linear=gain.linear,
            gain_db=gain.db,
            converged=True,
            iterations=1,
        )
        blackboard.stage = AgentRole.EVALUATION
        report = agent_execute(AgentRole.EVALUATION, blackboard, scenario)
        assert report.ok
        assert blackboard.evaluation_passed is False
        assert "fail (candidate" in report.message
        assert "dB under required" in report.message

    def test_evaluation_enforces_the_pre_trigger_gain_floor(self):
        blackboard, scenario = make_pair()
        blackboard.stage = AgentRole.DATA_COLLECTION
        agent_execute(AgentRole.DATA_COLLECTION, blackboard, scenario)
        baseline = fixed_baseline(blackboard.latest_estimate.angles, scenario.constraints)
        blackboard.candidate_solution = baseline
        roles = [AgentRole.DATA_COLLECTION, AgentRole.MODEL_SELECTION, AgentRole.TRAINING]
        open_cycle(blackboard, 3, TriggerReason.RELATIVE_DROP, baseline.gain_db + 5.0, roles)
        blackboard.stage = AgentRole.EVALUATION
        report = agent_execute(AgentRole.EVALUATION, blackboard, scenario)
        assert report.ok
        assert blackboard.evaluation_passed is False

    def test_monitoring_without_a_deployed_array_fires_hardware_change(self):
        _, scenario = make_pair()
        blackboard = Blackboard(true_angles=THREE_USERS, stage=AgentRole.MONITORING)
        report = agent_execute(AgentRole.MONITORING, blackboard, scenario)
        assert report.ok
        assert blackboard.trigger_decision == TriggerDecision(True, TriggerReason.HARDWARE_CHANGE)
        # the upgrade needs no sensing
        assert blackboard.latest_estimate is None
        assert blackboard.baseline_solution is None
        assert supervisor_next(blackboard, report) is AgentRole.DATA_COLLECTION
        assert blackboard.cycle_roles == []

    def test_monitoring_appends_a_record_when_healthy(self):
        blackboard, scenario = make_pair()
        blackboard.deployed_solution = optimize_movable(
            THREE_USERS, scenario.optimizer, scenario.constraints
        )
        blackboard.last_deployed_gain_db = blackboard.deployed_solution.gain_db
        blackboard.stage = AgentRole.MONITORING
        report = agent_execute(AgentRole.MONITORING, blackboard, scenario)
        assert report.ok
        assert not blackboard.trigger_decision.trigger
        # the episode runner writes every step's record, the agent none
        assert not blackboard.metrics_history

        static = TrajectoryConfig(
            initial_angles=THREE_USERS, num_steps=2, drift=RandomWalkDrift(0.0)
        )
        result = run_episode(replace(scenario, trajectory=static))
        assert [e.trigger_step for e in result.event_log] == [0]
        first, healthy = result.metrics_history
        assert healthy.step == 1
        assert not healthy.evolved
        assert healthy.trigger_reason is None
        assert len(healthy.estimated_angles) == 3
        # the same deployment scored at the same static directions
        assert healthy.movable_gain_db == first.movable_gain_db

    def test_monitoring_reuse_does_not_outlive_a_deployment(self, monkeypatch):
        blackboard, scenario = make_pair()
        old = fixed_baseline(THREE_USERS, scenario.constraints)
        blackboard.deployed_solution = old
        blackboard.last_deployed_gain_db = old.gain_db
        blackboard.cycle_roles = None
        blackboard.stage = AgentRole.MONITORING
        assert agent_execute(AgentRole.MONITORING, blackboard, scenario).ok
        pinned = blackboard.latest_estimate
        before = pinned.angles
        # every later scan returns this estimate, so the Monitoring step
        # after the deployment repeats the angles of the one before it
        monkeypatch.setattr(lifecycle, "estimate_doas", lambda cov, geometry, k: pinned)

        # one cycle by hand deploys a new array
        open_cycle(blackboard, 0, TriggerReason.BELOW_BASELINE, None)
        blackboard.stage = AgentRole.DATA_COLLECTION
        for _ in range(5):
            report = agent_execute(blackboard.stage, blackboard, scenario)
            assert report.ok, report.message
            supervisor_next(blackboard, report)
        assert blackboard.stage is IDLE
        new = blackboard.deployed_solution
        assert new is not old

        blackboard.stage = AgentRole.MONITORING
        assert agent_execute(AgentRole.MONITORING, blackboard, scenario).ok
        expected = sum_beam_gain(new.geometry, new.weights, before).db
        assert blackboard.trigger_decision.deployed_gain_db == expected
        assert expected != sum_beam_gain(old.geometry, old.weights, before).db

    def monitor_then_collect(self, monkeypatch, collected_angles=None):
        """A healthy Monitoring step, then a DataCollection whose scan returns
        Monitoring's estimate, or one at collected_angles; returns the
        blackboard, the scenario and Monitoring's baseline."""
        blackboard, scenario = make_pair()
        deployed = optimize_movable(THREE_USERS, scenario.optimizer, scenario.constraints)
        blackboard.deployed_solution = deployed
        blackboard.last_deployed_gain_db = deployed.gain_db
        blackboard.cycle_roles = None
        blackboard.stage = AgentRole.MONITORING
        assert agent_execute(AgentRole.MONITORING, blackboard, scenario).ok
        monitored = blackboard.baseline_solution
        collected = blackboard.latest_estimate
        if collected_angles is not None:
            collected = replace(collected, angles=DoASet(collected_angles))
        monkeypatch.setattr(lifecycle, "estimate_doas", lambda cov, geometry, k: collected)
        open_cycle(blackboard, 0, TriggerReason.BELOW_BASELINE, None)
        blackboard.stage = AgentRole.DATA_COLLECTION
        assert agent_execute(AgentRole.DATA_COLLECTION, blackboard, scenario).ok
        assert blackboard.latest_estimate is collected
        return blackboard, scenario, monitored

    def test_a_repeated_estimate_keeps_the_baseline(self, monkeypatch):
        blackboard, _, monitored = self.monitor_then_collect(monkeypatch)
        assert monitored is not None
        assert blackboard.baseline_solution is monitored

    def test_a_changed_estimate_rebuilds_the_baseline(self, monkeypatch):
        moved = (65.0, 95.0, 125.0)
        blackboard, scenario, monitored = self.monitor_then_collect(monkeypatch, moved)
        baseline = blackboard.baseline_solution
        assert baseline is not monitored
        expected = fixed_baseline(DoASet(moved), scenario.constraints)
        assert baseline.geometry == expected.geometry
        assert np.array_equal(baseline.weights, expected.weights)
        assert baseline.gain_db == expected.gain_db

    # more distinct estimates than the memo holds, so entries get evicted
    MEMO_POOL = [DoASet((50.0 + i, 90.0, 130.0 - i)) for i in range(BASELINE_MEMO_SIZE + 4)]

    @settings(max_examples=40, deadline=None)
    @given(visits=st.lists(st.sampled_from(MEMO_POOL), min_size=1, max_size=40))
    def test_memoized_baselines_match_fresh_ones_within_the_bound(self, visits):
        """Over any sequence of estimates, _observe builds a baseline exactly
        when a least-recently-used list of BASELINE_MEMO_SIZE angle sets
        misses, never holds more, and every baseline it serves, memoized
        or not, equals a fresh fixed_baseline at its angles."""
        blackboard, scenario = make_pair()
        geometry = scenario.constraints.uniform_geometry()
        template = estimate_doas(np.eye(8, dtype=complex), geometry, 3)
        real = lifecycle.fixed_baseline
        built, recent = [], []

        def building(doas, constraints):
            built.append(doas)
            return real(doas, constraints)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lifecycle, "fixed_baseline", building)
            for step, angles in enumerate(visits):
                estimate = replace(template, angles=angles)
                patch.setattr(lifecycle, "estimate_doas", lambda cov, g, k: estimate)
                blackboard.step_index = step
                before = len(built)
                lifecycle._observe(geometry, blackboard, scenario, 1)
                hit = angles in recent
                if hit:
                    recent.remove(angles)
                recent = (recent + [angles])[-BASELINE_MEMO_SIZE:]
                assert len(built) == before + (not hit)
                assert list(blackboard.baseline_memo) == recent
                fresh, served = real(angles, scenario.constraints), blackboard.baseline_solution
                assert served.geometry == fresh.geometry
                assert np.array_equal(served.weights, fresh.weights)
                assert served.gain_db == fresh.gain_db


class TestSupervisorRouting:
    def test_monitoring_trigger_routes_to_data_collection(self):
        blackboard, _ = make_pair()
        blackboard.cycle_roles = None
        blackboard.stage = AgentRole.MONITORING
        blackboard.trigger_decision = TriggerDecision(
            True, TriggerReason.BELOW_BASELINE, deployed_gain_db=3.98, baseline_gain_db=7.82
        )
        nxt = supervisor_next(blackboard, ok_report(AgentRole.MONITORING))
        assert nxt is AgentRole.DATA_COLLECTION
        assert blackboard.stage is AgentRole.DATA_COLLECTION
        assert blackboard.cycle_roles == []

    def test_monitoring_without_trigger_goes_idle(self):
        blackboard, _ = make_pair()
        blackboard.stage = AgentRole.MONITORING
        blackboard.trigger_decision = TriggerDecision(False, None)
        assert supervisor_next(blackboard, ok_report(AgentRole.MONITORING)) is IDLE

    def test_forward_chain(self):
        blackboard, _ = make_pair()
        blackboard.stage = AgentRole.DATA_COLLECTION
        assert supervisor_next(blackboard, ok_report(AgentRole.DATA_COLLECTION)) is AgentRole.MODEL_SELECTION
        assert supervisor_next(blackboard, ok_report(AgentRole.MODEL_SELECTION)) is AgentRole.TRAINING
        assert supervisor_next(blackboard, ok_report(AgentRole.TRAINING)) is AgentRole.EVALUATION

    def test_evaluation_pass_routes_to_deployment(self):
        blackboard, _ = make_pair()
        blackboard.stage = AgentRole.EVALUATION
        blackboard.evaluation_passed = True
        assert supervisor_next(blackboard, ok_report(AgentRole.EVALUATION)) is AgentRole.DEPLOYMENT

    def test_evaluation_fail_routes_back_to_training(self):
        blackboard, _ = make_pair()
        blackboard.stage = AgentRole.EVALUATION
        blackboard.evaluation_passed = False
        assert supervisor_next(blackboard, ok_report(AgentRole.EVALUATION)) is AgentRole.TRAINING

    def test_deployment_ok_goes_idle(self):
        blackboard, _ = make_pair()
        blackboard.stage = AgentRole.DEPLOYMENT
        assert supervisor_next(blackboard, ok_report(AgentRole.DEPLOYMENT)) is IDLE

    def test_failed_verdict_outside_a_cycle_is_a_protocol_error(self):
        blackboard = Blackboard(stage=AgentRole.EVALUATION)
        blackboard.evaluation_passed = False
        with pytest.raises(ProtocolError, match="outside an evolution cycle"):
            supervisor_next(blackboard, ok_report(AgentRole.EVALUATION))

    def test_fail_report_retries_once_then_aborts(self):
        blackboard, _ = make_pair()
        open_cycle(blackboard, 4, TriggerReason.BELOW_BASELINE, 3.0, [AgentRole.DATA_COLLECTION])
        blackboard.stage = AgentRole.DATA_COLLECTION
        nxt = supervisor_next(blackboard, fail_report(AgentRole.DATA_COLLECTION, "no signal"))
        assert nxt is AgentRole.DATA_COLLECTION
        assert blackboard.consecutive_failures == 1
        nxt = supervisor_next(blackboard, fail_report(AgentRole.DATA_COLLECTION, "no signal"))
        assert nxt is IDLE
        assert blackboard.cycle_roles is None
        assert len(blackboard.abort_log) == 1
        record = blackboard.abort_log[0]
        assert record.failed_role is AgentRole.DATA_COLLECTION
        assert record.error == "no signal"
        assert record.trigger_step == 4
        assert record.reason is TriggerReason.BELOW_BASELINE
        assert record.agent_sequence == (AgentRole.DATA_COLLECTION,)

    def test_success_resets_the_retry_budget(self):
        blackboard, _ = make_pair()
        blackboard.stage = AgentRole.DATA_COLLECTION
        supervisor_next(blackboard, fail_report(AgentRole.DATA_COLLECTION))
        supervisor_next(blackboard, ok_report(AgentRole.DATA_COLLECTION))
        assert blackboard.consecutive_failures == 0
        assert blackboard.stage is AgentRole.MODEL_SELECTION

    def test_stage_report_mismatch_is_a_protocol_error(self):
        blackboard, _ = make_pair()
        blackboard.stage = AgentRole.TRAINING
        with pytest.raises(ProtocolError):
            supervisor_next(blackboard, ok_report(AgentRole.EVALUATION))
        blackboard.stage = IDLE
        with pytest.raises(ProtocolError):
            supervisor_next(blackboard, ok_report(AgentRole.MONITORING))

    def test_training_round_cap_forces_a_degraded_deployment(self):
        blackboard, scenario = make_pair()
        best = fixed_baseline(THREE_USERS, scenario.constraints)
        roles = [AgentRole.DATA_COLLECTION, AgentRole.MODEL_SELECTION]
        roles += [AgentRole.TRAINING, AgentRole.EVALUATION] * MAX_TRAINING_ROUNDS
        open_cycle(blackboard, 2, TriggerReason.BELOW_BASELINE, 20.0, roles)
        blackboard.baseline_solution = best
        blackboard.candidate_solution = best
        blackboard.stage = AgentRole.EVALUATION
        blackboard.evaluation_passed = False
        nxt = supervisor_next(blackboard, ok_report(AgentRole.EVALUATION))
        assert nxt is AgentRole.DEPLOYMENT
        assert blackboard.candidate_solution is best
        report = agent_execute(AgentRole.DEPLOYMENT, blackboard, scenario)
        assert report.ok, report.message
        assert blackboard.deployed_solution is best
        assert blackboard.cycle_roles is None
        (event,) = blackboard.event_log
        assert event.degraded
        assert (event.trigger_step, event.reason, event.pre_gain_db) == (
            2,
            TriggerReason.BELOW_BASELINE,
            20.0,
        )
        assert event.training_rounds == MAX_TRAINING_ROUNDS
        assert event.agent_sequence == (*roles, AgentRole.DEPLOYMENT)


class TestEpisodes:
    def test_static_world_single_step(self):
        trajectory = TrajectoryConfig(
            num_steps=1, initial_angles=THREE_USERS, drift=RandomWalkDrift(0.0)
        )
        scenario = ScenarioConfig(
            trajectory=trajectory, optimizer=OptimizerConfig(restarts=4), seed=3
        )
        result = run_episode(scenario)
        assert len(result.metrics_history) == 1
        assert len(result.event_log) == 1
        assert not result.abort_log
        event = result.event_log[0]
        assert event.reason is TriggerReason.HARDWARE_CHANGE
        assert event.trigger_step == 0
        assert event.post_gain_db >= event.baseline_gain_db - 1e-9
        record = result.metrics_history[0]
        assert record.evolved
        assert record.trigger_reason is TriggerReason.HARDWARE_CHANGE
        assert record.movable_gain_db >= record.fixed_gain_db - 1e-9
        assert_valid_sequence(event.agent_sequence)

    def test_wide_static_world_deploys_above_the_baseline(self):
        # the size of the episode_wide workload: 5 users on 16 elements
        trajectory = TrajectoryConfig(
            num_steps=2,
            initial_angles=DoASet((30.0, 60.0, 90.0, 120.0, 150.0)),
            drift=RandomWalkDrift(0.0),
        )
        scenario = ScenarioConfig(
            trajectory=trajectory,
            constraints=ArrayConstraints(num_elements=16),
            optimizer=OptimizerConfig(restarts=2),
            seed=7,
        )
        result = run_episode(scenario)
        assert not result.abort_log
        assert [e.trigger_step for e in result.event_log] == [0]
        assert result.event_log[0].post_gain_db >= result.event_log[0].baseline_gain_db - 1e-9
        for record in result.metrics_history:
            assert record.movable_gain_db >= record.fixed_gain_db - 1e-9

    def test_scripted_swing_triggers_exactly_one_recovery(self):
        result = run_episode(swing_scenario())
        assert len(result.metrics_history) == 15
        assert not result.abort_log
        degradations = [
            e for e in result.event_log if e.reason is not TriggerReason.HARDWARE_CHANGE
        ]
        assert len(degradations) == 1
        event = degradations[0]
        assert event.trigger_step == 10
        assert event.post_gain_db >= event.baseline_gain_db - 1e-9
        assert not event.degraded
        assert_valid_sequence(event.agent_sequence)
        for record in result.metrics_history[10:]:
            assert record.movable_gain_db >= record.fixed_gain_db - 1e-9
        swing_record = result.metrics_history[10]
        assert swing_record.evolved
        assert swing_record.trigger_reason in (
            TriggerReason.BELOW_BASELINE,
            TriggerReason.RELATIVE_DROP,
        )

    def test_fixed_gain_matches_a_cold_baseline_at_every_step(self):
        scenario = swing_scenario()
        result = run_episode(scenario)
        assert not result.abort_log
        records = result.metrics_history
        # both holds repeat estimates, where the sensing agents keep the
        # baseline they built for the first of them
        repeats = [
            b.step for a, b in zip(records, records[1:]) if a.estimated_angles == b.estimated_angles
        ]
        assert any(step < 10 for step in repeats) and any(step > 11 for step in repeats)
        for record in records:
            assert record.fixed_gain_db == cold_fixed_gain_db(record, scenario.constraints)

    def test_episode_is_deterministic(self):
        scenario = default_scenario(num_steps=6, seed=21)
        first = run_episode(scenario)
        second = run_episode(scenario)
        assert first.metrics_history == second.metrics_history
        assert first.event_log == second.event_log
        assert first.abort_log == second.abort_log

    def test_different_seeds_diverge(self):
        a = run_episode(default_scenario(num_steps=4, seed=1))
        b = run_episode(default_scenario(num_steps=4, seed=2))
        assert a.metrics_history != b.metrics_history

    def test_metrics_cover_every_step_in_order(self):
        scenario = default_scenario(num_steps=8, seed=5)
        result = run_episode(scenario)
        assert [m.step for m in result.metrics_history] == list(range(8))
        for record in result.metrics_history:
            assert len(record.true_angles) == 3
            assert len(record.estimated_angles) == 3
            assert math.isfinite(record.movable_gain_db)
            assert math.isfinite(record.fixed_gain_db)

    def test_evolved_steps_dominate_the_baseline(self):
        result = run_episode(default_scenario(num_steps=10, seed=13))
        evolved = [m for m in result.metrics_history if m.evolved]
        assert evolved
        for record in evolved:
            assert record.movable_gain_db >= record.fixed_gain_db - 1e-9
        for event in result.event_log:
            if not event.degraded:
                assert event.post_gain_db >= event.baseline_gain_db - 1e-9
            assert_valid_sequence(event.agent_sequence)

    def test_injected_training_failure_aborts_without_raising(self, monkeypatch):
        def broken_training(blackboard, scenario):
            raise EvobeamError("solver offline")

        monkeypatch.setitem(lifecycle._HANDLERS, AgentRole.TRAINING, broken_training)
        trajectory = TrajectoryConfig(
            num_steps=2, initial_angles=THREE_USERS, drift=RandomWalkDrift(0.0)
        )
        scenario = ScenarioConfig(
            trajectory=trajectory, optimizer=OptimizerConfig(restarts=2), seed=9
        )
        result = run_episode(scenario)
        assert len(result.metrics_history) == 2
        assert not result.event_log
        assert result.abort_log
        assert result.abort_log[0].failed_role is AgentRole.TRAINING
        assert result.abort_log[0].error == "solver offline"
        assert not result.metrics_history[0].evolved
        # every step retries the upgrade, so Training fails at each one
        assert [a.failed_role for a in result.abort_log] == [AgentRole.TRAINING] * 2
        assert {a.reason for a in result.abort_log} == {TriggerReason.HARDWARE_CHANGE}

    def test_failed_upgrade_is_retried_at_the_next_step(self, monkeypatch):
        real_training = lifecycle._HANDLERS[AgentRole.TRAINING]

        def training_down_at_step_0(blackboard, scenario):
            if blackboard.step_index == 0:
                raise EvobeamError("solver offline")
            return real_training(blackboard, scenario)

        monkeypatch.setitem(lifecycle._HANDLERS, AgentRole.TRAINING, training_down_at_step_0)
        result = run_episode(default_scenario(num_steps=3, seed=9))
        assert [(a.trigger_step, a.failed_role) for a in result.abort_log] == [
            (0, AgentRole.TRAINING)
        ]
        event = result.event_log[0]
        assert (event.trigger_step, event.reason) == (1, TriggerReason.HARDWARE_CHANGE)
        assert_valid_sequence(event.agent_sequence)
        first, upgraded, _ = result.metrics_history
        assert not first.evolved
        assert first.movable_gain_db == first.fixed_gain_db
        assert upgraded.evolved
        assert upgraded.trigger_reason is TriggerReason.HARDWARE_CHANGE
        assert upgraded.movable_gain_db >= upgraded.fixed_gain_db - 1e-9

    def test_an_aborted_cycle_scores_the_baseline_of_its_estimate(self, monkeypatch):
        real_training = lifecycle._HANDLERS[AgentRole.TRAINING]

        def training_down_after_step_0(blackboard, scenario):
            if blackboard.step_index > 0:
                raise EvobeamError("solver offline")
            return real_training(blackboard, scenario)

        monkeypatch.setitem(lifecycle._HANDLERS, AgentRole.TRAINING, training_down_after_step_0)
        scenario = default_scenario(num_steps=50, seed=3)
        result = run_episode(scenario)
        # every cycle after the step-0 upgrade aborts at Training
        (upgrade,) = result.event_log
        assert upgrade.trigger_step == 0
        triggered = [r.step for r in result.metrics_history if r.step > 0 and r.trigger_reason]
        assert triggered
        assert [(a.trigger_step, a.failed_role) for a in result.abort_log] == [
            (step, AgentRole.TRAINING) for step in triggered
        ]
        # each abort comes after DataCollection re-estimated, so the record
        # carries DataCollection's estimate, not Monitoring's
        for record in result.metrics_history:
            assert record.fixed_gain_db == cold_fixed_gain_db(record, scenario.constraints)

    def test_failed_monitoring_leaves_no_trigger_reason(self, monkeypatch):
        real_monitoring = lifecycle._HANDLERS[AgentRole.MONITORING]

        def monitoring_down_at_step_11(blackboard, scenario):
            if blackboard.step_index == 11:
                raise EvobeamError("sensor offline")
            return real_monitoring(blackboard, scenario)

        monkeypatch.setitem(lifecycle._HANDLERS, AgentRole.MONITORING, monitoring_down_at_step_11)
        result = run_episode(swing_scenario())
        swing, failed = result.metrics_history[10:12]
        assert swing.trigger_reason is TriggerReason.BELOW_BASELINE
        assert [(a.trigger_step, a.failed_role) for a in result.abort_log] == [
            (11, AgentRole.MONITORING)
        ]
        assert not failed.evolved
        assert failed.trigger_reason is None

    def test_unpassable_evaluation_forces_a_degraded_deployment(self, monkeypatch):
        monkeypatch.setitem(lifecycle._HANDLERS, AgentRole.EVALUATION, harsh_evaluation)
        trajectory = TrajectoryConfig(
            num_steps=1, initial_angles=THREE_USERS, drift=RandomWalkDrift(0.0)
        )
        scenario = ScenarioConfig(
            trajectory=trajectory, optimizer=OptimizerConfig(restarts=2), seed=4
        )
        result = run_episode(scenario)
        assert len(result.event_log) == 1
        event = result.event_log[0]
        assert event.degraded
        assert event.training_rounds == MAX_TRAINING_ROUNDS
        assert result.metrics_history[0].evolved
        assert_valid_sequence(event.agent_sequence)

    def test_a_new_cycle_starts_without_a_candidate(self, monkeypatch):
        real_training = lifecycle._HANDLERS[AgentRole.TRAINING]
        real_evaluation = lifecycle._HANDLERS[AgentRole.EVALUATION]
        trained, judged = [], []

        def training(blackboard, scenario):
            line = real_training(blackboard, scenario)
            if blackboard.step_index == 0:
                # an unbeatable candidate, left behind when this cycle aborts
                best = blackboard.candidate_solution
                blackboard.candidate_solution = replace(best, gain_db=best.gain_db + 100.0)
            trained.append(blackboard.candidate_solution)
            return line

        def evaluation(blackboard, scenario):
            judged.append(blackboard.candidate_solution)
            if blackboard.step_index == 0:
                raise EvobeamError("judge offline")
            return real_evaluation(blackboard, scenario)

        monkeypatch.setitem(lifecycle._HANDLERS, AgentRole.TRAINING, training)
        monkeypatch.setitem(lifecycle._HANDLERS, AgentRole.EVALUATION, evaluation)
        result = run_episode(default_scenario(num_steps=2, seed=9))
        assert [(a.trigger_step, a.failed_role) for a in result.abort_log] == [
            (0, AgentRole.EVALUATION)
        ]
        (event,) = result.event_log
        assert (event.trigger_step, event.reason) == (1, TriggerReason.HARDWARE_CHANGE)
        # step 1's cycle judged and deployed its own candidate
        left, fresh = trained
        assert judged == [left, left, fresh]
        assert event.post_gain_db == fresh.gain_db < left.gain_db

    def test_router_cannot_redirect_the_episode(self):
        scenario = default_scenario(num_steps=5, seed=17)
        calls = []

        def rogue_router(blackboard, report, nxt):
            calls.append((report.role, nxt))
            return AgentRole.DEPLOYMENT  # always illegal advice

        plain = run_episode(scenario)
        steered = run_episode(scenario, router=rogue_router)
        assert calls
        assert plain.metrics_history == steered.metrics_history
        assert plain.event_log == steered.event_log


INJECTED = "injected failure"
CYCLE_ROLES = [role for role in AgentRole if role is not AgentRole.MONITORING]
MACHINE_RULES = 60
REAL_EVALUATION = lifecycle._HANDLERS[AgentRole.EVALUATION]


def injected_failure(blackboard, scenario):
    raise EvobeamError(INJECTED)


def harsh_evaluation(blackboard, scenario):
    line = REAL_EVALUATION(blackboard, scenario)
    blackboard.evaluation_passed = False
    return line


def logs(blackboard):
    return (blackboard.metrics_history, blackboard.event_log, blackboard.abort_log)


def snapshot(blackboard):
    """Everything the blackboard holds, down to what its logs, the open
    cycle's roles and the baseline memo hold, since those change in place."""
    held = [getattr(blackboard, f.name) for f in fields(Blackboard)]
    held += blackboard.cycle_roles or ()
    for entry in blackboard.baseline_memo.items():
        held += entry
    for log in logs(blackboard):
        held += log
    return held


def assert_unchanged(before, blackboard):
    after = snapshot(blackboard)
    assert len(after) == len(before) and all(a is b for a, b in zip(before, after))


class LifecycleMachine(RuleBasedStateMachine):
    """Drives the lifecycle one transition at a time, as run_episode does,
    with failures injected at any role and direct calls out of order.

    The route alone guards each agent's inputs: every failure it sees must
    be an injected one, so no agent ever reports a missing input and
    Deployment never refuses what the supervisor sends it.
    """

    def __init__(self):
        super().__init__()
        self.blackboard = Blackboard()
        self.logs = ((), (), ())
        self.finished_steps = 0
        self.step_open = False
        # while set, every Evaluation of the open cycle fails its verdict
        self.harsh = False

    @initialize(seed=st.integers(0, 2**16))
    def choose_scenario(self, seed):
        # 3 degrees of drift a step, so Monitoring fires recovery cycles
        # within the few steps one example runs
        trajectory = TrajectoryConfig(
            initial_angles=THREE_USERS, num_steps=MACHINE_RULES, drift=RandomWalkDrift(3.0)
        )
        self.scenario = ScenarioConfig(
            trajectory=trajectory, optimizer=OptimizerConfig(restarts=2), seed=seed
        )
        self.trajectory = generate_trajectory(
            replace(trajectory, seed=_derive_seed(seed, _STREAM_TRAJECTORY, 0, 0))
        )

    @precondition(lambda self: self.blackboard.stage is IDLE and not self.step_open)
    @rule()
    def start_step(self):
        """Start the next step as run_episode does."""
        blackboard = self.blackboard
        step = self.finished_steps
        blackboard.step_index = step
        blackboard.true_angles = self.trajectory[step]
        blackboard.trigger_decision = None
        blackboard.stage = AgentRole.MONITORING
        self.step_open = True

    @precondition(lambda self: self.blackboard.stage is not IDLE)
    @rule(fails=st.booleans())
    def run_stage(self, fails):
        """Run the agent whose turn it is, failing it when drawn, and route."""
        blackboard = self.blackboard
        with pytest.MonkeyPatch.context() as patch:
            if self.harsh:
                patch.setitem(lifecycle._HANDLERS, AgentRole.EVALUATION, harsh_evaluation)
            if fails:
                patch.setitem(lifecycle._HANDLERS, blackboard.stage, injected_failure)
            report = agent_execute(blackboard.stage, blackboard, self.scenario)
        assert report.ok or report.message == INJECTED, report
        supervisor_next(blackboard, report)
        if blackboard.cycle_roles is None:
            self.harsh = False

    @precondition(lambda self: self.blackboard.stage is AgentRole.EVALUATION and not self.harsh)
    @rule()
    def force_failed_verdicts(self):
        """Fail every verdict left in this cycle, down the degraded path."""
        self.harsh = True

    @precondition(lambda self: self.blackboard.stage is IDLE and self.step_open)
    @rule()
    def finish_step(self):
        """Append the step's record once the stage went idle, as run_episode does."""
        blackboard = self.blackboard
        _append_step_record(blackboard, self.scenario)
        self.finished_steps += 1
        self.step_open = False
        record = blackboard.metrics_history[-1]
        decision = blackboard.trigger_decision
        assert record.trigger_reason is (decision.reason if decision is not None else None)
        assert record.evolved == any(e.trigger_step == record.step for e in blackboard.event_log)
        assert record.fixed_gain_db == cold_fixed_gain_db(record, self.scenario.constraints)

    @rule(data=st.data(), kind=st.sampled_from(["agent", "outside", "report"]))
    def call_out_of_order(self, data, kind):
        """An agent whose turn it is not, a cycle role outside a cycle (even
        with the stage pointing at it), or a report that does not match the
        stage: each raises ProtocolError and leaves the blackboard as it was."""
        blackboard = self.blackboard
        stage = blackboard.stage
        if kind == "outside" and blackboard.cycle_roles is not None:
            kind = "agent"  # inside a cycle there is no outside call to make
        roles = CYCLE_ROLES if kind == "outside" else AgentRole
        role = data.draw(st.sampled_from([r for r in roles if r is not stage]))
        before = snapshot(blackboard)
        if kind == "agent":
            with pytest.raises(ProtocolError, match="invoked while stage is"):
                agent_execute(role, blackboard, self.scenario)
        elif kind == "outside":
            blackboard.stage = role
            with pytest.raises(ProtocolError, match="outside an evolution cycle"):
                agent_execute(role, blackboard, self.scenario)
            blackboard.stage = stage
        else:
            report = AgentReport(role=role, ok=data.draw(st.booleans()), message="out of turn")
            with pytest.raises(ProtocolError, match="does not match stage"):
                supervisor_next(blackboard, report)
        assert_unchanged(before, blackboard)

    @invariant()
    def only_an_open_cycle_holds_its_roles(self):
        blackboard = self.blackboard
        outside = blackboard.stage is IDLE or blackboard.stage is AgentRole.MONITORING
        assert (blackboard.cycle_roles is None) == outside

    @invariant()
    def logs_only_grow_by_appending(self):
        current = logs(self.blackboard)
        for old, log in zip(self.logs, current):
            assert len(log) >= len(old)
            assert all(a is b for a, b in zip(old, log))
        self.logs = tuple(tuple(log) for log in current)

    @invariant()
    def each_finished_step_appends_one_record(self):
        history = self.blackboard.metrics_history
        assert [record.step for record in history] == list(range(self.finished_steps))

    @invariant()
    def every_event_follows_the_route(self):
        for event in self.blackboard.event_log:
            assert_valid_sequence(event.agent_sequence)


TestLifecycleMachine = LifecycleMachine.TestCase
TestLifecycleMachine.settings = settings(
    max_examples=60, stateful_step_count=MACHINE_RULES, deadline=None
)
