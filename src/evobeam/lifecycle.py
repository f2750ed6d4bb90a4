"""Self-evolving episode loop: six role agents around a shared blackboard.

DataCollection, ModelSelection, Training, Evaluation, Deployment and
Monitoring each own one stage of the beamformer's life. They communicate
through a Blackboard, and a deterministic supervisor routes between them.
Each agent returns its one-line summary and fails only by raising;
agent_execute turns either outcome into the AgentReport the supervisor
routes on. The route is the one precondition check: an agent runs only
after the stages that write its inputs, so no agent re-checks them, and a
call out of turn raises ProtocolError.
Every step starts at Monitoring, the one way into a cycle: it fires
HardwareChange while no movable array is deployed, and otherwise watches
the deployed beamformer against the best the fixed uniform array could do.
Per step, Monitoring synthesizes CSI, forms the covariance and scans
it. Per deployment it builds the scan's grid and steering matrix once
(the estimator keeps them on the deployed geometry), and the uniform
layout is built once per constraints. Both gains it compares depend only
on the estimated angles and the deployment, so a step whose estimate
and deployment repeat the last one's reuses the last comparison; only
Monitoring reads or writes that cache. A trigger runs the whole
collect/select/train/evaluate/deploy cycle inside the same step,
appending an auditable EvolutionEvent.
run_episode drives the loop over a drifting user trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

# unused here, but the benchmark's trace wraps lifecycle.sum_beam_gain by name
from .arrays import DoASet, beam_gain, sum_beam_gain  # noqa: F401
from .channel import DEFAULT_SNAPSHOTS, generate_trajectory, synthesize_csi
from .errors import EvobeamError, ProtocolError, ValidationError
from .estimation import DoaEstimate, estimate_doas, sample_covariance
from .optimize import MAX_OUTER_ITERATIONS, BeamformingSolution, fixed_baseline
from .optimize import optimize_movable, position_grid
from .scenario import ScenarioConfig

MAX_TRAINING_ROUNDS = 5

# Monitoring fires when the deployed gain fell by more than this since
# its last check
DEFAULT_RELATIVE_DROP_DB = 3.0

# slack applied wherever a recovered gain is compared against the baseline,
# so equal solutions reached through different arithmetic still pass
GAIN_SLACK_DB = 1e-9

# a candidate may not land more than this far below the gain it replaces
_PRE_GAIN_SLACK_DB = 0.1

# independent seed streams; (master, stream, step, attempt) tuples feed a
# SeedSequence so retries draw fresh noise and runs stay reproducible
_STREAM_TRAJECTORY = 0
_STREAM_MONITOR_CSI = 1
_STREAM_COLLECT_CSI = 2
_STREAM_OPTIMIZER = 3

_MAX_TRANSITIONS_PER_STEP = 100


class AgentRole(str, Enum):
    """The six specialist roles; the supervisor routes among them."""

    DATA_COLLECTION = "DataCollection"
    MODEL_SELECTION = "ModelSelection"
    TRAINING = "Training"
    EVALUATION = "Evaluation"
    DEPLOYMENT = "Deployment"
    MONITORING = "Monitoring"


ROLE_NAMES = tuple(role.value for role in AgentRole)


class _Idle:
    """Quiescent supervisor state between steps; a single shared instance."""

    __slots__ = ()

    def __repr__(self):
        return "Idle"


IDLE = _Idle()


class TriggerReason(str, Enum):
    BELOW_BASELINE = "BelowBaseline"
    RELATIVE_DROP = "RelativeDrop"
    HARDWARE_CHANGE = "HardwareChange"


@dataclass(frozen=True)
class TriggerDecision:
    """Outcome of one monitoring comparison."""

    trigger: bool
    reason: TriggerReason | None = None
    deployed_gain_db: float | None = None
    baseline_gain_db: float | None = None


@dataclass(frozen=True)
class AgentReport:
    """What one agent run did: whether it raised, and its summary line.

    On success message is the line the agent returned; on failure it is
    the error's text.
    """

    role: AgentRole
    ok: bool
    message: str


@dataclass(frozen=True)
class EvolutionEvent:
    """One completed pass through the collect..deploy cycle."""

    trigger_step: int
    reason: TriggerReason
    pre_gain_db: float
    post_gain_db: float
    baseline_gain_db: float
    agent_sequence: tuple
    training_rounds: int
    degraded: bool = False


@dataclass(frozen=True)
class AbortRecord:
    """A cycle that died: which role failed twice and why."""

    trigger_step: int
    reason: TriggerReason | None
    failed_role: AgentRole
    error: str
    agent_sequence: tuple = ()


@dataclass(frozen=True)
class MetricsRecord:
    """Per-step scorecard; gains are measured at the true directions."""

    step: int
    true_angles: tuple
    estimated_angles: tuple
    movable_gain_db: float
    fixed_gain_db: float
    evolved: bool
    trigger_reason: TriggerReason | None = None


@dataclass
class _PendingEvent:
    """Mutable scratchpad for the evolution cycle currently in flight."""

    trigger_step: int
    reason: TriggerReason
    pre_gain_db: float | None
    agent_sequence: list = field(default_factory=list)
    degraded: bool = False
    best_candidate: BeamformingSolution | None = None


@dataclass(frozen=True)
class _Comparison:
    """Monitoring's last comparison: at angles, the deployed solution
    scored deployed_db and the fixed array's best was baseline."""

    angles: DoASet
    deployed: BeamformingSolution
    deployed_db: float
    baseline: BeamformingSolution


@dataclass
class Blackboard:
    """Shared state the agents read and write.

    Each agent reads only what the stages before it on the route wrote.
    Monitoring writes trigger_decision, which opens a cycle.
    DataCollection writes latest_estimate and baseline_solution, the fixed
    baseline at that estimate, for ModelSelection, Training and Evaluation.
    Training writes candidate_solution for Evaluation, whose
    evaluation_passed the supervisor routes on, and Deployment reads the
    candidate and the baseline. Monitoring also writes latest_estimate and
    baseline_solution together, so a step's record scores the baseline of
    the estimate it records.
    metrics_history, event_log and abort_log only ever grow: the only
    writers are _append_step_record, _run_deployment and _abort_event, and
    each appends. Agents never assign stage themselves; supervisor_next
    performs every transition and the episode runner starts every step at
    Monitoring.
    deployed_solution changes only inside the Deployment agent.
    last_comparison is Monitoring's own cache: only Monitoring reads or
    writes it, and it replaces the entry when its estimate or the
    deployment differs from the entry's.
    true_angles are the step's actual directions: the sensing agents
    synthesize CSI from them, and the step's metrics are scored at them.
    """

    step_index: int = 0
    true_angles: DoASet | None = None
    stage: AgentRole | _Idle = IDLE
    deployed_solution: BeamformingSolution | None = None
    baseline_solution: BeamformingSolution | None = None
    latest_estimate: DoaEstimate | None = None
    candidate_solution: BeamformingSolution | None = None
    evaluation_passed: bool | None = None
    trigger_decision: TriggerDecision | None = None
    last_deployed_gain_db: float | None = None
    last_comparison: _Comparison | None = None
    pending_event: _PendingEvent | None = None
    consecutive_failures: int = 0
    metrics_history: list = field(default_factory=list)
    event_log: list = field(default_factory=list)
    abort_log: list = field(default_factory=list)


@dataclass(frozen=True)
class EpisodeResult:
    metrics_history: tuple
    event_log: tuple
    abort_log: tuple = ()


def _derive_seed(master, stream, step, attempt):
    seq = np.random.SeedSequence((int(master), int(stream), int(step), int(attempt)))
    return int(seq.generate_state(1)[0])


def monitoring_check(
    deployed_gain_db,
    baseline_gain_db,
    last_deployed_gain_db,
    relative_drop_threshold=DEFAULT_RELATIVE_DROP_DB,
) -> TriggerDecision:
    """Decide whether the deployed beamformer needs another evolution cycle.

    Fires BelowBaseline when the deployed gain is strictly below the fixed
    baseline, otherwise RelativeDrop when the gain fell by more than the
    threshold since the last check. Equal gains never trigger. The decision
    carries the two gains it compared.
    """
    for name, value in (
        ("deployed_gain_db", deployed_gain_db),
        ("baseline_gain_db", baseline_gain_db),
        ("last_deployed_gain_db", last_deployed_gain_db),
    ):
        if value is None or value != value or value == float("inf"):
            raise ValidationError(f"{name} must be finite or -inf, got {value}")
    if not relative_drop_threshold >= 0:
        raise ValidationError("relative_drop_threshold must be >= 0")
    if deployed_gain_db < baseline_gain_db:
        reason = TriggerReason.BELOW_BASELINE
    elif last_deployed_gain_db - deployed_gain_db > relative_drop_threshold:
        reason = TriggerReason.RELATIVE_DROP
    else:
        reason = None
    return TriggerDecision(
        reason is not None, reason, float(deployed_gain_db), float(baseline_gain_db)
    )


def agent_execute(role: AgentRole, blackboard: Blackboard, scenario: ScenarioConfig) -> AgentReport:
    """Run one agent against the blackboard and report what it did.

    This is the one place a report is built. An agent returns its summary
    line, which becomes the report's message. An agent fails only by
    raising, and a domain failure (an EvobeamError of the estimator or the
    optimizer) comes back as a failed report whose message is the error's
    text, or "<Role> failed" when that is empty; it never escapes. Calling
    an agent whose turn it is not, or a role other than Monitoring outside
    an open cycle, raises ProtocolError; an agent called in turn finds its
    inputs written.
    """
    if blackboard.stage is not role:
        raise ProtocolError(f"agent {role.value} invoked while stage is {blackboard.stage}")
    if role is not AgentRole.MONITORING:
        if blackboard.pending_event is None:
            raise ProtocolError(f"agent {role.value} invoked outside an evolution cycle")
        blackboard.pending_event.agent_sequence.append(role)
    try:
        return AgentReport(role, True, _HANDLERS[role](blackboard, scenario))
    except EvobeamError as exc:
        return AgentReport(role, False, str(exc) or f"{role.value} failed")


# where each role moves on success; Monitoring and Evaluation branch instead
_FORWARD = {
    AgentRole.DATA_COLLECTION: AgentRole.MODEL_SELECTION,
    AgentRole.MODEL_SELECTION: AgentRole.TRAINING,
    AgentRole.TRAINING: AgentRole.EVALUATION,
    AgentRole.DEPLOYMENT: IDLE,
}


def supervisor_next(blackboard: Blackboard, last_report: AgentReport):
    """Advance the stage machine by one transition and return the new stage.

    Routing is deterministic: Monitoring branches on the trigger decision,
    Evaluation on its verdict, everything else moves forward. A failed
    report retries the same role once and then aborts the cycle into
    abort_log. After MAX_TRAINING_ROUNDS failed evaluations the best
    candidate so far is force-deployed and the event marked degraded.
    """
    stage = blackboard.stage
    role = last_report.role
    if stage is IDLE or role is not stage:
        raise ProtocolError(f"report from {role} does not match stage {stage}")
    if not last_report.ok:
        if blackboard.consecutive_failures >= 1:
            _abort_event(blackboard, role, last_report.message)
            blackboard.consecutive_failures = 0
            blackboard.stage = IDLE
            return IDLE
        blackboard.consecutive_failures += 1
        return role
    blackboard.consecutive_failures = 0

    if role is AgentRole.MONITORING:
        decision = blackboard.trigger_decision
        if decision is not None and decision.trigger:
            blackboard.pending_event = _PendingEvent(
                trigger_step=blackboard.step_index,
                reason=decision.reason,
                pre_gain_db=decision.deployed_gain_db,
            )
            nxt = AgentRole.DATA_COLLECTION
        else:
            nxt = IDLE
    elif role is AgentRole.EVALUATION:
        passed, pending = blackboard.evaluation_passed, blackboard.pending_event
        if passed is None:
            raise ProtocolError("evaluation finished without a verdict")
        if passed:
            nxt = AgentRole.DEPLOYMENT
        elif pending is None:
            raise ProtocolError("evaluation failed outside an evolution cycle")
        elif pending.agent_sequence.count(AgentRole.TRAINING) >= MAX_TRAINING_ROUNDS:
            pending.degraded = True
            blackboard.candidate_solution = pending.best_candidate
            nxt = AgentRole.DEPLOYMENT
        else:
            nxt = AgentRole.TRAINING
    else:
        nxt = _FORWARD[role]
    blackboard.stage = nxt
    return nxt


def _abort_event(blackboard, failed_role, error):
    pending = blackboard.pending_event
    record = AbortRecord(
        trigger_step=pending.trigger_step if pending else blackboard.step_index,
        reason=pending.reason if pending else None,
        failed_role=failed_role,
        error=str(error),
        agent_sequence=tuple(pending.agent_sequence) if pending else (),
    )
    blackboard.abort_log.append(record)
    blackboard.pending_event = None


def _gain_db(solution, doas):
    return beam_gain(solution.geometry, solution.weights, doas).db


def _format_angles(angles):
    return "[" + ", ".join(f"{a:.1f}" for a in angles) + "]"


def _sense(geometry, blackboard, scenario, stream):
    """Synthesize this step's CSI on geometry and estimate the directions.

    The noise seed is (stream, step, consecutive failures), so a retry
    draws fresh noise.
    """
    step, attempt = blackboard.step_index, blackboard.consecutive_failures
    csi = synthesize_csi(
        geometry,
        blackboard.true_angles,
        scenario.snr_db,
        seed=_derive_seed(scenario.seed, stream, step, attempt),
    )
    return estimate_doas(
        sample_covariance(csi), geometry, len(scenario.trajectory.initial_angles)
    )


# Each handler runs one agent on the blackboard and returns its summary
# line; it fails only by raising.


def _run_data_collection(blackboard, scenario):
    deployed = blackboard.deployed_solution
    # sense on the array the receiver has: deployed, or uniform before any
    geometry = scenario.constraints.uniform_geometry() if deployed is None else deployed.geometry
    estimate = _sense(geometry, blackboard, scenario, _STREAM_COLLECT_CSI)
    blackboard.latest_estimate = estimate
    blackboard.baseline_solution = fixed_baseline(estimate.angles, scenario.constraints)
    return (
        f"collected {DEFAULT_SNAPSHOTS} snapshots, "
        f"estimated directions {_format_angles(estimate.angles.angles_deg)}"
    )


def _run_model_selection(blackboard, scenario):
    k = len(blackboard.latest_estimate.angles)
    n = scenario.constraints.num_elements
    points = position_grid(scenario.constraints)[0].size
    return (
        f"problem size {k}x{n}, majorize-maximize search on a {points}-point grid "
        f"with {scenario.optimizer.restarts} restarts of up to {MAX_OUTER_ITERATIONS} steps"
    )


def _run_training(blackboard, scenario):
    pending = blackboard.pending_event
    attempt = pending.agent_sequence.count(AgentRole.TRAINING) - 1
    config = replace(
        scenario.optimizer,
        seed=_derive_seed(scenario.seed, _STREAM_OPTIMIZER, blackboard.step_index, attempt),
    )
    candidate = optimize_movable(blackboard.latest_estimate.angles, config, scenario.constraints)
    blackboard.candidate_solution = candidate
    if pending.best_candidate is None or candidate.gain_db > pending.best_candidate.gain_db:
        pending.best_candidate = candidate
    return (
        f"optimized positions and weights, gain {candidate.gain_db:.4f} dB "
        f"in {candidate.iterations} iterations"
    )


def _run_evaluation(blackboard, scenario):
    candidate, baseline = blackboard.candidate_solution, blackboard.baseline_solution
    floor = baseline.gain_db - GAIN_SLACK_DB
    pre_gain_db = blackboard.pending_event.pre_gain_db
    if pre_gain_db is not None:
        floor = max(floor, pre_gain_db - _PRE_GAIN_SLACK_DB)
    passed = candidate.gain_db >= floor
    blackboard.evaluation_passed = passed
    if passed:
        summary = "pass"
    else:
        summary = f"fail (candidate {candidate.gain_db:.4f} dB under required {floor:.4f} dB)"
    return (
        f"candidate {candidate.gain_db:.4f} dB vs baseline {baseline.gain_db:.4f} dB: "
        f"{summary}; converged={candidate.converged}, iterations={candidate.iterations}"
    )


def _run_deployment(blackboard, scenario):
    pending, candidate = blackboard.pending_event, blackboard.candidate_solution
    blackboard.deployed_solution = candidate
    blackboard.last_deployed_gain_db = float(candidate.gain_db)
    baseline_db = blackboard.baseline_solution.gain_db
    pre = pending.pre_gain_db if pending.pre_gain_db is not None else baseline_db
    blackboard.event_log.append(
        EvolutionEvent(
            trigger_step=pending.trigger_step,
            reason=pending.reason,
            pre_gain_db=float(pre),
            post_gain_db=float(candidate.gain_db),
            baseline_gain_db=float(baseline_db),
            agent_sequence=tuple(pending.agent_sequence),
            training_rounds=pending.agent_sequence.count(AgentRole.TRAINING),
            degraded=pending.degraded,
        )
    )
    blackboard.pending_event = None
    return f"deployed candidate at {candidate.gain_db:.4f} dB"


def _run_monitoring(blackboard, scenario):
    if blackboard.deployed_solution is None:
        # the fixed array is still in place: upgrade it without sensing
        blackboard.trigger_decision = TriggerDecision(True, TriggerReason.HARDWARE_CHANGE)
        return "no movable array deployed: trigger HardwareChange"
    deployed = blackboard.deployed_solution
    estimate = _sense(deployed.geometry, blackboard, scenario, _STREAM_MONITOR_CSI)
    angles = estimate.angles
    last = blackboard.last_comparison
    if last is None or last.deployed is not deployed or last.angles != angles:
        last = _Comparison(
            angles,
            deployed,
            _gain_db(deployed, angles),
            fixed_baseline(angles, scenario.constraints),
        )
        blackboard.last_comparison = last
    deployed_db, baseline = last.deployed_db, last.baseline
    decision = monitoring_check(deployed_db, baseline.gain_db, blackboard.last_deployed_gain_db)
    blackboard.latest_estimate = estimate
    blackboard.baseline_solution = baseline
    blackboard.trigger_decision = decision
    blackboard.last_deployed_gain_db = decision.deployed_gain_db
    state = f"trigger {decision.reason.value}" if decision.trigger else "healthy"
    return f"deployed {deployed_db:.4f} dB vs baseline {baseline.gain_db:.4f} dB: {state}"


_HANDLERS = {
    AgentRole.DATA_COLLECTION: _run_data_collection,
    AgentRole.MODEL_SELECTION: _run_model_selection,
    AgentRole.TRAINING: _run_training,
    AgentRole.EVALUATION: _run_evaluation,
    AgentRole.DEPLOYMENT: _run_deployment,
    AgentRole.MONITORING: _run_monitoring,
}


def _append_step_record(blackboard, scenario, evolved, reason):
    """Score the step at the true directions and append the metrics record."""
    true_doas = blackboard.true_angles
    estimate = blackboard.latest_estimate
    estimated = tuple(estimate.angles.angles_deg) if estimate is not None else ()
    if blackboard.baseline_solution is not None:
        fixed_db = _gain_db(blackboard.baseline_solution, true_doas)
    else:
        fixed_db = fixed_baseline(true_doas, scenario.constraints).gain_db
    if blackboard.deployed_solution is not None:
        movable_db = _gain_db(blackboard.deployed_solution, true_doas)
    else:
        movable_db = fixed_db
    blackboard.metrics_history.append(
        MetricsRecord(
            step=blackboard.step_index,
            true_angles=tuple(true_doas.angles_deg),
            estimated_angles=estimated,
            movable_gain_db=float(movable_db),
            fixed_gain_db=float(fixed_db),
            evolved=bool(evolved),
            trigger_reason=reason,
        )
    )


def _drive_cycle(blackboard, scenario, router):
    """Run agents until the supervisor goes idle."""
    for _ in range(_MAX_TRANSITIONS_PER_STEP):
        if blackboard.stage is IDLE:
            return
        role = blackboard.stage
        report = agent_execute(role, blackboard, scenario)
        nxt = supervisor_next(blackboard, report)
        if router is not None:
            # an observer: the deterministic route is the only legal one,
            # so whatever the router returns is ignored
            router(blackboard, report, nxt)
    raise ProtocolError("stage machine failed to go idle within the step")


def run_episode(scenario: ScenarioConfig, router=None) -> EpisodeResult:
    """Run one monitored episode over the scenario's trajectory.

    Every step starts at Monitoring, and a trigger runs the full agent
    cycle within the same step, so the step's metrics already show the
    recovered gain. While no movable array is deployed (at step 0, or
    after a failed upgrade) Monitoring fires HardwareChange, and the cycle
    upgrades the fixed uniform layout to an optimized movable one. All
    randomness derives from scenario.seed.

    Args:
        scenario: validated scenario.
        router: optional observer called as router(blackboard, report,
            next_stage) after every transition. Its return value is
            ignored: the run always follows the deterministic route. Used
            by the LLM routing adapter to cross-check each transition.

    Returns:
        EpisodeResult with one metrics record per step, the completed
        evolution events, and any aborted cycles.
    """
    trajectory_config = replace(
        scenario.trajectory,
        seed=_derive_seed(scenario.seed, _STREAM_TRAJECTORY, 0, 0),
    )
    trajectory = generate_trajectory(trajectory_config)
    blackboard = Blackboard()
    for step, true_doas in enumerate(trajectory):
        blackboard.step_index = step
        blackboard.true_angles = true_doas
        events_before = len(blackboard.event_log)
        blackboard.trigger_decision = None
        blackboard.stage = AgentRole.MONITORING
        _drive_cycle(blackboard, scenario, router)
        decision = blackboard.trigger_decision
        reason = decision.reason if decision is not None else None
        evolved = len(blackboard.event_log) > events_before
        _append_step_record(blackboard, scenario, evolved=evolved, reason=reason)
    return EpisodeResult(
        metrics_history=tuple(blackboard.metrics_history),
        event_log=tuple(blackboard.event_log),
        abort_log=tuple(blackboard.abort_log),
    )
