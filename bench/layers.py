"""Per-layer probes: which evobeam globals the traced run wraps, and the
per-layer metrics computed from their spans and return values.

Each metric is listed with the end-to-end metric it should move:

- arrays (principal_eigenpair, sum_beam_gain): steps_per_s and
  episode_s_p50, most on episode_steady, then episode_default, barely on
  episode_wide.
- optimize (optimize_movable, project_positions, fixed_baseline): search
  and projection move steps_per_s on episode_default and episode_wide, not
  on episode_steady; search quality shows in gain_advantage_db and
  hold_step_share.
- channel and estimation (synthesize_csi, sample_covariance,
  estimate_doas): largest share on episode_steady and episode_routed;
  accuracy moves gain_advantage_db and hold_step_share everywhere.
- lifecycle (agent_execute, supervisor_next): recovery times move
  steps_per_s on episode_default and episode_wide; self and supervisor
  time matter most on episode_steady and episode_routed.
- llm (build_routing_prompt, decide_next_agent): steps_per_s on
  episode_routed only.
- reporting, scenario and cli: setup_s on every workload.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

import numpy as np

from evobeam import lifecycle, llm, optimize, reporting
from evobeam.lifecycle import IDLE, ROLE_NAMES, AgentRole

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_NOOP_TOLERANCE = 1e-12

# (name, unit) of every metric the traced run prints, in print order
METRICS = (
    ("arrays.eig_calls", "count"),
    ("arrays.eig_s", "s"),
    ("arrays.eig_iters", "count"),
    ("arrays.eig_iters_max", "count"),
    ("arrays.gain_calls", "count"),
    ("arrays.gain_s", "s"),
    ("optimize.solve_calls", "count"),
    ("optimize.solve_s", "s"),
    ("optimize.solve_self_s", "s"),
    ("optimize.iterations", "count"),
    ("optimize.converged_share", "ratio"),
    ("optimize.project_calls", "count"),
    ("optimize.project_s", "s"),
    ("optimize.project_noop_share", "ratio"),
    ("optimize.baseline_calls", "count"),
    ("optimize.baseline_s", "s"),
    ("channel.csi_calls", "count"),
    ("channel.csi_s", "s"),
    ("channel.snapshots", "count"),
    ("estimation.cov_s", "s"),
    ("estimation.scan_calls", "count"),
    ("estimation.scan_s", "s"),
    ("estimation.low_confidence_share", "ratio"),
    ("estimation.err_deg_mean", "deg"),
    ("lifecycle.transitions", "count"),
    *((f"lifecycle.agent_s.{role}", "s") for role in ROLE_NAMES),
    ("lifecycle.supervisor_s", "s"),
    ("lifecycle.self_s", "s"),
    ("lifecycle.cycles", "count"),
    ("lifecycle.aborts", "count"),
    ("lifecycle.training_rounds", "count"),
    ("lifecycle.step_ms_p50", "ms"),
    ("lifecycle.step_ms_tail", "ms"),
    ("lifecycle.step_ms_tail_pct", "%"),
    ("lifecycle.step_samples", "count"),
    ("lifecycle.recovery_ms_p50", "ms"),
    ("lifecycle.recovery_ms_tail", "ms"),
    ("lifecycle.recovery_ms_tail_pct", "%"),
    ("lifecycle.recovery_samples", "count"),
    ("llm.requests", "count"),
    ("llm.request_s", "s"),
    ("llm.server_s", "s"),
    ("llm.client_overhead_s", "s"),
    ("llm.prompt_s", "s"),
    ("llm.accept_share", "ratio"),
    ("reporting.write_s", "s"),
    ("reporting.read_s", "s"),
    ("reporting.bytes", "bytes"),
    ("scenario.load_s", "s"),
    ("cli.import_s", "s"),
    ("trace.scored_episodes", "count"),
    ("trace.overhead_share", "ratio"),
)


def tail(samples):
    """(value, percentile) of the highest listed percentile with at least
    ten samples beyond it; the median when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 50.0
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            rank = max(1, math.ceil(pct / 100.0 * n))
            return ordered[rank - 1], pct
    return statistics.median(ordered), 50.0


def _share(part, whole):
    return part / whole if whole else 0.0


class LayerProbe:
    """Wraps the layer boundaries on a Tracer and accumulates counters."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = Counter()
        self.eig_iters_max = 0
        self.agent_s = dict.fromkeys(ROLE_NAMES, 0.0)
        self.step_ms = []
        self.recovery_ms = []
        self._step_key = None
        self._step_start = None
        self._cycle_start = None

    def install(self):
        wrap = self.tracer.wrap
        wrap(optimize, "principal_eigenpair", "arrays.eig", self._on_eig)
        wrap(optimize, "project_positions", "optimize.project", self._on_project)
        wrap(lifecycle, "sum_beam_gain", "arrays.gain")
        wrap(lifecycle, "optimize_movable", "optimize.solve", self._on_solve)
        wrap(lifecycle, "fixed_baseline", "optimize.baseline")
        wrap(lifecycle, "synthesize_csi", "channel.csi", self._on_csi)
        wrap(lifecycle, "sample_covariance", "estimation.cov")
        wrap(lifecycle, "estimate_doas", "estimation.scan", self._on_scan)
        wrap(lifecycle, "agent_execute", "lifecycle.agent", self._on_agent)
        wrap(lifecycle, "supervisor_next", "lifecycle.supervisor", self._on_supervisor)
        wrap(llm, "build_routing_prompt", "llm.prompt")
        wrap(llm, "decide_next_agent", "llm.request", self._on_decision)
        wrap(reporting, "read_metrics_csv", "reporting.read")
        wrap(reporting, "read_events_json", "reporting.read")

    def _on_eig(self, args, result, start, end):
        self.counts["eig_iters"] += result.iterations
        self.eig_iters_max = max(self.eig_iters_max, result.iterations)

    def _on_project(self, args, result, start, end):
        if np.max(np.abs(result - np.asarray(args[0], dtype=float))) <= _NOOP_TOLERANCE:
            self.counts["project_noop"] += 1

    def _on_solve(self, args, result, start, end):
        self.counts["iterations"] += result.iterations
        self.counts["converged"] += bool(result.converged)

    def _on_csi(self, args, result, start, end):
        self.counts["snapshots"] += result.num_snapshots

    def _on_scan(self, args, result, start, end):
        self.counts["low_confidence"] += bool(result.low_confidence)

    def _on_agent(self, args, result, start, end):
        role, blackboard = args[0], args[1]
        self.agent_s[role.value] += end - start
        if role is AgentRole.TRAINING:
            self.counts["training_rounds"] += 1
        key = (self.tracer.episode, blackboard.step_index)
        if key != self._step_key:
            self._close_step(start)
            self._step_key = key
            self._step_start = start
        if role is AgentRole.DATA_COLLECTION and self._cycle_start is None:
            self._cycle_start = start

    def _on_supervisor(self, args, result, start, end):
        if result is IDLE and self._cycle_start is not None:
            self.recovery_ms.append(1e3 * (end - self._cycle_start))
            self._cycle_start = None

    def _on_decision(self, args, result, start, end):
        self.counts["accepted"] += result.source == "llm"

    def _close_step(self, end):
        if self._step_start is not None:
            self.step_ms.append(1e3 * (end - self._step_start))
        self._step_start = None

    def end_episode(self, end):
        """Close the last step of the episode that ended at time end."""
        self._close_step(end)
        self._step_key = None
        self._cycle_start = None

    def metrics(self, *, card, server, setup, overhead_share):
        """Every per-layer metric as name -> (value, unit).

        card: the scored episodes' Scorecard; server: (requests, handler
        seconds) of the routing stub; setup: medians of the set-up probes.
        """
        t = self.tracer
        step_tail, step_pct = tail(self.step_ms)
        rec_tail, rec_pct = tail(self.recovery_ms)
        requests, server_s = server
        values = {
            "arrays.eig_calls": t.calls("arrays.eig"),
            "arrays.eig_s": t.seconds("arrays.eig"),
            "arrays.eig_iters": self.counts["eig_iters"],
            "arrays.eig_iters_max": self.eig_iters_max,
            "arrays.gain_calls": t.calls("arrays.gain"),
            "arrays.gain_s": t.seconds("arrays.gain"),
            "optimize.solve_calls": t.calls("optimize.solve"),
            "optimize.solve_s": t.seconds("optimize.solve"),
            "optimize.solve_self_s": t.self_seconds("optimize.solve"),
            "optimize.iterations": self.counts["iterations"],
            "optimize.converged_share": _share(
                self.counts["converged"], t.calls("optimize.solve")
            ),
            "optimize.project_calls": t.calls("optimize.project"),
            "optimize.project_s": t.seconds("optimize.project"),
            "optimize.project_noop_share": _share(
                self.counts["project_noop"], t.calls("optimize.project")
            ),
            "optimize.baseline_calls": t.calls("optimize.baseline"),
            "optimize.baseline_s": t.seconds("optimize.baseline"),
            "channel.csi_calls": t.calls("channel.csi"),
            "channel.csi_s": t.seconds("channel.csi"),
            "channel.snapshots": self.counts["snapshots"],
            "estimation.cov_s": t.seconds("estimation.cov"),
            "estimation.scan_calls": t.calls("estimation.scan"),
            "estimation.scan_s": t.seconds("estimation.scan"),
            "estimation.low_confidence_share": _share(
                self.counts["low_confidence"], t.calls("estimation.scan")
            ),
            "estimation.err_deg_mean": card.err_deg_mean(),
            "lifecycle.transitions": t.calls("lifecycle.supervisor"),
            **{f"lifecycle.agent_s.{role}": s for role, s in self.agent_s.items()},
            "lifecycle.supervisor_s": t.seconds("lifecycle.supervisor"),
            "lifecycle.self_s": t.self_seconds("episode"),
            "lifecycle.cycles": card.cycles,
            "lifecycle.aborts": card.aborts,
            "lifecycle.training_rounds": self.counts["training_rounds"],
            "lifecycle.step_ms_p50": _median(self.step_ms),
            "lifecycle.step_ms_tail": step_tail,
            "lifecycle.step_ms_tail_pct": step_pct,
            "lifecycle.step_samples": len(self.step_ms),
            "lifecycle.recovery_ms_p50": _median(self.recovery_ms),
            "lifecycle.recovery_ms_tail": rec_tail,
            "lifecycle.recovery_ms_tail_pct": rec_pct,
            "lifecycle.recovery_samples": len(self.recovery_ms),
            "llm.requests": requests,
            "llm.request_s": t.seconds("llm.request"),
            "llm.server_s": server_s,
            "llm.client_overhead_s": t.seconds("llm.request") - server_s,
            "llm.prompt_s": t.seconds("llm.prompt"),
            "llm.accept_share": _share(self.counts["accepted"], t.calls("llm.request")),
            "reporting.write_s": t.seconds("reporting.write"),
            "reporting.read_s": t.seconds("reporting.read"),
            "reporting.bytes": card.bytes_written,
            "scenario.load_s": setup["load_s"],
            "cli.import_s": setup["import_s"],
            "trace.scored_episodes": card.episodes,
            "trace.overhead_share": overhead_share,
        }
        return {name: (values[name], unit) for name, unit in METRICS}


def _median(samples):
    return statistics.median(samples) if samples else 0.0
