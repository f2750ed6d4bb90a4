"""Run one workload of the episode benchmark and compute its metrics.

One operation is one episode through the public API: load_scenario (before
the clock starts), then run_episode, write_metrics_csv and
write_events_json inside the timed region. Output checks run after each
episode, outside the timed region; an escaped exception or a failed check
counts as a failed operation.

The loop plays scenario seeds in order until the timed episodes add up to
the requested seconds and the workload's scored episodes are all done.
Deterministic metrics come from the scored episodes only, so they repeat
exactly for a run seed; timings use every episode of the window.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy
import yaml

from evobeam import load_scenario, reporting, run_episode
from evobeam.lifecycle import IDLE
from evobeam.llm import EndpointConfig, make_router

from checks import check_episode
from endpoint import LoopbackEndpoint
from layers import LayerProbe
from spans import Tracer
from workloads import API_KEY_ENV, WARMUP_INDEX, scenario_seed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 11
OVERHEAD_EPISODES = 8
# past this much wall time the run stops even with scored episodes left,
# so a run always ends well inside the 180 s a run may take
MAX_WALL_S = 140.0

# (name, unit) of every end-to-end metric the untraced run prints
END_TO_END = (
    ("steps_per_s", "steps/s"),
    ("episode_s_p50", "s"),
    ("gain_advantage_db", "dB"),
    ("hold_step_share", "ratio"),
    ("cycle_complete_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Scorecard:
    """Deterministic tallies over the scored episodes."""

    episodes: int = 0
    steps: int = 0
    advantage_db: float = 0.0
    held: int = 0
    cycles: int = 0
    aborts: int = 0
    err_deg: float = 0.0
    err_count: int = 0
    bytes_written: int = 0

    def add(self, result, bytes_written):
        self.episodes += 1
        self.bytes_written += bytes_written
        self.cycles += len(result.event_log) + len(result.abort_log)
        self.aborts += len(result.abort_log)
        for record in result.metrics_history:
            self.steps += 1
            self.advantage_db += record.movable_gain_db - record.fixed_gain_db
            self.held += record.movable_gain_db >= record.fixed_gain_db
            pairs = zip(sorted(record.true_angles), sorted(record.estimated_angles))
            for true, estimated in pairs:
                self.err_deg += abs(true - estimated)
                self.err_count += 1

    def err_deg_mean(self):
        return self.err_deg / self.err_count if self.err_count else 0.0


class _Episodes:
    """Files and router of one workload's episodes."""

    def __init__(self, workload, workdir, endpoint):
        self.workload = workload
        self.workdir = workdir
        self.endpoint = endpoint

    def scenario(self, seed, num_steps=None):
        url = self.endpoint.url if self.endpoint else None
        path = _fresh(self.workdir / "scenario.yaml")
        doc = self.workload.scenario_document(seed, llm_url=url, num_steps=num_steps)
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        return load_scenario(path)

    def run(self, scenario, prefix="episode", routed=True, probe=None):
        """One timed operation; returns (seconds, result, routing decisions)."""
        span = probe.tracer.span if probe else lambda name: nullcontext()
        csv_path = _fresh(self.path(prefix, "csv"))
        json_path = _fresh(self.path(prefix, "json"))
        decisions = []
        start = time.perf_counter()
        router = self._router(scenario, decisions) if routed and self.endpoint else None
        try:
            with span("episode"):
                result = run_episode(scenario, router=router)
        finally:
            if probe is not None:
                probe.end_episode(time.perf_counter())
        with span("reporting.write"):
            reporting.write_metrics_csv(result.metrics_history, csv_path)
            reporting.write_events_json(result.event_log, json_path, aborts=result.abort_log)
        return time.perf_counter() - start, result, decisions

    def _router(self, scenario, decisions):
        inner = make_router(EndpointConfig.from_settings(scenario.llm), decisions)
        endpoint = self.endpoint

        def router(blackboard, report, next_stage):
            endpoint.expect("Idle" if next_stage is IDLE else next_stage.value)
            return inner(blackboard, report, next_stage)

        return router

    def path(self, prefix, suffix):
        return self.workdir / f"{prefix}.{suffix}"

    def files(self, prefix="episode"):
        return tuple(self.path(prefix, s).read_bytes() for s in ("csv", "json"))

    def problems(self, scenario, result, decisions):
        found = check_episode(
            scenario,
            result,
            self.path("episode", "csv"),
            self.path("episode", "json"),
            _fresh(self.path("roundtrip", "csv")),
        )
        if self.endpoint is not None:
            accepted = sum(d.source == "llm" for d in decisions)
            if not decisions or accepted != len(decisions):
                found.append(f"routing accepted {accepted} of {len(decisions)} decisions")
        return found


def _fresh(path):
    """Remove path before it is written again: overwriting by truncation
    makes ext4 flush the file on close, and disk latency would then swamp
    the timing of the small files an episode writes."""
    path.unlink(missing_ok=True)
    return path


def measure_setup(src_dir, scenario_path, routed):
    """Medians of set-up time over fresh processes: spawn to ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "setup_probe.py"),
                str(src_dir),
                str(scenario_path),
                "1" if routed else "0",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((report["ready"] - spawned, report["import_s"], report["load_s"]))
    return {
        "setup_s": statistics.median(s[0] for s in samples),
        "import_s": statistics.median(s[1] for s in samples),
        "load_s": statistics.median(s[2] for s in samples),
    }


class _Tally:
    """Operations attempted and failed, and the timed window's samples."""

    def __init__(self, log):
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.durations = []
        self.steps = []
        self.card = Scorecard()

    def fail(self, what):
        self.failed += 1
        self.log(what, file=sys.stderr)


def _play(episodes, run_seed, index, tally, probe=None, scored=False):
    """Run and check one episode; returns its timed seconds, None on failure."""
    scenario = episodes.scenario(scenario_seed(run_seed, index))
    tally.attempted += 1
    try:
        dt, result, decisions = episodes.run(scenario, probe=probe)
    except Exception as exc:  # a failed operation, reported and counted
        tally.fail(f"episode {index}: {type(exc).__name__}: {exc}")
        return None
    tally.durations.append(dt)
    tally.steps.append(len(result.metrics_history))
    problems = episodes.problems(scenario, result, decisions)
    if problems:
        tally.fail(f"episode {index}: {'; '.join(problems[:3])}")
    if scored:
        tally.card.add(result, sum(len(b) for b in episodes.files()))
    return dt


def run_workload(workload, run_seed, seconds, trace, workdir, src_dir, log=print):
    """Run one workload; returns the result object the benchmark prints."""
    wall_start = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    endpoint = LoopbackEndpoint() if workload.routed else None
    tally = _Tally(log)
    try:
        if endpoint is not None:
            os.environ[API_KEY_ENV] = "bench-loopback-key"
        episodes = _Episodes(workload, workdir, endpoint)
        episodes.scenario(scenario_seed(run_seed, 0))
        setup = measure_setup(src_dir, workdir / "scenario.yaml", workload.routed)
        warmup = episodes.scenario(
            scenario_seed(run_seed, WARMUP_INDEX), num_steps=min(3, workload.num_steps)
        )
        episodes.run(warmup)

        # the scored episodes, traced in a traced run
        probe = None
        if trace:
            probe = LayerProbe(Tracer())
            probe.install()
        server_before = endpoint.counters() if endpoint else (0, 0.0)
        scored_dt = {}
        first_files = None
        for index in range(workload.scored):
            if time.perf_counter() - wall_start > MAX_WALL_S:
                missing = workload.scored - index
                tally.attempted += missing
                tally.failed += missing
                log(f"stopped after {MAX_WALL_S} s, {missing} scored left", file=sys.stderr)
                break
            if probe is not None:
                probe.tracer.episode = index
            scored_dt[index] = _play(episodes, run_seed, index, tally, probe, scored=True)
            if index == 0 and scored_dt[0] is not None:
                first_files = episodes.files()
        if probe is not None:
            probe.tracer.unwrap_all()
        server = _delta(endpoint, server_before)

        # the rest of the timed window, untraced
        index = workload.scored
        while sum(tally.durations) < seconds and time.perf_counter() - wall_start < MAX_WALL_S:
            _play(episodes, run_seed, index, tally)
            index += 1

        # rerun of the first scenario without routing: it must write the
        # same bytes, which for the routed workload is the parity guarantee
        tally.attempted += 1
        try:
            episodes.run(episodes.scenario(scenario_seed(run_seed, 0)), "rerun", routed=False)
            if first_files is None or episodes.files("rerun") != first_files:
                tally.fail("rerun of the first scenario wrote different files")
        except Exception as exc:
            tally.fail(f"rerun: {type(exc).__name__}: {exc}")

        overhead = 0.0
        if probe is not None:
            overhead = _trace_overhead(episodes, run_seed, scored_dt)
            probe.tracer.write(workdir / f"spans-seed{run_seed}.jsonl")
    finally:
        if endpoint is not None:
            endpoint.close()

    log(
        f"{workload.name}: {len(tally.durations)} episodes timed over "
        f"{sum(tally.durations):.2f} s, {tally.card.episodes} scored, "
        f"{tally.attempted} attempted, {tally.failed} failed"
    )
    if trace:
        metrics = probe.metrics(
            card=tally.card, server=server, setup=setup, overhead_share=overhead
        )
    else:
        metrics = _end_to_end(tally, setup)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _delta(endpoint, before):
    if endpoint is None:
        return (0, 0.0)
    requests, handler_s = endpoint.counters()
    return requests - before[0], handler_s - before[1]


def _trace_overhead(episodes, run_seed, traced_durations):
    """Traced against untraced time of the same first scenarios, minus one."""
    indices = [i for i, dt in traced_durations.items() if dt is not None][:OVERHEAD_EPISODES]
    untraced = 0.0
    for index in indices:
        dt, _, _ = episodes.run(episodes.scenario(scenario_seed(run_seed, index)), prefix="rerun")
        untraced += dt
    traced = sum(traced_durations[i] for i in indices)
    return traced / untraced - 1.0 if untraced else 0.0


def _end_to_end(tally, setup):
    total = sum(tally.durations)
    card = tally.card
    values = {
        "steps_per_s": sum(tally.steps) / total if total else 0.0,
        "episode_s_p50": statistics.median(tally.durations) if tally.durations else 0.0,
        "gain_advantage_db": card.advantage_db / card.steps if card.steps else 0.0,
        "hold_step_share": card.held / card.steps if card.steps else 0.0,
        "cycle_complete_share": (
            (card.cycles - card.aborts) / card.cycles if card.cycles else 0.0
        ),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def environment(repo_dir, thread_env):
    """What a result was measured on."""
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in thread_env},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(repo_dir),
    }


def _git_commit(repo_dir):
    git = repo_dir / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
