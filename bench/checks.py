"""Output checks for one episode, run outside the timed region.

They test invariants, not golden digests, so a change that legitimately
improves gains still passes: the right number of records in step order,
finite gains no higher than the matched-filter bound 10 log10(K N), and
files that read back to the same records and rewrite to the same bytes.
"""

from __future__ import annotations

import math

from evobeam import reporting

# written gains carry 6 decimals, so a read-back gain is within half a unit
_GAIN_DECIMAL_SLACK = 5.0000001e-7
_BOUND_SLACK_DB = 1e-9


def check_episode(scenario, result, csv_path, json_path, scratch_path):
    """Problems found in one episode's result and files; empty when sound."""
    problems = []
    records = result.metrics_history
    steps = scenario.trajectory.num_steps
    k = len(scenario.trajectory.initial_angles)
    n = scenario.constraints.num_elements
    cap_db = 10.0 * math.log10(k * n) + _BOUND_SLACK_DB
    if [r.step for r in records] != list(range(steps)):
        problems.append(f"expected steps 0..{steps - 1}, got {len(records)} records")
    for r in records:
        for name in ("movable_gain_db", "fixed_gain_db"):
            value = getattr(r, name)
            if not math.isfinite(value):
                problems.append(f"step {r.step}: {name} is {value}")
            elif value > cap_db:
                problems.append(f"step {r.step}: {name} {value} above {cap_db}")

    try:
        read_back = reporting.read_metrics_csv(csv_path)
        if len(read_back) != len(records):
            problems.append(f"metrics CSV holds {len(read_back)} of {len(records)} records")
        for written, read in zip(records, read_back):
            if not _same_record(written, read):
                problems.append(f"step {written.step}: metrics CSV row does not round-trip")
                break
        reporting.write_metrics_csv(read_back, scratch_path)
        if _read_bytes(scratch_path) != _read_bytes(csv_path):
            problems.append("metrics CSV does not rewrite to the same bytes")
    except (ValueError, KeyError, IndexError, OSError) as exc:
        problems.append(f"metrics CSV unreadable: {exc}")

    try:
        events, aborts = reporting.read_events_json(json_path)
        if events != result.event_log or aborts != result.abort_log:
            problems.append("events JSON does not round-trip")
    except (ValueError, KeyError, TypeError, OSError) as exc:
        problems.append(f"events JSON unreadable: {exc}")
    return problems


def _same_record(written, read):
    return (
        written.step == read.step
        and tuple(written.true_angles) == read.true_angles
        and tuple(written.estimated_angles) == read.estimated_angles
        and written.evolved == read.evolved
        and written.trigger_reason == read.trigger_reason
        and abs(written.movable_gain_db - read.movable_gain_db) <= _GAIN_DECIMAL_SLACK
        and abs(written.fixed_gain_db - read.fixed_gain_db) <= _GAIN_DECIMAL_SLACK
    )


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()
