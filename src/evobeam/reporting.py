"""Metrics and event-log serialization: a CSV table and a JSON log.

The metrics CSV writes gains with 6 decimal places; reading it therefore
returns gains rounded to that precision, and writing the result back
produces the same bytes. Angles, and the gains of the events JSON, keep
full float precision. A gain of -inf serializes as the literal string -inf
in both formats.
"""

from __future__ import annotations

import csv
import json
import math

from .errors import ValidationError
from .lifecycle import AbortRecord, AgentRole, EvolutionEvent, MetricsRecord, TriggerReason

EVENTS_SCHEMA_VERSION = 1

METRICS_COLUMNS = (
    "step",
    "movable_gain_db",
    "fixed_gain_db",
    "evolved",
    "trigger_reason",
    "true_angles",
    "estimated_angles",
)

_ANGLE_SEP = ";"


def _gain_str(value):
    return f"{value:.6f}"


def _angles_str(angles):
    return _ANGLE_SEP.join(repr(float(a)) for a in angles)


def _parse_angles(text):
    if not text:
        return ()
    return tuple(float(part) for part in text.split(_ANGLE_SEP))


def write_metrics_csv(records, path):
    """One row per step, columns in the fixed order of METRICS_COLUMNS."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for record in records:
            writer.writerow(
                [
                    record.step,
                    _gain_str(record.movable_gain_db),
                    _gain_str(record.fixed_gain_db),
                    "true" if record.evolved else "false",
                    record.trigger_reason.value if record.trigger_reason else "",
                    _angles_str(record.true_angles),
                    _angles_str(record.estimated_angles),
                ]
            )


def read_metrics_csv(path):
    """Parse a metrics table back into MetricsRecord objects."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != METRICS_COLUMNS:
            raise ValidationError(f"unexpected metrics header {header}")
        records = []
        for row in reader:
            if len(row) != len(METRICS_COLUMNS):
                raise ValidationError(f"metrics row has {len(row)} fields")
            records.append(
                MetricsRecord(
                    step=int(row[0]),
                    true_angles=_parse_angles(row[5]),
                    estimated_angles=_parse_angles(row[6]),
                    movable_gain_db=float(row[1]),
                    fixed_gain_db=float(row[2]),
                    evolved=row[3] == "true",
                    trigger_reason=TriggerReason(row[4]) if row[4] else None,
                )
            )
    return records


def _gain_json(value):
    value = float(value)
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return value


def _gain_from_json(value):
    return float(value)


def _event_dict(event):
    return {
        "trigger_step": event.trigger_step,
        "reason": event.reason.value,
        "pre_gain_db": _gain_json(event.pre_gain_db),
        "post_gain_db": _gain_json(event.post_gain_db),
        "baseline_gain_db": _gain_json(event.baseline_gain_db),
        "agent_sequence": [role.value for role in event.agent_sequence],
        "training_rounds": event.training_rounds,
        "degraded": event.degraded,
    }


def _abort_dict(record):
    return {
        "trigger_step": record.trigger_step,
        "reason": record.reason.value if record.reason else None,
        "failed_role": record.failed_role.value,
        "error": record.error,
        "agent_sequence": [role.value for role in record.agent_sequence],
    }


def write_events_json(events, path, aborts=()):
    """Completed evolution events plus any aborted cycles, as JSON."""
    document = {
        "schema_version": EVENTS_SCHEMA_VERSION,
        "events": [_event_dict(e) for e in events],
        "aborts": [_abort_dict(a) for a in aborts],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_events_json(path):
    """Returns (events, aborts) parsed back into their dataclasses."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict):
        kind = type(document).__name__
        raise ValidationError(f"events document must be a JSON object, got {kind}")
    if document.get("schema_version") != EVENTS_SCHEMA_VERSION:
        raise ValidationError(
            f"unexpected events schema_version {document.get('schema_version')!r}"
        )
    events = tuple(
        EvolutionEvent(
            trigger_step=int(item["trigger_step"]),
            reason=TriggerReason(item["reason"]),
            pre_gain_db=_gain_from_json(item["pre_gain_db"]),
            post_gain_db=_gain_from_json(item["post_gain_db"]),
            baseline_gain_db=_gain_from_json(item["baseline_gain_db"]),
            agent_sequence=tuple(AgentRole(name) for name in item["agent_sequence"]),
            training_rounds=int(item["training_rounds"]),
            degraded=bool(item["degraded"]),
        )
        for item in document["events"]
    )
    aborts = tuple(
        AbortRecord(
            trigger_step=int(item["trigger_step"]),
            reason=TriggerReason(item["reason"]) if item["reason"] else None,
            failed_role=AgentRole(item["failed_role"]),
            error=item["error"],
            agent_sequence=tuple(AgentRole(name) for name in item["agent_sequence"]),
        )
        for item in document["aborts"]
    )
    return events, aborts
