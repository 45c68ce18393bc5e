"""Trace records and their newline-delimited serialization.

Each record is one flat JSON object with a fixed field order, so two runs of
the same scenario, semantics, and seed serialize to byte-identical files and
golden traces can be diffed directly.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator

from .model import Claim, Detection, SensorKind, SensorProfile


def claim_payload(claim: Claim) -> dict:
    """A claim as a trace-embeddable mapping; see claim_from_payload."""
    return {
        "node": claim.node,
        "session": claim.session,
        "detection": claim.detection.value,
        "sensor": claim.profile.kind.value,
        "base_false_negative": claim.profile.base_false_negative,
        "base_false_positive": claim.profile.base_false_positive,
        "effective_range": claim.profile.effective_range,
        "distance_to_target": claim.distance_to_target,
        "emitted_at": claim.emitted_at,
    }


def claim_from_payload(payload: dict) -> Claim:
    """Inverse of claim_payload; round-trips value-exactly, floats included."""
    return Claim(
        node=payload["node"],
        session=payload["session"],
        detection=Detection(payload["detection"]),
        profile=SensorProfile(
            kind=SensorKind(payload["sensor"]),
            base_false_negative=payload["base_false_negative"],
            base_false_positive=payload["base_false_positive"],
            effective_range=payload["effective_range"],
        ),
        distance_to_target=payload["distance_to_target"],
        emitted_at=payload["emitted_at"],
    )


# json.dumps with these separators would build a new encoder for every record.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def dumps_record(record: dict) -> str:
    """One record as its canonical single-line form (no trailing newline)."""
    return _encode(record)


def dumps_records(records: Iterable[dict]) -> str:
    """A whole trace as newline-delimited records, trailing newline included."""
    return "".join(dumps_record(record) + "\n" for record in records)


def dump_records(records: Iterable[dict], stream: IO[str]) -> int:
    """Write records to a text stream; returns how many were written."""
    count = 0
    for record in records:
        stream.write(dumps_record(record) + "\n")
        count += 1
    return count


def loads_records(text: str) -> list[dict]:
    """Parse a newline-delimited trace back into record dicts."""
    return [json.loads(line) for line in text.splitlines() if line]


def iter_records(stream: IO[str]) -> Iterator[dict]:
    """Stream records from an open trace file."""
    for line in stream:
        line = line.strip()
        if line:
            yield json.loads(line)
