"""Trace records and their newline-delimited serialization.

Each record is one flat JSON object with a fixed field order, so two runs of
the same scenario, semantics, and seed serialize to byte-identical files and
golden traces can be diffed directly.

RECORD_KINDS declares every record kind once: its fields in order, each with
the type of JSON value it holds, and CLAIM_FIELDS does the same for the
claim payload a claim's send record carries. The line is a trace's only
form. template cuts a kind's line once from the JSON encoder's own text,
as a %-template whose holes are its open int and Enum fields, "t" first.
`write` holds, named by RecordKind.name, one template per kind with no
array or nested object, and for session_open a pair indexed by its
pedestrian_present value: `write.deliver % (t, kind, src, dst, seq,
sent_at)` is, unchecked, the line dumps_record writes for that record and
its newline, for any int or int subclass in an int field. A run cuts each
node's two claim send templates once, its fixed fields filled in, and
writes decision, with its arrays, through dumps_record. A run passes each
line to its sink; loads_records reads the lines back.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Iterable, NamedTuple

from .actuation import ActuationAction, MotionState
from .aggregation import AggregationSemantics, Verdict
from .model import Claim, Detection, ExclusionReason, SensorKind
from .netsim import MessageKind

BROADCAST = "*"  # the dst of a message sent to every node

# A field's type is the JSON value it holds: int, float (finite) or bool; an
# Enum, for a string drawn from its values; a str, for that string alone; a
# field table, for a nested object; list, for an array.
CLAIM_FIELDS = (
    ("node", int),
    ("session", int),
    ("detection", Detection),
    ("sensor", SensorKind),
    ("base_false_negative", float),
    ("base_false_positive", float),
    ("effective_range", float),
    ("distance_to_target", float),
    ("emitted_at", int),
)


class RecordKind(NamedTuple):
    """One record kind: its fields after "t" (int) and "ev" (the kind's name)."""

    ev: str
    shape: str  # which payload a send carries; "" for a kind with one shape
    fields: tuple[tuple[str, object], ...]

    @property
    def name(self) -> str:
        """Its template's name: ev, then the shape's words, joined by "_"."""
        return "_".join((self.ev, *self.shape.split()))


RECORD_KINDS = (
    RecordKind("session_open", "", (("session", int), ("deadline", int), ("pedestrian_present", bool))),
    RecordKind(
        "send", "session start", (("kind", MessageKind), ("src", int), ("dst", BROADCAST), ("seq", int))
    ),
    RecordKind(
        "send",
        "claim",
        (("kind", MessageKind), ("src", int), ("dst", int), ("seq", int), ("claim", CLAIM_FIELDS)),
    ),
    RecordKind(
        "send",
        "actuation",
        (
            ("kind", MessageKind),
            ("src", int),
            ("dst", int),
            ("seq", int),
            ("session", int),
            ("action", ActuationAction),
            ("issue_order", int),
        ),
    ),
    RecordKind("drop", "", (("kind", MessageKind), ("src", int), ("dst", int), ("seq", int))),
    RecordKind(
        "deliver", "", (("kind", MessageKind), ("src", int), ("dst", int), ("seq", int), ("sent_at", int))
    ),
    RecordKind("claim_accepted", "", (("session", int), ("node", int), ("claim_session", int))),
    RecordKind(
        "claim_excluded",
        "",
        (("session", int), ("node", int), ("claim_session", int), ("reason", ExclusionReason)),
    ),
    RecordKind("claim_orphan", "", (("node", int), ("claim_session", int))),
    RecordKind(
        "decision",
        "",
        (
            ("session", int),
            ("verdict", Verdict),
            ("semantics", AggregationSemantics),
            ("ranking", list),
            ("used", list),
            ("excluded", list),
        ),
    ),
    RecordKind(
        "actuated", "", (("node", int), ("session", int), ("action", ActuationAction), ("state", MotionState))
    ),
    RecordKind("session_close", "", (("session", int),)),
)


def claim_payload(claim: Claim) -> dict:
    """A claim as a trace-embeddable mapping, in CLAIM_FIELDS order."""
    profile = claim.profile
    return {
        "node": claim.node,
        "session": claim.session,
        "detection": claim.detection._value_,
        "sensor": profile.kind._value_,
        "base_false_negative": profile.base_false_negative,
        "base_false_positive": profile.base_false_positive,
        "effective_range": profile.effective_range,
        "distance_to_target": claim.distance_to_target,
        "emitted_at": claim.emitted_at,
    }


# json.dumps with these separators would build a new encoder for every record.
_encode = json.JSONEncoder(separators=(",", ":")).encode


# An open field's value in the record a template is cut from, each a text the encoder escapes and no
# other field holds: HOLE for an int field, _ENUM_HOLE for an Enum field.
HOLE = "\0"
_ENUM_HOLE = "\1"


def template(name: str, **fixed: object) -> str:
    """The line of the record kind called `name` as a %-template, newline included.

    A field named in `fixed` is written with that value; a str field is its
    own text. Every other field, "t" first, is open: an int field takes a
    %d, an Enum field a quoted %s. A fixed value may hold HOLE wherever an
    int goes, as a claim payload's does. Any other field must be fixed.
    """
    kind = next(kind for kind in RECORD_KINDS if kind.name == name)
    record = {"t": HOLE, "ev": kind.ev}
    for key, field_type in kind.fields:
        if key in fixed:
            record[key] = fixed[key]
        elif field_type is int:
            record[key] = HOLE
        elif isinstance(field_type, str):
            record[key] = field_type
        elif isinstance(field_type, type) and issubclass(field_type, Enum):
            if any(_encode(member._value_) != f'"{member._value_}"' for member in field_type):
                raise ValueError(f"a {key} string needs escaping")  # a %s writes it unescaped
            record[key] = _ENUM_HOLE
        else:
            raise TypeError(f"{name}'s field {key!r} must be fixed")
    text = _encode(record).replace("%", "%%")
    return text.replace(_encode(HOLE), "%d").replace(_encode(_ENUM_HOLE), '"%s"') + "\n"


# One template per kind, as class attributes: those read faster than a namespace object's. session_open has
# a pair, indexed by its pedestrian_present value; decision and a claim send have none, as each needs its
# arrays or payload fixed.
_OWN_FORM = ("session_open", "send_claim", "decision")
write = type("write", (), {kind.name: template(kind.name) for kind in RECORD_KINDS if kind.name not in _OWN_FORM})
write.session_open = tuple(template("session_open", pedestrian_present=present) for present in (False, True))


def dumps_record(record: dict) -> str:
    """One record as its canonical single-line form (no trailing newline): the JSON encoder's compact text."""
    return _encode(record)


def dumps_records(records: Iterable[dict]) -> str:
    """A whole trace as newline-delimited records, trailing newline included."""
    return "".join(dumps_record(record) + "\n" for record in records)


# One value from the start of a line, and where it ends: per line, faster than json.loads.
_decode = json.JSONDecoder().raw_decode


def loads_records(text: str) -> list[dict]:
    """Parse a newline-delimited trace back into record dicts, line by line.

    Lines end at "\\n" or "\\r\\n" only: a JSON string may hold the other line
    breaks str.splitlines knows. Empty lines are skipped. Any other line that
    is not exactly one JSON object raises ValueError naming its 1-based line
    number.
    """
    records = []
    for number, line in enumerate(text.replace("\r\n", "\n").split("\n"), 1):
        if not line:
            continue
        try:
            record, end = _decode(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"trace line {number} is not one JSON object: {error.msg}, column {error.colno}") from None
        if end < len(line) or type(record) is not dict:
            raise ValueError(f"trace line {number} is not one JSON object")
        records.append(record)
    return records
