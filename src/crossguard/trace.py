"""Trace records and their newline-delimited serialization.

Each record is one flat JSON object with a fixed field order, so two runs of
the same scenario, semantics, and seed serialize to byte-identical files and
golden traces can be diffed directly.

RECORD_KINDS declares every record kind once: its fields in order, each with
the type of JSON value it holds, and CLAIM_FIELDS does the same for the
claim payload a claim's send record carries. The line is a trace's only
form. `write` holds one line writer per kind with no array field, generated
from that table as dataclasses generates __init__ and named by
RecordKind.name: it takes "t" and the kind's field values in table order
and returns, unchecked, the line that dumps_record, the JSON encoder,
writes for the record with exactly the kind's keys, and its newline. A
run passes each line to its sink; loads_records reads the lines back.
"""

from __future__ import annotations

import json
import keyword
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
        """Its writer's name: ev, then the shape's words, joined by "_"."""
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


def _plain_name(key: str) -> str:
    """key, refused unless it can be written into generated source as a name."""
    if not (key.isidentifier() and key.isascii()) or keyword.iskeyword(key):
        raise ValueError(f"trace field {key!r} is not a plain name")
    return key


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


def _plain(text: str) -> str:
    """text, refused unless the encoder writes it as itself in quotes."""
    if _encode(text) != f'"{text}"':
        raise ValueError(f"trace string {text!r} needs escaping")
    return text


def _text(fields: tuple, names: list[str | None], prelude: list[str]) -> str:
    """The f-string text of one object whose field values are the variables
    `names`, None for a str field written as that constant (ev); a nested
    object's values are unpacked into variables of their own by a line
    added to `prelude`."""
    parts = []
    for (key, kind), name in zip(fields, names):
        if kind is int:
            text = f"{{{name} if type({name}) is int else _encode({name})}}"
        elif kind is float:
            text = f"{{_encode({name})}}"
        elif kind is bool:
            text = f"{{_BOOL[{name}]}}"
        elif isinstance(kind, tuple):
            inner = [f"{name}_{i}" for i in range(len(kind))]
            prelude.append(f"{', '.join(inner)}, = {name}.values()")
            text = _text(kind, inner, prelude)
        else:
            for string in (kind,) if isinstance(kind, str) else (member.value for member in kind):
                _plain(string)  # written unescaped
            text = f'"{kind}"' if name is None else f'"{{{name}}}"'
        parts.append(f'"{_plain_name(key)}":{text}')
    return "{{" + ",".join(parts) + "}}"


def _writer(kind: RecordKind):
    """Generate one kind's line writer.

    It takes "t" and the kind's field values and returns, unchecked, the JSON encoder's text for
    the record with the kind's keys and a newline. An int field's value is written as itself only
    when it is exactly an int, so an int subclass goes to the encoder, as every float field's value
    does; an Enum field's strings are written unescaped, so each is checked here once.
    """
    names = [_plain_name(key) for key, _ in kind.fields]
    prelude: list[str] = []
    text = _text((("t", int), ("ev", _plain_name(kind.ev)), *kind.fields), ["t", None, *names], prelude)
    body = [*prelude, f"return f'{text}\\n'"]
    env = {"_BOOL": ("false", "true"), "_encode": _encode}
    exec(f"def {kind.name}(t, {', '.join(names)}):\n" + "".join(f"    {line}\n" for line in body), env)
    return env[kind.name]


# One line writer per kind with no array field, as class attributes: those read faster than a namespace
# object's. decision has none.
write = type(
    "write", (), {kind.name: _writer(kind) for kind in RECORD_KINDS if all(t is not list for _, t in kind.fields)}
)


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

    Empty lines are skipped. Any other line that is not exactly one JSON
    object raises ValueError naming its 1-based line number.
    """
    records = []
    for number, line in enumerate(text.splitlines(), 1):
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
