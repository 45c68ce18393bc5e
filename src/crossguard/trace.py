"""Trace records and their newline-delimited serialization.

Each record is one flat JSON object with a fixed field order, so two runs of
the same scenario, semantics, and seed serialize to byte-identical files and
golden traces can be diffed directly.

RECORD_KINDS declares every record kind once: its fields in order, each with
the type of JSON value it holds, and CLAIM_FIELDS does the same for the
claim payload a claim's send record carries. Both the records and their
lines are generated from that table, as dataclasses generates __init__:
`build` holds one builder per kind, named by RecordKind.name, which takes
"t" and the kind's field values in table order and returns the record with
exactly the kind's keys; one line formatter per kind is compiled when the
first record is serialized. dumps_record uses a kind's formatter for a
record that matches the kind exactly and the JSON encoder for anything
else; both give the same bytes.

A formatter writes a float field's text from a memo of repr by value, since
a run's claim floats recur in every claim send; a lookup costs a fraction
of repr. The memo is cleared past 1 024 entries and never holds a zero:
0.0 and -0.0 are equal keys that print differently, and a valid scenario
may hold either. No other two finite floats are equal, so no line depends
on what the memo holds.
"""

from __future__ import annotations

import json
import keyword
import math
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
    def keys(self) -> tuple[str, ...]:
        return ("t", "ev", *(name for name, _ in self.fields))

    @property
    def name(self) -> str:
        """Its builder's name: ev, then the shape's words, joined by "_"."""
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


def _builder(name: str, keys: tuple[str, ...], ev: str | None = None):
    """Generate one dict builder, as dataclasses generates __init__.

    It takes the value of each of `keys` in order, "ev" excepted, and
    returns one dict display with exactly `keys`, "ev" holding `ev`. Over
    the dict literal it replaces, a call adds about a seventh of what
    dict(zip(keys, values)) adds.
    """
    params = ", ".join(_plain_name(key) for key in keys if key != "ev")
    items = ", ".join(f'"{key}": {ev!r}' if key == "ev" else f'"{key}": {key}' for key in keys)
    env: dict = {}
    exec(f"def {name}({params}):\n    return {{{items}}}", env)
    return env[name]


# One builder per kind, as class attributes: those read faster than a namespace object's.
build = type("build", (), {kind.name: _builder(kind.name, kind.keys, kind.ev) for kind in RECORD_KINDS})
_claim = _builder("claim", tuple(key for key, _ in CLAIM_FIELDS))


def claim_payload(claim: Claim) -> dict:
    """A claim as a trace-embeddable mapping, in CLAIM_FIELDS order."""
    profile = claim.profile
    return _claim(
        claim.node,
        claim.session,
        claim.detection._value_,
        profile.kind._value_,
        profile.base_false_negative,
        profile.base_false_positive,
        profile.effective_range,
        claim.distance_to_target,
        claim.emitted_at,
    )


# json.dumps with these separators would build a new encoder for every record.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _plain(text: str) -> str:
    """text, refused unless the encoder writes it as itself in quotes."""
    if _encode(text) != f'"{text}"':
        raise ValueError(f"trace string {text!r} needs escaping")
    return text


# The repr of each nonzero float a formatter has written, keyed by the float; see the module docstring.
_FLOAT_TEXT: dict[float, str] = {}


def _float_text(value: float) -> str:
    """repr(value); a nonzero value's text is kept in _FLOAT_TEXT, which is cleared past 1 024 entries."""
    text = repr(value)
    if value:
        if len(_FLOAT_TEXT) > 1024:
            _FLOAT_TEXT.clear()
        _FLOAT_TEXT[value] = text
    return text


def _compile(name: str, fields: tuple):
    """Generate one object's line formatter, as dataclasses generates __init__.

    The formatter returns a dict's line when the dict has exactly `fields`'
    keys in order and each value is exactly of its field's type, else None.
    An object with a list field gets no formatter (None): it stays on the
    JSON path.
    """
    env = {
        "_BOOL": ("false", "true"),
        "_INF": math.inf,
        "_KEYS": tuple(key for key, _ in fields),
        "_FLOAT_TEXT": _FLOAT_TEXT,
        "_float_text": _float_text,
    }
    checks, parts = [], []
    for i, (key, kind) in enumerate(fields):
        _plain_name(key)  # keys are written into the source
        value = f"v{i}"
        if kind is int:
            checks.append(f"type({value}) is int")
            text = f"{{{value}}}"
        elif kind is float:
            checks.append(f"type({value}) is float and -_INF < {value} < _INF")
            text = f"{{_FLOAT_TEXT.get({value}) or _float_text({value})}}"
        elif kind is bool:
            checks.append(f"type({value}) is bool")
            text = f"{{_BOOL[{value}]}}"
        elif kind is list:
            return None
        elif isinstance(kind, tuple):
            env[f"_f{i}"] = nested = _compile(key, kind)
            if nested is None:
                return None
            checks.append(f"type({value}) is dict and (s{i} := _f{i}({value})) is not None")
            text = f"{{s{i}}}"
        else:
            strings = (kind,) if isinstance(kind, str) else (member.value for member in kind)
            env[f"_s{i}"] = frozenset(_plain(string) for string in strings)
            checks.append(f"type({value}) is str and {value} in _s{i}")
            text = f'"{{{value}}}"'
        parts.append(f'"{key}":{text}')
    source = "\n".join(
        (
            f"def {name}(record):",
            "    if tuple(record) != _KEYS:",
            "        return None",
            f"    {''.join(f'v{i}, ' for i in range(len(fields)))}= record.values()",
            f"    if {' and '.join(checks)}:",
            "        return f'{{" + ",".join(parts) + "}}'",
        )
    )
    exec(source, env)
    return env[name]


# (ev, number of fields) -> that kind's formatter. The three send shapes differ
# in length, so no two kinds share a key. Filled once, on first use: compiling
# the formatters costs several milliseconds that a process writing no trace
# need not pay at import.
_FORMATTERS: dict = {}


def _generate() -> dict:
    for kind in RECORD_KINDS:
        formatter = _compile(kind.ev, (("t", int), ("ev", kind.ev), *kind.fields))
        if formatter is not None:
            _FORMATTERS[(kind.ev, len(kind.keys))] = formatter
    return _FORMATTERS


def format_line(record: dict) -> str | None:
    """The record's line from its kind's formatter, or None if no formatter takes it.

    A formatter takes a record only when it matches the kind exactly: the
    same keys in the same order, each value of exactly its field's type.
    """
    if type(record) is dict:
        ev = record.get("ev")
        if type(ev) is str:
            formatter = (_FORMATTERS or _generate()).get((ev, len(record)))
            if formatter is not None:
                return formatter(record)
    return None


def dumps_record(record: dict) -> str:
    """One record as its canonical single-line form (no trailing newline)."""
    line = format_line(record)
    return _encode(record) if line is None else line


def dumps_records(records: Iterable[dict]) -> str:
    """A whole trace as newline-delimited records, trailing newline included."""
    return "".join(dumps_record(record) + "\n" for record in records)


def loads_records(text: str) -> list[dict]:
    """Parse a newline-delimited trace back into record dicts."""
    return [json.loads(line) for line in text.splitlines() if line]
