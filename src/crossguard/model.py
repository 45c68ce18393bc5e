"""Core domain types shared by every other module.

Times are integer microseconds, distances are meters in a flat 2D plane.
Each field of a scenario section is declared once, on the section's
dataclass: its type gives its kind, its default its default, and _row its
range rules. _TABLES reads them into one table per section;
scenario.parse_scenario reads a file by the tables, and validate_scenario
checks a Scenario by them.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from enum import Enum
from typing import NamedTuple, get_args, get_origin, get_type_hints

from .determinism import LATENCY_BOUND, NODE_ID_BOUND, SEED_BOUND

# Type aliases; plain ints keep the event loop cheap.
NodeId = int
SessionId = int
SimTime = int


class ProtocolError(RuntimeError):
    """A simulator-internal contract was violated (not a user input error)."""


class SensorKind(Enum):
    """Sensor hardware classes, symbolically comparable by quality tier."""

    LIDAR = "lidar"
    OPTICAL_CAMERA = "optical_camera"
    RGB_CAMERA = "rgb_camera"

    @property
    def tier(self) -> int:
        """Quality tier used for trust ranking: higher is more capable."""
        return _SENSOR_TIERS[self]


_SENSOR_TIERS = {
    SensorKind.LIDAR: 3,
    SensorKind.OPTICAL_CAMERA: 2,
    SensorKind.RGB_CAMERA: 1,
}


class Detection(Enum):
    """Binary perception claim about the queried region."""

    PEDESTRIAN_DETECTED = "pedestrian_detected"
    CLEAR = "clear"


class ExclusionReason(Enum):
    """Why a delivered claim was kept out of a session's decision."""

    UNKNOWN_NODE = "unknown_node"
    MALFORMED_EVIDENCE = "malformed_evidence"
    DUPLICATE = "duplicate"
    LATE = "late"


# A range rule: a Python expression in v that a value of the field's kind
# must make true, and the message, filled with the value, where it does not.
_RATE = ("0.0 <= v < 0.5", "must be in [0.0, 0.5), got {}")
_POSITIVE = ("v > 0.0", "must be > 0, got {}")
_NON_NEGATIVE = ("v >= 0", "must be an integer >= 0, got {}")
# One keyed draw is a 64-bit word, so a wider latency band cannot be sampled;
# times are bounded alike, so that a trace can print every one.
_BELOW_2_64 = ("v < LATENCY_BOUND", "must be < 2^64, got {}")


def _row(*rules: tuple[str, str], root_key: str = ""):
    """A section field with range rules, tested in turn, or kept at a file's
    top under root_key: the field's row in _TABLES reads both from here."""
    return field(metadata={"rules": rules, "root_key": root_key})


@dataclass(frozen=True)
class Pose:
    """Planar position."""

    x: float
    y: float

    def distance_to(self, other: "Pose") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class SensorProfile:
    """Static quality attributes a node attaches to its claims as evidence."""

    kind: SensorKind
    base_false_negative: float = _row(_RATE)
    base_false_positive: float = _row(_RATE)
    effective_range: float = _row(_POSITIVE)


@dataclass(frozen=True, init=False)
class Claim:
    """One node's answer to one session's query, plus its trust evidence.

    distance_to_target is the emitting node's distance to the query-region
    center at emission time; the node cannot know the true pedestrian pose.
    Its __init__ sets all fields in one store, not one call each: it runs per message.
    """

    node: NodeId
    session: SessionId
    detection: Detection
    profile: SensorProfile
    distance_to_target: float
    emitted_at: SimTime

    def __init__(self, node, session, detection, profile, distance_to_target, emitted_at) -> None:
        object.__setattr__(self, "__dict__", {"node": node, "session": session, "detection": detection,
            "profile": profile, "distance_to_target": distance_to_target, "emitted_at": emitted_at})


@dataclass(frozen=True)
class GroundTruth:
    """Simulator-side truth for one session; pose is meaningful only when present."""

    pedestrian_present: bool
    pedestrian_pose: Pose | None = None


@dataclass(frozen=True)
class PerceptionModel:
    """Scenario-global sensing context.

    distance_reference scales how fast error rates degrade with distance;
    query_center anchors claim evidence and sensing when no pedestrian exists.
    """

    distance_reference: float = _row(_POSITIVE)
    query_center: Pose = _row(root_key="query_region_center")


@dataclass(frozen=True)
class NetworkConfig:
    """Lossy-link model: per-recipient uniform latency and independent drops."""

    latency_min: SimTime = _row(_NON_NEGATIVE)
    latency_max: SimTime = _row(_NON_NEGATIVE, _BELOW_2_64)
    drop_probability: float = _row(("0.0 <= v <= 1.0", "must be in [0.0, 1.0], got {}"))
    seed: int = _row(("0 <= v < SEED_BOUND", "must be an integer in [0, 2^64), got {}"))


@dataclass(frozen=True)
class NodeSpec:
    """One participant: pose, sensor, and its roles."""

    id: NodeId = _row(("0 <= v < NODE_ID_BOUND", "must be an integer >= 0 and < 2^63, got {}"))
    pose: Pose
    sensor: SensorProfile
    master: bool = False
    actuated: bool = False


@dataclass(frozen=True)
class Scenario:
    """A complete, runnable world description."""

    nodes: tuple[NodeSpec, ...] = _row(("len(v) > 0", "at least one node is required"))
    ground_truth: GroundTruth
    perception: PerceptionModel
    network: NetworkConfig
    session_window: SimTime = _row(("v > 0", "must be an integer > 0, got {}"), _BELOW_2_64)
    settle_interval: SimTime = _row(_NON_NEGATIVE, _BELOW_2_64)
    sessions: int = _row(("v >= 1", "must be an integer >= 1, got {}"))

    def node_ids(self) -> tuple[NodeId, ...]:
        return tuple(n.id for n in self.nodes)

    def master_node(self) -> NodeSpec:
        masters = [n for n in self.nodes if n.master]
        if len(masters) != 1:
            raise ProtocolError(f"scenario has {len(masters)} master nodes")
        return masters[0]

    def actuated_ids(self) -> tuple[NodeId, ...]:
        return tuple(sorted(n.id for n in self.nodes if n.actuated))

_REAL = (int, float)
# Exact int/float comparison against this bound rejects NaN, the infinities
# and any int too large for a float, where math.isfinite would raise.
_FLOAT_MAX = sys.float_info.max
_SHOWN_BITS = 256  # a longer integer shows its size, not its digits, in messages


class _Shown(reprlib.Repr):
    """reprlib.Repr that shows a dataclass's fields one level down, never its whole repr."""

    def repr_instance(self, x: object, level: int) -> str:
        if not is_dataclass(type(x)):
            return super().repr_instance(x, level)
        shown = (f"{spec.name}={self.repr1(getattr(x, spec.name), level - 1)}" for spec in fields(x) if spec.repr)
        return f"{type(x).__qualname__}({', '.join(shown) if level > 0 else '...'})"


# A value is shown abbreviated, never built whole: each level of aliases in a
# file may make a list ten times longer.
_SHOWN = _Shown()
_SHOWN.maxlevel, _SHOWN.maxstring, _SHOWN.maxlong, _SHOWN.maxother = 3, 80, 80, 80


def shown_value(value: object) -> str:
    """repr(value) for an error message, abbreviated by reprlib and cut at 200
    characters. An integer too long to print shows its size instead, and so
    does a container holding one: repr of an int past the interpreter's digit
    limit raises."""
    if isinstance(value, int) and value.bit_length() > _SHOWN_BITS:
        return f"an integer of {value.bit_length()} bits"
    try:
        text = _SHOWN.repr(value)
    except ValueError:
        return f"a {type(value).__name__} holding an integer too long to print"
    return text if len(text) <= 200 else text[:197] + "..."


class _Field(NamedTuple):
    """One row of a section's table: a field and what it may hold.

    kind is int, float, bool, SensorKind or a section's class; many marks a
    list of sections. A value of the kind must pass the range rules, in turn.
    A file may leave out a field with a default, and a default of None admits
    None. A file keeps a root_key field at its top, just before the field's
    section, and messages name it by that key.
    """

    name: str
    kind: type
    rules: tuple = ()
    default: object = MISSING
    root_key: str = ""
    many: bool = False


# Each leaf kind: what a value of it is, as an expression in v; what a file
# must hold for it; and the message for a value that is not one, where its
# row has no rule.
_KINDS = {
    float: (
        "isinstance(v, _REAL) and not isinstance(v, bool) and -_FLOAT_MAX <= v <= _FLOAT_MAX",
        "a number",
        "must be a finite number, got {}",
    ),
    int: ("isinstance(v, int) and not isinstance(v, bool)", "an integer", ""),
    bool: ("isinstance(v, bool)", "true or false", "must be true or false, got {}"),
    SensorKind: (
        "isinstance(v, SensorKind)",
        "one of " + ", ".join(kind.value for kind in SensorKind),
        "unknown sensor kind {}",
    ),
}


def _table(cls: type) -> tuple[_Field, ...]:
    """A section's rows, read off its dataclass's fields in order: tuple[X, ...]
    is a list of X, X | None is an X, and an alias such as SimTime is its type."""
    hints = get_type_hints(cls)
    rows = []
    for spec in fields(cls):
        hint = hints[spec.name]
        kind = get_args(hint)[0] if get_args(hint) else hint
        rows.append(_Field(spec.name, kind, default=spec.default, many=get_origin(hint) is tuple, **spec.metadata))
    return tuple(rows)


# One table per section, its fields in the order a file lays them out.
_TABLES: dict[type, tuple[_Field, ...]] = {
    cls: _table(cls) for cls in (Pose, SensorProfile, NodeSpec, GroundTruth, PerceptionModel, NetworkConfig, Scenario)
}


@cache
def _predicate(test: str):
    """A test, an expression in v, as a function of v, compiled once: the tables hold few."""
    return eval(f"lambda v: {test}", globals())


def _row_test(field: _Field) -> str:
    """All that a field's value must be, as one expression in v: of the
    row's kind, then each rule in turn."""
    rules = [rule for rule, _ in field.rules]
    if field.many:
        tests = ["isinstance(v, (tuple, list))", *rules, f"all(map(_SOUND[{field.kind.__name__}], v))"]
    elif field.kind in _TABLES:
        tests = [f"_SOUND[{field.kind.__name__}](v)"]
    else:
        tests = [_KINDS[field.kind][0], *rules]
    test = " and ".join(f"({part})" for part in tests)
    return f"v is None or {test}" if field.default is None else test


def _sound(cls: type):
    """One function that is True when its argument is a cls and each field
    passes its row. It is compiled from the rows, as dataclasses compiles
    __init__, so that a sound scenario costs one call per section, not one
    per field and rule."""
    source = ["def sound(s):", f"    if not isinstance(s, {cls.__name__}): return False"]
    for field in _TABLES[cls]:
        source += [f"    v = s.{field.name}", f"    if not ({_row_test(field)}): return False"]
    namespace: dict = {}
    exec("\n".join(source + ["    return True"]), globals(), namespace)
    return namespace["sound"]


_SOUND = {cls: _sound(cls) for cls in _TABLES}
_ROWS = {(cls, field.name): field for cls, rows in _TABLES.items() for field in rows}
_finite = _predicate(_KINDS[float][0])
_integer = _predicate(_KINDS[int][0])


def _field_errors(section: object, cls: type, path: str, errors: list[str], after: dict[str, str]) -> None:
    """Lists the problem of each field of a cls that fails its row, in table
    order. after maps a field's path to a problem to list once the field's
    own are listed."""
    # A scenario's fields are read whatever its class; a section's must be its own.
    if not isinstance(section, cls) and cls is not Scenario:
        errors.append(f"{path}: must be a {cls.__name__}, got {shown_value(section)}")
        return
    for field in _TABLES[cls]:
        value = getattr(section, field.name)
        here = field.root_key or (f"{path}.{field.name}" if path else field.name)
        if field.kind not in _TABLES:
            if (problem := _problem(value, cls, field.name)) is not None:
                errors.append(f"{here}: {problem.format(shown_value(value))}")
                if cls is NodeSpec and field.name == "id":
                    return  # a node without a sound id is listed by that alone
        elif value is None and field.default is None:
            pass
        elif not field.many:
            _field_errors(value, field.kind, here, errors, after)
        elif not isinstance(value, (tuple, list)):
            errors.append(f"{here}: must be a tuple or list, got {shown_value(value)}")
        elif not value:
            errors.append(f"{here}: {field.rules[0][1]}")
        else:
            for index, item in enumerate(value):
                _field_errors(item, field.kind, f"{here}[{index}]", errors, after)
        if here in after:
            errors.append(after[here])


def _problem(value: object, cls: type, name: str) -> str | None:
    """The message for a value that the leaf row name of cls's table does not
    pass, or None if it passes: that of the first rule it fails, or, if it is
    not of the row's kind, that of the first rule or of the kind."""
    field = _ROWS[cls, name]
    test, _, message = _KINDS[field.kind]
    if not _predicate(test)(value):
        return field.rules[0][1] if field.rules else message
    return next((message for rule, message in field.rules if not _predicate(rule)(value)), None)


def _cross_field_errors(scenario: Scenario, sound: bool) -> list[tuple[str, str]]:
    """The problems the rules across fields find, in the order they are
    listed, each with the path of the field it follows; no two share one.
    A rule reads only fields that pass their rows; sound says that every
    field does."""
    found = []
    perception = scenario.perception
    center = None
    if sound or isinstance(perception, PerceptionModel) and _SOUND[Pose](perception.query_center):
        center = perception.query_center
    nodes = scenario.nodes
    if isinstance(nodes, (tuple, list)):
        seen: set[NodeId] = set()
        for index, node in enumerate(nodes):
            if not (sound or isinstance(node, NodeSpec) and _problem(node.id, NodeSpec, "id") is None):
                continue
            if node.id in seen:
                found.append((f"nodes[{index}].id", f"duplicate node id: {node.id}"))
            seen.add(node.id)
            # Claims carry this distance as evidence; finite poses can still overflow it.
            if center is not None and (sound or _SOUND[Pose](node.pose)):
                try:
                    distance = node.pose.distance_to(center)
                except OverflowError:  # integer coordinates whose difference no float holds
                    distance = math.inf
                if not _finite(distance):
                    path = f"nodes[{index}].pose"
                    found.append((path, f"{path}: distance to query_region_center must be finite, got {distance!r}"))
        masters = [n for n in nodes if isinstance(n, NodeSpec) and n.master is True]
        if len(masters) != 1:
            found.append(("nodes", f"nodes: exactly one master is required, got {len(masters)}"))
        elif not masters[0].actuated:
            found.append(("nodes", "nodes: the master node must be actuated"))
    truth = scenario.ground_truth
    if isinstance(truth, GroundTruth) and truth.pedestrian_pose is None and truth.pedestrian_present:
        found.append(("ground_truth.pedestrian_pose", "ground_truth.pedestrian_pose: required when pedestrian_present"))
    net = scenario.network
    if isinstance(net, NetworkConfig):
        if sound or _problem(net.latency_max, NetworkConfig, "latency_max") is None and _integer(net.latency_min):
            if net.latency_max < net.latency_min:
                shown = f"{shown_value(net.latency_max)} < {shown_value(net.latency_min)}"
                found.append(("network.latency_max", f"network.latency_max: must be >= latency_min, got {shown}"))
        # Actuation must land before the next session opens in a lossless run.
        if sound or _integer(net.latency_max) and _problem(scenario.settle_interval, Scenario, "settle_interval") is None:
            if scenario.settle_interval < net.latency_max:
                shown = f"{shown_value(scenario.settle_interval)} < {shown_value(net.latency_max)}"
                found.append(("settle_interval", f"settle_interval: must be >= network.latency_max, got {shown}"))
    return found


def validate_scenario(scenario: Scenario) -> list[str]:
    """Every invariant violation in the scenario, or an empty list if runnable.

    Each field is checked by its row in the tables. The rules across fields
    are checked apart, and each of their problems is listed right after
    those of the field it follows. Error strings carry field paths so CLI users
    can find the offending line.
    """
    sound = _SOUND[Scenario](scenario)
    found = _cross_field_errors(scenario, sound)
    if sound:
        return [message for _, message in found]
    errors: list[str] = []
    _field_errors(scenario, Scenario, "", errors, dict(found))
    return errors
