"""Core domain types shared by every other module.

Times are integer microseconds, distances are meters in a flat 2D plane.
Each scenario section has one table here, the one place its fields are
declared: kind, default and range rule. scenario.parse_scenario reads a
file by the tables, and validate_scenario checks a Scenario by them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass
from functools import cache
from enum import Enum
from typing import NamedTuple

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
    base_false_negative: float
    base_false_positive: float
    effective_range: float


@dataclass(frozen=True)
class Claim:
    """One node's answer to one session's query, plus its trust evidence.

    distance_to_target is the emitting node's distance to the query-region
    center at emission time; the node cannot know the true pedestrian pose.
    """

    node: NodeId
    session: SessionId
    detection: Detection
    profile: SensorProfile
    distance_to_target: float
    emitted_at: SimTime


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

    distance_reference: float
    query_center: Pose


@dataclass(frozen=True)
class NetworkConfig:
    """Lossy-link model: per-recipient uniform latency and independent drops."""

    latency_min: SimTime
    latency_max: SimTime
    drop_probability: float
    seed: int


@dataclass(frozen=True)
class NodeSpec:
    """One participant: pose, sensor, and its roles."""

    id: NodeId
    pose: Pose
    sensor: SensorProfile
    master: bool = False
    actuated: bool = False


@dataclass(frozen=True)
class Scenario:
    """A complete, runnable world description."""

    nodes: tuple[NodeSpec, ...]
    ground_truth: GroundTruth
    perception: PerceptionModel
    network: NetworkConfig
    session_window: SimTime
    settle_interval: SimTime
    sessions: int

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


def shown_value(value: object) -> str:
    """repr(value) for an error message. An integer too long to print shows
    its size instead, and so does a container holding one: repr of an int
    past the interpreter's digit limit raises."""
    if isinstance(value, int) and value.bit_length() > _SHOWN_BITS:
        return f"an integer of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} holding an integer too long to print"


class _Field(NamedTuple):
    """One row of a section's table: a field and what it may hold.

    kind is int, float, bool, SensorKind or a section's class; many marks a
    list of sections. rules are (test, message) pairs: test is a Python
    expression in v that a value of the kind must make true, in turn. A file
    may leave out a field with a default, and a default of None admits None.
    A file keeps a root_key field at its top, just before the field's
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

_RATE = (("0.0 <= v < 0.5", "must be in [0.0, 0.5), got {}"),)
_POSITIVE = (("v > 0.0", "must be > 0, got {}"),)
_NON_NEGATIVE = ("v >= 0", "must be an integer >= 0, got {}")
# One keyed draw is a 64-bit word, so a wider latency band cannot be sampled;
# times are bounded alike, so that a trace can print every one.
_BELOW_2_64 = ("v < LATENCY_BOUND", "must be < 2^64, got {}")

# One table per section, its fields in the order a file lays them out.
_TABLES: dict[type, tuple[_Field, ...]] = {
    Pose: (_Field("x", float), _Field("y", float)),
    SensorProfile: (
        _Field("kind", SensorKind),
        _Field("base_false_negative", float, _RATE),
        _Field("base_false_positive", float, _RATE),
        _Field("effective_range", float, _POSITIVE),
    ),
    NodeSpec: (
        _Field("id", int, (("0 <= v < NODE_ID_BOUND", "must be an integer >= 0 and < 2^63, got {}"),)),
        _Field("pose", Pose),
        _Field("sensor", SensorProfile),
        _Field("master", bool, default=False),
        _Field("actuated", bool, default=False),
    ),
    GroundTruth: (_Field("pedestrian_present", bool), _Field("pedestrian_pose", Pose, default=None)),
    PerceptionModel: (
        _Field("distance_reference", float, _POSITIVE),
        _Field("query_center", Pose, root_key="query_region_center"),
    ),
    NetworkConfig: (
        _Field("latency_min", int, (_NON_NEGATIVE,)),
        _Field("latency_max", int, (_NON_NEGATIVE, _BELOW_2_64)),
        _Field("drop_probability", float, (("0.0 <= v <= 1.0", "must be in [0.0, 1.0], got {}"),)),
        _Field("seed", int, (("0 <= v < SEED_BOUND", "must be an integer in [0, 2^64), got {}"),)),
    ),
    Scenario: (
        _Field("nodes", NodeSpec, (("len(v) > 0", "at least one node is required"),), many=True),
        _Field("ground_truth", GroundTruth),
        _Field("perception", PerceptionModel),
        _Field("network", NetworkConfig),
        _Field("session_window", int, (("v > 0", "must be an integer > 0, got {}"), _BELOW_2_64)),
        _Field("settle_interval", int, (_NON_NEGATIVE, _BELOW_2_64)),
        _Field("sessions", int, (("v >= 1", "must be an integer >= 1, got {}"),)),
    ),
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
                if not _finite(distance := node.pose.distance_to(center)):
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


def claim_evidence_valid(claim: Claim) -> bool:
    """True when the claim's profile passes the sensor table and its
    distance_to_target is a finite number >= 0: evidence a master may take
    on faith. It builds no message. session.trust_positions runs it once
    per node, on a claim or a trust.Evidence, when a run is set up."""
    distance = claim.distance_to_target
    return _SOUND[SensorProfile](claim.profile) and _finite(distance) and distance >= 0.0


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
