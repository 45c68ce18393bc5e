"""Core domain types shared by every other module.

Times are integer microseconds, distances are meters in a flat 2D plane.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

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


def _finite(value: float) -> bool:
    if isinstance(value, bool) or not isinstance(value, _REAL):
        return False
    return -_FLOAT_MAX <= value <= _FLOAT_MAX


def _integer(value: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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


def sensor_errors(profile: SensorProfile, path: str = "sensor") -> list[str]:
    """Value-range problems in a sensor profile, as human-readable strings."""
    errors = []
    if not isinstance(profile.kind, SensorKind):
        errors.append(f"{path}.kind: unknown sensor kind {shown_value(profile.kind)}")
    for name in ("base_false_negative", "base_false_positive"):
        rate = getattr(profile, name)
        if not _finite(rate) or not 0.0 <= rate < 0.5:
            errors.append(f"{path}.{name}: must be in [0.0, 0.5), got {shown_value(rate)}")
    if not _finite(profile.effective_range) or profile.effective_range <= 0.0:
        errors.append(f"{path}.effective_range: must be > 0, got {shown_value(profile.effective_range)}")
    return errors


def _pose_errors(pose: Pose, path: str) -> list[str]:
    if not isinstance(pose, Pose):
        return [f"{path}: must be a Pose, got {shown_value(pose)}"]
    errors = []
    for axis in ("x", "y"):
        value = getattr(pose, axis)
        if not _finite(value):
            errors.append(f"{path}.{axis}: must be a finite number, got {shown_value(value)}")
    return errors


def claim_evidence_valid(claim: Claim) -> bool:
    """True exactly when claim_evidence_errors(claim) is empty.

    The same checks, inlined and without building any message. It is the
    set-up check: session.trust_positions runs it once per node, on a claim
    or a trust.Evidence, and a sweep pays that set-up once per run. Inside
    these bounds a number is finite.
    """
    profile = claim.profile
    if not isinstance(profile, SensorProfile):
        return False
    fn = profile.base_false_negative
    fp = profile.base_false_positive
    reach = profile.effective_range
    distance = claim.distance_to_target
    return (
        isinstance(profile.kind, SensorKind)
        and isinstance(fn, _REAL)
        and type(fn) is not bool
        and 0.0 <= fn < 0.5
        and isinstance(fp, _REAL)
        and type(fp) is not bool
        and 0.0 <= fp < 0.5
        and isinstance(reach, _REAL)
        and type(reach) is not bool
        and 0.0 < reach <= _FLOAT_MAX
        and isinstance(distance, _REAL)
        and type(distance) is not bool
        and 0.0 <= distance <= _FLOAT_MAX
    )


def claim_evidence_errors(claim: Claim) -> list[str]:
    """Checks the evidence fields a master cannot take on faith."""
    path = f"claim from node {claim.node}"
    if isinstance(claim.profile, SensorProfile):
        errors = sensor_errors(claim.profile, path)
    else:
        errors = [f"{path}.profile: must be a SensorProfile, got {shown_value(claim.profile)}"]
    if not _finite(claim.distance_to_target) or claim.distance_to_target < 0.0:
        errors.append(f"{path}: distance_to_target must be >= 0, got {shown_value(claim.distance_to_target)}")
    return errors


def validate_scenario(scenario: Scenario) -> list[str]:
    """Every invariant violation in the scenario, or an empty list if runnable.

    Error strings carry field paths so CLI users can find the offending line.
    """
    errors: list[str] = []

    # A section of the wrong type is one error; none of its fields is read.
    perception = scenario.perception
    center = None
    if isinstance(perception, PerceptionModel):
        perception_errors = []
        reference = perception.distance_reference
        if not _finite(reference) or reference <= 0.0:
            perception_errors.append(f"perception.distance_reference: must be > 0, got {shown_value(reference)}")
        center_errors = _pose_errors(perception.query_center, "query_region_center")
        perception_errors.extend(center_errors)
        if not center_errors:
            center = perception.query_center
    else:
        perception_errors = [f"perception: must be a PerceptionModel, got {shown_value(perception)}"]

    nodes = scenario.nodes
    if not isinstance(nodes, (tuple, list)):
        errors.append(f"nodes: must be a tuple or list, got {shown_value(nodes)}")
        nodes = None
    elif not nodes:
        errors.append("nodes: at least one node is required")
    seen: set[NodeId] = set()
    for index, node in enumerate(nodes or ()):
        path = f"nodes[{index}]"
        if not isinstance(node, NodeSpec):
            errors.append(f"{path}: must be a NodeSpec, got {shown_value(node)}")
            continue
        if not _integer(node.id) or not 0 <= node.id < NODE_ID_BOUND:
            errors.append(f"{path}.id: must be an integer >= 0 and < 2^63, got {shown_value(node.id)}")
            continue
        if node.id in seen:
            errors.append(f"duplicate node id: {node.id}")
        seen.add(node.id)
        pose_errors = _pose_errors(node.pose, f"{path}.pose")
        errors.extend(pose_errors)
        if not pose_errors and center is not None:
            # Claims carry this distance as evidence; finite poses can still overflow it.
            distance = node.pose.distance_to(center)
            if not _finite(distance):
                errors.append(f"{path}.pose: distance to query_region_center must be finite, got {distance!r}")
        if isinstance(node.sensor, SensorProfile):
            errors.extend(sensor_errors(node.sensor, f"{path}.sensor"))
        else:
            errors.append(f"{path}.sensor: must be a SensorProfile, got {shown_value(node.sensor)}")
        for flag in ("master", "actuated"):
            if not isinstance(value := getattr(node, flag), bool):
                errors.append(f"{path}.{flag}: must be true or false, got {shown_value(value)}")

    if nodes is not None:
        masters = [n for n in nodes if isinstance(n, NodeSpec) and n.master is True]
        if len(masters) != 1:
            errors.append(f"nodes: exactly one master is required, got {len(masters)}")
        elif not masters[0].actuated:
            errors.append("nodes: the master node must be actuated")

    truth = scenario.ground_truth
    if not isinstance(truth, GroundTruth):
        errors.append(f"ground_truth: must be a GroundTruth, got {shown_value(truth)}")
    else:
        if not isinstance(truth.pedestrian_present, bool):
            present = shown_value(truth.pedestrian_present)
            errors.append(f"ground_truth.pedestrian_present: must be true or false, got {present}")
        if truth.pedestrian_pose is not None:
            errors.extend(_pose_errors(truth.pedestrian_pose, "ground_truth.pedestrian_pose"))
        elif truth.pedestrian_present:
            errors.append("ground_truth.pedestrian_pose: required when pedestrian_present")

    errors.extend(perception_errors)

    net = scenario.network
    latency_max = None
    if not isinstance(net, NetworkConfig):
        errors.append(f"network: must be a NetworkConfig, got {shown_value(net)}")
    else:
        latency_max = net.latency_max
        if not _integer(net.latency_min) or net.latency_min < 0:
            errors.append(f"network.latency_min: must be an integer >= 0, got {shown_value(net.latency_min)}")
        if not _integer(net.latency_max) or net.latency_max < 0:
            errors.append(f"network.latency_max: must be an integer >= 0, got {shown_value(net.latency_max)}")
        elif net.latency_max >= LATENCY_BOUND:
            # One keyed draw is a 64-bit word; a wider latency band cannot be sampled.
            errors.append(f"network.latency_max: must be < 2^64, got {shown_value(net.latency_max)}")
        elif _integer(net.latency_min) and net.latency_max < net.latency_min:
            errors.append(
                f"network.latency_max: must be >= latency_min, got {shown_value(net.latency_max)}"
                f" < {shown_value(net.latency_min)}"
            )
        if not _finite(net.drop_probability) or not 0.0 <= net.drop_probability <= 1.0:
            errors.append(f"network.drop_probability: must be in [0.0, 1.0], got {shown_value(net.drop_probability)}")
        if not _integer(net.seed) or not 0 <= net.seed < SEED_BOUND:
            errors.append(f"network.seed: must be an integer in [0, 2^64), got {shown_value(net.seed)}")

    # Times are bounded as latency is, so that a trace can print every one.
    if not _integer(scenario.session_window) or scenario.session_window <= 0:
        errors.append(f"session_window: must be an integer > 0, got {shown_value(scenario.session_window)}")
    elif scenario.session_window >= LATENCY_BOUND:
        errors.append(f"session_window: must be < 2^64, got {shown_value(scenario.session_window)}")
    if not _integer(scenario.settle_interval) or scenario.settle_interval < 0:
        errors.append(f"settle_interval: must be an integer >= 0, got {shown_value(scenario.settle_interval)}")
    elif scenario.settle_interval >= LATENCY_BOUND:
        errors.append(f"settle_interval: must be < 2^64, got {shown_value(scenario.settle_interval)}")
    elif _integer(latency_max) and scenario.settle_interval < latency_max:
        # Actuation must land before the next session opens in a lossless run.
        errors.append(
            f"settle_interval: must be >= network.latency_max, got {shown_value(scenario.settle_interval)}"
            f" < {shown_value(latency_max)}"
        )
    if not _integer(scenario.sessions) or scenario.sessions < 1:
        errors.append(f"sessions: must be an integer >= 1, got {shown_value(scenario.sessions)}")

    return errors
