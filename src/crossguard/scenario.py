"""Scenario file loading.

Scenario files are YAML with sections mirroring the Scenario fields one to
one; scenarios/reference.scenario in the repo documents every field. Shape
and type problems raise ScenarioParseError, value-range and consistency
problems raise ScenarioValidationError, and the CLI maps the two to distinct
exit codes.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .model import (
    GroundTruth,
    NetworkConfig,
    NodeSpec,
    PerceptionModel,
    Pose,
    Scenario,
    SensorKind,
    SensorProfile,
    validate_scenario,
)


class ScenarioParseError(Exception):
    """The file is not a structurally well-formed scenario."""


class ScenarioValidationError(Exception):
    """The file parsed but violates scenario invariants."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


def _require(mapping: dict, key: str, path: str) -> object:
    if key not in mapping:
        raise ScenarioParseError(f"{path}.{key}: missing required field")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioParseError(f"{path}: unknown field(s) {', '.join(unknown)}")


def _as_mapping(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _as_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioParseError(f"{path}: expected true or false, got {value!r}")
    return value


def _parse_pose(value: object, path: str) -> Pose:
    mapping = _as_mapping(value, path)
    _reject_unknown(mapping, {"x", "y"}, path)
    return Pose(
        x=_as_float(_require(mapping, "x", path), f"{path}.x"),
        y=_as_float(_require(mapping, "y", path), f"{path}.y"),
    )


def _parse_sensor(value: object, path: str) -> SensorProfile:
    mapping = _as_mapping(value, path)
    _reject_unknown(
        mapping,
        {"kind", "base_false_negative", "base_false_positive", "effective_range"},
        path,
    )
    kind_raw = _require(mapping, "kind", path)
    try:
        kind = SensorKind(kind_raw)
    except ValueError:
        names = ", ".join(k.value for k in SensorKind)
        raise ScenarioParseError(f"{path}.kind: expected one of {names}, got {kind_raw!r}") from None
    return SensorProfile(
        kind=kind,
        base_false_negative=_as_float(
            _require(mapping, "base_false_negative", path), f"{path}.base_false_negative"
        ),
        base_false_positive=_as_float(
            _require(mapping, "base_false_positive", path), f"{path}.base_false_positive"
        ),
        effective_range=_as_float(
            _require(mapping, "effective_range", path), f"{path}.effective_range"
        ),
    )


def _parse_node(value: object, path: str) -> NodeSpec:
    mapping = _as_mapping(value, path)
    _reject_unknown(mapping, {"id", "pose", "sensor", "master", "actuated"}, path)
    return NodeSpec(
        id=_as_int(_require(mapping, "id", path), f"{path}.id"),
        pose=_parse_pose(_require(mapping, "pose", path), f"{path}.pose"),
        sensor=_parse_sensor(_require(mapping, "sensor", path), f"{path}.sensor"),
        master=_as_bool(mapping.get("master", False), f"{path}.master"),
        actuated=_as_bool(mapping.get("actuated", False), f"{path}.actuated"),
    )


def parse_scenario(text: str) -> Scenario:
    """Build a Scenario from YAML text; shape errors only, no range checks."""
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"not valid YAML: {exc}") from exc
    if document is None:
        raise ScenarioParseError("empty scenario file")
    root = _as_mapping(document, "scenario")
    _reject_unknown(
        root,
        {
            "nodes",
            "ground_truth",
            "query_region_center",
            "perception",
            "network",
            "session_window",
            "settle_interval",
            "sessions",
        },
        "scenario",
    )

    nodes_raw = _require(root, "nodes", "scenario")
    if not isinstance(nodes_raw, list):
        raise ScenarioParseError("nodes: expected a list")
    nodes = tuple(_parse_node(item, f"nodes[{i}]") for i, item in enumerate(nodes_raw))

    truth_map = _as_mapping(_require(root, "ground_truth", "scenario"), "ground_truth")
    _reject_unknown(truth_map, {"pedestrian_present", "pedestrian_pose"}, "ground_truth")
    pose_raw = truth_map.get("pedestrian_pose")
    ground_truth = GroundTruth(
        pedestrian_present=_as_bool(
            _require(truth_map, "pedestrian_present", "ground_truth"),
            "ground_truth.pedestrian_present",
        ),
        pedestrian_pose=None if pose_raw is None else _parse_pose(pose_raw, "ground_truth.pedestrian_pose"),
    )

    query_center = _parse_pose(_require(root, "query_region_center", "scenario"), "query_region_center")

    perception_map = _as_mapping(_require(root, "perception", "scenario"), "perception")
    _reject_unknown(perception_map, {"distance_reference"}, "perception")
    perception = PerceptionModel(
        distance_reference=_as_float(
            _require(perception_map, "distance_reference", "perception"),
            "perception.distance_reference",
        ),
        query_center=query_center,
    )

    network_map = _as_mapping(_require(root, "network", "scenario"), "network")
    _reject_unknown(
        network_map, {"latency_min", "latency_max", "drop_probability", "seed"}, "network"
    )
    network = NetworkConfig(
        latency_min=_as_int(_require(network_map, "latency_min", "network"), "network.latency_min"),
        latency_max=_as_int(_require(network_map, "latency_max", "network"), "network.latency_max"),
        drop_probability=_as_float(
            _require(network_map, "drop_probability", "network"), "network.drop_probability"
        ),
        seed=_as_int(_require(network_map, "seed", "network"), "network.seed"),
    )

    return Scenario(
        nodes=nodes,
        ground_truth=ground_truth,
        perception=perception,
        network=network,
        session_window=_as_int(_require(root, "session_window", "scenario"), "session_window"),
        settle_interval=_as_int(_require(root, "settle_interval", "scenario"), "settle_interval"),
        sessions=_as_int(_require(root, "sessions", "scenario"), "sessions"),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file, raising on any problem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    scenario = parse_scenario(text)
    errors = validate_scenario(scenario)
    if errors:
        raise ScenarioValidationError(errors)
    return scenario
