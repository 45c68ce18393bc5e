"""Scenario file loading.

Scenario files are YAML with sections mirroring the Scenario fields one to
one (query_region_center joins PerceptionModel); scenarios/reference.scenario
documents every field. Each section is one table of field converters, read
in order. Shape and type problems raise ScenarioParseError, value-range and
consistency problems raise ScenarioValidationError, and the CLI maps the two
to distinct exit codes.
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
    shown_value,
    validate_scenario,
)


class ScenarioParseError(Exception):
    """The file is not a structurally well-formed scenario."""


class ScenarioValidationError(Exception):
    """The file parsed but violates scenario invariants."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


_ROOT = "scenario"


def _fields(value: object, path: str, converters: dict, defaults: dict) -> dict:
    """One section's fields, converted in table order, as keyword arguments.

    An absent field takes its default if it has one; an explicit null does not.
    """
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{path}: expected a mapping, got {type(value).__name__}")
    # A key shows as str only if that is one printable line and it is no int
    # (one may be too long to print); otherwise as shown_value, its repr.
    unknown = sorted(
        str(key) if not isinstance(key, int) and str(key).isprintable() else shown_value(key)
        for key in value if key not in converters
    )
    if unknown:
        raise ScenarioParseError(f"{path}: unknown field(s) {', '.join(unknown)}")
    prefix = "" if path == _ROOT else f"{path}."
    fields = {}
    for name, convert in converters.items():
        if name in value:
            fields[name] = convert(value[name], prefix + name)
        elif name in defaults:
            fields[name] = defaults[name]
        else:
            raise ScenarioParseError(f"{path}.{name}: missing required field")
    return fields


def _section(cls: type, converters: dict, **defaults: object):
    """A converter that builds cls from a section laid out as the table says."""
    return lambda value, path: cls(**_fields(value, path, converters, defaults))


def _as_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{path}: expected an integer, got {shown_value(value)}")
    return value


def _as_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{path}: expected a number, got {shown_value(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioParseError(f"{path}: number too large for a float") from None


def _as_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioParseError(f"{path}: expected true or false, got {shown_value(value)}")
    return value


def _as_kind(value: object, path: str) -> SensorKind:
    try:
        return SensorKind(value)
    except ValueError:
        names = ", ".join(k.value for k in SensorKind)
        raise ScenarioParseError(f"{path}: expected one of {names}, got {shown_value(value)}") from None


_as_pose = _section(Pose, {"x": _as_float, "y": _as_float})
_as_sensor = _section(
    SensorProfile,
    {
        "kind": _as_kind,
        "base_false_negative": _as_float,
        "base_false_positive": _as_float,
        "effective_range": _as_float,
    },
)
_as_node = _section(
    NodeSpec,
    {"id": _as_int, "pose": _as_pose, "sensor": _as_sensor, "master": _as_bool, "actuated": _as_bool},
    master=False,
    actuated=False,
)


def _as_nodes(value: object, path: str) -> tuple[NodeSpec, ...]:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{path}: expected a list")
    return tuple(_as_node(item, f"{path}[{i}]") for i, item in enumerate(value))


_SCENARIO = {
    "nodes": _as_nodes,
    "ground_truth": _section(
        GroundTruth,
        {
            "pedestrian_present": _as_bool,
            "pedestrian_pose": lambda value, path: None if value is None else _as_pose(value, path),
        },
        pedestrian_pose=None,
    ),
    "query_region_center": _as_pose,
    # Built as a plain dict: PerceptionModel also takes the query center.
    "perception": _section(dict, {"distance_reference": _as_float}),
    "network": _section(
        NetworkConfig,
        {"latency_min": _as_int, "latency_max": _as_int, "drop_probability": _as_float, "seed": _as_int},
    ),
    "session_window": _as_int,
    "settle_interval": _as_int,
    "sessions": _as_int,
}


class _Loader(yaml.SafeLoader):
    """SafeLoader that refuses a key given twice in one mapping, where
    safe_load keeps the last; a merge key (<<) may still override a value."""

    def compose_mapping_node(self, anchor):
        # Checked as composed: each mapping once, before a merge rewrites its pairs.
        # A key that is no scalar cannot be hashed; the constructor refuses it.
        node = super().compose_mapping_node(anchor)
        seen: dict = {}
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if seen.setdefault(key, key_node) is not key_node:
                    raise ScenarioParseError(f"duplicate key {shown_value(key)} at line {key_node.start_mark.line + 1}")
        return node


def parse_scenario(text: str) -> Scenario:
    """Build a Scenario from YAML text; shape errors only, no range checks."""
    try:
        document = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: YAML that Python cannot build, such as an integer
        # literal beyond the interpreter's digit limit.
        raise ScenarioParseError(f"not valid YAML: {exc}") from exc
    except RecursionError:
        raise ScenarioParseError("not valid YAML: nested too deeply") from None
    if document is None:
        raise ScenarioParseError("empty scenario file")
    fields = _fields(document, _ROOT, _SCENARIO, {})
    center = fields.pop("query_region_center")
    fields["perception"] = PerceptionModel(query_center=center, **fields["perception"])
    return Scenario(**fields)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file, raising on any problem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    scenario = parse_scenario(text)
    errors = validate_scenario(scenario)
    if errors:
        raise ScenarioValidationError(errors)
    return scenario
