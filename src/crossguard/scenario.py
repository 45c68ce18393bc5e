"""Scenario file loading.

Scenario files are YAML with sections mirroring the Scenario fields one to
one (query_region_center joins PerceptionModel); scenarios/reference.scenario
documents every field. Each section is read by its table in crossguard.model,
in table order. Shape and type problems raise ScenarioParseError, value-range
and consistency problems raise ScenarioValidationError, and the CLI maps the
two to distinct exit codes.
"""

from __future__ import annotations

from dataclasses import MISSING
from pathlib import Path

import yaml

from .model import _KINDS, _TABLES, Scenario, SensorKind, shown_value, validate_scenario


class ScenarioParseError(Exception):
    """The file is not a structurally well-formed scenario."""


class ScenarioValidationError(Exception):
    """The file parsed but violates scenario invariants."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


def _layout(cls: type) -> dict:
    """A section's rows by their key in a file, in the order they are read;
    the top level also holds each section's root_key rows, just before it."""
    if cls is not Scenario:
        return {field.name: field for field in _TABLES[cls] if not field.root_key}
    layout = {}
    for field in _TABLES[Scenario]:
        layout.update((row.root_key, row) for row in _TABLES.get(field.kind, ()) if row.root_key)
        layout[field.name] = field
    return layout


_LAYOUTS = {cls: _layout(cls) for cls in _TABLES}


def _build(value: object, cls: type, path: str, top: dict) -> object:
    """cls built from a mapping laid out as its table says, its fields read in
    table order. top carries the root_key fields from the top level to the
    section they belong to. An absent field takes its default if it has one;
    an explicit null does not, unless that default is None."""
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{path}: expected a mapping, got {type(value).__name__}")
    layout = _LAYOUTS[cls]
    # A key shows as str only if that is one printable line and it is no int
    # (one may be too long to print); otherwise as shown_value, its repr.
    unknown = sorted(
        str(key) if not isinstance(key, int) and str(key).isprintable() else shown_value(key)
        for key in value if key not in layout
    )
    if unknown:
        raise ScenarioParseError(f"{path}: unknown field(s) {', '.join(unknown)}")
    prefix = "" if cls is Scenario else f"{path}."
    fields = {}
    for key, field in layout.items():
        if key in value:
            converted = _convert(value[key], field, prefix + key, top)
        elif field.default is not MISSING:
            converted = field.default
        else:
            raise ScenarioParseError(f"{path}.{key}: missing required field")
        (top if field.root_key else fields)[field.name] = converted
    fields.update((field.name, top[field.name]) for field in _TABLES[cls] if field.root_key)
    return cls(**fields)


def _convert(value: object, field, path: str, top: dict) -> object:
    """value as a value of the field's kind, or ScenarioParseError naming path."""
    kind = field.kind
    if value is None and field.default is None:
        return None
    if field.many:
        if not isinstance(value, list):
            raise ScenarioParseError(f"{path}: expected a list")
        return tuple(_build(item, kind, f"{path}[{i}]", top) for i, item in enumerate(value))
    if kind in _TABLES:
        return _build(value, kind, path, top)
    if kind is SensorKind:
        try:
            return SensorKind(value)
        except ValueError:
            pass
    elif type(value) is kind:
        return value
    elif kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ScenarioParseError(f"{path}: number too large for a float") from None
    raise ScenarioParseError(f"{path}: expected {_KINDS[kind][1]}, got {shown_value(value)}")


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


def _one_line(exc: Exception, text: str) -> str:
    """An error from loading YAML text on one line: PyYAML's problem and the
    line and column it was found at, or, where it gives none, its text with
    the line breaks joined. A ReaderError (a character YAML does not allow)
    gives only an offset into text, so PyYAML's reader is run up to it to
    count lines and columns as every other error's mark does."""
    if isinstance(exc, yaml.reader.ReaderError):
        reader = yaml.reader.Reader(text[: exc.position])
        reader.forward(exc.position)
        problem, mark = str(exc).partition("\n")[0], reader.get_mark()
    else:
        problem, mark = getattr(exc, "problem", None), getattr(exc, "problem_mark", None)
    if problem and mark is not None:
        return f"{problem} at line {mark.line + 1}, column {mark.column + 1}"
    return " ".join(str(exc).split())


def parse_scenario(text: str) -> Scenario:
    """Build a Scenario from YAML text by the model's tables; shape and type
    errors only, no range checks."""
    try:
        document = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: YAML that Python cannot build, such as an integer
        # literal beyond the interpreter's digit limit.
        raise ScenarioParseError(f"not valid YAML: {_one_line(exc, text)}") from exc
    except RecursionError:
        raise ScenarioParseError("not valid YAML: nested too deeply") from None
    if document is None:
        raise ScenarioParseError("empty scenario file")
    return _build(document, Scenario, "scenario", {})


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
