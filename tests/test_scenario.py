"""Scenario file parsing, strictness, and the bundled scenarios."""

from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc

import pytest
import yaml

from crossguard import cli
from crossguard.model import Pose, SensorKind, validate_scenario
from crossguard.scenario import (
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    parse_scenario,
)

from helpers import INTERSECTION, REFERENCE

GOOD = """
nodes:
  - id: 1
    pose: {x: 0.0, y: 0.0}
    sensor:
      kind: rgb_camera
      base_false_negative: 0.1
      base_false_positive: 0.1
      effective_range: 30.0
    master: true
    actuated: true
  - id: 2
    pose: {x: 5.0, y: 0.0}
    sensor:
      kind: lidar
      base_false_negative: 0.01
      base_false_positive: 0.01
      effective_range: 50.0
ground_truth:
  pedestrian_present: false
query_region_center: {x: 2.0, y: 0.0}
perception:
  distance_reference: 10.0
network:
  latency_min: 1000
  latency_max: 5000
  drop_probability: 0.0
  seed: 3
session_window: 20000
settle_interval: 5000
sessions: 2
"""


DELETE = object()


def mutated(changes) -> str:
    """GOOD with each (path, value) change applied; DELETE drops the key and
    an empty path replaces the whole document."""
    document = yaml.safe_load(GOOD)
    for path, value in changes:
        if not path:
            document = value
            continue
        *parents, last = path
        target = document
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return yaml.safe_dump(document, sort_keys=False)


def aliased(levels: int) -> str:
    """A YAML list of levels lists, the first of ten zeros and each next of
    ten aliases to the one before: a few bytes more a level, and a repr ten
    times longer."""
    lists = ["&a0 [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"]
    lists += [f"&a{level} [" + ", ".join([f"*a{level - 1}"] * 10) + "]" for level in range(1, levels)]
    return "[" + ", ".join(lists) + "]"


N0, N1 = ("nodes", 0), ("nodes", 1)
TRUTH_POSE = ("ground_truth", "pedestrian_pose")

# For each section: a missing field, an unknown field, a wrong-typed value,
# an explicit null and a non-mapping, plus files with several problems, whose
# message shows which check wins. None means the text parses.
PINNED = [
    ("root-missing", [(("sessions",), DELETE)], "scenario.sessions: missing required field"),
    ("root-unknown", [(("surprise",), 1)], "scenario: unknown field(s) surprise"),
    ("root-wrong-type", [(("sessions",), "two")], "sessions: expected an integer, got 'two'"),
    ("root-null", [(("sessions",), None)], "sessions: expected an integer, got None"),
    ("root-not-a-mapping", [((), [1, 2])], "scenario: expected a mapping, got list"),
    ("root-scalar", [((), 5)], "scenario: expected a mapping, got int"),
    ("nodes-missing", [(("nodes",), DELETE)], "scenario.nodes: missing required field"),
    ("nodes-not-a-list", [(("nodes",), {"id": 1})], "nodes: expected a list"),
    ("nodes-null", [(("nodes",), None)], "nodes: expected a list"),
    ("nodes-empty", [(("nodes",), [])], None),
    ("node-missing", [(N1 + ("id",), DELETE)], "nodes[1].id: missing required field"),
    ("node-unknown", [(N1 + ("colour",), "red")], "nodes[1]: unknown field(s) colour"),
    ("node-wrong-type", [(N1 + ("id",), "two")], "nodes[1].id: expected an integer, got 'two'"),
    ("node-float-id", [(N1 + ("id",), 2.0)], "nodes[1].id: expected an integer, got 2.0"),
    ("node-null", [(N0 + ("master",), None)], "nodes[0].master: expected true or false, got None"),
    (
        "node-null-actuated",
        [(N0 + ("actuated",), None)],
        "nodes[0].actuated: expected true or false, got None",
    ),
    (
        "node-wrong-type-master",
        [(N1 + ("master",), "yes")],
        "nodes[1].master: expected true or false, got 'yes'",
    ),
    ("node-not-a-mapping", [(N1, "robot")], "nodes[1]: expected a mapping, got str"),
    ("pose-missing", [(N0 + ("pose", "y"), DELETE)], "nodes[0].pose.y: missing required field"),
    ("pose-unknown", [(N0 + ("pose", "z"), 1.0)], "nodes[0].pose: unknown field(s) z"),
    (
        "pose-wrong-type",
        [(N0 + ("pose", "x"), "left")],
        "nodes[0].pose.x: expected a number, got 'left'",
    ),
    ("pose-null", [(N0 + ("pose", "y"), None)], "nodes[0].pose.y: expected a number, got None"),
    (
        "pose-not-a-mapping",
        [(N0 + ("pose",), [0.0, 0.0])],
        "nodes[0].pose: expected a mapping, got list",
    ),
    ("pose-bool", [(N0 + ("pose", "x"), True)], "nodes[0].pose.x: expected a number, got True"),
    (
        "sensor-missing",
        [(N1 + ("sensor", "effective_range"), DELETE)],
        "nodes[1].sensor.effective_range: missing required field",
    ),
    (
        "sensor-unknown",
        [(N1 + ("sensor", "colour"), "red")],
        "nodes[1].sensor: unknown field(s) colour",
    ),
    (
        "sensor-wrong-kind",
        [(N1 + ("sensor", "kind"), "radar")],
        "nodes[1].sensor.kind: expected one of lidar, optical_camera, rgb_camera, got 'radar'",
    ),
    (
        "sensor-wrong-type",
        [(N1 + ("sensor", "base_false_negative"), "low")],
        "nodes[1].sensor.base_false_negative: expected a number, got 'low'",
    ),
    (
        "sensor-null-kind",
        [(N1 + ("sensor", "kind"), None)],
        "nodes[1].sensor.kind: expected one of lidar, optical_camera, rgb_camera, got None",
    ),
    (
        "sensor-list-kind",
        [(N1 + ("sensor", "kind"), ["lidar"])],
        "nodes[1].sensor.kind: expected one of lidar, optical_camera, rgb_camera, got ['lidar']",
    ),
    (
        "sensor-null",
        [(N1 + ("sensor", "effective_range"), None)],
        "nodes[1].sensor.effective_range: expected a number, got None",
    ),
    (
        "sensor-not-a-mapping",
        [(N1 + ("sensor",), "lidar")],
        "nodes[1].sensor: expected a mapping, got str",
    ),
    (
        "truth-missing",
        [(("ground_truth", "pedestrian_present"), DELETE)],
        "ground_truth.pedestrian_present: missing required field",
    ),
    (
        "truth-unknown",
        [(("ground_truth", "weather"), "rain")],
        "ground_truth: unknown field(s) weather",
    ),
    (
        "truth-wrong-type",
        [(("ground_truth", "pedestrian_present"), "yes")],
        "ground_truth.pedestrian_present: expected true or false, got 'yes'",
    ),
    (
        "truth-null",
        [(("ground_truth", "pedestrian_present"), None)],
        "ground_truth.pedestrian_present: expected true or false, got None",
    ),
    (
        "truth-not-a-mapping",
        [(("ground_truth",), True)],
        "ground_truth: expected a mapping, got bool",
    ),
    (
        "truth-section-missing",
        [(("ground_truth",), DELETE)],
        "scenario.ground_truth: missing required field",
    ),
    (
        "truth-pose-missing",
        [(TRUTH_POSE, {"x": 1.0})],
        "ground_truth.pedestrian_pose.y: missing required field",
    ),
    (
        "truth-pose-unknown",
        [(TRUTH_POSE, {"x": 1.0, "y": 2.0, "z": 3.0})],
        "ground_truth.pedestrian_pose: unknown field(s) z",
    ),
    (
        "truth-pose-wrong-type",
        [(TRUTH_POSE, {"x": "a", "y": 2.0})],
        "ground_truth.pedestrian_pose.x: expected a number, got 'a'",
    ),
    ("truth-pose-null", [(TRUTH_POSE, None)], None),
    (
        "truth-pose-not-a-mapping",
        [(TRUTH_POSE, 5)],
        "ground_truth.pedestrian_pose: expected a mapping, got int",
    ),
    (
        "center-section-missing",
        [(("query_region_center",), DELETE)],
        "scenario.query_region_center: missing required field",
    ),
    (
        "center-missing",
        [(("query_region_center", "x"), DELETE)],
        "query_region_center.x: missing required field",
    ),
    (
        "center-unknown",
        [(("query_region_center", "z"), 0.0)],
        "query_region_center: unknown field(s) z",
    ),
    (
        "center-wrong-type",
        [(("query_region_center", "x"), "a")],
        "query_region_center.x: expected a number, got 'a'",
    ),
    (
        "center-null",
        [(("query_region_center", "y"), None)],
        "query_region_center.y: expected a number, got None",
    ),
    (
        "center-not-a-mapping",
        [(("query_region_center",), "centre")],
        "query_region_center: expected a mapping, got str",
    ),
    (
        "perception-section-missing",
        [(("perception",), DELETE)],
        "scenario.perception: missing required field",
    ),
    (
        "perception-missing",
        [(("perception", "distance_reference"), DELETE)],
        "perception.distance_reference: missing required field",
    ),
    ("perception-unknown", [(("perception", "fog"), 0.5)], "perception: unknown field(s) fog"),
    (
        "perception-wrong-type",
        [(("perception", "distance_reference"), "far")],
        "perception.distance_reference: expected a number, got 'far'",
    ),
    (
        "perception-null",
        [(("perception", "distance_reference"), None)],
        "perception.distance_reference: expected a number, got None",
    ),
    (
        "perception-not-a-mapping",
        [(("perception",), 10.0)],
        "perception: expected a mapping, got float",
    ),
    (
        "network-section-missing",
        [(("network",), DELETE)],
        "scenario.network: missing required field",
    ),
    ("network-missing", [(("network", "seed"), DELETE)], "network.seed: missing required field"),
    ("network-unknown", [(("network", "jitter"), 5)], "network: unknown field(s) jitter"),
    (
        "network-wrong-type",
        [(("network", "latency_min"), 1.5)],
        "network.latency_min: expected an integer, got 1.5",
    ),
    (
        "network-bool-seed",
        [(("network", "seed"), True)],
        "network.seed: expected an integer, got True",
    ),
    (
        "network-null",
        [(("network", "drop_probability"), None)],
        "network.drop_probability: expected a number, got None",
    ),
    ("network-not-a-mapping", [(("network",), [])], "network: expected a mapping, got list"),
    (
        "first-missing-root-field-wins",
        [(("nodes",), DELETE), (("sessions",), DELETE)],
        "scenario.nodes: missing required field",
    ),
    (
        "unknown-beats-missing",
        [(("surprise",), 1), (("nodes",), DELETE)],
        "scenario: unknown field(s) surprise",
    ),
    (
        "unknown-fields-are-sorted",
        [(("zebra",), 1), (("apple",), 2)],
        "scenario: unknown field(s) apple, zebra",
    ),
    (
        "nodes-before-network",
        [(N0 + ("id",), DELETE), (("network",), DELETE)],
        "nodes[0].id: missing required field",
    ),
    (
        "node-0-before-node-1",
        [(N1 + ("id",), "a"), (N0 + ("pose",), DELETE)],
        "nodes[0].pose: missing required field",
    ),
    (
        "pose-before-sensor",
        [(N0 + ("sensor",), DELETE), (N0 + ("pose", "x"), "a")],
        "nodes[0].pose.x: expected a number, got 'a'",
    ),
    (
        "sensor-before-master",
        [(N0 + ("master",), 1), (N0 + ("sensor", "kind"), 1)],
        "nodes[0].sensor.kind: expected one of lidar, optical_camera, rgb_camera, got 1",
    ),
    (
        "kind-before-rates",
        [(N0 + ("sensor", "kind"), DELETE), (N0 + ("sensor", "base_false_negative"), "a")],
        "nodes[0].sensor.kind: missing required field",
    ),
    (
        "x-before-missing-y",
        [(N0 + ("pose", "x"), "a"), (N0 + ("pose", "y"), DELETE)],
        "nodes[0].pose.x: expected a number, got 'a'",
    ),
    (
        "sensor-unknown-beats-missing-kind",
        [(N0 + ("sensor", "kind"), DELETE), (N0 + ("sensor", "hue"), 1)],
        "nodes[0].sensor: unknown field(s) hue",
    ),
    (
        "present-before-pose",
        [(("ground_truth", "pedestrian_present"), 1), (TRUTH_POSE, 5)],
        "ground_truth.pedestrian_present: expected true or false, got 1",
    ),
    (
        "truth-before-center",
        [(("ground_truth",), DELETE), (("query_region_center",), DELETE)],
        "scenario.ground_truth: missing required field",
    ),
    (
        "center-before-perception",
        [(("perception",), 1), (("query_region_center", "x"), DELETE)],
        "query_region_center.x: missing required field",
    ),
    (
        "latencies-in-order",
        [(("network", "latency_max"), "b"), (("network", "latency_min"), "a")],
        "network.latency_min: expected an integer, got 'a'",
    ),
    (
        "window-before-settle",
        [(("settle_interval",), "a"), (("session_window",), "b")],
        "session_window: expected an integer, got 'b'",
    ),
    (
        "defaults-apply-when-absent",
        [(N0 + ("master",), DELETE), (N0 + ("actuated",), DELETE)],
        None,
    ),
]


class TestParseScenario:
    @pytest.mark.parametrize("changes, message", [pytest.param(c, m, id=i) for i, c, m in PINNED])
    def test_pinned_outcome(self, changes, message):
        text = mutated(changes)
        if message is None:
            parse_scenario(text)
            return
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            ([((1,), 2)], "scenario: unknown field(s) 1"),
            ([((None,), 1)], "scenario: unknown field(s) None"),
            ([(("surprise",), 1), ((7,), 1)], "scenario: unknown field(s) 7, surprise"),
            ([(N0 + ("pose", 7), 1)], "nodes[0].pose: unknown field(s) 7"),
        ],
    )
    def test_non_string_keys_are_unknown_fields(self, changes, message):
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(mutated(changes))
        assert str(excinfo.value) == message

    def test_integer_too_large_for_a_float_field(self):
        text = GOOD.replace("effective_range: 50.0", "effective_range: 1" + "0" * 400)
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(text)
        assert str(excinfo.value) == "nodes[1].sensor.effective_range: number too large for a float"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_integer_literal_beyond_the_digit_limit(self):
        digits = sys.get_int_max_str_digits() + 700
        with pytest.raises(ScenarioParseError, match="^not valid YAML: .*digits"):
            parse_scenario(GOOD.replace("sessions: 2", "sessions: " + "1" * digits))

    def test_a_value_nested_by_aliases_is_shown_abbreviated(self):
        """Whole, this value would show in some 3.6 million characters, and
        three levels more would not fit in memory; the file or a library
        caller's Scenario is refused with a message that shows its start."""
        text = aliased(6)
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(GOOD.replace("sessions: 2", "sessions: " + text))
        message = str(excinfo.value)
        assert message.startswith("sessions: expected an integer, got [[0, 0, 0, 0, 0, 0, ...], [[0, 0, ")
        assert len(message) <= 300
        broken = dataclasses.replace(parse_scenario(GOOD), sessions=yaml.safe_load(text))
        [error] = validate_scenario(broken)
        assert error.startswith("sessions: must be an integer >= 1, got [[0, 0, 0, 0, 0, 0, ...], [[0, 0, ")
        assert len(error) <= 300

    def test_a_dataclass_holding_aliases_is_shown_abbreviated(self):
        """A section of the wrong class shows its fields through the same
        abbreviation, never its whole repr: a library caller's Pose holding
        the six-level list is refused in a short message and little memory."""
        broken = dataclasses.replace(parse_scenario(GOOD), ground_truth=Pose(yaml.safe_load(aliased(6)), 0.0))
        tracemalloc.start()
        try:
            errors = validate_scenario(broken)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [error] = errors
        assert error.startswith("ground_truth: must be a GroundTruth, got Pose(x=[[0, 0, 0, 0, 0, 0, ...], [[")
        assert len(error) <= 300
        assert peak < 1 << 20

    def test_well_formed_text_parses(self):
        scenario = parse_scenario(GOOD)
        assert scenario.node_ids() == (1, 2)
        assert scenario.master_node().id == 1
        assert scenario.network.seed == 3
        assert validate_scenario(scenario) == []

    def test_empty_file_rejected(self):
        with pytest.raises(ScenarioParseError, match="empty"):
            parse_scenario("")

    def test_invalid_yaml_rejected(self):
        with pytest.raises(ScenarioParseError, match="YAML"):
            parse_scenario("nodes: [unclosed")

    @pytest.mark.parametrize(
        "text",
        ["nodes: [unclosed", "nodes:\n\t- id: 1\n", "a: b: c", "a: *x", "a: \x07"],
        ids=["unclosed-list", "tab-indent", "nested-mapping-value", "undefined-alias", "control-character"],
    )
    def test_a_yaml_error_is_one_line(self, text, tmp_path, capsys):
        """PyYAML's marked errors span several lines (context, marks, carets);
        the parse error keeps the problem and its line and column."""
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(text)
        assert str(excinfo.value).startswith("not valid YAML: ") and "\n" not in str(excinfo.value)
        path = tmp_path / "bad.scenario"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {excinfo.value}\n"

    @pytest.mark.parametrize(
        "text, where",
        [
            ("a: \x07", "#x0007: special characters are not allowed at line 1, column 4"),
            ("a: b\r\nc: \x07", "#x0007: special characters are not allowed at line 2, column 4"),
            ("a: 1\n\n  b: \u2028x: \x7f", "#x007f: special characters are not allowed at line 4, column 4"),
        ],
        ids=["first-line", "after-crlf", "after-line-separator"],
    )
    def test_a_character_yaml_refuses_is_named_by_line_and_column(self, text, where):
        """PyYAML gives a ReaderError an offset into the text, not a mark; the
        parse error counts its line and column as PyYAML's marks do, with
        \r\n as one line break and U+2028 as one."""
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(text)
        assert str(excinfo.value) == f"not valid YAML: unacceptable character {where}"

    def test_missing_field_names_its_path(self):
        with pytest.raises(ScenarioParseError, match="network.seed"):
            parse_scenario(GOOD.replace("  seed: 3\n", ""))

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioParseError, match="surprise"):
            parse_scenario(GOOD + "\nsurprise: 1\n")

    def test_unknown_sensor_kind_rejected(self):
        with pytest.raises(ScenarioParseError, match="kind"):
            parse_scenario(GOOD.replace("kind: lidar", "kind: radar"))

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(ScenarioParseError, match="sessions"):
            parse_scenario(GOOD.replace("sessions: 2", "sessions: true"))

    def test_non_list_nodes_rejected(self):
        with pytest.raises(ScenarioParseError, match="nodes"):
            parse_scenario("nodes: 5")

    def test_window_must_be_integer(self):
        with pytest.raises(ScenarioParseError, match="session_window"):
            parse_scenario(GOOD.replace("session_window: 20000", "session_window: 20000.5"))


class TestDuplicateKeys:
    """yaml.safe_load keeps the last of two equal keys; the parser refuses both,
    naming the key and the line of its second use."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("sessions: 2\n", "sessions: 2\nsessions: 3\n", "duplicate key 'sessions' at line 32"),
            (
                "  drop_probability: 0.0\n",
                "  drop_probability: 0.0\n  drop_probability: 1.0\n",
                "duplicate key 'drop_probability' at line 28",
            ),
            ("    master: true\n", "    master: true\n    master: false\n", "duplicate key 'master' at line 11"),
            ("pose: {x: 0.0, y: 0.0}", "pose: {x: 0.0, x: 1.0}", "duplicate key 'x' at line 4"),
        ],
        ids=["top-level", "section-field", "node-field", "flow-mapping"],
    )
    def test_a_key_given_twice_is_a_parse_error(self, old, new, message):
        assert GOOD.count(old) == 1
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(GOOD.replace(old, new))
        assert str(excinfo.value) == message

    def test_a_merge_key_may_override(self):
        """Node 2's sensor merges node 1's and overrides two of its fields."""
        text = GOOD.replace("    sensor:\n      kind: rgb_camera\n", "    sensor: &camera\n      kind: rgb_camera\n")
        text = text.replace(
            "      kind: lidar\n      base_false_negative: 0.01\n      base_false_positive: 0.01\n",
            "      <<: *camera\n      kind: lidar\n      base_false_negative: 0.01\n",
        ).replace("      effective_range: 50.0\n", "")
        sensor = parse_scenario(text).nodes[1].sensor
        assert (sensor.kind, sensor.base_false_negative, sensor.base_false_positive) == (SensorKind.LIDAR, 0.01, 0.1)
        assert sensor.effective_range == 30.0
        with pytest.raises(ScenarioParseError, match="^duplicate key 'kind' at line 17$"):
            parse_scenario(text.replace("      kind: lidar\n", "      kind: lidar\n      kind: lidar\n"))

    def test_merges_are_checked_before_they_are_flattened(self):
        """Node 1's pose merges a point and overrides its x, and the query center,
        built first, merges that pose: legal. A key given twice in a mapping
        that is only ever merged is still refused."""
        text = GOOD.replace("pose: {x: 0.0, y: 0.0}", "pose: &pose {<<: {x: 9.0}, x: 2.0, y: 0.0}")
        legal = text.replace("query_region_center: {x: 2.0, y: 0.0}", "query_region_center: {<<: *pose}")
        scenario = parse_scenario(legal)
        assert scenario.nodes[0].pose == scenario.perception.query_center == Pose(2.0, 0.0)
        with pytest.raises(ScenarioParseError, match="^duplicate key 'x' at line 4$"):
            parse_scenario(legal.replace("{<<: {x: 9.0}", "{<<: {x: 9.0, x: 8.0}"))


class TestLoadScenario:
    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ScenarioParseError, match="cannot read"):
            load_scenario(tmp_path / "nope.scenario")

    def test_validation_failures_collect_every_error(self, tmp_path):
        bad = GOOD.replace("id: 2", "id: 1").replace("drop_probability: 0.0", "drop_probability: 2.0")
        path = tmp_path / "bad.scenario"
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(ScenarioValidationError) as excinfo:
            load_scenario(path)
        assert "duplicate node id: 1" in excinfo.value.errors
        assert any("drop_probability" in e for e in excinfo.value.errors)
        path.write_text(mutated([(("nodes",), [])]), encoding="utf-8")
        with pytest.raises(ScenarioValidationError) as excinfo:
            load_scenario(path)
        assert excinfo.value.errors == [
            "nodes: at least one node is required",
            "nodes: exactly one master is required, got 0",
        ]

    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "ok.scenario"
        path.write_text(GOOD, encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.sessions == 2


class TestBundledScenarios:
    def test_intersection_scenario_loads_and_validates(self):
        scenario = load_scenario(INTERSECTION)
        assert scenario.node_ids() == (1, 2, 3)
        assert scenario.master_node().id == 1
        assert scenario.actuated_ids() == (1,)
        assert scenario.ground_truth.pedestrian_present is True
        assert scenario.network.drop_probability == 0.0
        assert scenario.sessions == 1

    def test_intersection_geometry_blinds_the_cameras_not_the_lidar(self):
        """The whole point of the bundled layout: the near lidar keeps an
        effective false-negative rate under 0.02 while both far cameras sit
        above 0.45."""
        from crossguard.perception import effective_error_rates

        scenario = load_scenario(INTERSECTION)
        pedestrian = scenario.ground_truth.pedestrian_pose
        rates = {}
        for node in scenario.nodes:
            distance = node.pose.distance_to(pedestrian)
            fn, _ = effective_error_rates(node.sensor, distance, scenario.perception)
            rates[node.id] = fn
        assert rates[1] >= 0.45
        assert rates[2] >= 0.45
        assert rates[3] <= 0.02

    def test_intersection_lidar_is_nearly_on_the_query_center(self):
        scenario = load_scenario(INTERSECTION)
        lidar = next(n for n in scenario.nodes if n.sensor.kind is SensorKind.LIDAR)
        assert math.isclose(lidar.pose.distance_to(scenario.perception.query_center), 1.0)

    def test_reference_scenario_loads_and_validates(self):
        scenario = load_scenario(REFERENCE)
        assert validate_scenario(scenario) == []
        assert scenario.master_node().actuated is True
