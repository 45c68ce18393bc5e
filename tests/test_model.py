"""Core value types and scenario validation."""

from __future__ import annotations

import dataclasses
import inspect
import io

import pytest
import yaml

from crossguard import cli
from crossguard.actuation import ActuationAction, ActuationCommand
from crossguard.aggregation import AggregationSemantics, Decision, Verdict
from crossguard.model import (
    Claim,
    Detection,
    GroundTruth,
    NetworkConfig,
    PerceptionModel,
    Pose,
    Scenario,
    SensorKind,
    SimTime,
    _TABLES,
    _Field,
    _row,
    _table,
    shown_value,
    validate_scenario,
)
from crossguard.runner import Simulation, run_once
from crossguard.scenario import ScenarioValidationError

from helpers import REFERENCE, make_claim, make_profile, make_scenario
from oracles import claim_evidence_errors


def table_rows(item: int, cls: type = Scenario, attrs: tuple = (), doc: tuple = (), path: str = ""):
    """(attribute path, key path in a file, message path, row) for every row
    of the model's tables, reached from the scenario root; a list's rows are
    reached through its item at index item."""
    for row in _TABLES[cls]:
        where = row.root_key or (f"{path}.{row.name}" if path else row.name)
        key = (row.root_key,) if row.root_key else doc + (row.name,)
        yield attrs + (row.name,), key, where, row
        if row.many:
            inner = (attrs + (row.name, item), key + (item,), f"{where}[{item}]")
            yield from table_rows(item, row.kind, *inner)
        elif row.kind in _TABLES:
            yield from table_rows(item, row.kind, attrs + (row.name,), key, where)


def replaced(obj, attrs: tuple, value):
    """obj with the field at the attribute path set to value, unchecked."""
    if not attrs:
        return value
    head, *rest = attrs
    if isinstance(head, int):
        items = list(obj)
        items[head] = replaced(items[head], rest, value)
        return tuple(items)
    return dataclasses.replace(obj, **{head: replaced(getattr(obj, head), rest, value)})


# Each row with "x", of the wrong kind in code and in a file, and the values
# each field was tested with before the tables drove this list. Node 1 is
# not the master, so its flags can be wrong alone.
EARLIER = {
    "ground_truth.pedestrian_present": [1, 0, None],
    "nodes[1].pose": [None, (0.0, 0.0)],
    "nodes[1].sensor": [None, "lidar"],
    "query_region_center": [None],
    "ground_truth.pedestrian_pose": [None, (0.0, 0.0)],
    "perception": [None],
    "network": [None],
    "ground_truth": [None],
    "nodes": [None],
    "nodes[1].master": ["no", 1],
    "nodes[1].actuated": ["no", None],
}
WRONG_TYPES = [
    (attrs, doc, path, value)
    for attrs, doc, path, _ in table_rows(1)
    for value in ["x", *EARLIER.get(path, [])]
] + [(("nodes", 0), ("nodes", 0), "nodes[0]", None), (("nodes",), ("nodes",), "nodes[0]", (None,))]
CASE_IDS = [f"{path}={value!r}" for _, _, path, value in WRONG_TYPES]


def test_sensor_tiers_order_lidar_highest():
    assert SensorKind.LIDAR.tier > SensorKind.OPTICAL_CAMERA.tier
    assert SensorKind.OPTICAL_CAMERA.tier > SensorKind.RGB_CAMERA.tier


def test_pose_distance_is_euclidean():
    assert Pose(0.0, 0.0).distance_to(Pose(3.0, 4.0)) == pytest.approx(5.0)
    assert Pose(1.0, 1.0).distance_to(Pose(1.0, 1.0)) == 0.0


def test_detection_values_are_binary():
    assert set(Detection) == {Detection.PEDESTRIAN_DETECTED, Detection.CLEAR}


def sensor_errors(profile):
    """validate_scenario's errors for a scenario whose node 1 carries the profile."""
    scenario = make_scenario()
    node = dataclasses.replace(scenario.nodes[1], sensor=profile)
    return validate_scenario(dataclasses.replace(scenario, nodes=(scenario.nodes[0], node, *scenario.nodes[2:])))


class TestSensorErrors:
    def test_valid_profile_passes(self):
        assert sensor_errors(make_profile(fn=0.0, fp=0.499)) == []

    def test_rate_of_half_rejected(self):
        errors = sensor_errors(make_profile(fn=0.5))
        assert any("base_false_negative" in e for e in errors)

    def test_negative_rate_rejected(self):
        errors = sensor_errors(make_profile(fp=-0.01))
        assert any("base_false_positive" in e for e in errors)

    def test_nonpositive_range_rejected(self):
        errors = sensor_errors(make_profile(reach=0.0))
        assert any("effective_range" in e for e in errors)

    def test_nan_rate_rejected(self):
        errors = sensor_errors(make_profile(fn=float("nan")))
        assert errors


class TestClaimEvidence:
    def test_valid_claim_passes(self):
        assert claim_evidence_errors(make_claim()) == []

    def test_negative_distance_rejected(self):
        assert claim_evidence_errors(make_claim(distance=-1.0))

    def test_nan_distance_rejected(self):
        assert claim_evidence_errors(make_claim(distance=float("nan")))

    def test_bad_profile_rejected(self):
        assert claim_evidence_errors(make_claim(fn=0.5))


def test_claim_is_immutable():
    claim = make_claim()
    with pytest.raises(dataclasses.FrozenInstanceError):
        claim.node = 9


# Each record a run builds per message, with one value per field, in field order.
RECORDS = [
    (Claim, (3, 7, Detection.CLEAR, make_profile(), 12.5, 900)),
    (ActuationCommand, (7, 3, ActuationAction.HALT, 2)),
    (Decision, (7, Verdict.GO, AggregationSemantics.MAJORITY, (3,), (make_claim(node=3),), ())),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_a_record_init_sets_every_field(cls, values):
    """A hand-written record __init__ takes each field, in field order, and
    the record still behaves as a frozen dataclass: a field added without its
    __init__ line fails here."""
    names = [spec.name for spec in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    positional, keyword = cls(*values), cls(**dict(zip(names, values)))
    assert vars(positional) == dict(zip(names, values))
    assert positional == keyword and hash(positional) == hash(keyword)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(positional, names[0], values[0])
    replaced = dataclasses.replace(positional, **{names[0]: values[0] + 1})
    assert vars(replaced) == {**vars(positional), names[0]: values[0] + 1}


def test_scenario_helpers():
    scenario = make_scenario(node_count=3)
    assert scenario.node_ids() == (1, 2, 3)
    assert scenario.master_node().id == 1
    assert scenario.actuated_ids() == (1,)


class TestValidateScenario:
    def test_well_formed_scenario_has_no_errors(self):
        assert validate_scenario(make_scenario()) == []

    def test_duplicate_node_id_message(self):
        scenario = make_scenario(node_count=3)
        clone = dataclasses.replace(scenario.nodes[2], id=3)
        broken = dataclasses.replace(scenario, nodes=scenario.nodes + (clone,))
        assert "duplicate node id: 3" in validate_scenario(broken)

    def test_negative_node_id_rejected(self):
        scenario = make_scenario()
        bad = dataclasses.replace(scenario.nodes[1], id=-2)
        broken = dataclasses.replace(scenario, nodes=(scenario.nodes[0], bad))
        assert any("integer >= 0" in e for e in validate_scenario(broken))

    def test_node_id_must_fit_a_signed_64_bit_key(self):
        scenario = make_scenario()
        widest = dataclasses.replace(scenario.nodes[1], id=2**63 - 1)
        assert validate_scenario(dataclasses.replace(scenario, nodes=(scenario.nodes[0], widest))) == []
        bad = dataclasses.replace(scenario.nodes[1], id=2**63)
        broken = dataclasses.replace(scenario, nodes=(scenario.nodes[0], bad))
        assert any("nodes[1].id" in e and "< 2^63" in e for e in validate_scenario(broken))

    def test_exactly_one_master_required(self):
        scenario = make_scenario()
        demoted = tuple(dataclasses.replace(n, master=False) for n in scenario.nodes)
        assert any("master" in e for e in validate_scenario(dataclasses.replace(scenario, nodes=demoted)))
        promoted = tuple(dataclasses.replace(n, master=True) for n in scenario.nodes)
        assert any("master" in e for e in validate_scenario(dataclasses.replace(scenario, nodes=promoted)))
        # Only a master that is True counts: a truthy flag is listed, not counted.
        truthy = tuple(dataclasses.replace(n, master="no") for n in scenario.nodes)
        errors = validate_scenario(dataclasses.replace(scenario, nodes=truthy))
        assert errors[-1] == "nodes: exactly one master is required, got 0"

    def test_master_must_be_actuated(self):
        scenario = make_scenario()
        lazy = dataclasses.replace(scenario.nodes[0], actuated=False)
        broken = dataclasses.replace(scenario, nodes=(lazy,) + scenario.nodes[1:])
        assert any("actuated" in e for e in validate_scenario(broken))

    def test_present_pedestrian_needs_a_pose(self):
        scenario = make_scenario(present=True)
        broken = dataclasses.replace(
            scenario, ground_truth=GroundTruth(pedestrian_present=True, pedestrian_pose=None)
        )
        assert any("pedestrian_pose" in e for e in validate_scenario(broken))

    def test_absent_pedestrian_needs_no_pose(self):
        scenario = make_scenario(present=False)
        bare = dataclasses.replace(
            scenario, ground_truth=GroundTruth(pedestrian_present=False, pedestrian_pose=None)
        )
        assert validate_scenario(bare) == []

    def test_latency_bounds_checked(self):
        scenario = make_scenario()
        swapped = dataclasses.replace(
            scenario,
            network=NetworkConfig(latency_min=5000, latency_max=1000, drop_probability=0.0, seed=1),
        )
        assert any("latency" in e for e in validate_scenario(swapped))

    def test_latency_max_must_fit_one_draw(self):
        """A wider latency band cannot be drawn from one 64-bit word: its run
        would never return, so validation refuses it."""
        scenario = make_scenario()
        for latency_max in (2**64, 2**65):
            broken = dataclasses.replace(
                scenario,
                network=NetworkConfig(latency_min=0, latency_max=latency_max, drop_probability=0.0, seed=1),
                settle_interval=latency_max,
            )
            assert [e for e in validate_scenario(broken) if "latency_max" in e and "< 2^64" in e]
        widest = dataclasses.replace(
            scenario,
            network=NetworkConfig(latency_min=0, latency_max=2**64 - 1, drop_probability=0.0, seed=1),
            settle_interval=2**64 - 1,
        )
        assert validate_scenario(widest) == []
        _, metrics = run_once(widest, AggregationSemantics.MAJORITY, seed=3, collect_trace=False)
        assert metrics.decisions == 1

    def test_drop_probability_range_checked(self):
        scenario = make_scenario()
        broken = dataclasses.replace(
            scenario,
            network=NetworkConfig(latency_min=0, latency_max=1, drop_probability=1.5, seed=1),
        )
        assert any("drop_probability" in e for e in validate_scenario(broken))

    def test_seed_range_checked(self):
        scenario = make_scenario()
        broken = dataclasses.replace(
            scenario,
            network=NetworkConfig(latency_min=0, latency_max=1, drop_probability=0.0, seed=2**64),
        )
        assert any("seed" in e for e in validate_scenario(broken))

    def test_session_window_must_be_positive(self):
        broken = dataclasses.replace(make_scenario(), session_window=0)
        assert any("session_window" in e for e in validate_scenario(broken))

    def test_times_must_be_below_two_to_the_64(self):
        """A longer window or settle interval could not be printed in a trace:
        str() refuses an int of more than 4300 digits."""
        scenario = make_scenario()
        for value in (2**64, int("f" * 4000, 16)):
            assert validate_scenario(dataclasses.replace(scenario, session_window=value)) == [
                f"session_window: must be < 2^64, got {shown_value(value)}"
            ]
            assert validate_scenario(dataclasses.replace(scenario, settle_interval=value)) == [
                f"settle_interval: must be < 2^64, got {shown_value(value)}"
            ]
        longest = dataclasses.replace(scenario, session_window=2**64 - 1, settle_interval=2**64 - 1, sessions=2)
        assert validate_scenario(longest) == []
        stream = io.StringIO()
        run_once(longest, AggregationSemantics.MAJORITY, seed=3, collect_trace=False, trace_stream=stream)
        assert f'"t":{4 * (2**64 - 1)},"ev":"session_close","session":2}}' in stream.getvalue()

    def test_settle_interval_must_cover_latency(self):
        broken = dataclasses.replace(make_scenario(latency=(1000, 5000)), settle_interval=4999)
        assert any("settle_interval" in e for e in validate_scenario(broken))

    def test_node_distance_to_the_center_must_be_finite(self):
        # Claims carry this distance as evidence: each coordinate fits a float, their difference does not.
        scenario = make_scenario()
        perception = dataclasses.replace(scenario.perception, query_center=Pose(-1.0e308, 0.0))
        far = dataclasses.replace(scenario.nodes[1], pose=Pose(1.7e308, 0.0))
        broken = dataclasses.replace(
            scenario, perception=perception, nodes=(scenario.nodes[0], far, *scenario.nodes[2:])
        )
        assert validate_scenario(broken) == [
            "nodes[1].pose: distance to query_region_center must be finite, got inf"
        ]
        near = dataclasses.replace(far, pose=Pose(7.0e307, 0.0))
        fixed = dataclasses.replace(broken, nodes=(scenario.nodes[0], near, *scenario.nodes[2:]))
        assert validate_scenario(fixed) == []

    def test_integer_poses_whose_distance_no_float_holds_are_listed(self):
        """A Scenario built in code may hold integer coordinates; their
        difference is too large for math.hypot, which raises OverflowError."""
        scenario = make_scenario()
        perception = dataclasses.replace(scenario.perception, query_center=Pose(-(10**308), 0))
        far = dataclasses.replace(scenario.nodes[1], pose=Pose(10**308, 0))
        broken = dataclasses.replace(
            scenario, perception=perception, nodes=(scenario.nodes[0], far, *scenario.nodes[2:])
        )
        assert validate_scenario(broken) == [
            "nodes[1].pose: distance to query_region_center must be finite, got inf"
        ]

    def test_sessions_must_be_at_least_one(self):
        broken = dataclasses.replace(make_scenario(), sessions=0)
        assert any("sessions" in e for e in validate_scenario(broken))

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "path",
        [
            "nodes[1].id",
            "network.latency_min",
            "network.latency_max",
            "network.seed",
            "session_window",
            "settle_interval",
            "sessions",
        ],
    )
    def test_bools_are_not_integers(self, path, flag):
        scenario = make_scenario()
        section, _, name = path.rpartition(".")
        if section == "nodes[1]":
            node = dataclasses.replace(scenario.nodes[1], id=flag)
            broken = dataclasses.replace(scenario, nodes=(scenario.nodes[0], node, *scenario.nodes[2:]))
        elif section == "network":
            broken = dataclasses.replace(scenario, network=dataclasses.replace(scenario.network, **{name: flag}))
        else:
            broken = dataclasses.replace(scenario, **{name: flag})
        assert any(e.startswith(f"{path}: must be an integer") for e in validate_scenario(broken))

    @pytest.mark.parametrize("attrs, doc, path, value", WRONG_TYPES, ids=CASE_IDS)
    def test_a_field_of_the_wrong_type_is_listed(self, attrs, doc, path, value):
        """Only a library caller can build these: the scenario parser makes
        every section, node, pose, profile and flag itself. A fixed-truth run
        would have traced pedestrian_present=1 as a number, and actuated="no"
        would have sent that node commands. A section or node of the wrong
        type is listed, not read. Each gives one error, at its path; putting
        a non-node in the master's place also leaves no master. run_once and
        a hand-built Simulation refuse the scenario with the validator's
        errors."""
        broken = replaced(make_scenario(present=True), attrs, value)
        errors = validate_scenario(broken)
        at_path = [e for e in errors if e.startswith(f"{path}: ")]
        assert len(at_path) == 1, errors
        assert errors == at_path or errors == [*at_path, "nodes: exactly one master is required, got 0"], errors
        with pytest.raises(ScenarioValidationError) as ran:
            run_once(broken, AggregationSemantics.MAJORITY, seed=1)
        with pytest.raises(ScenarioValidationError) as built:
            Simulation(broken, AggregationSemantics.MAJORITY, 1)
        assert ran.value.errors == built.value.errors == errors

    @pytest.mark.parametrize("attrs, doc, path, value", WRONG_TYPES, ids=CASE_IDS)
    def test_the_same_value_in_a_file_is_a_parse_error(self, attrs, doc, path, value, tmp_path, capsys):
        """The file parser converts by the same tables: the value is refused
        at the same path, with exit code 2. A null where a field may be left
        out parses, and the validator lists it."""
        document = yaml.safe_load(REFERENCE.read_text(encoding="utf-8"))
        *parents, last = doc
        target = document
        for key in parents:
            target = target[key]
        target[last] = list(value) if isinstance(value, tuple) else value
        file = tmp_path / "wrong.scenario"
        file.write_text(yaml.safe_dump(document, sort_keys=False), encoding="utf-8")
        code = cli.main(["validate", str(file)])
        err = capsys.readouterr().err
        if value is None and path == "ground_truth.pedestrian_pose":
            assert (code, err) == (cli.EXIT_VALIDATION, f"validation error: {path}: required when pedestrian_present\n")
        else:
            assert code == cli.EXIT_PARSE
            assert err.startswith(f"parse error: {path}: ") and err.count("\n") == 1, err

    def test_a_node_without_a_sound_id_is_listed_by_that_alone(self):
        """Its pose, sensor and flags are not read, and it takes no part in
        the duplicate-id and distance rules."""
        scenario = make_scenario()
        nodes = scenario.nodes
        node = dataclasses.replace(nodes[1], id=-1, pose=None, sensor=make_profile(fn=0.9), master="no")
        broken = dataclasses.replace(scenario, nodes=(nodes[0], node, nodes[2]))
        assert validate_scenario(broken) == ["nodes[1].id: must be an integer >= 0 and < 2^63, got -1"]

    def test_each_cross_field_problem_follows_the_field_it_names(self):
        """Field problems come in table order, and each cross-field problem
        right after those of the field it follows."""
        scenario = make_scenario(latency=(10, 5), settle=1, sessions=0)
        nodes = scenario.nodes
        nodes = (
            nodes[0],
            dataclasses.replace(nodes[1], id=nodes[0].id, sensor=make_profile(fn=0.7)),
            dataclasses.replace(nodes[2], pose=Pose(1.0e308, 0.0), actuated=None),
        )
        perception = dataclasses.replace(scenario.perception, query_center=Pose(-1.0e308, 0.0))
        broken = dataclasses.replace(
            scenario, nodes=nodes, ground_truth=GroundTruth(True, None), perception=perception
        )
        assert validate_scenario(broken) == [
            "duplicate node id: 1",
            "nodes[1].sensor.base_false_negative: must be in [0.0, 0.5), got 0.7",
            "nodes[2].pose: distance to query_region_center must be finite, got inf",
            "nodes[2].actuated: must be true or false, got None",
            "ground_truth.pedestrian_pose: required when pedestrian_present",
            "network.latency_max: must be >= latency_min, got 5 < 10",
            "settle_interval: must be >= network.latency_max, got 1 < 5",
            "sessions: must be an integer >= 1, got 0",
        ]

    @pytest.mark.parametrize("huge", [2**1024, -(2**1024), 10**400], ids=["2^1024", "-2^1024", "10^400"])
    def test_numbers_no_float_can_hold_are_listed(self, huge):
        scenario = make_scenario()
        node = dataclasses.replace(
            scenario.nodes[1], pose=Pose(huge, 0.0), sensor=make_profile(fn=huge, reach=huge)
        )
        broken = dataclasses.replace(
            scenario,
            nodes=(scenario.nodes[0], node, *scenario.nodes[2:]),
            ground_truth=GroundTruth(pedestrian_present=True, pedestrian_pose=Pose(0.0, huge)),
            perception=PerceptionModel(distance_reference=huge, query_center=Pose(huge, 0.0)),
            network=dataclasses.replace(scenario.network, drop_probability=huge),
        )
        errors = validate_scenario(broken)
        for path in (
            "nodes[1].pose.x",
            "nodes[1].sensor.base_false_negative",
            "nodes[1].sensor.effective_range",
            "ground_truth.pedestrian_pose.y",
            "perception.distance_reference",
            "query_region_center.x",
            "network.drop_probability",
        ):
            assert any(e.startswith(f"{path}: ") for e in errors), path


def test_every_earlier_case_names_a_table_row():
    assert set(EARLIER) <= {path for _, _, path, _ in table_rows(1)}


def test_every_table_field_is_in_the_reference_scenario():
    """scenarios/reference.scenario documents every field: each row's key is
    in it, through its first node for the node's rows."""
    document = yaml.safe_load(REFERENCE.read_text(encoding="utf-8"))
    for _, doc, path, _ in table_rows(0):
        target = document
        for key in doc:
            assert isinstance(target, (dict, list)) and (key in target if isinstance(target, dict) else key < len(target)), path
            target = target[key]


@dataclasses.dataclass(frozen=True)
class Leaf:
    """A throwaway section for the row reader."""

    x: float


@dataclasses.dataclass(frozen=True)
class Section:
    """A throwaway section with one field of each shape a table row takes."""

    plain: int
    leaves: tuple[Leaf, ...]
    ruled: SimTime = _row(("v > 0", "must be > 0, got {}"), root_key="ruled_at_top")
    optional: Leaf | None = None
    flag: bool = False


def test_the_row_reader_reads_each_field_off_its_dataclass():
    """A field without _row has no rules; tuple[X, ...] is a list of X, an
    alias is its type and X | None = None is an X that admits None."""
    assert _table(Leaf) == (_Field("x", float),)
    assert _table(Section) == (
        _Field("plain", int),
        _Field("leaves", Leaf, many=True),
        _Field("ruled", int, (("v > 0", "must be > 0, got {}"),), root_key="ruled_at_top"),
        _Field("optional", Leaf, default=None),
        _Field("flag", bool, default=False),
    )


def test_scenario_is_frozen():
    scenario = make_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.sessions = 5
