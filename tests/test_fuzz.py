"""Fuzz gates: every input the library or the CLI accepts ends cleanly.

Library: hypothesis draws scenarios at the edges the validator admits:
node ids up to 2^63 - 1, coordinates up to +-1e308, drop probabilities 0,
0.2 and 1, latency bands in which two hops outlast the collection window,
one to four sessions, every semantics, both truth modes and seeds up to
2^64 - 1. Each accepted scenario must run to a trace of plain JSON whose
records have their declared keys, and whose metrics read the same however
they are booked, by a hand-built Simulation, by run_once or from the trace;
a hand-built Simulation refuses each other one with the validator's errors.

CLI: hypothesis mutates the bundled scenario files (deleted, unknown and
non-string keys, wrong types, huge ints and floats, deep nesting, long hex
literals, bytes that are not UTF-8) and draws odd arguments for validate,
run and sweep. Every call must end in exit 0, 2, 3 or 4 without a
traceback.

Both searches are derandomized, so every run tries the same examples.
"""

from __future__ import annotations

import copy
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossguard import cli
from crossguard.aggregation import AggregationSemantics
from crossguard.model import (
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
from crossguard.runner import TRUTH_MODES, MetricsCollector, Simulation, run_once
from crossguard.scenario import ScenarioValidationError
from crossguard.trace import RECORD_KINDS

from helpers import INTERSECTION, REFERENCE, record_keys

KEYS = {(kind.ev, kind.shape): record_keys(kind) for kind in RECORD_KINDS}

NEAR = st.floats(min_value=-100.0, max_value=100.0)
FAR = st.one_of(
    st.sampled_from([0.0, 1.0e308, -1.0e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
POSITIVE = st.one_of(
    st.floats(min_value=0.5, max_value=100.0),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
RATE = st.floats(min_value=0.0, max_value=0.5, exclude_max=True)


@st.composite
def scenarios(draw) -> Scenario:
    """A scenario that passes validate_scenario, except that some node's
    distance to the query-region center may overflow a float."""
    coordinate = FAR if draw(st.booleans()) else NEAR

    def pose() -> Pose:
        return Pose(draw(coordinate), draw(coordinate))

    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6, unique=True))
    master = draw(st.sampled_from(ids))
    nodes = tuple(
        NodeSpec(
            id=node,
            pose=pose(),
            sensor=SensorProfile(draw(st.sampled_from(SensorKind)), draw(RATE), draw(RATE), draw(POSITIVE)),
            master=node == master,
            actuated=node == master or draw(st.booleans()),
        )
        for node in ids
    )
    present = draw(st.booleans())
    pedestrian = pose() if present or draw(st.booleans()) else None
    latency_max = draw(st.one_of(st.integers(0, 60_000), st.integers(2**63, 2**64 - 1)))
    latency_min = draw(st.integers(0, latency_max))
    return Scenario(
        nodes=nodes,
        ground_truth=GroundTruth(pedestrian_present=present, pedestrian_pose=pedestrian),
        perception=PerceptionModel(distance_reference=draw(POSITIVE), query_center=pose()),
        network=NetworkConfig(
            latency_min=latency_min,
            latency_max=latency_max,
            drop_probability=draw(st.sampled_from([0.0, 0.2, 1.0])),
            seed=draw(st.integers(0, 2**64 - 1)),
        ),
        # Up to two full hops: a claim can land after its session's deadline.
        session_window=draw(st.integers(1, min(2 * latency_max + 1, 2**64 - 1))),
        settle_interval=min(latency_max + draw(st.integers(0, 1000)), 2**64 - 1),
        sessions=draw(st.integers(1, 4)),
    )


def refuse_constant(name: str):
    raise AssertionError(f"the trace holds {name}, which is not JSON")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    scenario=scenarios(),
    semantics=st.sampled_from(AggregationSemantics),
    truth_mode=st.sampled_from(TRUTH_MODES),
    seed=st.integers(0, 2**64 - 1),
)
def test_every_validated_scenario_runs_to_a_clean_trace(scenario, semantics, truth_mode, seed):
    errors = validate_scenario(scenario)
    if errors:
        # The one rule the strategy leaves to the validator.
        center = scenario.perception.query_center
        assert errors == [
            f"nodes[{i}].pose: distance to query_region_center must be finite, got inf"
            for i, node in enumerate(scenario.nodes)
            if not math.isfinite(node.pose.distance_to(center))
        ]
        with pytest.raises(ScenarioValidationError) as refused:
            Simulation(scenario, semantics, seed, truth_mode)
        assert refused.value.errors == errors
        return

    # Lean from a hand-built Simulation, traced from run_once: both must book the same.
    simulation = Simulation(scenario, semantics, seed, truth_mode)
    simulation.run()
    lean = simulation.metrics
    stream = io.StringIO()
    _, traced = run_once(scenario, semantics, seed, truth_mode, collect_trace=False, trace_stream=stream)
    replay = MetricsCollector()
    for line in stream.getvalue().splitlines():
        record = json.loads(line, parse_constant=refuse_constant)
        ev = record["ev"]
        shape = record["kind"].replace("_", " ") if ev == "send" else ""
        assert tuple(record) == KEYS[ev, shape], record
        if ev == "decision" and not record["used"]:
            assert record["verdict"] == "stop", record
        replay.feed(record)
    assert lean == traced == replay.metrics
    assert lean.decisions == scenario.sessions


# -- CLI ---------------------------------------------------------------------

BUNDLED = tuple(yaml.safe_load(path.read_text(encoding="utf-8")) for path in (INTERSECTION, REFERENCE))
# YAML written into the file as it stands, where a placeholder was dumped:
# ("raw", text). Hex literals build ints past the digit limit of str(int);
# hypothesis draws the first entries most, so the longest come first.
HEX = tuple(("raw", sign + "0x" + "f" * digits) for digits in (4000, 1100, 17, 16) for sign in ("", "-"))
RAW = tuple(
    ("raw", text)
    for text in (
        # Past the recursion limit from 500 lists deep; PyYAML takes about
        # 1 s to give up on 1000 nested lists, and 0.2 s on 600.
        *("[" * depth + "]" * depth for depth in (600, 400, 60, 1)),
        *("{a: " * depth + "1" + "}" * depth for depth in (1000, 60)),
        "9" * 5000,
        "1.0e+400",
        "190:20:30",
    )
) + HEX
INTS = st.one_of(
    st.sampled_from([0, -1, 1, 2, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**400]),
    st.sampled_from(HEX),
    st.integers(-(2**70), 2**70),
)
FLOATS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1e308, -1e308, 5e-324]), st.floats())
NUMBERS = st.one_of(INTS, FLOATS)
LEAVES = st.one_of(
    NUMBERS,
    st.sampled_from(RAW),
    # Copied: a later mutation may grow a drawn list or mapping.
    st.sampled_from([None, True, False, "", "lidar", [], {}]).map(copy.copy),
    st.text(max_size=4),
)
ODD_KEYS = st.one_of(
    st.sampled_from(["bogus", "", "Nodes", "seed"]),
    st.sampled_from([None, True, 0, 7, -1, 2**64, 1.5]),
    st.sampled_from(HEX),
)
SESSIONS_CAP = 3  # more sessions only make a valid scenario run longer
DEFAULT_RECURSION_LIMIT = 1000  # CPython's
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # libyaml's, when built, is the faster


def positions(node: dict | list, found: list) -> list:
    """Every (container, key) pair under node, depth first."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        found.append((node, key))
        if isinstance(value, (dict, list)):
            positions(value, found)
    return found


@st.composite
def scenario_files(draw) -> bytes:
    """A bundled scenario with one or two mutations, as the bytes of a file.

    Hypothesis starts from the simplest draws (0, the first option), so the
    first options are the mild ones: most files then get past the parser.
    """
    root = {"document": copy.deepcopy(draw(st.sampled_from(BUNDLED)))}
    raws: list[str] = []

    def place(value):
        if isinstance(value, tuple):  # ("raw", text): dumped as a placeholder
            raws.append(value[1])
            return f"zzraw{len(raws) - 1}zz"
        return value

    for _ in range(draw(st.integers(1, 2))):
        spots = positions(root, [])[::-1]  # the whole document last
        if not spots:
            break
        operation = draw(st.sampled_from(["resize", "replace", "delete", "add"]))
        numbers = [spot for spot in spots if type(spot[0][spot[1]]) in (int, float)]
        if operation == "resize" and numbers:
            # A number of the field's own type and any size: it reaches the
            # validator, and the run if the validator lets it through.
            ints = [spot for spot in numbers if type(spot[0][spot[1]]) is int]
            container, key = draw(st.sampled_from(ints if ints and not draw(st.booleans()) else numbers))
            container[key] = place(draw(INTS if type(container[key]) is int else FLOATS))
            continue
        container, key = draw(st.sampled_from(spots))
        if operation == "replace":
            container[key] = place(draw(LEAVES))
        elif operation == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[place(draw(ODD_KEYS))] = place(draw(LEAVES))
        else:
            container.append(place(draw(LEAVES)))
    document = root.get("document")
    if isinstance(document, dict) and "sessions" in document:
        sessions = document["sessions"]
        if isinstance(sessions, str) and sessions.startswith("zzraw") and raws[int(sessions[5:-2])][0].isdigit():
            document["sessions"] = SESSIONS_CAP  # a positive literal, which may validate
        elif isinstance(sessions, int) and sessions > SESSIONS_CAP:
            document["sessions"] = SESSIONS_CAP
    text = yaml.dump(document, Dumper=DUMPER, sort_keys=False)
    for index, raw in enumerate(raws):
        text = text.replace(f"zzraw{index}zz", raw)
    data = text.encode("utf-8")
    if draw(st.integers(0, 20)) == 20:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\t"])) + data[at:]
    return data


# {dir} is the example's scratch directory, {scenario} the drawn file in it.
NAMES = [semantics.value for semantics in AggregationSemantics]
# Each option's (valid, odd) values; sessions and seed counts stay small.
OPTIONS = {
    "validate": {},
    "run": {
        "--semantics": (NAMES, ["all", "bogus", ""]),
        "--seed": (["0", "5", str(2**64 - 1), " 7 "], [str(2**64), "-1", "abc", "", "0x10", "9" * 5000]),
        "--truth": (["fixed", "alternating"], ["bogus"]),
        "--trace": (["{dir}/trace.ndjson"], ["{dir}", "{dir}/missing/trace.ndjson", ""]),
    },
    "sweep": {
        "--semantics": (["all", "majority,expert_override", "majority,,majority"], [",", "", "bogus,majority"]),
        "--seeds": (["1", "2", "3"], ["0", "-1", "abc", "1e3", "9" * 5000]),
        "--truth": (["fixed", "alternating"], ["bogus"]),
        "--out": (["{dir}/out", "{dir}/a/b"], ["{scenario}"]),
    },
}
STRAYS = ["--bogus", "-h", "extra", "--seeds", "--trace"]


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    if draw(st.integers(0, 15)) < 15:
        argv.append("{scenario}")
    elif draw(st.booleans()):
        argv.append(draw(st.sampled_from(["{dir}", "{dir}/missing.scenario"])))
    options = OPTIONS[command]
    flags = draw(st.lists(st.sampled_from(sorted(options)), unique=True)) if options else []
    if command == "run" and "--trace" not in flags and not draw(st.booleans()):
        flags.append("--trace")  # a traced run prints every value the scenario holds
    for flag in flags:
        valid, odd = options[flag]
        argv += [flag, draw(st.sampled_from(odd if draw(st.integers(0, 5)) == 5 else valid))]
    if draw(st.integers(0, 15)) == 15:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAYS)))
    return argv


def bundled_with(old: str, new: str) -> bytes:
    text = INTERSECTION.read_text(encoding="utf-8")
    assert text.count(old) == 1
    return text.replace(old, new).encode("utf-8")


# Inputs that once ended in a traceback, tried on every run besides the search.
@example(data=bundled_with("sessions: 1", "sessions: " + "[" * 600 + "]" * 600), argv=["validate", "{scenario}"])
@example(data=bundled_with("latency_max: 8000", "latency_max: -0x" + "f" * 4000), argv=["run", "{scenario}"])
@example(
    data=bundled_with("session_window: 50000", "session_window: 0x" + "f" * 4000),
    argv=["run", "{scenario}", "--trace", "{dir}/trace.ndjson"],
)
@example(data=INTERSECTION.read_bytes() + b"\xff\n", argv=["validate", "{scenario}"])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=scenario_files(), argv=command_lines())
def test_every_cli_call_ends_in_an_exit_code_without_a_traceback(data, argv):
    with tempfile.TemporaryDirectory() as scratch:
        scenario = Path(scratch) / "fuzz.scenario"
        scenario.write_bytes(data)
        argv = [arg.format(dir=scratch, scenario=scenario) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        # Hypothesis raises the recursion limit while a test runs; the command
        # line runs under the interpreter's default, where deep YAML fails.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse: 2 on a usage error, 0 after -h
            code = exc.code
        finally:
            sys.setrecursionlimit(limit)
    message = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, message)
    assert "Traceback" not in message
    if code:
        assert message.strip(), argv
