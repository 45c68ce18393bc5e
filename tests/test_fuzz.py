"""Library fuzz gate: every scenario that validate_scenario accepts runs cleanly.

Hypothesis draws scenarios at the edges the validator admits: node ids up
to 2^63 - 1, coordinates up to +-1e308, drop probabilities 0, 0.2 and 1,
latency bands in which two hops outlast the collection window, one to four
sessions, every semantics, both truth modes and seeds up to 2^64 - 1. Each
accepted scenario must run to a trace of plain JSON whose records have
their declared keys, and whose metrics read the same however they are
booked. The search is derandomized, so every run tries the same examples.
"""

from __future__ import annotations

import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

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
from crossguard.runner import TRUTH_MODES, MetricsCollector, run_once
from crossguard.trace import RECORD_KINDS

KEYS = {(kind.ev, kind.shape): kind.keys for kind in RECORD_KINDS}

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
        session_window=draw(st.integers(1, 2 * latency_max + 1)),
        settle_interval=latency_max + draw(st.integers(0, 1000)),
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
        return

    _, lean = run_once(scenario, semantics, seed, truth_mode, collect_trace=False)
    stream = io.StringIO()
    _, traced = run_once(scenario, semantics, seed, truth_mode, collect_trace=False, trace_stream=stream)
    replay = MetricsCollector()
    for line in stream.getvalue().splitlines():
        record = json.loads(line, parse_constant=refuse_constant)
        ev = record["ev"]
        shape = record["kind"].replace("_", " ") if ev == "send" else ""
        assert tuple(record) == KEYS[ev, shape], record
        # Validation makes actuation land before the next session decides.
        assert ev != "stale_command", record
        if ev == "decision" and not record["used"]:
            assert record["verdict"] == "stop", record
        replay.feed(record)
    assert lean == traced == replay.metrics
    assert lean.decisions == scenario.sessions
