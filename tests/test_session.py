"""Session lifecycle: sequential ids, inclusive deadline, exclusion ledger."""

from __future__ import annotations

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard.aggregation import AggregationSemantics, Verdict
from crossguard.model import (
    Detection,
    ExclusionReason,
    ProtocolError,
    SensorKind,
    validate_scenario,
)
from crossguard.runner import Simulation
from crossguard.session import (
    SessionPhase,
    accept_claim,
    classify_claim,
    close_and_decide,
    mark_closed,
    open_session,
    trust_positions,
)
from crossguard.trust import Evidence, rank

from helpers import make_claim, make_scenario, random_scenario
from oracles import claim_evidence_errors, oracle_rank

# The node table of a run with nodes 1, 2 and 3.
POSITIONS = trust_positions(make_claim(node=node) for node in (1, 2, 3))
SEMANTICS = AggregationSemantics.MAJORITY


def fresh(opened_at=120000, window=50000, session_id=None, positions=POSITIONS):
    state = open_session(None, opened_at, window, positions)
    if session_id is not None:
        state.id = session_id
    return state


class TestOpenSession:
    def test_first_session_gets_id_one(self):
        state = open_session(None, 0, 50000, POSITIONS)
        assert state.id == 1
        assert state.phase is SessionPhase.COLLECTING

    def test_ids_are_consecutive(self):
        first = open_session(None, 0, 50000, POSITIONS)
        close_and_decide(first, first.deadline, SEMANTICS)
        mark_closed(first)
        second = open_session(first, first.deadline + 1, 50000, POSITIONS)
        assert second.id == 2

    def test_deadline_is_open_plus_window(self):
        state = open_session(None, 120000, 50000, POSITIONS)
        assert state.deadline == 170000

    def test_cannot_open_over_a_live_session(self):
        first = open_session(None, 0, 50000, POSITIONS)
        with pytest.raises(ProtocolError):
            open_session(first, 10, 50000, POSITIONS)
        close_and_decide(first, first.deadline, SEMANTICS)
        with pytest.raises(ProtocolError):
            open_session(first, first.deadline, 50000, POSITIONS)


class TestClassifyClaim:
    def test_clean_claim_is_usable(self):
        state = fresh()
        claim = make_claim(node=2, session=state.id)
        assert classify_claim(state, claim, 150000) is None

    def test_arrival_exactly_at_deadline_is_usable(self):
        """The deadline is inclusive: 170 000 is inside a window ending there."""
        state = fresh(opened_at=120000, window=50000)
        claim = make_claim(node=2, session=state.id)
        assert classify_claim(state, claim, 170000) is None
        assert classify_claim(state, claim, 170001) is ExclusionReason.LATE

    def test_unknown_node(self):
        state = fresh()
        claim = make_claim(node=9, session=state.id)
        assert classify_claim(state, claim, 130000) is ExclusionReason.UNKNOWN_NODE

    def test_stale_session_id_counts_as_late(self):
        """A claim tagged for session 3 arriving during session 4 is Late."""
        state = fresh(session_id=4)
        claim = make_claim(node=2, session=3)
        assert classify_claim(state, claim, 130000) is ExclusionReason.LATE

    def test_unknown_node_outranks_every_other_reason(self):
        # Node 9 is put in by hand so the claim is also a duplicate, besides
        # stale, past the deadline and carrying broken evidence.
        state = fresh()
        state.received[9] = make_claim(node=9, session=state.id)
        claim = make_claim(node=9, session=99, distance=float("nan"))
        assert classify_claim(state, claim, 999999) is ExclusionReason.UNKNOWN_NODE

    def test_duplicate_outranks_late(self):
        state = fresh()
        accept_claim(state, make_claim(node=2, session=state.id), 130000)
        again = make_claim(node=2, session=state.id, distance=3.0)
        assert classify_claim(state, again, 999999) is ExclusionReason.DUPLICATE


# Evidence values a master cannot take on faith: bools pass as ints in Python,
# ints are fine, NaN and infinities are not finite, the rate bound is open, no
# float can hold an int of 2^1024 or more, and a pose at the largest float
# overflows its distance when its other coordinate is as far out.
ODD_VALUES = [
    True, False, 0, 1, -1, 3, float("nan"), float("inf"), float("-inf"), -0.25, -0.0, 0.0, 0.5, 0.25, 40.0,
    2**1024, -(2**1024), sys.float_info.max, -sys.float_info.max,
]
ODD_KINDS = ["lidar", None, 3, Detection.CLEAR]
# A node's evidence is its sensor profile and its pose's distance to the query center.
EVIDENCE_FIELDS = ["base_false_negative", "base_false_positive", "effective_range", "x", "y"]


def with_node_evidence(scenario, **changes):
    """The scenario with some of node 2's sensor or pose fields, or with its
    whole sensor, replaced, unchecked."""
    pose = {name: changes.pop(name) for name in ("x", "y") if name in changes}

    def changed(node):
        sensor = changes["sensor"] if "sensor" in changes else dataclasses.replace(node.sensor, **changes)
        return dataclasses.replace(node, pose=dataclasses.replace(node.pose, **pose), sensor=sensor)

    return dataclasses.replace(scenario, nodes=tuple(changed(node) if node.id == 2 else node for node in scenario.nodes))


def assert_valid_means_sound_evidence(scenario):
    """trust_positions takes a run's evidence unchecked. That is sound because
    every scenario validate_scenario passes gives each node evidence that
    claim_evidence_errors finds no problem in, as a Simulation registers it."""
    if validate_scenario(scenario):
        return
    sim = Simulation(scenario, AggregationSemantics.MAJORITY, 0)
    evidence = [Evidence(node, profile, distance) for node, (profile, distance, _, _) in sim.sensors.items()]
    assert [claim_evidence_errors(item) for item in evidence] == [[] for _ in evidence]
    assert sorted(sim.trust_positions.values()) == list(range(len(evidence)))


class TestEvidenceCheck:
    """validate_scenario is the only check on a run's evidence: any odd value
    in a node's sensor or pose that would make its evidence malformed must be
    refused there."""

    @pytest.mark.parametrize("field", EVIDENCE_FIELDS)
    @pytest.mark.parametrize("value", ODD_VALUES, ids=repr)
    def test_each_field_against_each_odd_value(self, field, value):
        assert_valid_means_sound_evidence(with_node_evidence(make_scenario(), **{field: value}))

    @pytest.mark.parametrize("kind", [*SensorKind, *ODD_KINDS], ids=repr)
    def test_sensor_kinds(self, kind):
        scenario = with_node_evidence(make_scenario(), kind=kind)
        assert (validate_scenario(scenario) == []) is isinstance(kind, SensorKind)
        assert_valid_means_sound_evidence(scenario)

    @pytest.mark.parametrize("sensor", [None, "lidar", (SensorKind.LIDAR, 0.1, 0.1, 50.0)], ids=repr)
    def test_a_sensor_that_is_not_a_sensor_profile(self, sensor):
        scenario = with_node_evidence(make_scenario(), sensor=sensor)
        assert validate_scenario(scenario) != []
        assert_valid_means_sound_evidence(scenario)

    @pytest.mark.parametrize("y", [sys.float_info.max, -sys.float_info.max])
    def test_a_pose_whose_distance_overflows(self, y):
        scenario = with_node_evidence(make_scenario(), x=sys.float_info.max, y=y)
        assert validate_scenario(scenario) != []
        assert_valid_means_sound_evidence(scenario)

    @given(
        kind=st.sampled_from([*SensorKind, *ODD_KINDS]),
        values=st.lists(
            st.one_of(
                st.sampled_from(ODD_VALUES),
                st.integers(min_value=-(10**6), max_value=10**6),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=len(EVIDENCE_FIELDS),
            max_size=len(EVIDENCE_FIELDS),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_evidence(self, kind, values):
        assert_valid_means_sound_evidence(
            with_node_evidence(make_scenario(), kind=kind, **dict(zip(EVIDENCE_FIELDS, values)))
        )

    def test_random_scenarios(self):
        for draw in range(3000):
            scenario = random_scenario(random.Random(draw))
            assert validate_scenario(scenario) == [], draw
            assert_valid_means_sound_evidence(scenario)


class TestAcceptClaim:
    def test_first_claim_per_node_wins(self):
        state = fresh()
        first = make_claim(node=2, session=state.id, distance=1.0)
        second = make_claim(node=2, session=state.id, distance=9.0)
        assert accept_claim(state, first, 130000) is None
        assert accept_claim(state, second, 131000) is ExclusionReason.DUPLICATE
        assert state.received[2] is first
        assert state.exclusions == [(second, ExclusionReason.DUPLICATE)]

    def test_exclusions_keep_accruing_after_the_decision(self):
        state = fresh()
        close_and_decide(state, state.deadline, SEMANTICS)
        straggler = make_claim(node=2, session=state.id)
        assert accept_claim(state, straggler, state.deadline + 5) is ExclusionReason.LATE
        assert state.exclusions == [(straggler, ExclusionReason.LATE)]

    def test_delivery_to_closed_session_is_a_protocol_error(self):
        state = fresh()
        close_and_decide(state, state.deadline, SEMANTICS)
        mark_closed(state)
        with pytest.raises(ProtocolError):
            accept_claim(state, make_claim(node=2, session=state.id), state.deadline + 11)


class TestCloseAndDecide:
    def test_cannot_close_before_the_deadline(self):
        state = fresh()
        with pytest.raises(ProtocolError):
            close_and_decide(state, state.deadline - 1, SEMANTICS)

    def test_cannot_decide_twice(self):
        state = fresh()
        close_and_decide(state, state.deadline, SEMANTICS)
        with pytest.raises(ProtocolError):
            close_and_decide(state, state.deadline, SEMANTICS)

    def test_empty_claim_set_fails_safe_to_stop(self):
        state = fresh()
        decision = close_and_decide(state, state.deadline, SEMANTICS)
        assert decision.verdict is Verdict.STOP
        assert decision.ranking == ()
        assert decision.used_claims == ()
        assert state.phase is SessionPhase.DECIDED

    def test_decision_snapshot_is_complete(self):
        state = fresh()
        kept = make_claim(node=2, session=state.id)
        accept_claim(state, kept, 130000)
        dupe = make_claim(node=2, session=state.id, distance=2.0)
        accept_claim(state, dupe, 131000)
        accept_claim(state, make_claim(node=3, session=state.id), 132000)
        decision = close_and_decide(state, state.deadline, SEMANTICS)
        assert decision.session == state.id
        assert decision.semantics is SEMANTICS
        assert [c.node for c in decision.used_claims] == [2, 3]
        assert sorted(decision.ranking) == [2, 3]
        assert decision.excluded_claims == ((dupe, ExclusionReason.DUPLICATE),)

    def test_conservation_of_delivered_claims(self):
        state = fresh()
        deliveries = [
            make_claim(node=2, session=state.id),
            make_claim(node=3, session=state.id),
            make_claim(node=2, session=state.id, distance=2.0),
            make_claim(node=9, session=state.id),
        ]
        for arrival, claim in enumerate(deliveries, start=130000):
            accept_claim(state, claim, arrival)
        assert len(state.received) + len(state.exclusions) == len(deliveries)


class TestMarkClosed:
    def test_requires_a_decision_first(self):
        state = fresh()
        with pytest.raises(ProtocolError):
            mark_closed(state)

    def test_closes_a_decided_session(self):
        state = fresh()
        close_and_decide(state, state.deadline, SEMANTICS)
        mark_closed(state)
        assert state.phase is SessionPhase.CLOSED


@pytest.mark.parametrize("second_distance", [1.0, float("nan")], ids=["sound", "malformed"])
@pytest.mark.parametrize("first_distance", [1.0, float("nan")], ids=["sound", "malformed"])
def test_a_node_given_twice_in_the_node_table_is_a_protocol_error(first_distance, second_distance):
    with pytest.raises(ProtocolError, match="node 2"):
        trust_positions([make_claim(node=2, distance=first_distance), make_claim(node=2, distance=second_distance)])


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_set_up_positions_rank_any_subset_like_rank_and_the_oracle(data):
    """A run fixes each node's trust position once from its evidence. Sorting
    any session's claims by position must give rank's and the pairwise
    oracle's order of that subset, and close_and_decide must rank by it."""
    nodes = data.draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8, unique=True))
    claims = {
        node: make_claim(
            node=node,
            kind=data.draw(st.sampled_from(list(SensorKind))),
            distance=data.draw(st.sampled_from([0.0, 1.0, 5.0, 14.25])),
            fn=data.draw(st.sampled_from([0.01, 0.1])),
            fp=data.draw(st.sampled_from([0.01, 0.1])),
        )
        for node in nodes
    }
    positions = trust_positions(
        Evidence(claim.node, claim.profile, claim.distance_to_target) for claim in claims.values()
    )
    subset = [claims[node] for node in data.draw(st.lists(st.sampled_from(nodes), unique=True))]
    by_position = sorted((claim.node for claim in subset), key=positions.__getitem__)
    assert by_position == rank(subset) == oracle_rank(subset)
    state = fresh(positions=positions)
    for claim in subset:
        assert accept_claim(state, claim, state.deadline) is None
    decision = close_and_decide(state, state.deadline, SEMANTICS)
    assert list(decision.ranking) == by_position
