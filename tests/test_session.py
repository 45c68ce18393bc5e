"""Session lifecycle: sequential ids, inclusive deadline, exclusion ledger."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard.aggregation import AggregationSemantics, Verdict
from crossguard.model import (
    Detection,
    ExclusionReason,
    ProtocolError,
    SensorKind,
    claim_evidence_valid,
)
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

from helpers import make_claim
from oracles import claim_evidence_errors, oracle_rank

# The node table of a run with nodes 1, 2 and 3, all with sound evidence.
POSITIONS = trust_positions(make_claim(node=node) for node in (1, 2, 3))
# The same nodes, but node 2 registered a NaN distance at set-up.
MALFORMED_2 = trust_positions(make_claim(node=node, distance=float("nan") if node == 2 else 1.0) for node in (1, 2, 3))
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

    def test_malformed_evidence(self):
        assert MALFORMED_2[2] is None
        state = fresh(positions=MALFORMED_2)
        claim = make_claim(node=2, session=state.id, distance=float("nan"))
        assert classify_claim(state, claim, 130000) is ExclusionReason.MALFORMED_EVIDENCE

    def test_a_claim_is_judged_by_its_nodes_evidence_as_registered(self):
        """The node table, not the claim's own evidence, decides malformed."""
        sound = make_claim(node=2, session=1)
        broken = make_claim(node=2, session=1, distance=float("nan"))
        assert classify_claim(fresh(positions=MALFORMED_2), sound, 130000) is ExclusionReason.MALFORMED_EVIDENCE
        assert classify_claim(fresh(), broken, 130000) is None

    def test_stale_session_id_counts_as_late(self):
        """A claim tagged for session 3 arriving during session 4 is Late."""
        state = fresh(session_id=4)
        claim = make_claim(node=2, session=3)
        assert classify_claim(state, claim, 130000) is ExclusionReason.LATE

    def test_unknown_node_outranks_every_other_reason(self):
        state = fresh(positions=MALFORMED_2)
        claim = make_claim(node=9, session=99, distance=float("nan"))
        assert classify_claim(state, claim, 999999) is ExclusionReason.UNKNOWN_NODE

    def test_malformed_outranks_duplicate_and_late(self):
        # Only the order of the checks is under test: a run never accepts a
        # claim from a node with malformed evidence, so node 2 is put in by hand.
        state = fresh(positions=MALFORMED_2)
        state.received[2] = make_claim(node=2, session=state.id)
        broken = make_claim(node=2, session=state.id, distance=float("nan"))
        assert classify_claim(state, broken, 999999) is ExclusionReason.MALFORMED_EVIDENCE

    def test_duplicate_outranks_late(self):
        state = fresh()
        accept_claim(state, make_claim(node=2, session=state.id), 130000)
        again = make_claim(node=2, session=state.id, distance=3.0)
        assert classify_claim(state, again, 999999) is ExclusionReason.DUPLICATE


# Evidence values a master cannot take on faith: bools pass as ints in Python,
# ints are fine, NaN and infinities are not finite, the rate bound is open, and
# no float can hold an int of 2^1024 or more.
ODD_VALUES = [
    True, False, 0, 1, -1, 3, float("nan"), float("inf"), float("-inf"), -0.25, -0.0, 0.0, 0.5, 0.25, 40.0,
    2**1024, -(2**1024),
]
ODD_KINDS = ["lidar", None, 3, Detection.CLEAR]
EVIDENCE_FIELDS = ["base_false_negative", "base_false_positive", "effective_range", "distance_to_target"]


def with_evidence(claim, **changes):
    """The claim with some profile or distance fields replaced, unchecked."""
    distance = changes.pop("distance_to_target", claim.distance_to_target)
    profile = dataclasses.replace(claim.profile, **changes)
    return dataclasses.replace(claim, profile=profile, distance_to_target=distance)


class TestEvidenceCheck:
    """The node table maps a node to None, and classify_claim books its
    claims MALFORMED_EVIDENCE, exactly when claim_evidence_errors finds a
    problem in its evidence; the check builds none of those messages."""

    @staticmethod
    def assert_agrees(claim):
        errors = claim_evidence_errors(claim)
        assert claim_evidence_valid(claim) is (not errors)
        positions = trust_positions([claim])
        assert positions == {claim.node: None if errors else 0}
        reason = classify_claim(fresh(positions=positions), claim, 130000)
        assert reason is (ExclusionReason.MALFORMED_EVIDENCE if errors else None), errors

    @pytest.mark.parametrize("field", EVIDENCE_FIELDS)
    @pytest.mark.parametrize("value", ODD_VALUES, ids=repr)
    def test_each_field_against_each_odd_value(self, field, value):
        self.assert_agrees(with_evidence(make_claim(node=2), **{field: value}))

    @pytest.mark.parametrize("kind", [*SensorKind, *ODD_KINDS], ids=repr)
    def test_sensor_kinds(self, kind):
        self.assert_agrees(with_evidence(make_claim(node=2), kind=kind))

    @pytest.mark.parametrize("profile", [None, "lidar", (SensorKind.LIDAR, 0.1, 0.1, 50.0)], ids=repr)
    def test_a_profile_that_is_not_a_sensor_profile(self, profile):
        claim = dataclasses.replace(make_claim(node=2), profile=profile)
        assert len(claim_evidence_errors(claim)) == 1
        self.assert_agrees(claim)
        assert trust_positions([Evidence(1, profile, 1.0)]) == {1: None}

    @given(
        kind=st.sampled_from([*SensorKind, *ODD_KINDS]),
        values=st.lists(
            st.one_of(
                st.sampled_from(ODD_VALUES),
                st.integers(min_value=-(10**6), max_value=10**6),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_evidence(self, kind, values):
        self.assert_agrees(with_evidence(make_claim(node=2), kind=kind, **dict(zip(EVIDENCE_FIELDS, values))))


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
