"""Decision semantics against an independent enumeration oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard.aggregation import AggregationSemantics, Verdict, decide, verdict_of
from crossguard.model import Detection, ProtocolError, SensorKind
from crossguard.trust import rank

from helpers import make_claim
from oracles import (
    all_detection_patterns,
    claim_set_variants,
    oracle_decide,
    power_of_two_decide,
    with_detections,
)

CLEAR = Detection.CLEAR
DETECTED = Detection.PEDESTRIAN_DETECTED


def triple(expert_detection: Detection, peer_detection: Detection = CLEAR):
    """Near lidar expert plus two far cameras, mirroring the bundled layout."""
    return [
        make_claim(node=1, kind=SensorKind.RGB_CAMERA, distance=14.0, detection=peer_detection),
        make_claim(node=2, kind=SensorKind.OPTICAL_CAMERA, distance=14.0, detection=peer_detection),
        make_claim(node=3, kind=SensorKind.LIDAR, distance=1.4, detection=expert_detection),
    ]


class TestUnanimitySafe:
    def test_all_clear_goes(self):
        claims = triple(CLEAR)
        assert decide(claims, rank(claims), AggregationSemantics.UNANIMITY_SAFE) is Verdict.GO

    def test_any_detection_stops(self):
        claims = triple(DETECTED)
        assert decide(claims, rank(claims), AggregationSemantics.UNANIMITY_SAFE) is Verdict.STOP


class TestMajority:
    def test_strict_majority_of_clear_goes(self):
        claims = triple(DETECTED)
        assert decide(claims, rank(claims), AggregationSemantics.MAJORITY) is Verdict.GO

    def test_tie_stops(self):
        claims = [
            make_claim(node=1, detection=CLEAR),
            make_claim(node=2, detection=DETECTED),
        ]
        assert decide(claims, rank(claims), AggregationSemantics.MAJORITY) is Verdict.STOP


class TestTrustWeightedMajority:
    def test_top_weight_tie_stops(self):
        """Weights 3, 2, 1: a detected expert ties the two clear peers."""
        claims = triple(DETECTED)
        verdict = decide(claims, rank(claims), AggregationSemantics.TRUST_WEIGHTED_MAJORITY)
        assert verdict is Verdict.STOP

    def test_lower_ranks_can_outvote_the_top(self):
        """Weights 4, 3, 2, 1: three clear peers beat one detected expert."""
        claims = triple(DETECTED) + [
            make_claim(node=4, kind=SensorKind.RGB_CAMERA, distance=20.0, detection=CLEAR)
        ]
        verdict = decide(claims, rank(claims), AggregationSemantics.TRUST_WEIGHTED_MAJORITY)
        assert verdict is Verdict.GO

    def test_power_of_two_weights_collapse_to_the_top_claim(self):
        """Documentation: weighting rank i by 2**(n-1-i) makes the top claim
        outweigh everyone below it combined, so that scheme is just the
        single-expert semantics in disguise. The rank-linear weights used
        here avoid that degeneration."""
        for size in (2, 3, 4, 5):
            for claims in claim_set_variants(size, 5, seed=21):
                ranking = rank(claims)
                top = ranking[0]
                for pattern in all_detection_patterns(size):
                    assigned = with_detections(claims, pattern)
                    top_claim = next(c for c in assigned if c.node == top)
                    expected = (
                        Verdict.GO if top_claim.detection is CLEAR else Verdict.STOP
                    )
                    assert power_of_two_decide(assigned, ranking) is expected


class TestExpertOverride:
    def test_detected_expert_stops_despite_clear_majority(self):
        claims = triple(DETECTED)
        assert decide(claims, rank(claims), AggregationSemantics.EXPERT_OVERRIDE) is Verdict.STOP

    def test_clear_expert_goes_despite_detected_majority(self):
        claims = triple(CLEAR, peer_detection=DETECTED)
        assert decide(claims, rank(claims), AggregationSemantics.EXPERT_OVERRIDE) is Verdict.GO


def test_divergent_semantics_on_the_same_claims():
    """Two clear cameras plus one detected lidar split the semantics."""
    claims = triple(DETECTED)
    ranking = rank(claims)
    assert decide(claims, ranking, AggregationSemantics.EXPERT_OVERRIDE) is Verdict.STOP
    assert decide(claims, ranking, AggregationSemantics.MAJORITY) is Verdict.GO


class TestDecideValidation:
    def test_empty_claim_set_rejected(self):
        with pytest.raises(ProtocolError):
            decide([], [], AggregationSemantics.MAJORITY)

    def test_duplicate_nodes_rejected(self):
        claims = [make_claim(node=1), make_claim(node=1, distance=2.0)]
        with pytest.raises(ProtocolError):
            decide(claims, [1, 1], AggregationSemantics.MAJORITY)

    def test_ranking_must_be_a_permutation_of_the_claims(self):
        claims = triple(CLEAR)
        with pytest.raises(ProtocolError):
            decide(claims, [1, 2], AggregationSemantics.MAJORITY)
        with pytest.raises(ProtocolError):
            decide(claims, [1, 2, 9], AggregationSemantics.MAJORITY)


def test_all_semantics_match_enumeration_oracle_up_to_three_nodes():
    """The exhaustive four-node sweep lives in the acceptance suite; this is
    the fast inner loop run on every push."""
    for size in (1, 2, 3):
        for claims in claim_set_variants(size, 10, seed=30):
            ranking = rank(claims)
            for pattern in all_detection_patterns(size):
                assigned = with_detections(claims, pattern)
                for semantics in AggregationSemantics:
                    got = decide(assigned, ranking, semantics)
                    assert got is oracle_decide(assigned, semantics)


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_verdict_of_the_ranked_clear_flags_matches_decide_and_the_oracle(data):
    """The unchecked core, given each claim's clear flag in rank order, agrees
    with decide and the oracle for every semantics."""
    claims = [
        make_claim(
            node=node,
            detection=data.draw(st.sampled_from([CLEAR, DETECTED])),
            kind=data.draw(st.sampled_from(list(SensorKind))),
            distance=data.draw(st.sampled_from([1.0, 5.0, 14.25])),
        )
        for node in range(1, data.draw(st.integers(min_value=1, max_value=7)) + 1)
    ]
    ranking = rank(claims)
    by_node = {claim.node: claim for claim in claims}
    clear = [by_node[node].detection is CLEAR for node in ranking]
    for semantics in AggregationSemantics:
        assert verdict_of(clear, semantics) is decide(claims, ranking, semantics) is oracle_decide(claims, semantics)


@pytest.mark.parametrize("semantics", list(AggregationSemantics))
def test_verdict_of_an_empty_claim_set_is_stop(semantics):
    assert verdict_of([], semantics) is Verdict.STOP
