"""Symbolic trust ranking over claim evidence.

Claims are ordered by a lexicographic key: sensor quality tier first, then
proximity to the queried region, then baseline accuracy, then node id as a
final tie-break. The key depends only on evidence, never on what the claim
says, so flipping a detection can never change the ranking, and a node's
evidence alone (an Evidence) ranks the same as any claim it sends.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Claim, NodeId, ProtocolError, SensorProfile


class Evidence(NamedTuple):
    """The part of a claim the ranking reads: who sent it and its sensor evidence."""

    node: NodeId
    profile: SensorProfile
    distance_to_target: float


class TrustKey(NamedTuple):
    """Comparable evidence summary; a greater key means more trustworthy."""

    sensor_tier: int
    neg_distance: float
    neg_error_sum: float
    node_tiebreak: int


def trust_key(claim: Claim | Evidence) -> TrustKey:
    """The ranking key for one claim, or for a node's evidence."""
    profile = claim.profile
    return TrustKey(
        sensor_tier=profile.kind.tier,
        neg_distance=-claim.distance_to_target,
        neg_error_sum=-(profile.base_false_negative + profile.base_false_positive),
        node_tiebreak=-claim.node,
    )


def rank(claims: list[Claim | Evidence]) -> list[NodeId]:
    """Node ids from most to least trustworthy.

    The lower-node-id tie-break makes this a strict total order, so the
    result is a permutation independent of input order.
    """
    seen: set[NodeId] = set()
    for claim in claims:
        if claim.node in seen:
            raise ProtocolError(f"duplicate claim from node {claim.node} in ranking input")
        seen.add(claim.node)
    ordered = sorted(claims, key=trust_key, reverse=True)
    return [claim.node for claim in ordered]
