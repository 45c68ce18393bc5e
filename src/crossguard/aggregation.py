"""Decision semantics over a session's accepted claims.

All four rules share one safety posture: any tie or doubt resolves to Stop.
Only the aggregation differs; the caller supplies the trust ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .model import Claim, Detection, ExclusionReason, NodeId, ProtocolError, SessionId


class Verdict(Enum):
    """The master's actuation-facing answer for one session."""

    GO = "go"
    STOP = "stop"


class AggregationSemantics(Enum):
    """Pluggable rules for combining claims into a verdict."""

    UNANIMITY_SAFE = "unanimity_safe"
    MAJORITY = "majority"
    TRUST_WEIGHTED_MAJORITY = "trust_weighted_majority"
    EXPERT_OVERRIDE = "expert_override"


# Members read per session: a global costs no Enum class lookup.
_GO, _STOP, _CLEAR = Verdict.GO, Verdict.STOP, Detection.CLEAR
_UNANIMITY_SAFE, _MAJORITY = AggregationSemantics.UNANIMITY_SAFE, AggregationSemantics.MAJORITY
_TRUST_WEIGHTED_MAJORITY = AggregationSemantics.TRUST_WEIGHTED_MAJORITY
_EXPERT_OVERRIDE = AggregationSemantics.EXPERT_OVERRIDE


@dataclass(frozen=True, init=False)
class Decision:
    """Verdict plus full provenance for one session."""

    session: SessionId
    verdict: Verdict
    semantics: AggregationSemantics
    ranking: tuple[NodeId, ...]
    used_claims: tuple[Claim, ...]
    excluded_claims: tuple[tuple[Claim, ExclusionReason], ...]

    def __init__(self, session, verdict, semantics, ranking, used_claims, excluded_claims) -> None:
        object.__setattr__(self, "__dict__", {"session": session, "verdict": verdict, "semantics": semantics,
            "ranking": ranking, "used_claims": used_claims, "excluded_claims": excluded_claims})


def decide(
    claims: list[Claim],
    ranking: list[NodeId],
    semantics: AggregationSemantics,
) -> Verdict:
    """Check a non-empty claim set and its ranking, then apply one semantics.

    `ranking` must be a permutation of the claim nodes, most trusted first.
    The verdict is verdict_of on each claim's "clear" flag in that order.
    The empty-claims fail-safe is the session layer's job, not ours.
    """
    if not claims:
        raise ProtocolError("decide() requires at least one claim")
    by_node = {claim.node: claim for claim in claims}
    if len(by_node) != len(claims):
        raise ProtocolError("decide() received duplicate claims for one node")
    if sorted(by_node) != sorted(ranking) or len(ranking) != len(claims):
        raise ProtocolError("ranking is not a permutation of the claim nodes")
    return verdict_of([by_node[node].detection is _CLEAR for node in ranking], semantics)


def verdict_of(clear: Sequence[bool], semantics: AggregationSemantics) -> Verdict:
    """One semantics' verdict on a ranked claim set, unchecked.

    `clear` holds each claim's "clear" flag, most trusted claim first. An
    empty claim set is Stop: silence is never evidence of a clear crossing.
    """
    total = len(clear)
    if not total:
        return _STOP

    if semantics is _UNANIMITY_SAFE:
        return _GO if all(clear) else _STOP

    if semantics is _MAJORITY:
        # Ties go to Stop.
        clear_count = sum(clear)
        return _GO if clear_count > total - clear_count else _STOP

    if semantics is _TRUST_WEIGHTED_MAJORITY:
        # Rank-linear weights: position i of n carries weight n - i. Steeper
        # laws such as doubling collapse onto the top claim alone, because the
        # leader then outweighs everyone below combined.
        clear_weight = sum(total - position for position, flag in enumerate(clear) if flag)
        detected_weight = total * (total + 1) // 2 - clear_weight
        return _GO if clear_weight > detected_weight else _STOP

    if semantics is _EXPERT_OVERRIDE:
        return _GO if clear[0] else _STOP

    raise ProtocolError(f"unhandled semantics {semantics!r}")
