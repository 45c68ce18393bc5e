"""Query-session lifecycle on the master node.

Sessions are strictly sequential: Collecting until an inclusive deadline,
Decided while actuation settles, then Closed before the next one may open.
Every delivered claim is either accepted exactly once or booked with an
exclusion reason, so nothing delivered goes unaccounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .aggregation import AggregationSemantics, Decision, Verdict, decide
from .model import (
    Claim,
    ExclusionReason,
    NodeId,
    ProtocolError,
    SessionId,
    SimTime,
)
from .trust import Evidence, rank


class SessionPhase(Enum):
    COLLECTING = "collecting"
    DECIDED = "decided"
    CLOSED = "closed"


# Members read per session or per claim: a global costs no Enum class lookup.
_COLLECTING = SessionPhase.COLLECTING
_DECIDED = SessionPhase.DECIDED
_CLOSED = SessionPhase.CLOSED
_STOP = Verdict.STOP


@dataclass
class SessionState:
    """Mutable bookkeeping for one session; owned by the master's session loop."""

    id: SessionId
    deadline: SimTime
    positions: dict[NodeId, int]
    phase: SessionPhase = SessionPhase.COLLECTING
    received: dict[NodeId, Claim] = field(default_factory=dict)
    exclusions: list[tuple[Claim, ExclusionReason]] = field(default_factory=list)


def open_session(
    previous: SessionState | None, now: SimTime, window: SimTime, positions: dict[NodeId, int]
) -> SessionState:
    """Start the next session; ids are consecutive from 1 with no gaps.

    `positions` is the run's node table, a trust_positions map: the session
    judges and ranks every claim by it.
    """
    if previous is not None and previous.phase is not _CLOSED:
        raise ProtocolError(
            f"session {previous.id} is still {previous.phase.value}; sessions may not overlap"
        )
    next_id = 1 if previous is None else previous.id + 1
    return SessionState(next_id, now + window, positions)


def classify_claim(state: SessionState, claim: Claim, arrival: SimTime) -> ExclusionReason | None:
    """First applicable exclusion reason, or None when the claim is usable.

    Reasons are checked in a fixed priority so a claim that is wrong in
    several ways is always booked the same way. A node missing from the
    session's positions is unknown; a run's claims all come from its
    scenario's nodes, so only a library caller's claim can be. A claim
    tagged with an old session id counts as Late: the window it answered
    has already passed. A claim delivered after the decision arrived after
    the deadline, so it too is Late.
    """
    if claim.node not in state.positions:
        return ExclusionReason.UNKNOWN_NODE
    if claim.node in state.received:
        return ExclusionReason.DUPLICATE
    if arrival > state.deadline or claim.session != state.id:
        return ExclusionReason.LATE
    return None


def accept_claim(state: SessionState, claim: Claim, arrival: SimTime) -> ExclusionReason | None:
    """Record one delivered claim, first claim per node wins.

    Returns the exclusion reason it was booked under, or None if accepted.
    Exclusions keep accruing after the decision so the closed session still
    accounts for every claim delivered during its lifetime.
    """
    if state.phase is _CLOSED:
        raise ProtocolError(f"claim delivered to closed session {state.id}")
    reason = classify_claim(state, claim, arrival)
    if reason is None:
        state.received[claim.node] = claim
    else:
        state.exclusions.append((claim, reason))
    return reason


def trust_positions(evidence: Iterable[Claim | Evidence]) -> dict[NodeId, int]:
    """A run's node table: each node's position in rank's order, 0 the most
    trusted.

    The evidence comes from a validated scenario, so it is ranked as given,
    by one rank call; a node id given twice is rank's ProtocolError. A
    node's evidence never changes during a run, and trust_key ends in the
    node id, so the order is strict: sorting any subset of the nodes by
    position gives the ranking of that subset.
    """
    return {node: position for position, node in enumerate(rank(list(evidence)))}


def close_and_decide(state: SessionState, now: SimTime, semantics: AggregationSemantics) -> Decision:
    """Freeze the claim set at the deadline and produce the verdict.

    The ranking orders the accepted nodes by the session's positions; only
    a node with a position is ever accepted. An empty claim set means Stop.
    """
    if state.phase is not _COLLECTING:
        raise ProtocolError(f"session {state.id} already {state.phase.value}")
    if now < state.deadline:
        raise ProtocolError(
            f"session {state.id} closing at {now} before its deadline {state.deadline}"
        )
    received = state.received
    used = tuple([received[node] for node in sorted(received)])
    ranking = tuple(sorted(received, key=state.positions.__getitem__))
    verdict = decide(list(used), list(ranking), semantics) if used else _STOP
    # Positional: keywords cost some 45% more.
    decision = Decision(state.id, verdict, semantics, ranking, used, tuple(state.exclusions))
    state.phase = _DECIDED
    return decision


def mark_closed(state: SessionState) -> None:
    """Retire a decided session; only then may a successor open."""
    if state.phase is not _DECIDED:
        raise ProtocolError(f"cannot close session {state.id} while {state.phase.value}")
    state.phase = _CLOSED
