"""Fail-safe actuation: verdicts become per-node halt/proceed commands.

Commands for a session are issued in ascending node id order so replays and
logs always agree on who was told what, and stale commands from older
sessions can never override a newer instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .aggregation import Decision, Verdict
from .model import NodeId, ProtocolError, SessionId


class ActuationAction(Enum):
    HALT = "halt"
    PROCEED = "proceed"


class MotionState(Enum):
    MOVING = "moving"
    HALTED = "halted"


_ACTION_FOR_VERDICT = {
    Verdict.STOP: ActuationAction.HALT,
    Verdict.GO: ActuationAction.PROCEED,
}

_STATE_FOR_ACTION = {
    ActuationAction.HALT: MotionState.HALTED,
    ActuationAction.PROCEED: MotionState.MOVING,
}


@dataclass(frozen=True)
class ActuationCommand:
    """One instruction to one actuated node, tagged with its issue position."""

    session: SessionId
    target: NodeId
    action: ActuationAction
    issue_order: int


@dataclass
class NodeMotion:
    """An actuated node's motion state plus the newest session it obeyed."""

    state: MotionState = MotionState.MOVING
    latest_session: SessionId | None = None


def sequence_actuation(decision: Decision, actuated_nodes: tuple[NodeId, ...]) -> list[ActuationCommand]:
    """Commands for every actuated node, in the order given, which must be
    ascending node id order with no repeats, as Scenario.actuated_ids holds them."""
    if not actuated_nodes:
        raise ProtocolError("sequence_actuation called with no actuated nodes")
    action = _ACTION_FOR_VERDICT[decision.verdict]
    # Positional: keywords make this frozen dataclass's __init__ markedly slower.
    return [ActuationCommand(decision.session, node, action, order) for order, node in enumerate(actuated_nodes)]


def apply_command(motion: NodeMotion, command: ActuationCommand) -> bool:
    """Apply one delivered command; returns False when discarded as stale.

    Commands are idempotent, so replaying the current session's command is
    harmless; only strictly older sessions are refused.
    """
    if motion.latest_session is not None and command.session < motion.latest_session:
        return False
    motion.state = _STATE_FOR_ACTION[command.action]
    motion.latest_session = command.session
    return True
