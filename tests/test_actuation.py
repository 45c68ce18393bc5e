"""Command sequencing and stale-command protection."""

from __future__ import annotations

import pytest

from crossguard.actuation import (
    ActuationAction,
    ActuationCommand,
    MotionState,
    NodeMotion,
    apply_command,
    sequence_actuation,
)
from crossguard.aggregation import AggregationSemantics, Decision, Verdict
from crossguard.model import ProtocolError


def decision_with(verdict, session=1):
    return Decision(
        session=session,
        verdict=verdict,
        semantics=AggregationSemantics.MAJORITY,
        ranking=(),
        used_claims=(),
        excluded_claims=(),
    )


class TestSequenceActuation:
    def test_stop_halts_every_actuated_node_in_id_order(self):
        commands = sequence_actuation(decision_with(Verdict.STOP), (2, 5, 9))
        assert [c.target for c in commands] == [2, 5, 9]
        assert [c.issue_order for c in commands] == [0, 1, 2]
        assert all(c.action is ActuationAction.HALT for c in commands)
        assert all(c.session == 1 for c in commands)

    def test_go_proceeds(self):
        commands = sequence_actuation(decision_with(Verdict.GO, session=4), (3,))
        assert commands == [
            ActuationCommand(session=4, target=3, action=ActuationAction.PROCEED, issue_order=0)
        ]

    def test_no_actuated_nodes_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            sequence_actuation(decision_with(Verdict.STOP), ())

    def test_anything_but_go_halts(self):
        """Fail-safe: a verdict that is not Verdict.GO, even one that is no
        Verdict at all, halts, and so does a command whose action is not PROCEED."""
        [command] = sequence_actuation(decision_with("go"), (3,))
        assert command.action is ActuationAction.HALT
        motion = NodeMotion()
        assert apply_command(motion, ActuationCommand(session=1, target=3, action="proceed", issue_order=0))
        assert motion.state is MotionState.HALTED


class TestApplyCommand:
    def test_halt_stops_a_moving_node(self):
        motion = NodeMotion()
        halt = ActuationCommand(session=1, target=2, action=ActuationAction.HALT, issue_order=0)
        assert apply_command(motion, halt) is True
        assert motion.state is MotionState.HALTED
        assert motion.latest_session == 1

    def test_proceed_releases_a_halted_node(self):
        motion = NodeMotion(state=MotionState.HALTED, latest_session=1)
        go = ActuationCommand(session=2, target=2, action=ActuationAction.PROCEED, issue_order=0)
        assert apply_command(motion, go) is True
        assert motion.state is MotionState.MOVING

    def test_commands_are_idempotent(self):
        motion = NodeMotion()
        halt = ActuationCommand(session=3, target=2, action=ActuationAction.HALT, issue_order=0)
        assert apply_command(motion, halt) is True
        assert apply_command(motion, halt) is True
        assert motion.state is MotionState.HALTED
        assert motion.latest_session == 3

    def test_stale_command_is_discarded(self):
        """A session 1 command arriving after session 2's must not act."""
        motion = NodeMotion()
        newer = ActuationCommand(session=2, target=2, action=ActuationAction.PROCEED, issue_order=0)
        older = ActuationCommand(session=1, target=2, action=ActuationAction.HALT, issue_order=0)
        apply_command(motion, newer)
        assert apply_command(motion, older) is False
        assert motion.state is MotionState.MOVING
        assert motion.latest_session == 2
