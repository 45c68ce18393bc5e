"""Deterministic simulator for a collaborative go/stop decision layer.

Heterogeneous nodes around a crossing share binary perception claims with
sensor-quality evidence; a master node trust-ranks the claims, aggregates
them under pluggable semantics, and issues fail-safe actuation commands.
"""

from .actuation import ActuationAction, ActuationCommand, MotionState, NodeMotion
from .aggregation import AggregationSemantics, Decision, Verdict, decide
from .model import (
    Claim,
    Detection,
    ExclusionReason,
    GroundTruth,
    NetworkConfig,
    NodeId,
    NodeSpec,
    PerceptionModel,
    Pose,
    ProtocolError,
    Scenario,
    SensorKind,
    SensorProfile,
    SessionId,
    SimTime,
    validate_scenario,
)
from .perception import detection_rates, effective_error_rates, sense
from .runner import RunMetrics, SweepResult, SweepRow, run_once, run_sweep
from .scenario import ScenarioParseError, ScenarioValidationError, load_scenario, parse_scenario
from .session import SessionPhase, SessionState, accept_claim, close_and_decide, open_session
from .trust import TrustKey, rank, trust_key

__version__ = "0.1.0"

__all__ = [
    "ActuationAction",
    "ActuationCommand",
    "AggregationSemantics",
    "Claim",
    "Decision",
    "Detection",
    "ExclusionReason",
    "GroundTruth",
    "MotionState",
    "NetworkConfig",
    "NodeId",
    "NodeMotion",
    "NodeSpec",
    "PerceptionModel",
    "Pose",
    "ProtocolError",
    "RunMetrics",
    "Scenario",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SensorKind",
    "SensorProfile",
    "SessionId",
    "SessionPhase",
    "SessionState",
    "SimTime",
    "SweepResult",
    "SweepRow",
    "TrustKey",
    "Verdict",
    "accept_claim",
    "close_and_decide",
    "decide",
    "detection_rates",
    "effective_error_rates",
    "load_scenario",
    "open_session",
    "parse_scenario",
    "rank",
    "run_once",
    "run_sweep",
    "sense",
    "trust_key",
    "validate_scenario",
]
