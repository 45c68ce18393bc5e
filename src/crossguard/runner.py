"""End-to-end simulation runs and the Monte Carlo sweep harness.

This module holds the protocol, the trace and the metrics. A Simulation
plays both sides of the protocol, the master's sessions and every node's
sensing and actuation, over the deterministic network, which only numbers
messages and draws copies. The run owns its queue of message copies in
flight: it builds each kept copy as a plain tuple, queues it, and
Simulation._deliver_until unpacks and dispatches it as it pops it. The
sessions are a loop in Simulation.run. A session start is numbered once
and drawn copy by copy; each claim and command, one copy each, is numbered
and drawn by Network.send; every run applies a kept command as it draws
it. A traced run queues every kept copy, to write its lines in due order, a
command's holding only its actuated line; a lean run, one with no sink,
answers start copies as it draws them, so it queues only claims and the
master's own start copies due after the deadline. A run books each outcome
in its RunMetrics as it happens and makes trace lines only when it is
given a sink, a callable that takes each line, newline included: every
kind's line is its trace.write template % its values but decision's, which
is its record through dumps_record, and a claim send's, whose template,
one per node, is cut once per run by trace.template with the node's fields
filled in through claim_payload. run_once's sink is its stream's write, or
lines.append to collect records, parsed once. MetricsCollector replays a
stored trace.

No draw, sequence number or claim set depends on a verdict, so one
run can also decide further semantics on each session's frozen claim set,
each arm booked in full in its own RunMetrics. A Simulation checks its own
scenario and arguments; run_once only picks where records go and checks the
sums. A sweep sets up once, then simulates each seed once on that set-up
and decides every arm on the same claim sets (common random numbers).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from .actuation import NodeMotion, apply_command, sequence_actuation
from .aggregation import AggregationSemantics, Verdict, verdict_of
from .determinism import SEED_BOUND, sense_stream
from .model import (
    Claim,
    Detection,
    ExclusionReason,
    NodeId,
    ProtocolError,
    Scenario,
    SessionId,
    SimTime,
    validate_scenario,
)
from .netsim import EventQueue, MessageKind, Network
from .perception import detection_rates, sense
from .scenario import ScenarioValidationError
from .session import (
    SessionPhase,
    SessionState,
    accept_claim,
    close_and_decide,
    mark_closed,
    open_session,
    trust_positions,
)
from .trace import ENUM_HOLE, HOLE, claim_payload, dumps_record, dumps_records, template, write
from .trust import Evidence

TRUTH_MODES = ("fixed", "alternating")
# The RunMetrics counts that depend on the verdict, hence differ between arms.
VERDICT_COUNTS = ("decisions", "stops", "gos", "false_go_count", "false_stop_count")


@dataclass
class SoloStats:
    """Counterfactual scoring of one node's own claims against truth."""

    claims: int = 0
    errors: int = 0

    @property
    def error_rate(self) -> float:
        return self.errors / self.claims if self.claims else 0.0


_EXCLUSION_REASONS = tuple(reason.value for reason in ExclusionReason)


def _zero_exclusions() -> dict[str, int]:
    return dict.fromkeys(_EXCLUSION_REASONS, 0)


@dataclass
class RunMetrics:
    """Aggregated outcomes of one run."""

    decisions: int = 0
    stops: int = 0
    gos: int = 0
    false_go_count: int = 0
    false_stop_count: int = 0
    exclusions: dict[str, int] = field(default_factory=_zero_exclusions)
    solo: dict[NodeId, SoloStats] = field(default_factory=dict)

    @property
    def error_rate(self) -> float:
        wrong = self.false_go_count + self.false_stop_count
        return wrong / self.decisions if self.decisions else 0.0

    def solo_error_rate(self, node: NodeId) -> float:
        return self.solo[node].error_rate

    def score_claim(self, node: NodeId, detected: bool, present: bool) -> None:
        """Score a node's own claim against its session's ground truth."""
        stats = self.solo.get(node)
        if stats is None:
            stats = self.solo[node] = SoloStats()
        stats.claims += 1
        if detected != present:
            stats.errors += 1

    def count_verdict(self, stop: bool, present: bool) -> None:
        """Book one session's verdict against that session's ground truth."""
        self.decisions += 1
        if stop:
            self.stops += 1
            if not present:
                self.false_stop_count += 1
        else:
            self.gos += 1
            if present:
                self.false_go_count += 1

    def add_verdicts(self, other: RunMetrics) -> None:
        """Add another run's VERDICT_COUNTS alone to these."""
        self.decisions += other.decisions
        self.stops += other.stops
        self.gos += other.gos
        self.false_go_count += other.false_go_count
        self.false_stop_count += other.false_stop_count

    def add(self, other: RunMetrics) -> None:
        """Add another run's counts, exclusions and solo claims to these."""
        self.add_verdicts(other)
        for reason, count in other.exclusions.items():
            self.exclusions[reason] += count
        solo = self.solo
        for node, stats in other.solo.items():
            mine = solo.get(node)
            if mine is None:
                mine = solo[node] = SoloStats()
            mine.claims += stats.claims
            mine.errors += stats.errors


# Enum members looked up once: the Simulation's handlers run for every event.
# Trace records read a member's value as _value_, which skips the descriptor
# call behind Enum.value.
_SESSION_START = MessageKind.SESSION_START
_CLAIM = MessageKind.CLAIM
_ACTUATION = MessageKind.ACTUATION
_DETECTED = Detection.PEDESTRIAN_DETECTED
_CLEAR = Detection.CLEAR
_STOP = Verdict.STOP
_CLOSED = SessionPhase.CLOSED
_LATE = ExclusionReason.LATE.value


def _claim_line(node: NodeId, master: NodeId, profile, distance: float) -> str:
    """node's claim send template. Its holes are t, seq, session, detection and emitted_at, the only
    fields that change between its claims."""
    claim = claim_payload(Claim(node, HOLE, _CLEAR, profile, distance, HOLE))
    claim["detection"] = ENUM_HOLE
    return template("send_claim", kind=_CLAIM._value_, src=node, dst=master, claim=claim)


class MetricsCollector:
    """Books a stored trace's records, fed in order, into RunMetrics.

    Each session's truth is read from its session_open record and kept,
    so memory grows with the sessions replayed; a live run keeps none.
    """

    def __init__(self) -> None:
        self.metrics = RunMetrics()
        self._truth: dict[SessionId, bool] = {}

    def feed(self, record: dict) -> None:
        """Book one stored trace record, as the run that wrote it did."""
        metrics = self.metrics
        ev = record["ev"]
        if ev == "send":
            if record["kind"] == "claim":
                claim = record["claim"]
                detected = claim["detection"] == "pedestrian_detected"
                metrics.score_claim(claim["node"], detected, self._truth[claim["session"]])
        elif ev == "session_open":
            self._truth[record["session"]] = record["pedestrian_present"]
        elif ev == "decision":
            metrics.count_verdict(record["verdict"] == "stop", self._truth[record["session"]])
        elif ev == "claim_excluded":
            metrics.exclusions[record["reason"]] += 1
        elif ev == "claim_orphan":
            metrics.exclusions[_LATE] += 1  # landed after the final session closed


class _Setup:
    """What a run fixes from its scenario alone, validated once and shared read-only by every seed's run."""

    def __init__(self, scenario: Scenario) -> None:
        errors = validate_scenario(scenario)
        if errors:
            raise ScenarioValidationError(errors)
        self.scenario = scenario
        self.master_id = scenario.master_node().id
        self.node_ids = sorted(scenario.node_ids())
        self.actuated = scenario.actuated_ids()
        # (profile, evidence distance, miss, ghost) per node, evidence distance measured to the query-region center.
        perception = scenario.perception
        self.sensors = {
            spec.id: (spec.sensor, spec.pose.distance_to(perception.query_center))
            + detection_rates(spec.pose, spec.sensor, scenario.ground_truth, perception)
            for spec in scenario.nodes
        }
        # Evidence is fixed too: the node table ranks every session's claims.
        self.trust_positions = trust_positions(
            Evidence(node, profile, distance) for node, (profile, distance, _, _) in self.sensors.items()
        )


class Simulation:
    """One scenario, one seed, driven to quiescence.

    It plays the master's sessions, one after another in run(), and every
    node's sensing and actuation, with per-node state in dicts keyed by
    node id. Each outcome is booked in `metrics` as it happens. A trace
    line is made only when `sink` is given: each trace site makes its
    record's line, newline included, and passes it to sink once, in trace
    order, so with sink=lines.append, "".join(lines) is the run's trace text.
    With no sink the run is lean: the same seqs, draws and metrics, solo's
    key order aside. Lean and traced runs draw start copies in _open_next,
    claims in _on_session_start and commands in _decide alike, and apply a
    kept command as they draw it; only what they queue differs. Every copy
    in the queue is one the run built and scheduled, so each kind reaches
    only the handler for it.
    `semantics` drives the run: its verdicts are actuated and traced. Each
    of `extra_semantics` is decided on the same frozen claim sets and only
    counted, in the matching entry of `extra_metrics`, which holds the run's
    own exclusions and solo objects. The node table, trust_positions,
    is fixed once from the validated scenario's evidence, unchecked again:
    every session ranks a claim by its node's position. `scenario` may be a
    _Setup, which run_sweep makes once for all its seeds. An invalid
    scenario raises ScenarioValidationError; then a seed of None means
    network.seed, and a semantics that is not an AggregationSemantics, an
    extra_semantics that is not a list or tuple of them, a seed not an int
    in [0, 2^64), an unknown truth_mode or a sink that is neither None nor
    callable raises ValueError, all before anything is built. Every run
    applies each session's commands at its deadline, in session order, so
    none is refused; a refusal, which only a patched apply_command brings
    about, is a ProtocolError.
    """

    def __init__(
        self,
        scenario: Scenario | _Setup,
        semantics: AggregationSemantics,
        seed: int | None,
        truth_mode: str = "fixed",
        sink: object = None,
        extra_semantics: Sequence[AggregationSemantics] = (),
    ) -> None:
        setup = scenario if isinstance(scenario, _Setup) else _Setup(scenario)
        scenario = setup.scenario
        seed = scenario.network.seed if seed is None else seed
        if not isinstance(semantics, AggregationSemantics):
            raise ValueError(f"semantics must be an AggregationSemantics member, got {semantics!r}")
        _check_semantics("extra_semantics", extra_semantics)
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < SEED_BOUND:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        if truth_mode not in TRUTH_MODES:
            raise ValueError(f"truth_mode must be one of {TRUTH_MODES}, got {truth_mode!r}")
        if sink is not None and not callable(sink):
            raise ValueError(f"sink must be None or a callable that takes each trace line, got {sink!r}")
        present = scenario.ground_truth.pedestrian_present
        # Presence by session parity: alternating truth flips even sessions.
        self._present_by_parity = (not present if truth_mode == "alternating" else present, present)
        self.scenario = scenario
        self.semantics = semantics
        self.extra_semantics = tuple(extra_semantics)
        self.metrics = metrics = RunMetrics()
        # Every arm shares the run's ledger: exclusions and solo claims never depend on the verdict.
        self.extra_metrics = [RunMetrics(exclusions=metrics.exclusions, solo=metrics.solo) for _ in extra_semantics]
        self.seed = seed
        # Never one that holds self: the cycle would leave each run to the cyclic GC.
        self.sink = sink

        self.master_id = setup.master_id
        self.actuated = setup.actuated
        self.queue = EventQueue()
        self.network = Network(setup.node_ids, scenario.network, seed)
        self.sensors = setup.sensors
        self.trust_positions = setup.trust_positions
        # Each node's claim send template, made for this run alone: a claim send fills in only its five holes.
        self._claim_lines = None if sink is None else {
            node: _claim_line(node, self.master_id, profile, distance)
            for node, (profile, distance, _, _) in self.sensors.items()
        }
        self.motions = {node: NodeMotion() for node in self.actuated}  # only an actuated node is sent a command
        self.state: SessionState | None = None

    def truth_for(self, session: SessionId) -> bool:
        """Whether a pedestrian is present in this session."""
        return self._present_by_parity[session % 2]

    def run(self) -> None:
        """Play the sessions in turn, then deliver what is still in flight; a second call is a ProtocolError.

        Each session opens, takes every delivery due at or before its
        deadline, decides, takes every delivery due at or before the end of
        its settle interval and closes; the next opens at that instant.
        Deliveries due at a boundary are handled before it; what the
        boundary itself sends is handled after it.
        """
        if self.state is not None:
            raise ProtocolError("a Simulation runs once")
        settle = self.scenario.settle_interval
        now = 0
        for _ in range(self.scenario.sessions):
            state = self._open_next(now)
            self._deliver_until(state.deadline)
            self._decide(state)
            now = state.deadline + settle
            self._deliver_until(now)
            mark_closed(state)
            if self.sink is not None:
                self.sink(write.session_close % (now, state.id))
        self._deliver_until(math.inf)

    def _deliver_until(self, bound: SimTime | float) -> None:
        """Pop and dispatch every copy due at or before bound, each traced as delivered first."""
        pop = self.queue.pop
        sink = self.sink
        while (copy := pop(bound)) is not None:
            now, src, seq, recipient, kind, sent_at, payload = copy
            if sink is not None:
                sink(write.deliver % (now, kind._value_, src, recipient, seq, sent_at))
            if kind is _SESSION_START:
                self._on_session_start(now, recipient, payload)
            elif kind is _CLAIM:
                self._on_claim(now, payload)
            else:
                sink(payload)  # a command's actuated line: only a traced run queues a command

    # -- master-side protocol steps -------------------------------------

    def _open_next(self, now: SimTime) -> SessionState:
        # The start is numbered once and drawn for every node, the master included. A traced run writes its send line
        # and each dropped copy's and queues every kept copy. A lean run answers each kept copy as it is drawn; only the
        # master's own copy due after the deadline waits, so that its claim is numbered after the deadline's commands.
        self.state = state = open_session(self.state, now, self.scenario.session_window, self.trust_positions)
        sink, network, master, session = self.sink, self.network, self.master_id, state.id
        seq = network.number(master)
        if sink is not None:
            sink(write.session_open[self.truth_for(session)] % (now, session, state.deadline))
            sink(write.send_session_start % (now, _SESSION_START._value_, master, seq))
        for node in network.node_ids:
            if (latency := network.latency(master, seq, node)) is None:
                if sink is not None:
                    sink(write.drop % (now, _SESSION_START._value_, master, node, seq))
            elif sink is not None or node == master and now + latency > state.deadline:
                self.queue.schedule((now + latency, master, seq, node, _SESSION_START, now, session))
            else:
                self._on_session_start(now + latency, node, session)
        return state

    def _on_claim(self, now: SimTime, claim: Claim) -> None:
        state = self.state
        if state.phase is _CLOSED:
            # Landed after the final session closed; booked run-wide as late.
            self.metrics.exclusions[_LATE] += 1
            if self.sink is not None:
                self.sink(write.claim_orphan % (now, claim.node, claim.session))
            return
        reason = accept_claim(state, claim, now)
        if reason is not None:
            self.metrics.exclusions[reason._value_] += 1
        if self.sink is None:
            return
        if reason is None:
            self.sink(write.claim_accepted % (now, state.id, claim.node, claim.session))
        else:
            self.sink(write.claim_excluded % (now, state.id, claim.node, claim.session, reason._value_))

    def _decide(self, state: SessionState) -> None:
        now = state.deadline
        decision = close_and_decide(state, now, self.semantics)
        present = self.truth_for(state.id)
        self.metrics.count_verdict(decision.verdict is _STOP, present)
        if self.extra_semantics:
            received = state.received
            clear = [received[node].detection is _CLEAR for node in decision.ranking]
            for semantics, metrics in zip(self.extra_semantics, self.extra_metrics):
                metrics.count_verdict(verdict_of(clear, semantics) is _STOP, present)
        if self.sink is not None:
            record = {
                "t": now,
                "ev": "decision",
                "session": decision.session,
                "verdict": decision.verdict._value_,
                "semantics": decision.semantics._value_,
                "ranking": list(decision.ranking),
                "used": [claim.node for claim in decision.used_claims],
                "excluded": [
                    {"node": claim.node, "claim_session": claim.session, "reason": reason._value_}
                    for claim, reason in decision.excluded_claims
                ],
            }
            self.sink(dumps_record(record) + "\n")
        # Each command is drawn and, if kept, applied at the deadline, as it lands before the next session decides. A
        # traced run writes its send and drop lines, and queues a kept copy's actuated line for its delivery to write.
        sink, network, master, name = self.sink, self.network, self.master_id, _ACTUATION._value_
        for command in sequence_actuation(decision, self.actuated):
            target, session = command.target, command.session
            seq, latency = network.send(master, target)
            if sink is not None:
                action = command.action._value_
                sink(write.send_actuation % (now, name, master, target, seq, session, action, command.issue_order))
                if latency is None:
                    sink(write.drop % (now, name, master, target, seq))
            if latency is not None:
                motion = self.motions[target]
                if not apply_command(motion, command):
                    raise ProtocolError(f"node {target} refused session {session}'s command as stale")
                if sink is not None:
                    due = now + latency
                    line = write.actuated % (due, target, session, action, motion.state._value_)
                    self.queue.schedule((due, master, seq, target, _ACTUATION, now, line))

    # -- node-side protocol steps: every node senses and obeys -------------

    def _on_session_start(self, now: SimTime, node: NodeId, session: SessionId) -> None:
        profile, distance, miss, ghost = self.sensors[node]
        draw = sense_stream(self.seed, node, session).random()
        present = self._present_by_parity[session % 2]
        detection = sense(present, miss, ghost, draw)
        claim = Claim(node, session, detection, profile, distance, now)  # positional: keywords cost 40% more
        self.metrics.score_claim(node, detection is _DETECTED, present)
        master = self.master_id
        seq, latency = self.network.send(node, master)
        if latency is not None:
            self.queue.schedule((now + latency, node, seq, master, _CLAIM, now, claim))
        if self.sink is not None:
            self.sink(self._claim_lines[node] % (now, seq, session, detection._value_, now))
            if latency is None:
                self.sink(write.drop % (now, _CLAIM._value_, node, master, seq))


def _check_semantics(name: str, entries: Sequence) -> None:
    """Refuse anything but a list or tuple of AggregationSemantics members."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{name} must be a list or tuple of AggregationSemantics members, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, AggregationSemantics):
            raise ValueError(f"{name} must hold only AggregationSemantics members, got {entry!r}")


def run_once(
    scenario: Scenario,
    semantics: AggregationSemantics,
    seed: int | None = None,
    truth_mode: str = "fixed",
    collect_trace: bool = True,
    trace_stream=None,
    *,
    extra_semantics: Sequence[AggregationSemantics] | None = None,
) -> tuple[list[dict] | None, RunMetrics] | tuple[list[dict] | None, RunMetrics, list[RunMetrics]]:
    """Run one scenario to quiescence; returns (trace records, metrics).

    Metrics are booked as the run goes, keeping nothing per session. Trace
    lines are made only for an output. With collect_trace true, every line
    is kept, and the returned records are all of them parsed in one
    json.loads call, so they are exactly what trace.loads_records reads
    back from the streamed text. A trace_stream gets each line as the run
    makes it, through its own write, when nothing is collected, and all of
    them in one write after the run otherwise, before run_once returns or
    raises. With collect_trace=False and no trace_stream no line is made,
    so time stays low and memory flat at any session count.

    Given extra_semantics, every session's frozen claim set is also decided
    under each of them, without simulating again; actuation and the trace
    follow `semantics` alone. The return value is then (records, metrics,
    extra), with one RunMetrics in `extra` per entry of extra_semantics,
    equal to what a run_once call with that semantics returns.

    The Simulation checks the scenario and the arguments, and resolves a
    seed of None, before any session runs; see Simulation.
    """
    lines: list[str] = []
    sink = lines.append if collect_trace else None if trace_stream is None else trace_stream.write
    sim = Simulation(scenario, semantics, seed, truth_mode, sink, () if extra_semantics is None else extra_semantics)
    try:
        sim.run()
    finally:
        if collect_trace and trace_stream is not None:
            trace_stream.write("".join(lines))

    for arm in (sim.metrics, *sim.extra_metrics):
        if arm.stops + arm.gos != arm.decisions:
            raise ProtocolError("metrics do not conserve: stops + gos != decisions")
    records = json.loads("[" + ",".join(lines) + "]") if collect_trace else None
    if extra_semantics is None:
        return records, sim.metrics
    return records, sim.metrics, sim.extra_metrics


@dataclass
class SweepRow:
    """Aggregate outcomes for one semantics across all sweep seeds."""

    semantics: str
    seeds: int
    decisions: int
    stops: int
    gos: int
    false_go_count: int
    false_stop_count: int
    error_rate: float


@dataclass
class SweepResult:
    """Comparison table plus the shared per-node counterfactual baselines."""

    rows: list[SweepRow]
    solo_error_rates: dict[NodeId, float]
    files: list[Path]


def _metrics_records(scenario_name: str, semantics: str, seed: int, metrics: RunMetrics) -> list[dict]:
    head = {"scenario": scenario_name, "semantics": semantics, "seed": seed}
    records = []
    for name in VERDICT_COUNTS:
        records.append({**head, "metric": name, "value": getattr(metrics, name)})
    records.append({**head, "metric": "error_rate", "value": metrics.error_rate})
    for reason, count in sorted(metrics.exclusions.items()):
        records.append({**head, "metric": "exclusions", "reason": reason, "value": count})
    for node in sorted(metrics.solo):
        stats = metrics.solo[node]
        records.append(
            {
                **head,
                "metric": "solo_error_rate",
                "node": node,
                "claims": stats.claims,
                "errors": stats.errors,
                "value": stats.error_rate,
            }
        )
    return records


def run_sweep(
    scenario: Scenario,
    semantics_list: list[AggregationSemantics],
    seeds: int,
    truth_mode: str = "fixed",
    out_dir: str | Path | None = None,
    scenario_name: str = "scenario",
) -> SweepResult:
    """Monte Carlo comparison of semantics over seed values 0..seeds-1.

    The scenario is validated and set up once (a _Setup), and each seed is
    simulated once, by run_once on that set-up. The first semantics by name
    drives that run, and every semantics is decided on the same frozen claim
    sets, so the arms differ only in verdicts and each node's solo error
    rate is metered once per seed. Rows follow semantics_list sorted by
    name, one per entry, repeats included; a repeated semantics is decided
    once and its rows are equal. When out_dir is given, each distinct
    semantics' per-run metrics go to one newline-delimited record file per
    seed and the comparison table to summary.csv; `files` lists each file
    once. A `seeds` that is not an int >= 1, or a semantics_list that is not
    a non-empty list or tuple of AggregationSemantics members, raises
    ValueError, before the scenario is validated. out_dir is made only after
    the first run_once returns, so a rejected call makes no dir.
    """
    if not isinstance(seeds, int) or isinstance(seeds, bool) or seeds < 1:
        raise ValueError(f"seeds must be an integer >= 1, got {seeds!r}")
    _check_semantics("semantics_list", semantics_list)
    if not semantics_list:
        raise ValueError("at least one semantics is required")

    setup = _Setup(scenario)
    out_path = None if out_dir is None else Path(out_dir)
    # Keyed by value: Enum.__hash__ is Python code on 3.11.
    by_name = {semantics._value_: semantics for semantics in semantics_list}
    names = sorted(by_name)
    arms = [by_name[name] for name in names]
    totals = [RunMetrics() for _ in arms]
    arm_files: list[list[Path]] = [[] for _ in arms]
    for seed in range(seeds):
        _, first, extra = run_once(
            setup,
            arms[0],
            seed=seed,
            truth_mode=truth_mode,
            collect_trace=False,
            extra_semantics=arms[1:],
        )
        if seed == 0 and out_path is not None:
            out_path.mkdir(parents=True, exist_ok=True)
        for name, metrics, total, written in zip(names, (first, *extra), totals, arm_files):
            if total is totals[0]:
                total.add(metrics)  # every arm shares the run's ledger: add it once
            else:
                total.add_verdicts(metrics)
            if out_path is not None:
                target = out_path / f"{scenario_name}__{name}__seed{seed}.metrics.ndjson"
                with target.open("w", encoding="utf-8") as handle:
                    handle.write(dumps_records(_metrics_records(scenario_name, name, seed, metrics)))
                written.append(target)

    total_for = dict(zip(names, totals))
    row_values = attrgetter(*VERDICT_COUNTS, "error_rate")  # SweepRow's fields after seeds, in order
    rows = [SweepRow(name, seeds, *row_values(total_for[name])) for name in sorted([s._value_ for s in semantics_list])]
    solo = totals[0].solo  # every arm books the same claims
    solo_rates = {node: solo[node].error_rate for node in sorted(solo)}
    files = [path for written in arm_files for path in written]

    if out_path is not None:
        summary = out_path / "summary.csv"
        columns = [column.name for column in fields(SweepRow)]
        with summary.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for row in rows:
                cells = [getattr(row, name) for name in columns]
                writer.writerow([f"{cell:.6f}" if isinstance(cell, float) else cell for cell in cells])
        files.append(summary)

    return SweepResult(rows=rows, solo_error_rates=solo_rates, files=files)
