"""End-to-end runs: trace shape, determinism, metrics, and sweeps."""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import io
import random
import re
import tracemalloc
import types
import weakref
from pathlib import Path

import pytest

from crossguard import cli, runner
from crossguard.aggregation import AggregationSemantics
from crossguard.model import (
    GroundTruth,
    PerceptionModel,
    Pose,
    ProtocolError,
    validate_scenario,
)
from crossguard.netsim import Network
from crossguard.runner import TRUTH_MODES, MetricsCollector, SweepResult, SweepRow, run_once, run_sweep
from crossguard.scenario import ScenarioValidationError, load_scenario
from crossguard.trace import (
    RECORD_KINDS,
    claim_payload,
    dumps_record,
    dumps_records,
    loads_records,
)
from crossguard.trust import rank

from helpers import INTERSECTION, make_scenario, random_scenario
from oracles import claim_from_payload

ALL_SEMANTICS = sorted(AggregationSemantics, key=lambda s: s.value)
NO_SESSIONS = dataclasses.replace(make_scenario(), sessions=0)  # invalid: a scenario needs a session


def by_ev(records, ev, **fields):
    out = []
    for record in records:
        if record["ev"] != ev:
            continue
        if all(record.get(key) == value for key, value in fields.items()):
            out.append(record)
    return out


@pytest.fixture(scope="module")
def intersection_records():
    scenario = load_scenario(INTERSECTION)
    records, _ = run_once(scenario, AggregationSemantics.EXPERT_OVERRIDE, seed=0)
    return records


class TestSingleSessionTrace:
    """One lossless session of the bundled crossing, step by step."""

    @pytest.fixture
    def records(self, intersection_records):
        return intersection_records

    def test_opens_with_the_session_record(self, records):
        assert records[0] == {
            "t": 0,
            "ev": "session_open",
            "session": 1,
            "deadline": 50000,
            "pedestrian_present": True,
        }

    def test_one_broadcast_reaches_all_three_nodes(self, records):
        sends = by_ev(records, "send", kind="session_start")
        assert len(sends) == 1
        assert sends[0]["dst"] == "*"
        delivers = by_ev(records, "deliver", kind="session_start")
        assert sorted(r["dst"] for r in delivers) == [1, 2, 3]

    def test_every_node_claims_to_the_master_over_the_network(self, records):
        sends = by_ev(records, "send", kind="claim")
        assert sorted(r["src"] for r in sends) == [1, 2, 3]
        assert {r["dst"] for r in sends} == {1}
        delivers = by_ev(records, "deliver", kind="claim")
        assert len(delivers) == 3
        assert by_ev(records, "claim_accepted") and len(by_ev(records, "claim_accepted")) == 3

    def test_claim_sends_embed_the_full_claim(self, records):
        for send in by_ev(records, "send", kind="claim"):
            claim = send["claim"]
            assert claim["session"] == 1
            assert claim["node"] == send["src"]
            assert claim["detection"] in {"pedestrian_detected", "clear"}

    def test_decision_ranks_the_lidar_first(self, records):
        decisions = by_ev(records, "decision")
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision["t"] == 50000
        assert decision["ranking"] == [3, 2, 1]
        assert decision["used"] == [1, 2, 3]
        assert decision["excluded"] == []

    def test_actuation_goes_to_the_one_actuated_node(self, records):
        sends = by_ev(records, "send", kind="actuation")
        assert len(sends) == 1
        assert sends[0]["dst"] == 1
        assert sends[0]["issue_order"] == 0
        assert sends[0]["session"] == 1
        acted = by_ev(records, "actuated")
        assert len(acted) == 1
        assert acted[0]["node"] == 1

    def test_closes_after_the_settle_interval(self, records):
        closes = by_ev(records, "session_close")
        assert closes == [{"t": 60000, "ev": "session_close", "session": 1}]
        assert records[-1] == closes[0]

    def test_no_losses_no_orphans_no_stale_commands(self, records):
        assert by_ev(records, "drop") == []
        assert by_ev(records, "claim_orphan") == []
        assert len(by_ev(records, "actuated")) == len(by_ev(records, "deliver", kind="actuation"))


class TestDeterminism:
    def test_same_seed_gives_byte_identical_traces(self):
        scenario = make_scenario(sessions=3, drop=0.2)
        first, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=11)
        second, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=11)
        assert dumps_records(first) == dumps_records(second)

    def test_different_seeds_diverge(self):
        scenario = make_scenario(sessions=3, drop=0.2)
        first, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=11)
        second, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=12)
        assert dumps_records(first) != dumps_records(second)

    def test_seed_defaults_to_the_scenario_seed(self):
        scenario = load_scenario(INTERSECTION)
        defaulted, _ = run_once(scenario, AggregationSemantics.MAJORITY)
        explicit, _ = run_once(
            scenario, AggregationSemantics.MAJORITY, seed=scenario.network.seed
        )
        assert dumps_records(defaulted) == dumps_records(explicit)
        assert runner.Simulation(scenario, AggregationSemantics.MAJORITY, None).seed == scenario.network.seed

    def test_semantics_arms_share_every_draw(self):
        """Same seed, different semantics: identical transport and claims,
        only the decisions may differ."""
        scenario = make_scenario(sessions=4, drop=0.2, fn=0.3, fp=0.3)
        shared = {}
        for semantics in ALL_SEMANTICS:
            records, _ = run_once(scenario, semantics, seed=5)
            env = [r for r in records if r["ev"] in {"send", "deliver", "drop"} and r["kind"] != "actuation"]
            shared[semantics] = dumps_records(env)
        assert len(set(shared.values())) == 1


def pinned_run():
    """Five nodes, six alternating-truth sessions over a lossy network whose
    two hops can outlast the window: drops, late claims and orphans."""
    scenario = make_scenario(
        node_count=5,
        fn=0.2,
        fp=0.2,
        drop=0.2,
        latency=(2000, 30000),
        window=20000,
        settle=30000,
        sessions=6,
        actuate_all=True,
    )
    records, _ = run_once(
        scenario, AggregationSemantics.TRUST_WEIGHTED_MAJORITY, seed=26, truth_mode="alternating"
    )
    return records


class TestPinnedLossyRun:
    SEND_FIELDS = ["t", "ev", "kind", "src", "dst", "seq"]

    @pytest.fixture(scope="class")
    def records(self):
        return pinned_run()

    def test_the_run_covers_every_loss_path(self, records):
        assert by_ev(records, "drop")
        assert by_ev(records, "claim_excluded", reason="late")
        assert by_ev(records, "claim_orphan")
        assert {r["verdict"] for r in by_ev(records, "decision")} == {"stop", "go"}

    def test_trace_bytes_are_pinned(self, records):
        """Hash recorded before the network stopped building trace records."""
        digest = hashlib.sha256(dumps_records(records).encode("utf-8")).hexdigest()
        assert digest == "d1ce6c9ec73db14ed4c77782aa4b212371fe02fa85cc0635994b10ea3f955728"

    def test_send_emits_a_structured_record(self, records):
        sends = by_ev(records, "send")
        starts = by_ev(sends, "send", kind="session_start")
        assert len(starts) == 6
        for start in starts:
            assert start == {**start, "ev": "send", "src": 1, "dst": "*"}
            assert list(start) == self.SEND_FIELDS
        for send in by_ev(sends, "send", kind="claim"):
            assert list(send) == [*self.SEND_FIELDS, "claim"]
            assert send["dst"] == 1
            claim = claim_from_payload(send["claim"])
            assert claim_payload(claim) == send["claim"]
            assert (claim.node, claim.emitted_at) == (send["src"], send["t"])
        decisions = {r["session"]: r for r in by_ev(records, "decision")}
        actuations = by_ev(sends, "send", kind="actuation")
        assert len(actuations) == 5 * 6
        for send in actuations:
            assert list(send) == [*self.SEND_FIELDS, "session", "action", "issue_order"]
            decision = decisions[send["session"]]
            assert send["t"] == decision["t"]
            assert send["action"] == ("halt" if decision["verdict"] == "stop" else "proceed")
            assert send["issue_order"] == send["dst"] - 1

    def test_each_dropped_copy_follows_its_send(self, records):
        last_send = None
        for record in records:
            if record["ev"] == "send":
                last_send = record
            elif record["ev"] == "drop":
                assert list(record) == self.SEND_FIELDS
                assert {key: record[key] for key in ("t", "kind", "src", "seq")} == {
                    key: last_send[key] for key in ("t", "kind", "src", "seq")
                }
                assert last_send["dst"] in ("*", record["dst"])


def spy_on_schedule(monkeypatch) -> list[tuple]:
    """Spy on EventQueue.schedule: the returned list gets every copy scheduled from now on, in call order."""
    copies = []
    schedule = runner.EventQueue.schedule

    def recorded(queue, copy):
        copies.append(copy)
        schedule(queue, copy)

    monkeypatch.setattr(runner.EventQueue, "schedule", recorded)
    return copies


class TestLeanPath:
    """A run with no sink answers each start copy as the network draws it:
    only claims, and the master's own start copy when it lands after the
    deadline, wait in the queue. Every run applies each kept command as it
    draws it. A traced run queues every kept copy, as it writes each one's
    lines in due order; a command's copy holds only its actuated line."""

    @staticmethod
    def scheduled(monkeypatch, scenario, seed, collect_trace):
        """(copies run_once scheduled, its records, its metrics)."""
        copies = spy_on_schedule(monkeypatch)
        records, metrics = run_once(
            scenario, AggregationSemantics.TRUST_WEIGHTED_MAJORITY, seed, "alternating", collect_trace
        )
        return copies, records, metrics

    def test_a_lean_run_queues_only_claims_and_the_master_s_late_start_copies(self, monkeypatch):
        scenario = make_scenario(
            node_count=5, drop=0.2, latency=(2000, 30000), window=20000, settle=30000, sessions=12, actuate_all=True
        )
        lean, _, lean_metrics = self.scheduled(monkeypatch, scenario, 26, False)
        late_starts = [copy for copy in lean if copy[4] is not runner.MessageKind.CLAIM]
        assert late_starts and len(lean) > len(late_starts)
        for due, src, _, recipient, kind, sent_at, _ in late_starts:
            assert kind is runner.MessageKind.SESSION_START
            assert src == recipient == 1 and due > sent_at + scenario.session_window
        traced, records, traced_metrics = self.scheduled(monkeypatch, scenario, 26, True)
        assert len(traced) == len(by_ev(records, "deliver"))
        assert {copy[4].value for copy in traced} == {"session_start", "claim", "actuation"}
        assert lean_metrics == traced_metrics

    def test_the_master_s_claim_follows_its_commands_when_its_start_copy_lands_after_the_deadline(self, monkeypatch):
        """Every start copy lands after its deadline: the master numbers its
        commands before its own claim in both paths. The lean run's queued
        master claims carry the seqs of the traced run's kept ones."""
        scenario = make_scenario(drop=0.1, latency=(1000, 5000), window=500, sessions=8)
        nodes = [dataclasses.replace(node, actuated=node.id in (1, 3)) for node in scenario.nodes]
        scenario = dataclasses.replace(scenario, nodes=tuple(nodes))
        records, traced = run_once(scenario, AggregationSemantics.MAJORITY, 4)
        copies = spy_on_schedule(monkeypatch)
        _, lean = run_once(scenario, AggregationSemantics.MAJORITY, 4, collect_trace=False)
        assert lean == traced
        master_claims = by_ev(records, "send", kind="claim", src=1)
        assert len(master_claims) > 4
        for claim in master_claims:
            commands = [send["seq"] for send in by_ev(records, "send", kind="actuation", session=claim["claim"]["session"])]
            assert len(commands) == 2 and max(commands) < claim["seq"]
        dropped = {drop["seq"] for drop in by_ev(records, "drop", kind="claim", src=1)}
        kept = [claim["seq"] for claim in master_claims if claim["seq"] not in dropped]
        lean_claims = [seq for _, src, seq, _, kind, _, _ in copies if kind is runner.MessageKind.CLAIM and src == 1]
        assert kept and lean_claims == kept


@pytest.mark.parametrize("truth_mode", TRUTH_MODES)
def test_each_addressed_copy_is_traced_as_its_draw_says(truth_mode):
    """A run numbers each message and draws every copy itself, a broadcast's
    to every node, the master included. For each send record and each
    recipient it addresses, a fresh Network's latency(src, seq, recipient)
    says what the trace holds: exactly one drop record when it is None,
    else exactly one deliver record at t + latency, sent at t."""
    scenario = make_scenario(
        node_count=4, drop=0.2, latency=(1000, 30000), window=500, settle=30000, sessions=12, actuate_all=True
    )
    records, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=5, truth_mode=truth_mode)
    network = Network(sorted(scenario.node_ids()), scenario.network, 5)
    fates = {}  # (kind, src, seq, dst): [("drop", t, None) or ("deliver", t, sent_at)]
    for record in records:
        if record["ev"] in ("drop", "deliver"):
            key = (record["kind"], record["src"], record["seq"], record["dst"])
            fates.setdefault(key, []).append((record["ev"], record["t"], record.get("sent_at")))
    checked = drops = 0
    for send in by_ev(records, "send"):
        t, kind, src, seq = send["t"], send["kind"], send["src"], send["seq"]
        for recipient in network.node_ids if send["dst"] == "*" else [send["dst"]]:
            latency = network.latency(src, seq, recipient)
            expected = ("drop", t, None) if latency is None else ("deliver", t + latency, t)
            assert fates.pop((kind, src, seq, recipient)) == [expected], (send, recipient)
            checked += 1
            drops += latency is None
    assert fates == {}
    assert (checked, drops) == (132, 38)


@pytest.mark.parametrize("truth_mode", TRUTH_MODES)
@pytest.mark.parametrize("collect_trace", [False, True], ids=["lean", "traced"])
def test_each_queued_claim_carries_what_its_sender_drew(monkeypatch, truth_mode, collect_trace):
    """The network only numbers and draws; the run builds every copy it
    queues. Each queued claim copy goes from the claim's node to the master,
    was sent when the claim was emitted, and is due after exactly the latency
    a fresh Network's latency(src, seq, master) draws."""
    scenario = make_scenario(
        node_count=4, drop=0.2, latency=(1000, 30000), window=500, settle=30000, sessions=12, actuate_all=True
    )
    copies = spy_on_schedule(monkeypatch)
    run_once(scenario, AggregationSemantics.MAJORITY, seed=5, truth_mode=truth_mode, collect_trace=collect_trace)
    network = Network(sorted(scenario.node_ids()), scenario.network, 5)
    claims = [copy for copy in copies if copy[4] is runner.MessageKind.CLAIM]
    for due, src, seq, recipient, _, sent_at, claim in claims:
        assert (src, recipient, sent_at) == (claim.node, 1, claim.emitted_at)
        assert due - sent_at == network.latency(src, seq, recipient)
    assert len(claims) == 28


class TestNodeTable:
    """A Simulation ranks each node's evidence once, at set-up, from its
    validated scenario, and every session ranks that node's claims by it."""

    def test_a_node_with_malformed_evidence_is_refused_before_the_run(self):
        """Node 2's false-negative rate of 0.7 is out of [0, 0.5). A run validates
        its scenario first and then takes its evidence unchecked, so nothing is
        built or traced for a scenario with malformed evidence."""
        scenario = make_scenario(
            node_count=4, drop=0.1, latency=(1000, 30000), window=20000, settle=30000, sessions=5
        )
        nodes = tuple(
            dataclasses.replace(node, sensor=dataclasses.replace(node.sensor, base_false_negative=0.7))
            if node.id == 2
            else node
            for node in scenario.nodes
        )
        broken = dataclasses.replace(scenario, nodes=nodes)
        semantics = AggregationSemantics.TRUST_WEIGHTED_MAJORITY
        lines = []
        for entry in (
            lambda: runner.Simulation(broken, semantics, 3, "alternating", lines.append),
            lambda: run_once(broken, semantics, 3, "alternating"),
        ):
            with pytest.raises(ScenarioValidationError) as excinfo:
                entry()
            assert excinfo.value.errors == ["nodes[1].sensor.base_false_negative: must be in [0.0, 0.5), got 0.7"]
        assert lines == []

    def test_each_nodes_evidence_is_ranked_once_per_simulation(self, monkeypatch):
        calls = []

        def counted(evidence):
            calls.append(list(evidence))
            return rank(evidence)

        monkeypatch.setattr("crossguard.session.rank", counted)
        # Mixed sensors and poses, so rank's order is not the node ids' order.
        scenario = random_scenario(random.Random(5))
        for sessions in (1, 6):
            calls.clear()
            sim = runner.Simulation(dataclasses.replace(scenario, sessions=sessions), AggregationSemantics.MAJORITY, 1)
            sim.run()
            assert sim.metrics.decisions == sessions
            assert len(calls) == 1, sessions
            order = rank(calls[0])
            assert sorted(order) == sorted(scenario.node_ids())
            assert sim.trust_positions == {node: position for position, node in enumerate(order)}


def assert_each_entry_refuses(match, scenario, semantics, seed, truth_mode="fixed", collect_trace=True, extra=None):
    """run_once, and a hand-built Simulation (built only, not run), must each
    raise ValueError for the same bad argument. Both get `extra` as it is,
    except that the Simulation gets () for None, its "no extra" value."""
    with pytest.raises(ValueError, match=match):
        run_once(scenario, semantics, seed, truth_mode, collect_trace, extra_semantics=extra)
    lines = [].append if collect_trace else None
    with pytest.raises(ValueError, match=match):
        runner.Simulation(scenario, semantics, seed, truth_mode, lines, () if extra is None else extra)


class TestSeedCheck:
    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5])
    def test_seed_that_is_not_an_unsigned_64_bit_int_is_refused(self, seed):
        assert_each_entry_refuses("seed", make_scenario(), AggregationSemantics.MAJORITY, seed)

    def test_largest_seed_runs(self):
        _, metrics = run_once(make_scenario(), AggregationSemantics.MAJORITY, seed=2**64 - 1)
        assert metrics.decisions == 1


class TestSemanticsCheck:
    """A semantics that is not an AggregationSemantics member is refused
    before the run, whatever the network loses and whether it is traced."""

    @pytest.mark.parametrize("drop", [0.0, 1.0], ids=["lossless", "total_loss"])
    @pytest.mark.parametrize("collect_trace", [True, False], ids=["traced", "lean"])
    @pytest.mark.parametrize(
        "semantics, extra, match",
        [
            ("majority", None, "AggregationSemantics"),
            (AggregationSemantics.MAJORITY, ["bogus"], "AggregationSemantics"),
            # Not a list or tuple: the message names the whole argument.
            (AggregationSemantics.MAJORITY, 5, "^extra_semantics .*AggregationSemantics.*got 5$"),
            (AggregationSemantics.MAJORITY, "majority", "^extra_semantics .*AggregationSemantics.*got 'majority'$"),
        ],
        ids=["semantics", "extra_semantics", "extra_semantics_int", "extra_semantics_str"],
    )
    def test_a_non_member_is_refused(self, drop, collect_trace, semantics, extra, match):
        scenario = make_scenario(drop=drop)
        assert_each_entry_refuses(match, scenario, semantics, 1, collect_trace=collect_trace, extra=extra)

    def test_a_simulation_refuses_extra_semantics_none(self):
        """None means "no extra" to run_once only; a Simulation takes ()."""
        with pytest.raises(ValueError, match="^extra_semantics .*AggregationSemantics.*got None$"):
            runner.Simulation(make_scenario(), AggregationSemantics.MAJORITY, 1, extra_semantics=None)


class TestTruthModes:
    def test_fixed_truth_repeats_the_scenario_value(self):
        scenario = make_scenario(sessions=4, present=True)
        records, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=1)
        opens = by_ev(records, "session_open")
        assert [r["pedestrian_present"] for r in opens] == [True, True, True, True]

    def test_alternating_truth_flips_even_sessions(self):
        scenario = make_scenario(sessions=4, present=True)
        records, _ = run_once(
            scenario, AggregationSemantics.MAJORITY, seed=1, truth_mode="alternating"
        )
        opens = by_ev(records, "session_open")
        assert [r["pedestrian_present"] for r in opens] == [True, False, True, False]

    def test_unknown_truth_mode_is_rejected(self):
        scenario = make_scenario()
        assert_each_entry_refuses("truth_mode", scenario, AggregationSemantics.MAJORITY, 1, truth_mode="chaotic")


class TestRunContract:
    """Simulation.__init__ is the one place a run's inputs are checked, and
    a run whose actuation the validator says must land in time stops if a
    command is ever refused."""

    @pytest.mark.parametrize("seed", [1, None], ids=["seed", "default_seed"])
    @pytest.mark.parametrize(
        "change", [{"session_window": -5}, {"network": None}], ids=["negative_window", "no_network"]
    )
    def test_a_hand_built_simulation_refuses_an_invalid_scenario(self, change, seed):
        """A negative window once decided a session whose deadline fell before
        it opened, and network=None ended in AttributeError."""
        broken = dataclasses.replace(make_scenario(), **change)
        lines = []
        with pytest.raises(ScenarioValidationError) as built:
            runner.Simulation(broken, AggregationSemantics.MAJORITY, seed, sink=lines.append)
        assert lines == []
        assert built.value.errors == validate_scenario(broken) != []
        with pytest.raises(ScenarioValidationError) as ran:
            run_once(broken, AggregationSemantics.MAJORITY, seed)
        assert ran.value.errors == built.value.errors

    @pytest.mark.parametrize(
        "argument",
        [5, [], [[].append], types.SimpleNamespace(**{kind.name: print for kind in RECORD_KINDS})],
        ids=["int", "list", "sink_list", "per_kind_namespace"],
    )
    def test_an_argument_that_is_not_a_sink_is_refused_before_the_run(self, argument):
        """A list of sinks, or an object with one function per record kind,
        the old sink, would otherwise end in TypeError at the first line, with
        a session open."""
        with pytest.raises(ValueError, match="^sink must be None or a callable that takes each trace line, got "):
            runner.Simulation(make_scenario(), AggregationSemantics.MAJORITY, 1, sink=argument)

    def test_a_callable_sink_is_accepted_and_gets_every_line(self):
        lines = []
        runner.Simulation(make_scenario(sessions=2), AggregationSemantics.MAJORITY, 1, sink=lambda line: lines.append(line)).run()
        assert [record["ev"] for record in loads_records("".join(lines))].count("decision") == 2

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "lean"])
    def test_a_simulation_runs_once(self, traced):
        """A second run would replace the final session, trace its open and, in a lean run, book its first claims."""
        lines = []
        scenario = make_scenario(drop=0.2, latency=(1000, 30000), settle=30000, sessions=3)
        sim = runner.Simulation(scenario, AggregationSemantics.MAJORITY, 3, sink=lines.append if traced else None)
        sim.run()
        state, metrics, emitted = sim.state, dataclasses.asdict(sim.metrics), list(lines)
        with pytest.raises(ProtocolError, match="^a Simulation runs once$"):
            sim.run()
        assert sim.state is state and (dataclasses.asdict(sim.metrics), lines) == (metrics, emitted)
        assert len(lines) > 10 if traced else lines == []

    def test_each_simulation_and_each_sweep_validates_its_scenario_once(self, monkeypatch):
        """A sweep validates once per call, not once per seed: its seeds share one set-up."""
        calls = []

        def counted(scenario):
            calls.append(scenario)
            return validate_scenario(scenario)

        monkeypatch.setattr(runner, "validate_scenario", counted)
        scenario = make_scenario(sessions=2)
        runner.Simulation(scenario, AggregationSemantics.MAJORITY, 1).run()
        assert len(calls) == 1
        run_once(scenario, AggregationSemantics.MAJORITY, 1, extra_semantics=[AggregationSemantics.MAJORITY])
        assert len(calls) == 2
        run_sweep(scenario, list(AggregationSemantics), seeds=3)
        assert len(calls) == 3
        run_sweep(scenario, [AggregationSemantics.MAJORITY], seeds=2)
        assert calls == [scenario] * 4

    @pytest.mark.parametrize("collect_trace", [True, False], ids=["traced", "lean"])
    def test_a_refused_command_is_a_protocol_error(self, monkeypatch, collect_trace):
        """A valid scenario's actuation lands before the next session decides,
        so no run can refuse a command as stale; if one did, the run stops."""
        monkeypatch.setattr(runner, "apply_command", lambda motion, command: False)
        with pytest.raises(ProtocolError, match="^node 1 refused session 1's command as stale$"):
            run_once(make_scenario(), AggregationSemantics.MAJORITY, 1, collect_trace=collect_trace)


class TestSessionSequencing:
    def test_session_ids_are_consecutive_and_blocks_are_ordered(self):
        scenario = make_scenario(sessions=5, drop=0.1)
        records, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=3)
        opens = [r["session"] for r in by_ev(records, "session_open")]
        closes = [r["session"] for r in by_ev(records, "session_close")]
        assert opens == [1, 2, 3, 4, 5]
        assert closes == [1, 2, 3, 4, 5]
        for session in range(1, 6):
            open_index = records.index(by_ev(records, "session_open", session=session)[0])
            close_index = records.index(by_ev(records, "session_close", session=session)[0])
            assert open_index < close_index

    def test_actuated_sessions_never_regress(self):
        scenario = make_scenario(sessions=6, node_count=4, actuate_all=True)
        records, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=9)
        last_per_node: dict[int, int] = {}
        for record in by_ev(records, "actuated"):
            node = record["node"]
            assert last_per_node.get(node, 0) <= record["session"]
            last_per_node[node] = record["session"]
        assert last_per_node == {1: 6, 2: 6, 3: 6, 4: 6}


class TestSessionBoundaries:
    """Fixed latency L with a 2L window and an L settle interval: every claim
    lands exactly on its deadline and every actuation command exactly on the
    settle boundary. A delivery due at a boundary is handled before it."""

    L = 1000

    def run(self, sessions=1, latency=L, window=2 * L, settle=L):
        scenario = make_scenario(
            sessions=sessions, latency=(latency, latency), window=window, settle=settle, actuate_all=True
        )
        return run_once(scenario, AggregationSemantics.MAJORITY, seed=5)

    def test_a_claim_landing_on_its_deadline_is_accepted_and_used(self):
        records, metrics = self.run()
        accepted = by_ev(records, "claim_accepted")
        assert [r["t"] for r in accepted] == [2 * self.L] * 3
        decision = by_ev(records, "decision")[0]
        assert decision["t"] == 2 * self.L
        assert decision["used"] == [1, 2, 3]
        assert records.index(accepted[-1]) < records.index(decision)
        assert sum(metrics.exclusions.values()) == 0

    def test_an_actuation_landing_on_the_settle_boundary_is_applied_before_close(self):
        records, _ = self.run(sessions=3)
        for session in (1, 2, 3):
            actuated = by_ev(records, "actuated", session=session)
            close = by_ev(records, "session_close", session=session)[0]
            assert close["t"] == session * 3 * self.L
            assert [r["t"] for r in actuated] == [close["t"]] * 3
            assert records.index(actuated[-1]) < records.index(close)

    def test_zero_latency_and_zero_settle_decide_every_session(self):
        records, metrics = self.run(sessions=4, latency=0, window=1, settle=0)
        assert metrics.decisions == 4
        decisions = by_ev(records, "decision")
        assert [r["session"] for r in decisions] == [1, 2, 3, 4]
        assert all(r["used"] == [1, 2, 3] for r in decisions)
        for decision in decisions:
            # Sent at the decision, delivered at once: after it, before close.
            actuated = by_ev(records, "actuated", session=decision["session"])
            close = by_ev(records, "session_close", session=decision["session"])[0]
            assert [r["t"] for r in actuated] == [decision["t"]] * 3 == [close["t"]] * 3
            assert records.index(decision) < records.index(actuated[0])
            assert records.index(actuated[-1]) < records.index(close)


class TestFailSafe:
    def test_total_loss_means_every_session_stops(self):
        scenario = make_scenario(sessions=20, drop=1.0)
        records, metrics = run_once(scenario, AggregationSemantics.MAJORITY, seed=2)
        assert metrics.decisions == 20
        assert metrics.stops == 20
        assert metrics.gos == 0
        assert metrics.false_go_count == 0
        for decision in by_ev(records, "decision"):
            assert decision["verdict"] == "stop"
            assert decision["used"] == []
            assert decision["ranking"] == []

    def test_slow_network_claims_are_late_and_conserved(self):
        """60 ms fixed latency against a 50 ms window: every claim bounces."""
        scenario = make_scenario(
            sessions=2, latency=(60000, 60000), window=50000, settle=80000
        )
        records, metrics = run_once(scenario, AggregationSemantics.MAJORITY, seed=4)
        assert metrics.stops == 2
        excluded = by_ev(records, "claim_excluded")
        assert len(excluded) == 6
        assert all(r["reason"] == "late" for r in excluded)
        assert metrics.exclusions["late"] == 6
        delivered_claims = by_ev(records, "deliver", kind="claim")
        assert len(delivered_claims) == len(excluded)

    def test_claims_after_the_final_close_become_orphans(self):
        scenario = make_scenario(
            sessions=1, latency=(60000, 60000), window=50000, settle=60000
        )
        records, metrics = run_once(scenario, AggregationSemantics.MAJORITY, seed=4)
        orphans = by_ev(records, "claim_orphan")
        assert len(orphans) == 3
        assert metrics.exclusions["late"] == 3
        assert by_ev(records, "claim_excluded") == []


class TestMetrics:
    def test_perfect_sensors_make_no_errors(self):
        scenario = make_scenario(sessions=50, fn=0.0, fp=0.0, present=True)
        _, metrics = run_once(scenario, AggregationSemantics.MAJORITY, seed=6)
        assert metrics.decisions == 50
        assert metrics.stops == 50
        assert metrics.error_rate == 0.0
        assert all(metrics.solo_error_rate(node) == 0.0 for node in (1, 2, 3))

    def test_a_perfect_sensor_never_errs_at_a_tiny_distance_reference(self):
        """Nodes 1 m from the target with distance_reference 5e-324: the
        distance factor overflows to inf, yet zero base rates stay zero."""
        target = Pose(1.0, 0.0)
        scenario = dataclasses.replace(
            make_scenario(sessions=40, fn=0.0, fp=0.0),
            ground_truth=GroundTruth(pedestrian_present=True, pedestrian_pose=target),
            perception=PerceptionModel(distance_reference=5e-324, query_center=target),
        )
        _, metrics = run_once(scenario, AggregationSemantics.MAJORITY, seed=1, truth_mode="alternating")
        assert metrics.decisions == 40
        assert metrics.false_go_count == metrics.false_stop_count == 0
        assert all(stats.claims == 40 and stats.errors == 0 for stats in metrics.solo.values())

    def test_solo_rates_score_emitted_claims_against_truth(self):
        scenario = make_scenario(sessions=2000, fn=0.45, fp=0.45, present=True)
        _, metrics = run_once(scenario, AggregationSemantics.MAJORITY, seed=8, collect_trace=False)
        for node in (1, 2, 3):
            assert metrics.solo[node].claims == 2000
            assert abs(metrics.solo_error_rate(node) - 0.45) < 0.05

    def test_collect_trace_false_returns_no_records(self):
        scenario = make_scenario(sessions=3)
        records, metrics = run_once(
            scenario, AggregationSemantics.MAJORITY, seed=1, collect_trace=False
        )
        assert records is None
        assert metrics.decisions == 3

    def test_trace_stream_receives_the_same_bytes(self, tmp_path):
        import io

        scenario = make_scenario(sessions=2, drop=0.3)
        buffer = io.StringIO()
        records, _ = run_once(
            scenario, AggregationSemantics.MAJORITY, seed=1, trace_stream=buffer
        )
        assert buffer.getvalue() == dumps_records(records)
        assert loads_records(buffer.getvalue()) == records

    def test_invalid_scenario_is_rejected_before_running(self):
        broken = dataclasses.replace(make_scenario(), sessions=0)
        with pytest.raises(ScenarioValidationError):
            run_once(broken, AggregationSemantics.MAJORITY, seed=1)
        # The scenario is checked before the arguments, by run_once and by a hand-built Simulation.
        with pytest.raises(ScenarioValidationError):
            run_once(broken, "majority", seed=-1)
        with pytest.raises(ScenarioValidationError):
            runner.Simulation(broken, "majority", -1, "chaotic", extra_semantics=5)

    def test_collector_conserves_verdict_counts(self):
        scenario = make_scenario(sessions=30, fn=0.3, fp=0.3, drop=0.2)
        for semantics in ALL_SEMANTICS:
            _, metrics = run_once(scenario, semantics, seed=13, collect_trace=False)
            assert metrics.stops + metrics.gos == metrics.decisions == 30


def refuse_from_session(first: int):
    """An apply_command that refuses every command of session `first` onwards."""
    apply = runner.apply_command
    return lambda motion, command: command.session < first and apply(motion, command)


class TestTraceStream:
    """A trace stream holds every record's line, in order, by the time
    run_once returns or raises, however many lines the run writes."""

    def test_a_long_lossy_run_streams_the_same_bytes(self):
        scenario = make_scenario(sessions=300, drop=0.2, actuate_all=True)
        buffer = io.StringIO()
        records, _ = run_once(scenario, AggregationSemantics.MAJORITY, seed=3, trace_stream=buffer)
        assert len(records) > 3 * 1024  # thousands of lines, kept and then written in one call
        assert by_ev(records, "drop")
        assert buffer.getvalue() == dumps_records(records)

    @pytest.mark.parametrize("truth_mode", TRUTH_MODES)
    def test_a_simulation_s_sink_gets_the_lines_run_once_streams(self, truth_mode):
        """Each line once, in order, ending in its one newline; a lean and a collecting run_once stream the same."""
        scenario = make_scenario(node_count=4, fn=0.2, drop=0.2, latency=(1000, 30000), settle=30000, sessions=40)
        lines = []
        runner.Simulation(scenario, AggregationSemantics.TRUST_WEIGHTED_MAJORITY, 7, truth_mode, lines.append).run()
        assert all(line.index("\n") == len(line) - 1 for line in lines)
        for collect_trace in (False, True):
            stream = io.StringIO()
            run_once(scenario, AggregationSemantics.TRUST_WEIGHTED_MAJORITY, 7, truth_mode, collect_trace, stream)
            assert stream.getvalue() == "".join(lines)

    @pytest.mark.parametrize("first", [1, 250], ids=["first_session", "late_session"])
    def test_a_protocol_error_leaves_the_lines_emitted_before_it(self, monkeypatch, first):
        scenario = make_scenario(sessions=300, drop=0.2)
        monkeypatch.setattr(runner, "apply_command", refuse_from_session(first))
        message = r"^node 1 refused session \d+'s command as stale$"  # a dropped command refuses none
        lines = []
        sim = runner.Simulation(scenario, AggregationSemantics.MAJORITY, 3, sink=lines.append)
        with pytest.raises(ProtocolError, match=message) as refused:
            sim.run()
        session = int(re.search(r"session (\d+)", str(refused.value))[1])
        last = loads_records(lines[-1])[0]  # a run stops at the refused command's send, where it applies it
        assert (last["ev"], last["kind"], last["dst"], last["session"]) == ("send", "actuation", 1, session)
        for collect_trace in (False, True):
            buffer = io.StringIO()
            with pytest.raises(ProtocolError, match=message):
                run_once(scenario, AggregationSemantics.MAJORITY, 3, "fixed", collect_trace, buffer)
            assert buffer.getvalue() == "".join(lines)

    def test_a_sink_s_lines_joined_are_the_bytes_run_trace_writes(self, tmp_path):
        """A sink gets exactly the file's lines, each ending in its one newline."""
        text = INTERSECTION.read_text(encoding="utf-8")
        text = text.replace("sessions: 1", "sessions: 40").replace("drop_probability: 0.0", "drop_probability: 0.2")
        path = tmp_path / "lossy.scenario"
        path.write_text(text, encoding="utf-8")
        trace = tmp_path / "t.ndjson"
        argv = ["run", str(path), "--semantics", "majority", "--seed", "5", "--truth", "alternating", "--trace", str(trace)]
        assert cli.main(argv) == 0
        lines = []
        runner.Simulation(load_scenario(path), AggregationSemantics.MAJORITY, 5, "alternating", lines.append).run()
        assert len(lines) > 400 and all(line.index("\n") == len(line) - 1 for line in lines)
        assert trace.read_bytes() == "".join(lines).encode("utf-8")

    def test_the_cli_trace_file_holds_the_lines_emitted_before_a_protocol_error(self, monkeypatch, tmp_path):
        text = INTERSECTION.read_text(encoding="utf-8")
        text = text.replace("sessions: 1", "sessions: 300")
        text = text.replace("drop_probability: 0.0", "drop_probability: 0.2")
        path = tmp_path / "long.scenario"
        path.write_text(text, encoding="utf-8")
        trace = tmp_path / "t.ndjson"
        monkeypatch.setattr(runner, "apply_command", refuse_from_session(250))
        code = cli.main(["run", str(path), "--semantics", "majority", "--seed", "5", "--trace", str(trace)])
        assert code == cli.EXIT_PROTOCOL
        lines = []
        sim = runner.Simulation(load_scenario(path), AggregationSemantics.MAJORITY, 5, sink=lines.append)
        with pytest.raises(ProtocolError):
            sim.run()
        assert len(lines) > 3 * 1024  # thousands of lines, each written to the file as it is made
        assert trace.read_text(encoding="utf-8") == "".join(lines)


class TestActuationAtTheDeadline:
    """Every run applies a kept command at its deadline, right after drawing
    it; a traced run then queues only the actuated line its delivery writes."""

    SCENARIO = make_scenario(
        node_count=4, drop=0.2, latency=(1000, 30000), window=20000, settle=30000, sessions=12, actuate_all=True
    )

    @pytest.mark.parametrize("first", [1, 2, 7])
    def test_a_refused_command_stops_lean_and_traced_runs_alike(self, monkeypatch, first):
        monkeypatch.setattr(runner, "apply_command", refuse_from_session(first))
        messages = []
        for collect_trace in (False, True):
            with pytest.raises(ProtocolError, match=r"^node \d+ refused session \d+'s command as stale$") as refused:
                run_once(self.SCENARIO, AggregationSemantics.MAJORITY, 3, collect_trace=collect_trace)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]

    def test_a_traced_run_applies_each_kept_command_at_its_deadline_and_queues_only_its_line(self, monkeypatch):
        lines = []
        applied = []  # (how many lines were written before the call, the command)
        apply = runner.apply_command

        def recorded(motion, command):
            applied.append((len(lines), command))
            return apply(motion, command)

        monkeypatch.setattr(runner, "apply_command", recorded)
        copies = spy_on_schedule(monkeypatch)
        runner.Simulation(self.SCENARIO, AggregationSemantics.MAJORITY, 3, "alternating", lines.append).run()
        records = [loads_records(line)[0] for line in lines]
        deadlines = {record["session"]: record["deadline"] for record in by_ev(records, "session_open")}
        for written, command in applied:
            send = records[written - 1]
            expected = {"ev": "send", "kind": "actuation", "dst": command.target, "session": command.session}
            assert send == {**send, **expected}
            assert max(record["t"] for record in records[:written]) == deadlines[command.session]
        after_deliver = {
            (record["src"], record["seq"], record["dst"]): lines[index + 1]
            for index, record in enumerate(records)
            if record["ev"] == "deliver" and record["kind"] == "actuation"
        }
        queued = [copy for copy in copies if copy[4] is runner.MessageKind.ACTUATION]
        assert len(queued) == len(after_deliver) == len(applied) > len(by_ev(records, "drop", kind="actuation")) > 0
        for _, src, seq, recipient, _, _, payload in queued:
            assert isinstance(payload, str) and payload == after_deliver[src, seq, recipient]


class TestSweep:
    def test_sweep_compares_all_semantics_across_seeds(self, tmp_path):
        scenario = make_scenario(sessions=5, fn=0.0, fp=0.0, present=True)
        result = run_sweep(
            scenario,
            list(AggregationSemantics),
            seeds=3,
            out_dir=tmp_path,
            scenario_name="tiny",
        )
        assert [row.semantics for row in result.rows] == [s.value for s in ALL_SEMANTICS]
        for row in result.rows:
            assert row.seeds == 3
            assert row.decisions == 15
            assert row.error_rate == 0.0
        assert result.solo_error_rates == {1: 0.0, 2: 0.0, 3: 0.0}

    def test_sweep_adds_the_runs_ledger_once_per_seed(self, monkeypatch):
        """Every arm shares the run's ledger, so only the first arm's total
        adds it; the other arms add their verdict counts alone."""
        added = []
        add = runner.RunMetrics.add
        monkeypatch.setattr(runner.RunMetrics, "add", lambda total, other: added.append(other) or add(total, other))
        scenario = make_scenario(sessions=4, fn=0.3, fp=0.3, drop=0.2)
        result = run_sweep(scenario, list(AggregationSemantics), seeds=3)
        assert len(added) == 3
        assert sum(row.decisions for row in result.rows) == 4 * 3 * len(ALL_SEMANTICS)
        total = runner.RunMetrics(decisions=1, stops=1, false_stop_count=1)
        total.add_verdicts(added[0])
        assert total.decisions == added[0].decisions + 1 and total.stops == added[0].stops + 1
        assert (total.gos, total.false_go_count) == (added[0].gos, added[0].false_go_count)
        assert total.false_stop_count == added[0].false_stop_count + 1
        assert total.exclusions == runner.RunMetrics().exclusions and total.solo == {}

    @pytest.mark.parametrize("seeds", [1, 5])
    def test_a_sweep_sets_up_once(self, monkeypatch, seeds):
        """A sweep validates its scenario, rates each node's sensor and ranks
        the node table once per call, yet still builds one Simulation through
        one run_once per seed: the traced bench wraps both names."""
        calls = dict.fromkeys(["validate_scenario", "detection_rates", "trust_positions", "run_once", "Simulation"], 0)

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        for name in ("validate_scenario", "detection_rates", "trust_positions", "run_once"):
            monkeypatch.setattr(runner, name, counting(name, getattr(runner, name)))
        monkeypatch.setattr(runner.Simulation, "__init__", counting("Simulation", runner.Simulation.__init__))
        scenario = make_scenario(node_count=4, drop=0.1, sessions=3)
        result = run_sweep(scenario, list(AggregationSemantics), seeds=seeds)
        assert calls == {
            "validate_scenario": 1,
            "detection_rates": 4,
            "trust_positions": 1,
            "run_once": seeds,
            "Simulation": seeds,
        }
        assert [row.decisions for row in result.rows] == [3 * seeds] * len(ALL_SEMANTICS)

    @pytest.mark.parametrize(
        "semantics_list",
        [
            [AggregationSemantics.MAJORITY, AggregationSemantics.UNANIMITY_SAFE],
            [AggregationSemantics.MAJORITY, AggregationSemantics.UNANIMITY_SAFE, AggregationSemantics.MAJORITY],
        ],
        ids=["distinct", "repeated"],
    )
    def test_sweep_writes_per_run_files_and_a_summary(self, tmp_path, semantics_list):
        """The out dir holds exactly the listed files: each semantics' seeds
        in order, semantics by name, then summary.csv."""
        scenario = make_scenario(sessions=2)
        result = run_sweep(scenario, semantics_list, seeds=2, out_dir=tmp_path, scenario_name="tiny")
        names = [
            "tiny__majority__seed0.metrics.ndjson",
            "tiny__majority__seed1.metrics.ndjson",
            "tiny__unanimity_safe__seed0.metrics.ndjson",
            "tiny__unanimity_safe__seed1.metrics.ndjson",
            "summary.csv",
        ]
        assert result.files == [tmp_path / name for name in names]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
        summary = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0] == "semantics,seeds,decisions,stops,gos,false_go_count,false_stop_count,error_rate"
        assert [line.split(",")[0] for line in summary[1:]] == sorted(semantics.value for semantics in semantics_list)

    def test_per_run_files_carry_structured_metrics(self, tmp_path):
        scenario = make_scenario(sessions=4)
        run_sweep(
            scenario,
            [AggregationSemantics.MAJORITY],
            seeds=1,
            out_dir=tmp_path,
            scenario_name="tiny",
        )
        text = (tmp_path / "tiny__majority__seed0.metrics.ndjson").read_text(encoding="utf-8")
        records = loads_records(text)
        assert all(r["scenario"] == "tiny" and r["seed"] == 0 for r in records)
        decisions = [r for r in records if r["metric"] == "decisions"]
        assert decisions == [
            {"scenario": "tiny", "semantics": "majority", "seed": 0, "metric": "decisions", "value": 4}
        ]
        solo = [r for r in records if r["metric"] == "solo_error_rate"]
        assert [r["node"] for r in solo] == [1, 2, 3]

    def test_sweep_without_out_dir_writes_nothing(self):
        scenario = make_scenario(sessions=2)
        result = run_sweep(scenario, [AggregationSemantics.MAJORITY], seeds=2)
        assert result.files == []
        assert result.rows[0].decisions == 4

    def test_sweep_rejects_bad_arguments(self, tmp_path, monkeypatch):
        scenario = make_scenario()
        with pytest.raises(ValueError):
            run_sweep(scenario, [AggregationSemantics.MAJORITY], seeds=0)
        with pytest.raises(ValueError):
            run_sweep(scenario, [], seeds=1)
        # Either would write outside out_dir: into the current dir, or next to out_dir.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="^out_dir "):
            run_sweep(scenario, [AggregationSemantics.MAJORITY], seeds=1, out_dir="")
        with pytest.raises(ValueError, match="^scenario_name "):
            run_sweep(scenario, [AggregationSemantics.MAJORITY], seeds=1, out_dir="out", scenario_name="../escaped")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("seeds", [True, 2.5, "2"])
    def test_seeds_must_be_an_int_of_at_least_one(self, seeds):
        with pytest.raises(ValueError, match="seeds"):
            run_sweep(make_scenario(), [AggregationSemantics.MAJORITY], seeds=seeds)

    @pytest.mark.parametrize("semantics_list", [["majority"], [AggregationSemantics.MAJORITY, "bogus"]])
    def test_a_non_member_semantics_is_refused(self, semantics_list):
        with pytest.raises(ValueError, match="AggregationSemantics"):
            run_sweep(make_scenario(), semantics_list, seeds=1)

    @pytest.mark.parametrize("semantics_list", ["majority", 5])
    def test_a_semantics_list_that_is_no_list_is_refused_whole(self, semantics_list):
        with pytest.raises(ValueError, match=f"^semantics_list .*got {re.escape(repr(semantics_list))}$"):
            run_sweep(make_scenario(), semantics_list, seeds=1)

    @pytest.mark.parametrize(
        "scenario, truth_mode, seeds, semantics_list, out_dir, scenario_name, error, match",
        [
            (NO_SESSIONS, "fixed", 2, [AggregationSemantics.MAJORITY], "out", "s", ScenarioValidationError, "sessions"),
            (make_scenario(), "x", 2, [AggregationSemantics.MAJORITY], "out", "s", ValueError, "^truth_mode "),
            (NO_SESSIONS, "x", 2, [AggregationSemantics.MAJORITY], "out", "s", ScenarioValidationError, "sessions"),
            (NO_SESSIONS, "x", 0, [AggregationSemantics.MAJORITY], "out", "s", ValueError, "^seeds "),
            (NO_SESSIONS, "x", 2, [], "out", "s", ValueError, "^at least one semantics"),
            (NO_SESSIONS, "x", 2, [AggregationSemantics.MAJORITY], "", "s", ValueError, "^out_dir "),
            (NO_SESSIONS, "x", 2, [AggregationSemantics.MAJORITY], "out", "../s", ValueError, "^scenario_name "),
        ],
        ids=[
            "no_sessions",
            "unknown_truth_mode",
            "no_sessions_and_unknown_truth_mode",
            "no_sessions_and_no_seeds",
            "no_sessions_and_no_semantics",
            "no_sessions_and_empty_out_dir",
            "no_sessions_and_escaping_scenario_name",
        ],
    )
    def test_a_rejected_sweep_leaves_no_out_dir(
        self, tmp_path, monkeypatch, scenario, truth_mode, seeds, semantics_list, out_dir, scenario_name, error, match
    ):
        """A sweep checks seeds, semantics_list, out_dir and scenario_name
        first, then validates its scenario once, and then its first run
        checks the other arguments as a Simulation does: an invalid scenario
        is refused before truth_mode, as by a Simulation. Each refusal comes
        before out_dir is made, and writes nothing in the current dir."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(error, match=match) as refused:
            run_sweep(
                scenario, semantics_list, seeds=seeds, truth_mode=truth_mode, out_dir=out_dir, scenario_name=scenario_name
            )
        assert not any(tmp_path.iterdir())
        if error is ScenarioValidationError:
            with pytest.raises(ScenarioValidationError) as built:
                runner.Simulation(scenario, AggregationSemantics.MAJORITY, 0, truth_mode)
            assert built.value.errors == refused.value.errors


def reference_sweep(scenario, semantics_list, seeds, truth_mode, out_dir, scenario_name):
    """The sweep as one run_once call per (semantics, seed), arm by arm.

    Written out field by field, without the library's sweep helpers, so the
    one-simulation-per-seed sweep is checked against an independent result.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = ("decisions", "stops", "gos", "false_go_count", "false_stop_count")
    rows, files = [], []
    solo_claims: dict[int, int] = {}
    solo_errors: dict[int, int] = {}
    arms = sorted(semantics_list, key=lambda s: s.value)
    for index, semantics in enumerate(arms):
        totals = dict.fromkeys(counts, 0)
        for seed in range(seeds):
            _, metrics = run_once(scenario, semantics, seed=seed, truth_mode=truth_mode, collect_trace=False)
            for name in counts:
                totals[name] += getattr(metrics, name)
            if index == 0:
                for node, stats in metrics.solo.items():
                    solo_claims[node] = solo_claims.get(node, 0) + stats.claims
                    solo_errors[node] = solo_errors.get(node, 0) + stats.errors
            head = {"scenario": scenario_name, "semantics": semantics.value, "seed": seed}
            lines = [{**head, "metric": name, "value": getattr(metrics, name)} for name in counts]
            lines.append({**head, "metric": "error_rate", "value": metrics.error_rate})
            for reason in sorted(metrics.exclusions):
                lines.append({**head, "metric": "exclusions", "reason": reason, "value": metrics.exclusions[reason]})
            for node in sorted(metrics.solo):
                stats = metrics.solo[node]
                lines.append(
                    {**head, "metric": "solo_error_rate", "node": node, "claims": stats.claims,
                     "errors": stats.errors, "value": stats.error_rate}
                )
            target = out_dir / f"{scenario_name}__{semantics.value}__seed{seed}.metrics.ndjson"
            target.write_text("".join(dumps_record(line) + "\n" for line in lines), encoding="utf-8")
            if target not in files:  # a repeated semantics rewrites its files; each is listed once
                files.append(target)
        wrong = totals["false_go_count"] + totals["false_stop_count"]
        rate = wrong / totals["decisions"] if totals["decisions"] else 0.0
        rows.append(SweepRow(semantics=semantics.value, seeds=seeds, **totals, error_rate=rate))
    summary = out_dir / "summary.csv"
    with summary.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["semantics", "seeds", "decisions", "stops", "gos", "false_go_count", "false_stop_count", "error_rate"]
        )
        for row in rows:
            writer.writerow(
                [row.semantics, row.seeds, row.decisions, row.stops, row.gos,
                 row.false_go_count, row.false_stop_count, f"{row.error_rate:.6f}"]
            )
    files.append(summary)
    solo = {node: solo_errors[node] / solo_claims[node] if solo_claims[node] else 0.0 for node in sorted(solo_claims)}
    return SweepResult(rows=rows, solo_error_rates=solo, files=files)


def lossy_scenario(rng: random.Random):
    """A random multi-session scenario with drops, where two network hops
    can outlast the collection window, so some claims land late or orphaned."""
    base = random_scenario(rng)
    latency_min = rng.randint(0, 5000)
    latency_max = latency_min + rng.randint(5000, 30000)
    network = dataclasses.replace(
        base.network,
        latency_min=latency_min,
        latency_max=latency_max,
        drop_probability=rng.choice([0.05, 0.1, 0.3]),
    )
    return dataclasses.replace(
        base,
        network=network,
        session_window=rng.randint(latency_max // 4 + 1, 2 * latency_max),
        settle_interval=latency_max + rng.randint(0, 2000),
        sessions=rng.randint(2, 6),
    )


class TestSweepMatchesOneRunPerSemantics:
    """A sweep simulates each seed once; every arm must read exactly as if
    run_once had simulated it on its own."""

    CASES = 30

    @pytest.mark.parametrize("truth_mode", TRUTH_MODES)
    def test_random_lossy_sweeps(self, tmp_path, truth_mode):
        rng = random.Random(f"one-simulation-per-seed/{truth_mode}")
        fixed_lists = [ALL_SEMANTICS, [AggregationSemantics.MAJORITY, AggregationSemantics.MAJORITY]]
        late = orphans = drops = diverged = 0
        for case in range(self.CASES):
            scenario = lossy_scenario(rng)
            if case < len(fixed_lists):
                semantics_list = list(fixed_lists[case])
            else:
                semantics_list = [rng.choice(ALL_SEMANTICS) for _ in range(rng.randint(1, 6))]
            seeds = rng.randint(2, 6)

            arms = sorted(semantics_list, key=lambda s: s.value)
            for seed in range(seeds):
                records, first, extra = run_once(
                    scenario, arms[0], seed=seed, truth_mode=truth_mode, extra_semantics=arms[1:]
                )
                alone_records, alone = run_once(scenario, arms[0], seed=seed, truth_mode=truth_mode)
                assert dumps_records(records) == dumps_records(alone_records)
                assert first == alone
                assert len(extra) == len(arms) - 1
                for semantics, metrics in zip(arms[1:], extra):
                    _, reference = run_once(
                        scenario, semantics, seed=seed, truth_mode=truth_mode, collect_trace=False
                    )
                    assert metrics == reference, (case, seed, semantics)
                sim = runner.Simulation(scenario, arms[0], seed, truth_mode, extra_semantics=tuple(arms[1:]))
                sim.run()
                assert sim.metrics == first
                assert sim.extra_metrics == extra
                late += first.exclusions["late"]
                orphans += sum(1 for r in records if r["ev"] == "claim_orphan")
                drops += sum(1 for r in records if r["ev"] == "drop")

            ours = run_sweep(scenario, semantics_list, seeds, truth_mode, tmp_path / f"{case}-sweep", "case")
            expected = reference_sweep(
                scenario, semantics_list, seeds, truth_mode, tmp_path / f"{case}-reference", "case"
            )
            assert ours.rows == expected.rows
            assert ours.solo_error_rates == expected.solo_error_rates
            assert [path.name for path in ours.files] == [path.name for path in expected.files]
            for mine, theirs in zip(ours.files, expected.files):
                assert mine.read_bytes() == theirs.read_bytes(), mine.name
            diverged += len({(row.stops, row.gos) for row in ours.rows}) > 1
        # The cases must exercise what could break the equivalence.
        assert late > 0 and orphans > 0 and drops > 0 and diverged > 0

    @pytest.mark.parametrize("truth_mode", TRUTH_MODES)
    def test_every_arm_shares_the_runs_ledger(self, truth_mode):
        """Exclusions and solo claims never depend on the verdict, so every
        extra arm holds the driving arm's own objects, not a copy."""
        rng = random.Random(f"shared-ledger/{truth_mode}")
        excluded = 0
        for seed in range(6):
            scenario = lossy_scenario(rng)
            sim = runner.Simulation(scenario, ALL_SEMANTICS[0], seed, truth_mode, extra_semantics=ALL_SEMANTICS[1:])
            sim.run()
            assert len(sim.extra_metrics) == len(ALL_SEMANTICS) - 1
            for semantics, metrics in zip(ALL_SEMANTICS, (sim.metrics, *sim.extra_metrics)):
                assert metrics.exclusions is sim.metrics.exclusions
                assert metrics.solo is sim.metrics.solo
                _, alone = run_once(scenario, semantics, seed=seed, truth_mode=truth_mode, collect_trace=False)
                assert metrics == alone, (seed, semantics)
            excluded += sum(sim.metrics.exclusions.values())
        assert excluded > 0

    def test_default_call_returns_records_and_metrics_only(self):
        scenario = make_scenario(sessions=3, drop=0.2)
        assert len(run_once(scenario, AggregationSemantics.MAJORITY, seed=1)) == 2
        records, metrics, extra = run_once(scenario, AggregationSemantics.MAJORITY, seed=1, extra_semantics=[])
        assert extra == []


class TestMonteCarloExamples:
    """Frozen statistical outcomes with analytic oracles.

    Each value was derived by hand first, then measured once at a fixed
    seed; the measured number is pinned so any drift in the keyed draw
    chain shows up as a hard failure rather than statistical noise.
    """

    def test_expert_override_error_tracks_the_expert_alone(self):
        """One sharp lidar (solo error 0.02) plus two near-blind cameras
        (0.45): the single-expert rule scores the expert's own error rate.
        Analytic 0.02; frozen measurement 0.01995 over 20 000 sessions."""
        from crossguard.model import (
            GroundTruth,
            NetworkConfig,
            NodeSpec,
            PerceptionModel,
            Pose,
            Scenario,
            SensorKind,
            SensorProfile,
        )

        center = Pose(0.0, 0.0)
        expert = SensorProfile(
            kind=SensorKind.LIDAR,
            base_false_negative=0.02,
            base_false_positive=0.02,
            effective_range=50.0,
        )
        peer = SensorProfile(
            kind=SensorKind.RGB_CAMERA,
            base_false_negative=0.45,
            base_false_positive=0.45,
            effective_range=50.0,
        )
        scenario = Scenario(
            nodes=(
                NodeSpec(id=1, pose=center, sensor=expert, master=True, actuated=True),
                NodeSpec(id=2, pose=center, sensor=peer),
                NodeSpec(id=3, pose=center, sensor=peer),
            ),
            ground_truth=GroundTruth(pedestrian_present=True, pedestrian_pose=center),
            perception=PerceptionModel(distance_reference=10.0, query_center=center),
            network=NetworkConfig(latency_min=1000, latency_max=5000, drop_probability=0.0, seed=7),
            session_window=20000,
            settle_interval=5000,
            sessions=20000,
        )
        _, metrics = run_once(
            scenario, AggregationSemantics.EXPERT_OVERRIDE, seed=0, collect_trace=False
        )
        assert metrics.error_rate == pytest.approx(0.01995)
        assert abs(metrics.error_rate - 0.02) <= 0.005
        assert abs(metrics.solo_error_rate(1) - 0.02) <= 0.005
        assert 0.40 <= metrics.solo_error_rate(2) <= 0.50

    def test_unanimity_false_stop_rate_matches_the_complement_rule(self):
        """Pedestrian absent, three independent 0.1 false-positive sensors:
        any single false alarm stops, so the false-stop rate is
        1 - 0.9^3 = 0.271. Frozen measurement 0.27037 over 100 000 sessions."""
        scenario = make_scenario(
            node_count=3, fn=0.1, fp=0.1, present=False, sessions=100000
        )
        _, metrics = run_once(
            scenario, AggregationSemantics.UNANIMITY_SAFE, seed=0, collect_trace=False
        )
        false_stop_rate = metrics.false_stop_count / metrics.decisions
        assert false_stop_rate == pytest.approx(0.27037)
        assert abs(false_stop_rate - 0.271) <= 0.005


def test_metrics_collector_can_replay_a_stored_trace():
    """Feeding a saved trace back through a fresh collector reproduces the
    run's metrics exactly."""
    scenario = make_scenario(sessions=10, fn=0.2, fp=0.2, drop=0.1)
    records, live = run_once(scenario, AggregationSemantics.MAJORITY, seed=21)
    replay = MetricsCollector()
    for record in records:
        replay.feed(record)
    assert replay.metrics.decisions == live.decisions
    assert replay.metrics.stops == live.stops
    assert replay.metrics.gos == live.gos
    assert replay.metrics.false_go_count == live.false_go_count
    assert replay.metrics.false_stop_count == live.false_stop_count
    assert replay.metrics.exclusions == live.exclusions


class TestLazyTrace:
    """Metrics are booked from typed events; trace lines exist only for a sink."""

    def test_a_run_without_a_trace_sink_builds_no_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trace line was made for no sink")

        scenario = make_scenario(
            node_count=4, fn=0.2, drop=0.2, latency=(2000, 30000), window=20000, settle=30000, sessions=5
        )
        sinks = []
        run = runner.Simulation.run

        def watched(sim):
            sinks.append(sim.sink)
            run(sim)

        monkeypatch.setattr(runner.Simulation, "run", watched)
        monkeypatch.setattr(runner, "claim_payload", refuse)
        monkeypatch.setattr(runner, "dumps_record", refuse)
        for kind in RECORD_KINDS:
            if hasattr(runner.write, kind.name):
                monkeypatch.setattr(runner.write, kind.name, refuse)
        records, metrics = run_once(scenario, AggregationSemantics.MAJORITY, seed=3, collect_trace=False)
        assert records is None
        assert sinks == [None]
        assert metrics.decisions == 5 and sum(stats.claims for stats in metrics.solo.values()) > 0
        # The same stubs do fire once run_once collects records, or streams lines, or both.
        for collect_trace, stream in [(True, None), (False, io.StringIO()), (True, io.StringIO())]:
            with pytest.raises(AssertionError, match="no sink"):
                run_once(scenario, AggregationSemantics.MAJORITY, 3, "fixed", collect_trace, stream)

    def test_a_traced_run_encodes_each_node_s_claim_fields_once(self, monkeypatch):
        """A claim send's fixed fields are encoded once per node, its
        detection left open, so a traced run calls claim_payload once per
        node however many claims it sends, and a run with no sink never."""
        calls = []

        def counted(claim):
            calls.append(claim.node)
            return claim_payload(claim)

        monkeypatch.setattr(runner, "claim_payload", counted)
        scenario = make_scenario(
            node_count=5, fn=0.3, fp=0.3, drop=0.2, latency=(2000, 30000), window=20000, settle=30000, sessions=8
        )
        run_once(scenario, AggregationSemantics.MAJORITY, 3, "alternating", collect_trace=False)
        assert calls == []
        for collect_trace, stream in [(True, None), (False, io.StringIO()), (True, io.StringIO())]:
            calls.clear()
            records, _ = run_once(scenario, AggregationSemantics.MAJORITY, 3, "alternating", collect_trace, stream)
            text = dumps_records(records) if stream is None else stream.getvalue()
            assert text.count('"kind":"claim","src"') > 4 * 5
            assert sorted(calls) == [1, 2, 3, 4, 5]

    def test_a_lean_run_keeps_memory_flat(self):
        """Nothing is kept per session: a lean run's peak traced memory over
        5000 sessions exceeds its peak over 500 by less than a fixed 16 KiB."""

        def peak(sessions: int) -> int:
            scenario = make_scenario(node_count=3, sessions=sessions)
            tracemalloc.start()
            try:
                run_once(scenario, AggregationSemantics.MAJORITY, seed=0, collect_trace=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(5000) - peak(500) <= 16 * 1024

    @pytest.mark.parametrize(
        "collect_trace, stream",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["lean", "records", "stream", "records_and_stream"],
    )
    def test_a_run_is_freed_by_reference_counting_alone(self, monkeypatch, collect_trace, stream):
        """A Simulation holds no reference cycle, whatever its trace output:
        with the cyclic GC off, it is freed as soon as run_once returns."""
        runs = []
        run = runner.Simulation.run

        def watched(sim):
            runs.append(weakref.ref(sim))
            run(sim)

        monkeypatch.setattr(runner.Simulation, "run", watched)
        scenario = make_scenario(node_count=4, fn=0.2, drop=0.2, sessions=5)
        output = io.StringIO() if stream else None
        extra = [AggregationSemantics.EXPERT_OVERRIDE]
        gc.disable()
        try:
            run_once(scenario, AggregationSemantics.MAJORITY, 3, "fixed", collect_trace, output, extra_semantics=extra)
            assert len(runs) == 1 and runs[0]() is None
        finally:
            gc.enable()

    CASES = 12

    @pytest.mark.parametrize("truth_mode", TRUTH_MODES)
    def test_collector_only_traced_and_replayed_metrics_agree(self, truth_mode):
        rng = random.Random(f"lazy-trace/{truth_mode}")
        late = orphans = 0
        for _ in range(self.CASES):
            scenario = lossy_scenario(rng)
            seed = rng.randrange(2**64)
            for semantics in ALL_SEMANTICS:
                _, lean = run_once(scenario, semantics, seed, truth_mode, collect_trace=False)
                stream = io.StringIO()
                records, traced = run_once(scenario, semantics, seed, truth_mode, trace_stream=stream)
                assert stream.getvalue() == dumps_records(records)
                replay = MetricsCollector()
                for record in loads_records(stream.getvalue()):
                    replay.feed(record)
                assert lean == traced == replay.metrics, (scenario, semantics, seed)
                late += lean.exclusions["late"]
                orphans += sum(1 for record in records if record["ev"] == "claim_orphan")
        assert late > 0 and orphans > 0
