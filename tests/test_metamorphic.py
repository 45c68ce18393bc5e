"""Metamorphic relations: two runs with the same seed and truth mode, of two
scenarios that differ in one respect, share the draws README's Determinism
section says they share."""

from __future__ import annotations

import dataclasses
import random
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossguard.aggregation import AggregationSemantics
from crossguard.model import NodeSpec, Pose, SensorKind, SensorProfile
from crossguard.runner import run_once
from crossguard.scenario import load_scenario
from crossguard.trace import dumps_records

from helpers import INTERSECTION, random_scenario

TRUTH_MODES = ("fixed", "alternating")
SEMANTICS = list(AggregationSemantics)


def run(scenario, truth_mode: str) -> tuple[list[dict], list]:
    """The run's records and every arm's RunMetrics, the first semantics driving."""
    records, metrics, extra = run_once(scenario, SEMANTICS[0], None, truth_mode, extra_semantics=SEMANTICS[1:])
    return records, [metrics, *extra]


def with_node(scenario, node_id: int, rng: random.Random, actuated: bool):
    """scenario plus node node_id, placed and equipped at random, neither the master nor, unless asked, actuated."""
    sensor = SensorProfile(
        kind=rng.choice(list(SensorKind)),
        base_false_negative=rng.uniform(0.0, 0.45),
        base_false_positive=rng.uniform(0.0, 0.45),
        effective_range=rng.uniform(5.0, 80.0),
    )
    node = NodeSpec(node_id, Pose(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)), sensor, False, actuated)
    return dataclasses.replace(scenario, nodes=(*scenario.nodes, node))


def claim_sends(records: list[dict], node: int) -> list[dict]:
    sends = (record for record in records if record["ev"] == "send")
    return [record for record in sends if record["kind"] == "claim" and record["src"] == node]


def used_without(records: list[dict], node: int) -> list[list[int]]:
    """Each decision's used list, node taken out."""
    return [[used for used in record["used"] if used != node] for record in records if record["ev"] == "decision"]


@pytest.mark.parametrize("truth_mode", TRUTH_MODES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_listing_the_nodes_in_another_order_changes_no_trace_byte_and_no_metric(truth_mode, draw):
    """README: "listing a scenario's nodes in another order changes no trace byte"."""
    rng = random.Random(draw)
    scenario = random_scenario(rng)
    nodes = list(scenario.nodes)
    rng.shuffle(nodes)
    records, metrics = run(scenario, truth_mode)
    permuted_records, permuted_metrics = run(dataclasses.replace(scenario, nodes=tuple(nodes)), truth_mode)
    assert dumps_records(permuted_records) == dumps_records(records)
    assert permuted_metrics == metrics


@pytest.mark.parametrize("truth_mode", TRUTH_MODES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_adding_a_node_that_is_not_actuated_changes_no_other_node_s_claims(truth_mode, draw):
    """README: "Adding a node that is not actuated leaves every existing draw
    untouched." So every other node's claim sends are the same records, and
    each decision uses the same claims besides the new node's."""
    rng = random.Random(draw)
    scenario = random_scenario(rng)
    new = rng.choice([node for node in range(1, 41) if node not in scenario.node_ids()])  # may sort between them
    records, _ = run(scenario, truth_mode)
    added, _ = run(with_node(scenario, new, rng, actuated=False), truth_mode)
    for spec in scenario.nodes:
        assert claim_sends(added, spec.id) == claim_sends(records, spec.id)
    assert used_without(added, new) == used_without(records, new)


def start_copy_fates(records: list[dict], nodes: tuple[int, ...]) -> list[list]:
    """Per session start, in session order, each node's copy: its delivery time, or "dropped"."""
    fates = {}
    for record in records:
        if record["ev"] in ("deliver", "drop") and record["kind"] == "session_start":
            fates[record["seq"], record["dst"]] = record["t"] if record["ev"] == "deliver" else "dropped"
    starts = [record["seq"] for record in records if record["ev"] == "send" and record["kind"] == "session_start"]
    return [[fates[seq, node] for node in nodes] for seq in starts]


def test_adding_an_actuated_node_moves_the_start_copies_from_session_2_on():
    """README: "Adding an actuated one does not: the master numbers each
    command it sends, so one more command a session shifts the master's
    sequence numbers, and with them the draws of every session start copy
    from session 2 on." Pinned on the bundled crossing, 3 lossy sessions, plus a node 99."""
    crossing = load_scenario(INTERSECTION)
    scenario = dataclasses.replace(
        crossing, network=dataclasses.replace(crossing.network, drop_probability=0.2, seed=5), sessions=3
    )
    nodes = scenario.node_ids()
    fates = start_copy_fates(run(scenario, "fixed")[0], nodes)
    assert len(fates) == 3 and any("dropped" in session for session in fates)
    for actuated in (False, True):
        added = start_copy_fates(run(with_node(scenario, 99, random.Random(99), actuated), "fixed")[0], nodes)
        assert added[0] == fates[0]
        assert (added[1:] == fates[1:]) is not actuated


def swapped_rates(node: NodeSpec) -> NodeSpec:
    """node with its sensor's base false-negative and false-positive rates swapped."""
    sensor = node.sensor
    fn, fp = sensor.base_false_negative, sensor.base_false_positive
    return dataclasses.replace(node, sensor=dataclasses.replace(sensor, base_false_negative=fp, base_false_positive=fn))


CLAIM_FIELDS = itemgetter("session", "emitted_at", "detection")


def claim_fields(records: list[dict]) -> list[tuple]:
    """Each claim send's t, src, seq, session and emitted_at, and its detection."""
    sends = (record for record in records if record["ev"] == "send" and record["kind"] == "claim")
    return [(send["t"], send["src"], send["seq"], *CLAIM_FIELDS(send["claim"])) for send in sends]


FLIPPED = {"pedestrian_detected": "clear", "clear": "pedestrian_detected"}


@pytest.mark.parametrize("truth_mode", TRUTH_MODES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_swapping_every_node_s_error_rates_and_the_truth_flips_every_detection(truth_mode, draw):
    """README: "`sense(present, miss, ghost, draw)` turns one uniform draw in
    [0, 1) into a detection: clear iff `draw < miss` when a pedestrian is
    present, detected iff `draw < ghost` when none is." With the pedestrian at
    the query center, a node's miss and ghost are its base false-negative and
    false-positive rates scaled alike by one distance. Swapping the two base
    rates of every node and flipping the truth swaps miss and ghost along
    with the branch taken, so each claim, on the same draw, reports the other
    detection. No time, seq or session depends on a detection, so every claim
    send keeps its t, seq, session and emitted_at."""
    scenario = random_scenario(random.Random(draw))
    truth = dataclasses.replace(scenario.ground_truth, pedestrian_pose=scenario.perception.query_center)
    scenario = dataclasses.replace(scenario, ground_truth=truth)
    dual = dataclasses.replace(
        scenario,
        nodes=tuple(swapped_rates(node) for node in scenario.nodes),
        ground_truth=dataclasses.replace(truth, pedestrian_present=not truth.pedestrian_present),
    )
    claims = claim_fields(run(scenario, truth_mode)[0])
    assert claim_fields(run(dual, truth_mode)[0]) == [(*fields, FLIPPED[detection]) for *fields, detection in claims]


def claim_keys(records: list[dict]) -> list[tuple]:
    """Each claim send's src and seq and its claim's session and detection, in trace order."""
    sends = (record for record in records if record["ev"] == "send" and record["kind"] == "claim")
    return [(send["src"], send["seq"], send["claim"]["session"], send["claim"]["detection"]) for send in sends]


def used_sets(records: list[dict]) -> list[set[int]]:
    return [set(record["used"]) for record in records if record["ev"] == "decision"]


def widened(scenario, rng: random.Random):
    """scenario with its session window raised by 1 to 40 000 ticks, its settle interval unchanged."""
    return dataclasses.replace(scenario, session_window=scenario.session_window + rng.randint(1, 40000))


@pytest.mark.parametrize("truth_mode", TRUTH_MODES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_raising_the_window_keeps_every_claim_and_only_adds_used_claims(truth_mode, draw):
    """README: "On a scenario whose `latency_max` is at most its
    `session_window`, raising the window, settle unchanged, leaves every
    claim's `src`, `seq`, session and detection as they were, and each
    session's used claims can only grow." Every start copy still lands by
    the deadline, so the master still numbers its own claim before its
    commands, and a claim accepted by the old deadline is accepted by the
    later one."""
    rng = random.Random(draw)
    scenario = random_scenario(rng)
    assume(scenario.network.latency_max <= scenario.session_window)
    records, wider = (run(case, truth_mode)[0] for case in (scenario, widened(scenario, rng)))
    assert claim_keys(wider) == claim_keys(records)
    for used, wider_used in zip(used_sets(records), used_sets(wider), strict=True):
        assert used <= wider_used


def master_claims_after_commands(records: list[dict], master: int) -> list[bool]:
    """Per master claim, in trace order: whether its seq follows its session's commands'."""
    commands = {}
    for record in records:
        if record["ev"] == "send" and record["kind"] == "actuation":
            commands.setdefault(record["session"], []).append(record["seq"])
    return [claim["seq"] > max(commands[claim["claim"]["session"]]) for claim in claim_sends(records, master)]


def test_the_window_relation_needs_latency_max_within_the_window():
    """A window below latency_max breaks the window relation: the master's
    own start copy can land after the deadline, and its claim is then
    numbered after its commands. random_scenario(random.Random(578)) has a
    window of 12 943 under a latency_max of 13 794; raised to 52 893, its
    claim seqs differ under both truth modes."""
    rng = random.Random(578)
    scenario = random_scenario(rng)
    assert (scenario.session_window, scenario.network.latency_max) == (12943, 13794)
    wider = widened(scenario, rng)
    assert wider.session_window == 52893
    master = scenario.master_node().id
    for truth_mode in TRUTH_MODES:
        records, wider_records = (run(case, truth_mode)[0] for case in (scenario, wider))
        assert claim_keys(wider_records) != claim_keys(records)
        assert any(master_claims_after_commands(records, master))
        assert not any(master_claims_after_commands(wider_records, master))


def rankings(records: list[dict]) -> list[list[int]]:
    return [record["ranking"] for record in records if record["ev"] == "decision"]


def right_verdicts(records: list[dict]) -> list[bool]:
    """Per decision, in session order: whether its verdict is right for its session's truth."""
    present = {record["session"]: record["pedestrian_present"] for record in records if record["ev"] == "session_open"}
    decisions = (record for record in records if record["ev"] == "decision")
    return [(decision["verdict"] == "stop") == present[decision["session"]] for decision in decisions]


@pytest.mark.parametrize("truth_mode", TRUTH_MODES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_raising_the_distance_reference_keeps_every_ranking_and_every_right_verdict(truth_mode, draw):
    """README: "Raising `perception.distance_reference` can only lower each
    node's miss and ghost rates and leaves every ranking as it was, so on the
    same draws no node's solo errors rise and, under every semantics, a
    session whose verdict was right stays right." A detection is right iff
    its draw is at or above its rate, and every semantics' verdict is right
    whenever it was and no claim turned wrong."""
    rng = random.Random(draw)
    scenario = random_scenario(rng)
    perception = scenario.perception
    reference = perception.distance_reference * rng.uniform(1.0, 20.0)
    sharper = dataclasses.replace(scenario, perception=dataclasses.replace(perception, distance_reference=reference))
    for semantics in SEMANTICS:
        (records, metrics), (sharp_records, sharp_metrics) = (
            run_once(case, semantics, None, truth_mode) for case in (scenario, sharper)
        )
        assert rankings(sharp_records) == rankings(records)
        for right, sharp_right in zip(right_verdicts(records), right_verdicts(sharp_records), strict=True):
            assert sharp_right or not right
    assert sharp_metrics.solo.keys() == metrics.solo.keys()
    for node, stats in metrics.solo.items():
        assert sharp_metrics.solo[node].errors <= stats.errors
