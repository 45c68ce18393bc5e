"""Metamorphic relations: two runs with the same seed and truth mode, of two
scenarios that differ in one respect, share the draws README's Determinism
section says they share."""

from __future__ import annotations

import dataclasses
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
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
