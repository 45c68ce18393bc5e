"""The benchmark's workloads: seeded input generators, the public calls they
time, and the checks on those calls' outputs.

A workload is a fixed list of calls, one *pass*. The timed loop repeats the
pass, so every pass does identical work and the mix of inputs never depends
on how many calls fit in the measured seconds.

Inputs come only from the workload seed (through ``random.Random(seed)``
and its ``random()`` method, which is stable across Python versions) and
the bundled ``scenarios/intersection.scenario``. The program sees nothing
else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path
from typing import Callable

from crossguard import (
    AggregationSemantics,
    GroundTruth,
    NetworkConfig,
    NodeSpec,
    Pose,
    Scenario,
    SensorKind,
    SensorProfile,
)
from crossguard import runner as runner_mod
from crossguard import scenario as scenario_mod

ROOT = Path(__file__).resolve().parent.parent
INTERSECTION = ROOT / "scenarios" / "intersection.scenario"
EXPECTED = Path(__file__).resolve().parent / "expected" / "digests_seed0.json"

DEFAULT_SEED = 0
# Never used while tuning this benchmark or a change measured with it;
# a claimed gain is re-checked on this seed.
HELD_OUT_SEED = 104729

SEMANTICS = sorted(AggregationSemantics, key=lambda s: s.value)
# The exclusion reasons that exist today; digests cover only these, so an
# added reason or output field never reads as a wrong answer.
EXCLUSION_REASONS = ("unknown_node", "malformed_evidence", "duplicate", "late")

# A pass holds at least 100 calls, so each pass's own p90 has ten calls above it.
SWEEP_VARIANTS = 100
SWEEP_SEEDS = 8
FLEET_NODE_COUNTS = tuple(range(3, 31))  # each paired once with each of the four semantics
FLEET_SESSIONS = 32  # tens of sessions, so per-call set-up is a small share
FLEET_WINDOW = 40_000
FLEET_LATENCY = (2_000, 25_000)  # two hops can exceed the window: some claims land late
FLEET_DROP = 0.1
FLEET_SENSORS = {
    # kind: (false-negative range, false-positive range, effective-range range)
    SensorKind.LIDAR: ((0.01, 0.05), (0.005, 0.02), (25.0, 50.0)),
    SensorKind.OPTICAL_CAMERA: ((0.05, 0.2), (0.01, 0.05), (15.0, 35.0)),
    SensorKind.RGB_CAMERA: ((0.1, 0.3), (0.02, 0.1), (10.0, 30.0)),
}


@dataclasses.dataclass
class Call:
    """One timed public call and what its output must satisfy."""

    key: str
    scenario: Scenario
    run: Callable[[], object]
    decisions: int  # decided sessions, summed over semantics arms
    seeds: int  # distinct (input, seed) simulations requested
    fields: Callable[[object], object]  # the output fields that exist today
    invariants: Callable[[object], list[str]]
    trace_path: Path | None = None  # where the call writes its trace, if anywhere


def _uniform(rng: random.Random, low: float, high: float) -> float:
    return low + (high - low) * rng.random()


def _index(rng: random.Random, n: int) -> int:
    return min(int(rng.random() * n), n - 1)


def _word(rng: random.Random) -> int:
    return int(rng.random() * 2**53)


def load_template() -> Scenario:
    """The bundled crossing, loaded and validated the way users load files."""
    return scenario_mod.load_scenario(INTERSECTION)


# -- generators -----------------------------------------------------------


def sweep_scenarios(seed: int, template: Scenario) -> list[Scenario]:
    """Jittered copies of the crossing: 3 nodes, 1 session, same character.

    Poses move by at most 1 m per axis and base rates by at most 20%, so the
    master stays a far rgb camera and the lidar stays beside the crossing.
    Each copy holds a pedestrian or not, by a fair coin.
    """
    rng = random.Random(seed)
    variants = []
    for _ in range(SWEEP_VARIANTS):
        nodes = []
        for spec in template.nodes:
            sensor = spec.sensor
            nodes.append(
                dataclasses.replace(
                    spec,
                    pose=Pose(spec.pose.x + _uniform(rng, -1.0, 1.0), spec.pose.y + _uniform(rng, -1.0, 1.0)),
                    sensor=dataclasses.replace(
                        sensor,
                        base_false_negative=sensor.base_false_negative * _uniform(rng, 0.8, 1.2),
                        base_false_positive=sensor.base_false_positive * _uniform(rng, 0.8, 1.2),
                    ),
                )
            )
        truth = dataclasses.replace(template.ground_truth, pedestrian_present=rng.random() < 0.5)
        variants.append(dataclasses.replace(template, nodes=tuple(nodes), ground_truth=truth))
    return variants


def _shuffle(rng: random.Random, items: list) -> None:
    """Fisher-Yates on random() alone."""
    for last in range(len(items) - 1, 0, -1):
        pick = _index(rng, last + 1)
        items[last], items[pick] = items[pick], items[last]


def _fleet_scenario(rng: random.Random, node_count: int, template: Scenario) -> Scenario:
    center = template.perception.query_center
    kinds = list(FLEET_SENSORS)
    # A fixed share of actuated nodes, so the work per node count hardly
    # depends on the seed; the master is always one of them.
    ids = list(range(1, node_count + 1))
    _shuffle(rng, ids)
    master = ids[0]
    actuated = set(ids[: max(2, round(node_count / 4))])
    nodes = []
    for node in range(1, node_count + 1):
        kind = kinds[_index(rng, len(kinds))]
        fn, fp, reach = FLEET_SENSORS[kind]
        distance = _uniform(rng, 1.0, 40.0)
        angle = _uniform(rng, 0.0, 2.0 * math.pi)
        nodes.append(
            NodeSpec(
                id=node,
                pose=Pose(center.x + distance * math.cos(angle), center.y + distance * math.sin(angle)),
                sensor=SensorProfile(
                    kind=kind,
                    base_false_negative=_uniform(rng, *fn),
                    base_false_positive=_uniform(rng, *fp),
                    effective_range=_uniform(rng, *reach),
                ),
                master=node == master,
                actuated=node in actuated,
            )
        )
    return dataclasses.replace(
        template,
        nodes=tuple(nodes),
        ground_truth=GroundTruth(
            pedestrian_present=rng.random() < 0.5,
            pedestrian_pose=Pose(center.x + _uniform(rng, -2.0, 2.0), center.y + _uniform(rng, -2.0, 2.0)),
        ),
        network=NetworkConfig(
            latency_min=FLEET_LATENCY[0],
            latency_max=FLEET_LATENCY[1],
            drop_probability=FLEET_DROP,
            seed=_word(rng),
        ),
        session_window=FLEET_WINDOW,
        settle_interval=FLEET_LATENCY[1],
        sessions=FLEET_SESSIONS,
    )


def fleet_inputs(seed: int, template: Scenario) -> list[tuple[Scenario, AggregationSemantics, int]]:
    """(scenario, semantics, run seed) per call: every node count in 3..30
    once with each semantics, in seeded order, each on its own scenario."""
    rng = random.Random(seed)
    pairs = [(count, semantics) for count in FLEET_NODE_COUNTS for semantics in SEMANTICS]
    _shuffle(rng, pairs)
    return [(_fleet_scenario(rng, count, template), semantics, _word(rng)) for count, semantics in pairs]


# -- output fields and invariants ------------------------------------------


def metrics_fields(metrics) -> dict:
    return {
        "decisions": metrics.decisions,
        "stops": metrics.stops,
        "gos": metrics.gos,
        "false_go_count": metrics.false_go_count,
        "false_stop_count": metrics.false_stop_count,
        "exclusions": {reason: metrics.exclusions[reason] for reason in EXCLUSION_REASONS},
        "solo": [[node, stats.claims, stats.errors] for node, stats in sorted(metrics.solo.items())],
    }


def sweep_fields(result) -> dict:
    return {
        "rows": [
            [row.semantics, row.seeds, row.decisions, row.stops, row.gos,
             row.false_go_count, row.false_stop_count, row.error_rate]
            for row in result.rows
        ],
        "solo_error_rates": [[node, rate] for node, rate in sorted(result.solo_error_rates.items())],
    }


def digest(fields: object) -> str:
    """SHA-256 of the fields' canonical JSON; floats keep every digit."""
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _conservation(fields: dict, sessions: int) -> list[str]:
    problems = []
    if fields["stops"] + fields["gos"] != fields["decisions"]:
        problems.append(f"stops {fields['stops']} + gos {fields['gos']} != decisions {fields['decisions']}")
    if fields["decisions"] != sessions:
        problems.append(f"decisions {fields['decisions']} != sessions {sessions}")
    return problems


def replay_fields(lines) -> dict:
    """Meter a trace file's records into the fields metrics_fields returns.

    Written from the documented record kinds, independently of the
    program's own collector, so the two can disagree.
    """
    truth: dict[int, bool] = {}
    counts = {"decisions": 0, "stops": 0, "gos": 0, "false_go_count": 0, "false_stop_count": 0}
    exclusions = {reason: 0 for reason in EXCLUSION_REASONS}
    solo: dict[int, list[int]] = {}
    for line in lines:
        record = json.loads(line)
        ev = record["ev"]
        if ev == "session_open":
            truth[record["session"]] = record["pedestrian_present"]
        elif ev == "send" and record["kind"] == "claim":
            claim = record["claim"]
            stats = solo.setdefault(claim["node"], [0, 0])
            stats[0] += 1
            if (claim["detection"] == "pedestrian_detected") != truth[claim["session"]]:
                stats[1] += 1
        elif ev == "decision":
            present = truth[record["session"]]
            counts["decisions"] += 1
            if record["verdict"] == "stop":
                counts["stops"] += 1
                counts["false_stop_count"] += not present
            else:
                counts["gos"] += 1
                counts["false_go_count"] += present
        elif ev == "claim_excluded":
            exclusions[record["reason"]] += 1
        elif ev == "claim_orphan":
            exclusions["late"] += 1
    return {**counts, "exclusions": exclusions, "solo": [[node, *solo[node]] for node in sorted(solo)]}


# -- workloads ---------------------------------------------------------------


def _sweep_calls(seed: int, template: Scenario) -> list[Call]:
    def invariants(fields: dict) -> list[str]:
        problems = []
        if len(fields["rows"]) != len(SEMANTICS):
            problems.append(f"{len(fields['rows'])} sweep rows for {len(SEMANTICS)} semantics")
        for name, seeds, decisions, stops, gos, *_ in fields["rows"]:
            if seeds != SWEEP_SEEDS or stops + gos != decisions or decisions != SWEEP_SEEDS * template.sessions:
                problems.append(f"{name}: seeds {seeds}, decisions {decisions}, stops {stops}, gos {gos}")
        return problems

    calls = []
    for index, scenario in enumerate(sweep_scenarios(seed, template)):
        calls.append(
            Call(
                key=f"variant{index}",
                scenario=scenario,
                run=lambda scenario=scenario: runner_mod.run_sweep(scenario, SEMANTICS, SWEEP_SEEDS),
                decisions=SWEEP_SEEDS * len(SEMANTICS) * scenario.sessions,
                seeds=SWEEP_SEEDS,
                fields=sweep_fields,
                invariants=invariants,
            )
        )
    return calls


def _run_collector(scenario: Scenario, semantics: AggregationSemantics, run_seed: int):
    _, metrics = runner_mod.run_once(
        scenario, semantics, seed=run_seed, truth_mode="alternating", collect_trace=False
    )
    return metrics


def _fleet_calls(seed: int, template: Scenario, trace_dir: Path | None) -> list[Call]:
    calls = []
    for index, (scenario, semantics, run_seed) in enumerate(fleet_inputs(seed, template)):
        key = f"call{index}"
        sessions = scenario.sessions
        if trace_dir is None:
            calls.append(
                Call(
                    key=key,
                    scenario=scenario,
                    run=lambda s=scenario, m=semantics, r=run_seed: _run_collector(s, m, r),
                    decisions=sessions,
                    seeds=1,
                    fields=metrics_fields,
                    invariants=lambda fields, sessions=sessions: _conservation(fields, sessions),
                )
            )
            continue
        path = trace_dir / f"{key}.trace.ndjson"

        def run(s=scenario, m=semantics, r=run_seed, path=path):
            # The way `crossguard run --trace` runs: stream only, closed after the call.
            with open(path, "w", encoding="utf-8") as stream:
                _, metrics = runner_mod.run_once(
                    s, m, seed=r, truth_mode="alternating", collect_trace=False, trace_stream=stream
                )
            return metrics

        def fields(metrics, path=path):
            return {**metrics_fields(metrics), "trace_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

        def invariants(fields, s=scenario, m=semantics, r=run_seed, path=path):
            own = {name: value for name, value in fields.items() if name != "trace_sha256"}
            problems = _conservation(own, s.sessions)
            with open(path, encoding="utf-8") as stream:
                if replay_fields(stream) != own:
                    problems.append("trace replay disagrees with the returned metrics")
            if metrics_fields(_run_collector(s, m, r)) != own:
                problems.append("collector-only run disagrees with the traced run")
            return problems

        calls.append(
            Call(
                key=key,
                scenario=scenario,
                run=run,
                decisions=sessions,
                seeds=1,
                fields=fields,
                invariants=invariants,
                trace_path=path,
            )
        )
    return calls


def build_calls(workload: str, seed: int, template: Scenario, trace_dir: Path) -> list[Call]:
    """One pass of a workload; fleet_traced writes its trace file in trace_dir."""
    if workload == "sweep_crossing":
        return _sweep_calls(seed, template)
    if workload == "fleet_collector":
        return _fleet_calls(seed, template, None)
    if workload == "fleet_traced":
        return _fleet_calls(seed, template, trace_dir)
    raise ValueError(f"unknown workload {workload!r}")


def check(call: Call, output: object, expected: str | None, deep: bool) -> tuple[str, list[str]]:
    """The output's digest and every problem found with it.

    `expected` is the digest recorded for DEFAULT_SEED or, for other seeds,
    the one this call gave on the first pass. `deep` adds the invariants,
    which cost a re-run or a trace replay, so they run on the first pass.
    """
    fields = call.fields(output)
    found = digest(fields)
    problems = call.invariants(fields) if deep else []
    if expected is not None and found != expected:
        problems.append(f"digest {found[:12]} differs from the expected {expected[:12]}")
    return found, [f"{call.key}: {problem}" for problem in problems]


def load_expected(workload: str) -> dict[str, str]:
    """Digests recorded for DEFAULT_SEED, one per call key."""
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]
