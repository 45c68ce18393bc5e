"""Shared builders for tests: claims, scenarios, and random scenario soup."""

from __future__ import annotations

import random
from pathlib import Path

from crossguard.model import (
    Claim,
    Detection,
    GroundTruth,
    NetworkConfig,
    NodeSpec,
    PerceptionModel,
    Pose,
    Scenario,
    SensorKind,
    SensorProfile,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
INTERSECTION = SCENARIO_DIR / "intersection.scenario"
REFERENCE = SCENARIO_DIR / "reference.scenario"


def record_keys(kind) -> tuple[str, ...]:
    """A trace.RecordKind's record keys in order: "t", "ev", then its fields."""
    return ("t", "ev", *(name for name, _ in kind.fields))


def make_profile(
    kind: SensorKind = SensorKind.RGB_CAMERA,
    fn: float = 0.1,
    fp: float = 0.1,
    reach: float = 50.0,
) -> SensorProfile:
    return SensorProfile(
        kind=kind, base_false_negative=fn, base_false_positive=fp, effective_range=reach
    )


def make_claim(
    node: int = 1,
    detection: Detection = Detection.CLEAR,
    kind: SensorKind = SensorKind.RGB_CAMERA,
    distance: float = 1.0,
    fn: float = 0.1,
    fp: float = 0.1,
    reach: float = 50.0,
    session: int = 1,
    emitted_at: int = 0,
) -> Claim:
    return Claim(
        node=node,
        session=session,
        detection=detection,
        profile=make_profile(kind, fn, fp, reach),
        distance_to_target=distance,
        emitted_at=emitted_at,
    )


def make_scenario(
    node_count: int = 3,
    fn: float = 0.1,
    fp: float = 0.1,
    present: bool = True,
    drop: float = 0.0,
    latency: tuple[int, int] = (1000, 5000),
    window: int = 20000,
    settle: int = 5000,
    sessions: int = 1,
    seed: int = 7,
    actuate_all: bool = False,
    kind: SensorKind = SensorKind.RGB_CAMERA,
) -> Scenario:
    """Co-located nodes at the query center: effective rates equal base rates."""
    center = Pose(0.0, 0.0)
    profile = make_profile(kind=kind, fn=fn, fp=fp)
    nodes = tuple(
        NodeSpec(
            id=i,
            pose=center,
            sensor=profile,
            master=(i == 1),
            actuated=(i == 1 or actuate_all),
        )
        for i in range(1, node_count + 1)
    )
    return Scenario(
        nodes=nodes,
        ground_truth=GroundTruth(pedestrian_present=present, pedestrian_pose=center),
        perception=PerceptionModel(distance_reference=10.0, query_center=center),
        network=NetworkConfig(
            latency_min=latency[0], latency_max=latency[1], drop_probability=drop, seed=seed
        ),
        session_window=window,
        settle_interval=settle,
        sessions=sessions,
    )


def random_scenario(rng: random.Random) -> Scenario:
    """A small valid scenario with randomized geometry, sensors, and network."""
    node_count = rng.randint(2, 6)
    ids = sorted(rng.sample(range(1, 40), node_count))
    master = ids[0]
    kinds = list(SensorKind)
    nodes = []
    for node_id in ids:
        nodes.append(
            NodeSpec(
                id=node_id,
                pose=Pose(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)),
                sensor=SensorProfile(
                    kind=rng.choice(kinds),
                    base_false_negative=rng.uniform(0.0, 0.45),
                    base_false_positive=rng.uniform(0.0, 0.45),
                    effective_range=rng.uniform(5.0, 80.0),
                ),
                master=(node_id == master),
                actuated=(node_id == master or rng.random() < 0.5),
            )
        )
    center = Pose(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
    present = rng.random() < 0.5
    latency_min = rng.randint(0, 5000)
    latency_max = latency_min + rng.randint(0, 10000)
    return Scenario(
        nodes=tuple(nodes),
        ground_truth=GroundTruth(
            pedestrian_present=present,
            pedestrian_pose=Pose(center.x + rng.uniform(-3.0, 3.0), center.y + rng.uniform(-3.0, 3.0)),
        ),
        perception=PerceptionModel(distance_reference=rng.uniform(5.0, 20.0), query_center=center),
        network=NetworkConfig(
            latency_min=latency_min,
            latency_max=latency_max,
            drop_probability=rng.choice([0.0, 0.0, 0.1, 0.3]),
            seed=rng.randrange(2**32),
        ),
        session_window=rng.randint(10000, 60000),
        settle_interval=latency_max + rng.randint(0, 10000),
        sessions=rng.randint(1, 4),
    )
