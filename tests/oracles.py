"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the
library code: pairwise comparisons instead of sort keys, explicit counting
instead of shared helpers. Tests compare library output against these.
"""

from __future__ import annotations

import random
import struct
import sys
from itertools import product

from crossguard.aggregation import AggregationSemantics, Verdict
from crossguard.determinism import KeyedStream
from crossguard.model import Claim, Detection, GroundTruth, PerceptionModel, Pose, SensorKind, SensorProfile
from crossguard.perception import effective_error_rates

from helpers import make_claim

_TIER = {SensorKind.LIDAR: 3, SensorKind.OPTICAL_CAMERA: 2, SensorKind.RGB_CAMERA: 1}


def outranks(a: Claim, b: Claim) -> bool:
    """True when claim a is strictly more trustworthy than claim b."""
    if _TIER[a.profile.kind] != _TIER[b.profile.kind]:
        return _TIER[a.profile.kind] > _TIER[b.profile.kind]
    if a.distance_to_target != b.distance_to_target:
        return a.distance_to_target < b.distance_to_target
    a_err = a.profile.base_false_negative + a.profile.base_false_positive
    b_err = b.profile.base_false_negative + b.profile.base_false_positive
    if a_err != b_err:
        return a_err < b_err
    return a.node < b.node


def oracle_rank(claims: list[Claim]) -> list[int]:
    """Insertion sort driven purely by the pairwise comparison."""
    ordered: list[Claim] = []
    for claim in claims:
        position = 0
        while position < len(ordered) and outranks(ordered[position], claim):
            position += 1
        ordered.insert(position, claim)
    return [c.node for c in ordered]


def oracle_decide(claims: list[Claim], semantics: AggregationSemantics) -> Verdict:
    """Recompute the verdict from first principles for a non-empty claim set."""
    ranking = oracle_rank(claims)
    clear = [c for c in claims if c.detection is Detection.CLEAR]
    detected = [c for c in claims if c.detection is Detection.PEDESTRIAN_DETECTED]
    if semantics is AggregationSemantics.UNANIMITY_SAFE:
        return Verdict.GO if not detected else Verdict.STOP
    if semantics is AggregationSemantics.MAJORITY:
        return Verdict.GO if len(clear) > len(detected) else Verdict.STOP
    if semantics is AggregationSemantics.TRUST_WEIGHTED_MAJORITY:
        weight = {node: len(ranking) - i for i, node in enumerate(ranking)}
        clear_weight = sum(weight[c.node] for c in clear)
        detected_weight = sum(weight[c.node] for c in detected)
        return Verdict.GO if clear_weight > detected_weight else Verdict.STOP
    top = ranking[0]
    top_claim = next(c for c in claims if c.node == top)
    return Verdict.GO if top_claim.detection is Detection.CLEAR else Verdict.STOP


def power_of_two_decide(claims: list[Claim], ranking: list[int]) -> Verdict:
    """Weighting by 2**(n-1-i): kept only to show it collapses to the top claim."""
    weight = {node: 2 ** (len(ranking) - 1 - i) for i, node in enumerate(ranking)}
    clear_weight = sum(
        weight[c.node] for c in claims if c.detection is Detection.CLEAR
    )
    detected_weight = sum(
        weight[c.node] for c in claims if c.detection is Detection.PEDESTRIAN_DETECTED
    )
    return Verdict.GO if clear_weight > detected_weight else Verdict.STOP


_DISTANCES = (0.5, 1.0, 5.0, 5.0, 14.25)
_ERROR_RATES = ((0.05, 0.02), (0.2, 0.02), (0.2, 0.02), (0.015, 0.01))
_REACHES = (20.0, 50.0)


def _finite_number(value) -> bool:
    """A real number, not a bool, that a float can hold and that is not NaN."""
    if type(value) is bool or not isinstance(value, (int, float)):
        return False
    return -sys.float_info.max <= value <= sys.float_info.max


def claim_evidence_errors(claim: Claim) -> list[str]:
    """The evidence problems a master cannot take on faith, one string each.

    session.trust_positions ranks a run's evidence unchecked, on the premise
    that validate_scenario already refuses every scenario whose nodes would
    give evidence with a problem here; the tests hold validation to that."""
    where = f"claim from node {claim.node}"
    profile = claim.profile
    problems = []
    if not isinstance(profile, SensorProfile):
        problems.append(f"{where}.profile: must be a SensorProfile, got {profile!r}")
    else:
        if not isinstance(profile.kind, SensorKind):
            problems.append(f"{where}.kind: unknown sensor kind {profile.kind!r}")
        for name in ("base_false_negative", "base_false_positive"):
            rate = getattr(profile, name)
            if not (_finite_number(rate) and 0.0 <= rate < 0.5):
                problems.append(f"{where}.{name}: must be in [0.0, 0.5), got {rate!r}")
        reach = profile.effective_range
        if not (_finite_number(reach) and reach > 0.0):
            problems.append(f"{where}.effective_range: must be > 0, got {reach!r}")
    distance = claim.distance_to_target
    if not (_finite_number(distance) and distance >= 0.0):
        problems.append(f"{where}: distance_to_target must be >= 0, got {distance!r}")
    return problems


def claim_from_payload(payload: dict) -> Claim:
    """Inverse of trace.claim_payload; round-trips value-exactly, floats included."""
    return Claim(
        node=payload["node"],
        session=payload["session"],
        detection=Detection(payload["detection"]),
        profile=SensorProfile(
            kind=SensorKind(payload["sensor"]),
            base_false_negative=payload["base_false_negative"],
            base_false_positive=payload["base_false_positive"],
            effective_range=payload["effective_range"],
        ),
        distance_to_target=payload["distance_to_target"],
        emitted_at=payload["emitted_at"],
    )


def substream(seed: int, domain: bytes, *parts: int) -> KeyedStream:
    """The reference key layout for one draw site: the domain's bytes, then
    the seed as an unsigned and each part as a signed little-endian 64-bit
    integer. sense_stream and transport_stream must build these streams."""
    return KeyedStream(domain + struct.pack(f"<Q{len(parts)}q", seed, *parts))


def evidence_pool(rng: random.Random, node: int, session: int = 1) -> Claim:
    """One claim with evidence drawn from small pools so ties are common."""
    fn, fp = rng.choice(_ERROR_RATES)
    return make_claim(
        node=node,
        detection=Detection.CLEAR,
        kind=rng.choice(list(SensorKind)),
        distance=rng.choice(_DISTANCES),
        fn=fn,
        fp=fp,
        reach=rng.choice(_REACHES),
        session=session,
    )


def claim_set_variants(size: int, variants: int, seed: int) -> list[list[Claim]]:
    """Deterministic batches of claim sets with the given number of nodes."""
    rng = random.Random(seed * 1000 + size)
    batches = []
    for _ in range(variants):
        batches.append([evidence_pool(rng, node) for node in range(1, size + 1)])
    return batches


def with_detections(claims: list[Claim], pattern: tuple[Detection, ...]) -> list[Claim]:
    """Copy a claim set, overriding each claim's detection per the pattern."""
    return [
        Claim(
            node=c.node,
            session=c.session,
            detection=d,
            profile=c.profile,
            distance_to_target=c.distance_to_target,
            emitted_at=c.emitted_at,
        )
        for c, d in zip(claims, pattern)
    ]


def all_detection_patterns(size: int):
    return product((Detection.CLEAR, Detection.PEDESTRIAN_DETECTED), repeat=size)


def reference_sense(
    truth: GroundTruth,
    node_pose: Pose,
    profile: SensorProfile,
    model: PerceptionModel,
    rng,
) -> Detection:
    """Sensing as it was before the rates were fixed per node: the distance
    and both rates recomputed from the truth on every call, then one draw
    from rng, anything with a random() method."""
    if truth.pedestrian_present and truth.pedestrian_pose is not None:
        distance = node_pose.distance_to(truth.pedestrian_pose)
    else:
        distance = node_pose.distance_to(model.query_center)
    false_negative, false_positive = effective_error_rates(profile, distance, model)

    draw = rng.random()
    if truth.pedestrian_present:
        missed = draw < false_negative
        return Detection.CLEAR if missed else Detection.PEDESTRIAN_DETECTED
    ghost = draw < false_positive
    return Detection.PEDESTRIAN_DETECTED if ghost else Detection.CLEAR
