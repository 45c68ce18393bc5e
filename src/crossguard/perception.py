"""Distance-degraded binary perception.

A node's base error rates worsen linearly with distance to the target and
collapse to coin-flip quality beyond its sensor's effective range.
"""

from __future__ import annotations

from .determinism import UniformSource
from .model import Detection, GroundTruth, PerceptionModel, Pose, SensorProfile


def effective_error_rates(
    profile: SensorProfile, distance: float, model: PerceptionModel
) -> tuple[float, float]:
    """(false_negative, false_positive) for a sensor observing at `distance`.

    Within range: rate = base * (1 + distance / distance_reference), capped
    at 0.5. Strictly beyond effective_range the sensor is blind and both
    rates are exactly 0.5.
    """
    if distance > profile.effective_range:
        return 0.5, 0.5
    factor = 1.0 + distance / model.distance_reference
    fn, fp = profile.base_false_negative, profile.base_false_positive
    # A zero base rate stays zero: a tiny distance_reference can make the
    # factor inf, and 0 * inf is nan, which min(0.5, nan) reads as 0.5.
    return (min(0.5, fn * factor) if fn else fn, min(0.5, fp * factor) if fp else fp)


def sense(
    truth: GroundTruth,
    node_pose: Pose,
    profile: SensorProfile,
    model: PerceptionModel,
    rng: UniformSource,
) -> Detection:
    """One noisy observation of the queried region.

    Distance is measured to the true pedestrian pose when one exists, else to
    the query-region center. Exactly one uniform draw is consumed, so a
    replayed stream reproduces the same detection.
    """
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
