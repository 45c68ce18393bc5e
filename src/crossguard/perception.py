"""Distance-degraded binary perception.

A node's base error rates worsen linearly with distance to the target and
collapse to coin-flip quality beyond its sensor's effective range.
"""

from __future__ import annotations

from .model import Detection, GroundTruth, PerceptionModel, Pose, SensorProfile

_CLEAR, _DETECTED = Detection.CLEAR, Detection.PEDESTRIAN_DETECTED  # a global costs no Enum class lookup


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


def detection_rates(
    pose: Pose, profile: SensorProfile, truth: GroundTruth, model: PerceptionModel
) -> tuple[float, float]:
    """(miss, ghost) for a node at `pose`: the chance it reports clear when a
    pedestrian is present, and the chance it reports one when none is.

    A pedestrian is sensed at truth.pedestrian_pose, or at the query center
    when that pose is None; an empty road is sensed at the query center.
    """
    center = model.query_center
    target = center if truth.pedestrian_pose is None else truth.pedestrian_pose
    miss = effective_error_rates(profile, pose.distance_to(target), model)[0]
    ghost = effective_error_rates(profile, pose.distance_to(center), model)[1]
    return miss, ghost


def sense(present: bool, miss: float, ghost: float, draw: float) -> Detection:
    """One noisy observation of the queried region from one uniform draw in [0, 1).

    A present pedestrian is missed iff draw < miss; an empty road shows a
    ghost iff draw < ghost.
    """
    if present:
        return _CLEAR if draw < miss else _DETECTED
    return _DETECTED if draw < ghost else _CLEAR
