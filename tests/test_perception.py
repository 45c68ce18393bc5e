"""Distance-degraded sensing, per-node detection rates and the blind-sensor coin flip."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard.determinism import sense_stream
from crossguard.model import Detection, GroundTruth, PerceptionModel, Pose, SensorKind, SensorProfile
from crossguard.perception import detection_rates, effective_error_rates, sense

from helpers import make_profile
from oracles import reference_sense

CENTER = Pose(0.0, 0.0)
MODEL = PerceptionModel(distance_reference=10.0, query_center=CENTER)


class TestEffectiveErrorRates:
    def test_zero_distance_keeps_base_rates(self):
        profile = make_profile(fn=0.2, fp=0.02)
        assert effective_error_rates(profile, 0.0, MODEL) == (0.2, 0.02)

    def test_linear_growth_with_distance(self):
        profile = make_profile(fn=0.2, fp=0.05)
        fn, fp = effective_error_rates(profile, 10.0, MODEL)
        assert fn == pytest.approx(0.4)
        assert fp == pytest.approx(0.1)

    def test_growth_caps_at_one_half(self):
        profile = make_profile(fn=0.2, fp=0.02)
        fn, fp = effective_error_rates(profile, 20.0, MODEL)
        assert fn == 0.5
        assert fp == pytest.approx(0.06)

    def test_beyond_range_is_a_coin_flip(self):
        profile = make_profile(fn=0.01, fp=0.01, reach=10.0)
        assert effective_error_rates(profile, 10.000001, MODEL) == (0.5, 0.5)

    def test_at_range_boundary_still_scales(self):
        """Exactly at the range limit the sensor is degraded, not blind."""
        profile = make_profile(fn=0.1, fp=0.1, reach=10.0)
        fn, fp = effective_error_rates(profile, 10.0, MODEL)
        assert fn == pytest.approx(0.2)
        assert fp == pytest.approx(0.2)

    def test_a_zero_base_rate_stays_zero_when_the_factor_overflows(self):
        """1 / 5e-324 overflows to inf; 0 * inf must not turn into a coin flip."""
        tiny = PerceptionModel(distance_reference=5e-324, query_center=CENTER)
        assert effective_error_rates(make_profile(fn=0.0, fp=0.0), 1.0, tiny) == (0.0, 0.0)
        assert effective_error_rates(make_profile(fn=0.0, fp=0.1), 1.0, tiny) == (0.0, 0.5)
        assert effective_error_rates(make_profile(fn=0.1, fp=0.0), 1.0, tiny) == (0.5, 0.0)

    @given(
        rate=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5, exclude_max=True)),
        distance=st.floats(min_value=0.0, max_value=50.0),
        reference=st.floats(min_value=1e-300, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_a_finite_factor_gives_the_scaled_rate_bit_for_bit(self, rate, distance, reference):
        model = PerceptionModel(distance_reference=reference, query_center=CENTER)
        expected = min(0.5, rate * (1.0 + distance / reference))
        fn, fp = effective_error_rates(make_profile(fn=rate, fp=rate), distance, model)
        assert fn.hex() == fp.hex() == expected.hex()

    @given(
        d1=st.floats(min_value=0.0, max_value=100.0),
        d2=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rates_never_decrease_with_distance(self, d1, d2):
        if d1 > d2:
            d1, d2 = d2, d1
        profile = make_profile(fn=0.15, fp=0.05, reach=40.0)
        near = effective_error_rates(profile, d1, MODEL)
        far = effective_error_rates(profile, d2, MODEL)
        assert near[0] <= far[0] and near[1] <= far[1]
        assert 0.0 <= far[0] <= 0.5 and 0.0 <= far[1] <= 0.5


class TestDetectionRates:
    def test_miss_is_measured_to_the_pedestrian(self):
        """A pedestrian outside the sensor's range blinds the node to it even
        though the query center, where a ghost would be seen, is nearby."""
        profile = make_profile(fn=0.0, fp=0.0, reach=10.0)
        truth = GroundTruth(pedestrian_present=True, pedestrian_pose=Pose(50.0, 0.0))
        assert detection_rates(CENTER, profile, truth, MODEL) == (0.5, 0.0)

    def test_miss_is_measured_to_the_query_center_without_a_pedestrian_pose(self):
        profile = make_profile(fn=0.2, fp=0.05, reach=10.0)
        far = PerceptionModel(distance_reference=10.0, query_center=Pose(50.0, 0.0))
        assert detection_rates(CENTER, profile, GroundTruth(pedestrian_present=True), far) == (0.5, 0.5)
        assert detection_rates(CENTER, profile, GroundTruth(pedestrian_present=True), MODEL) == (0.2, 0.05)

    def test_ghost_is_measured_to_the_query_center(self):
        profile = make_profile(fn=0.1, fp=0.05, reach=30.0)
        truth = GroundTruth(pedestrian_present=False, pedestrian_pose=CENTER)
        miss, ghost = detection_rates(Pose(10.0, 0.0), profile, truth, MODEL)
        assert miss == pytest.approx(0.2)
        assert ghost == pytest.approx(0.1)
        far = PerceptionModel(distance_reference=10.0, query_center=Pose(50.0, 0.0))
        assert detection_rates(Pose(10.0, 0.0), profile, truth, far) == pytest.approx((0.2, 0.5))


class TestSense:
    def test_perfect_sensor_reports_truth(self):
        miss, ghost = detection_rates(
            CENTER, make_profile(fn=0.0, fp=0.0), GroundTruth(pedestrian_present=True, pedestrian_pose=CENTER), MODEL
        )
        draw = sense_stream(0, 1, 1).random()
        assert sense(True, miss, ghost, draw) is Detection.PEDESTRIAN_DETECTED
        assert sense(False, miss, ghost, draw) is Detection.CLEAR

    def test_measures_distance_to_pedestrian_when_present(self):
        """A pedestrian outside the sensor's range blinds the node even if
        the query center is nearby."""
        profile = make_profile(fn=0.0, fp=0.0, reach=10.0)
        far_truth = GroundTruth(pedestrian_present=True, pedestrian_pose=Pose(50.0, 0.0))
        miss, ghost = detection_rates(CENTER, profile, far_truth, MODEL)
        outcomes = set()
        for session in range(1, 400):
            outcomes.add(sense(True, miss, ghost, sense_stream(1, 1, session).random()))
        assert outcomes == {Detection.PEDESTRIAN_DETECTED, Detection.CLEAR}

    def test_measures_distance_to_query_center_when_absent(self):
        profile = make_profile(fn=0.0, fp=0.0, reach=10.0)
        absent = GroundTruth(pedestrian_present=False)
        miss, ghost = detection_rates(Pose(5.0, 0.0), profile, absent, MODEL)
        assert sense(False, miss, ghost, sense_stream(0, 2, 1).random()) is Detection.CLEAR

    def test_each_rate_is_a_strict_threshold_on_the_draw(self):
        assert sense(True, 0.3, 0.0, 0.2999) is Detection.CLEAR
        assert sense(True, 0.3, 0.0, 0.3) is Detection.PEDESTRIAN_DETECTED
        assert sense(False, 0.0, 0.3, 0.2999) is Detection.PEDESTRIAN_DETECTED
        assert sense(False, 0.0, 0.3, 0.3) is Detection.CLEAR
        assert sense(True, 0.0, 1.0, 0.0) is Detection.PEDESTRIAN_DETECTED
        assert sense(False, 1.0, 0.0, 0.0) is Detection.CLEAR

    def test_single_draw_is_deterministic(self):
        first = sense(True, 0.3, 0.3, sense_stream(9, 9, 9).random())
        again = sense(True, 0.3, 0.3, sense_stream(9, 9, 9).random())
        assert first is again

    def test_blind_sensor_detection_rate_near_half(self):
        """100 000 keyed draws from a blind sensor land inside the 99.9%
        binomial interval around 0.5 (frozen observation: 0.50253)."""
        profile = make_profile(fn=0.1, fp=0.1, reach=10.0)
        model = PerceptionModel(distance_reference=10.0, query_center=Pose(50.0, 0.0))
        truth = GroundTruth(pedestrian_present=True, pedestrian_pose=Pose(50.0, 0.0))
        miss, ghost = detection_rates(CENTER, profile, truth, model)
        detected = 0
        for session in range(1, 100001):
            if sense(True, miss, ghost, sense_stream(1, 9, session).random()) is Detection.PEDESTRIAN_DETECTED:
                detected += 1
        fraction = detected / 100000
        assert fraction == pytest.approx(0.50253)
        assert 0.4948 <= fraction <= 0.5052
        assert 0.494 <= fraction <= 0.506


_coordinates = st.floats(min_value=-100.0, max_value=100.0)
_poses = st.builds(Pose, _coordinates, _coordinates)
_rates = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5, exclude_max=True))
_profiles = st.builds(
    SensorProfile,
    st.sampled_from(SensorKind),
    _rates,
    _rates,
    st.floats(min_value=0.5, max_value=200.0),  # often shorter than the distances drawn
)


class TestSenseMatchesReference:
    @given(
        node_pose=_poses,
        profile=_profiles,
        pedestrian=st.one_of(st.none(), _poses),
        center=_poses,
        reference=st.one_of(st.just(5e-324), st.floats(min_value=0.1, max_value=100.0)),
        present=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        node=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        session=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    )
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_rates_fixed_once_give_the_reference_detection(
        self, node_pose, profile, pedestrian, center, reference, present, seed, node, session
    ):
        """Rates from detection_rates, fixed before the truth of a session is
        known, give the detection sensing from that truth used to give."""
        model = PerceptionModel(distance_reference=reference, query_center=center)
        truth = GroundTruth(pedestrian_present=present, pedestrian_pose=pedestrian)
        expected = reference_sense(truth, node_pose, profile, model, sense_stream(seed, node, session))
        miss, ghost = detection_rates(node_pose, profile, truth, model)
        assert sense(present, miss, ghost, sense_stream(seed, node, session).random()) is expected
