"""Distance-degraded sensing and the blind-sensor coin flip."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossguard.determinism import sense_stream
from crossguard.model import Detection, GroundTruth, PerceptionModel, Pose
from crossguard.perception import effective_error_rates, sense

from helpers import make_profile

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


class TestSense:
    def test_perfect_sensor_reports_truth(self):
        profile = make_profile(fn=0.0, fp=0.0)
        present = GroundTruth(pedestrian_present=True, pedestrian_pose=CENTER)
        absent = GroundTruth(pedestrian_present=False)
        rng = sense_stream(0, 1, 1)
        assert sense(present, CENTER, profile, MODEL, rng) is Detection.PEDESTRIAN_DETECTED
        assert sense(absent, CENTER, profile, MODEL, rng) is Detection.CLEAR

    def test_measures_distance_to_pedestrian_when_present(self):
        """A pedestrian outside the sensor's range blinds the node even if
        the query center is nearby."""
        profile = make_profile(fn=0.0, fp=0.0, reach=10.0)
        far_truth = GroundTruth(pedestrian_present=True, pedestrian_pose=Pose(50.0, 0.0))
        outcomes = set()
        for session in range(1, 400):
            rng = sense_stream(1, 1, session)
            outcomes.add(sense(far_truth, CENTER, profile, MODEL, rng))
        assert outcomes == {Detection.PEDESTRIAN_DETECTED, Detection.CLEAR}

    def test_measures_distance_to_query_center_when_absent(self):
        profile = make_profile(fn=0.0, fp=0.0, reach=10.0)
        absent = GroundTruth(pedestrian_present=False)
        rng = sense_stream(0, 2, 1)
        assert sense(absent, Pose(5.0, 0.0), profile, MODEL, rng) is Detection.CLEAR

    def test_single_draw_is_deterministic(self):
        profile = make_profile(fn=0.3, fp=0.3)
        truth = GroundTruth(pedestrian_present=True, pedestrian_pose=CENTER)
        first = sense(truth, CENTER, profile, MODEL, sense_stream(9, 9, 9))
        again = sense(truth, CENTER, profile, MODEL, sense_stream(9, 9, 9))
        assert first is again

    def test_blind_sensor_detection_rate_near_half(self):
        """100 000 keyed draws from a blind sensor land inside the 99.9%
        binomial interval around 0.5 (frozen observation: 0.50253)."""
        profile = make_profile(fn=0.1, fp=0.1, reach=10.0)
        model = PerceptionModel(distance_reference=10.0, query_center=Pose(50.0, 0.0))
        truth = GroundTruth(pedestrian_present=True, pedestrian_pose=Pose(50.0, 0.0))
        detected = 0
        for session in range(1, 100001):
            rng = sense_stream(1, 9, session)
            if sense(truth, CENTER, profile, model, rng) is Detection.PEDESTRIAN_DETECTED:
                detected += 1
        fraction = detected / 100000
        assert fraction == pytest.approx(0.50253)
        assert 0.4948 <= fraction <= 0.5052
        assert 0.494 <= fraction <= 0.506
