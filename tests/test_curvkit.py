import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from steerkit.curvkit import (
    DEFAULT_Q_PROCESS as Q, DEFAULT_R_ACKERMANN as R_ACK, DEFAULT_R_DIFFERENTIAL as R_DIFF,
    INITIAL_KAPPA, INITIAL_VARIANCE, MIN_COS_HEADING, MIN_CURVATURE_SPEED, ackermann_curvature,
    curvature_series, differential_curvature, differential_sample, feedforward_steer, kf_step,
)

from oracles import kf_steady_state_variance


def two_sensor_steady_state(q_step, r1, r2):
    """Closed-form scalar Riccati fixed point for two sequential updates.

    Sequential scalar updates sum information, so the cycle is
    p -> ((p + q)^-1 + 1/r_eq)^-1 with 1/r_eq = 1/r1 + 1/r2, whose fixed
    point solves p^2 + q p - q r_eq = 0.
    """
    r_eq = 1.0 / (1.0 / r1 + 1.0 / r2)
    return 0.5 * (-q_step + math.sqrt(q_step**2 + 4.0 * q_step * r_eq))


class TestAckermann:
    def test_zero(self):
        assert ackermann_curvature(0.0, 2.7) == 0.0

    def test_fifty_meter_radius(self):
        delta = math.atan(2.7 / 50.0)
        assert ackermann_curvature(delta, 2.7) == pytest.approx(0.02, abs=1e-15)

    def test_odd_symmetry(self):
        for d in (0.1, 0.3, 0.55):
            assert ackermann_curvature(-d, 2.7) == -ackermann_curvature(d, 2.7)

    def test_singularity_guard(self):
        with pytest.raises(ValueError):
            ackermann_curvature(math.pi / 2, 2.7)

    def test_vectorized(self):
        out = ackermann_curvature(np.array([0.0, 0.1]), 2.7)
        assert out.shape == (2,)


class TestFeedforwardSteer:
    def test_zero(self):
        assert feedforward_steer(0.0, 2.7) == 0.0

    def test_fifty_meter_radius(self):
        assert feedforward_steer(0.02, 2.7) == pytest.approx(math.atan(0.054), abs=1e-15)

    def test_exact_inverse_of_ackermann(self):
        for d in np.linspace(-0.59, 0.59, 31):
            assert feedforward_steer(ackermann_curvature(d, 2.7), 2.7) == pytest.approx(
                d, abs=1e-12)


class TestDifferentialCurvature:
    def test_zero_yaw_rate(self):
        assert differential_curvature(0.3, 0.0, 10.0) == 0.0

    def test_known_value(self):
        assert differential_curvature(0.3, 0.2, 10.0) == pytest.approx(0.02, abs=1e-14)

    def test_collapses_to_yaw_rate_over_speed(self):
        rng = np.random.default_rng(0)
        n = 200_000
        psi = rng.uniform(-1.0, 1.0, n)
        keep = np.abs(np.cos(psi)) >= 0.05
        psi = psi[keep]
        psi_dot = rng.uniform(-1.0, 1.0, len(psi))
        v = rng.uniform(0.5, 30.0, len(psi))
        kappa = differential_curvature(psi, psi_dot, v)
        assert np.max(np.abs(kappa - psi_dot / v)) < 1e-12

    def test_speed_guard(self):
        with pytest.raises(ValueError):
            differential_curvature(0.0, 0.1, 0.4)

    def test_heading_guard(self):
        with pytest.raises(ValueError):
            differential_curvature(1.56, 0.1, 10.0)


class TestKfUpdate:
    """The filter cycle, kf_step, on floats."""

    def test_pure_prediction_grows_variance(self):
        kappa, p = 0.01, 1e-4
        for _ in range(10):
            kappa, p = kf_step(kappa, p, Q * 0.02, None, R_ACK, None, R_DIFF)
        assert kappa == 0.01
        assert p == pytest.approx(1e-4 + 10 * Q * 0.02, abs=1e-15)

    def test_converges_to_constant(self):
        c = 0.02
        kappa, p = 0.0, 1.0
        for _ in range(4000):
            kappa, p = kf_step(kappa, p, Q * 0.02, c, R_ACK, c, R_DIFF)
        assert kappa == pytest.approx(c, abs=1e-9)
        expected_p = kf_steady_state_variance(Q * 0.02, (R_ACK, R_DIFF))
        assert p == pytest.approx(expected_p, rel=1e-6)

    def test_steady_state_matches_closed_form(self):
        q_step = 1e-6 * 0.02
        r1, r2 = 4e-6, 1e-4
        assert kf_steady_state_variance(q_step, (r1, r2)) == pytest.approx(
            two_sensor_steady_state(q_step, r1, r2), rel=1e-9)

    def test_update_order_insensitive(self):
        q_step = Q * 0.02
        ab = kf_step(0.003, 5e-4, q_step, 0.021, 4e-6, 0.018, 1e-4)
        ba = kf_step(0.003, 5e-4, q_step, 0.018, 1e-4, 0.021, 4e-6)
        assert ab[0] == pytest.approx(ba[0], abs=1e-12)
        assert ab[1] == pytest.approx(ba[1], abs=1e-12)

    def test_rejects_bad_dt(self):
        for dt in (0.0, -0.02, math.nan):
            with pytest.raises(ValueError):
                kf_step(INITIAL_KAPPA, INITIAL_VARIANCE, Q * dt, None, R_ACK, None, R_DIFF)

    def test_fusion_beats_single_sources(self):
        # matched-model Monte Carlo: random-walk truth, two noisy sensors
        rng = np.random.default_rng(123)
        n = 120_000
        dt = 0.02
        q, r1, r2 = 1e-6, 4e-6, 1e-4
        walk = np.cumsum(math.sqrt(q * dt) * rng.standard_normal(n))
        z1 = walk + math.sqrt(r1) * rng.standard_normal(n)
        z2 = walk + math.sqrt(r2) * rng.standard_normal(n)

        def run(use1, use2):
            kappa, p = 0.0, 1e-2
            err = np.empty(n)
            for i in range(n):
                kappa, p = kf_step(kappa, p, q * dt, z1[i] if use1 else None, r1,
                                   z2[i] if use2 else None, r2)
                err[i] = kappa - walk[i]
            return float(np.var(err[n // 10:]))

        fused = run(True, True)
        only_ack = run(True, False)
        only_diff = run(False, True)
        assert fused < only_ack
        assert fused < only_diff
        closed_form = two_sensor_steady_state(q * dt, r1, r2)
        assert fused == pytest.approx(closed_form, rel=0.10)

    def test_lagged_source_ordering(self):
        # steering-derived curvature delayed vs undelayed differential:
        # the fused zero crossing falls between the two sources' crossings
        dt = 0.02
        lag = 25
        n = 1200
        t = np.arange(n) * dt
        true = 0.02 * np.sin(2 * math.pi * t / 12.0)
        diff_src = true
        ack_src = np.concatenate([np.zeros(lag), true[:-lag]])
        # comparable source weights and a fast filter keep its own lag small
        kappa, p = 0.0, 1e-2
        fused = np.empty(n)
        for i in range(n):
            kappa, p = kf_step(kappa, p, 1e-4 * dt, ack_src[i], 1e-4, diff_src[i], 1e-4)
            fused[i] = kappa

        def first_down_crossing(sig, start):
            for i in range(start, n - 1):
                if sig[i] > 0 >= sig[i + 1]:
                    return i
            return None

        half = int(6.0 / dt)
        c_diff = first_down_crossing(diff_src, half - 50)
        c_ack = first_down_crossing(ack_src, half - 50)
        c_fused = first_down_crossing(fused, half - 50)
        assert c_diff < c_fused < c_ack


class TestDifferentialSample:
    def test_rotates_inside_heading_guard(self):
        kappa, ok = differential_sample(1.56, 0.2, 10.0)
        assert ok
        assert kappa == differential_curvature(0.0, 0.2, 10.0)

    def test_low_speed_holds(self):
        assert differential_sample(0.3, 0.2, 0.4, held=0.05) == (0.05, False)

    def test_array_holds_last_measurement(self):
        v = np.array([0.4, 2.0, 0.3, 0.0, 4.0])
        kappa, ok = differential_sample(np.zeros(5), np.full(5, 0.2), v)
        assert ok.tolist() == [False, True, False, False, True]
        assert kappa.tolist() == [0.0, 0.1, 0.1, 0.1, 0.05]


class TestKfStep:
    def test_matches_scalar_kalman_cycle_bit_for_bit(self):
        # predict, then one scalar update per present measurement, in source order
        q_step = Q * 0.02
        for z_ack, z_diff in ((0.021, 0.018), (0.021, None), (None, 0.018), (None, None)):
            kappa, p = 0.003, 5e-4 + q_step
            for z, r in ((z_ack, 4e-6), (z_diff, 1e-4)):
                if z is not None:
                    gain = p / (p + r)
                    kappa, p = kappa + gain * (z - kappa), (1.0 - gain) * p
            assert kf_step(0.003, 5e-4, q_step, z_ack, 4e-6, z_diff, 1e-4) == (kappa, p)


def reference_series(t, steer, psi, yaw, v, wheelbase):
    """Per-sample loop: the heading/speed rule, then one kf_step per sample."""
    kappa, p = INITIAL_KAPPA, INITIAL_VARIANCE
    ka = np.array([ackermann_curvature(d, wheelbase) for d in steer])
    kd = np.zeros(len(t))
    fused = np.zeros(len(t))
    for i in range(len(t)):
        ok = v[i] >= MIN_CURVATURE_SPEED
        if ok:
            heading = psi[i] if abs(np.cos(psi[i])) >= MIN_COS_HEADING else 0.0
            kd[i] = differential_curvature(heading, yaw[i], v[i])
        else:
            kd[i] = kd[i - 1] if i else 0.0
        dt = max(t[i] - t[i - 1], 1e-6) if i else 1e-3
        kappa, p = kf_step(kappa, p, Q * dt, ka[i], R_ACK,
                           kd[i] if ok else None, R_DIFF / max(v[i], 0.5) ** 2)
        fused[i] = kappa
    return ka, kd, fused


_finite = dict(allow_nan=False, allow_infinity=False)
_sample = hst.tuples(
    hst.one_of(hst.just(0.0), hst.floats(1e-9, 0.5, **_finite)),           # dt, 0 is floored
    hst.floats(-1.0, 1.0, **_finite),                                       # steer
    hst.one_of(hst.floats(-math.pi, math.pi, **_finite),                    # heading, and
               hst.sampled_from([math.pi / 2, -math.pi / 2, 1.53, -1.54])),  # the guard band
    hst.floats(-1.0, 1.0, **_finite),                                       # yaw rate
    hst.one_of(hst.floats(0.0, 1.0, **_finite), hst.just(0.5),             # speed around
               hst.floats(0.0, 30.0, **_finite)),                           # the 0.5 m/s guard
)


class TestCurvatureSeries:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hst.lists(_sample, min_size=1, max_size=40), hst.floats(-100.0, 100.0, **_finite))
    def test_matches_per_sample_reference(self, samples, t0):
        dt, steer, psi, yaw, v = (np.array(c) for c in zip(*samples))
        t = t0 + np.cumsum(dt)
        got = curvature_series(t, steer, psi, yaw, v, 2.7)
        want = reference_series(t, steer, psi, yaw, v, 2.7)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


def _same(float_path, array_path):
    """Both calls return the same bits (repr round-trips a float exactly), or
    both raise the same error."""
    try:
        want = array_path()
    except ValueError as e:
        try:
            float_path()
        except ValueError as got:
            assert str(got) == str(e)
            return
        raise AssertionError(f"float path did not raise {e!r}")
    got = float_path()
    assert type(got) is type(want)
    assert repr(got) == repr(want)


finite = hst.floats(-1e6, 1e6)
angles = hst.one_of(hst.floats(-4.0, 4.0), hst.sampled_from(
    [math.pi / 2, -math.pi / 2, math.acos(MIN_COS_HEADING), math.nan, -0.0]))
speeds = hst.one_of(hst.floats(0.0, 40.0), hst.sampled_from(
    [MIN_CURVATURE_SPEED, math.nextafter(MIN_CURVATURE_SPEED, 0.0), math.nan]))


class TestFloatPathsMatchArrayPaths:
    """Python floats skip the array plumbing; the 0-d array path is the oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(delta=angles, wheelbase=hst.floats(0.5, 5.0))
    def test_ackermann(self, delta, wheelbase):
        _same(lambda: ackermann_curvature(delta, wheelbase),
              lambda: ackermann_curvature(np.array(delta), wheelbase))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kappa=hst.one_of(finite, hst.sampled_from([math.nan, math.inf, -0.0])),
           wheelbase=hst.floats(0.5, 5.0))
    def test_feedforward(self, kappa, wheelbase):
        _same(lambda: feedforward_steer(kappa, wheelbase),
              lambda: feedforward_steer(np.array(kappa), wheelbase))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(psi=angles, psi_dot=finite, v=speeds)
    def test_differential_curvature(self, psi, psi_dot, v):
        _same(lambda: differential_curvature(psi, psi_dot, v),
              lambda: differential_curvature(np.array(psi), np.array(psi_dot), np.array(v)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(psi=angles, psi_dot=finite, v=speeds, held=finite)
    def test_differential_sample(self, psi, psi_dot, v, held):
        got = differential_sample(psi, psi_dot, v, held)
        want = differential_sample(np.array(psi), np.array(psi_dot), np.array(v), held)
        assert type(got[1]) is type(want[1]) and got[1] == want[1]
        _same(lambda: got[0], lambda: want[0])
