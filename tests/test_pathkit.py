import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steerkit import SimulationError
from steerkit.models import Pose
from steerkit.pathkit import (
    RefPath, gen_path, load_recorded, position_noise_estimate, profile_curvature,
    project, smooth_recorded,
)


def recorded_circle(radius=50.0, speed=3.0, arc_deg=180.0, spacing=0.25, with_rates=True):
    circ = gen_path("circle", spacing=spacing, radius=radius, arc_deg=arc_deg)
    t = circ.s / speed
    rates = dict(
        yaw_rate=np.full(len(circ), speed / radius),
        speed=np.full(len(circ), speed),
    ) if with_rates else {}
    return load_recorded(t, circ.x, circ.y, circ.psi, spacing=spacing, **rates)


class TestRefPath:
    def test_rejects_decreasing_s(self):
        with pytest.raises(ValueError):
            RefPath(s=[0.0, 0.0], x=[0, 1], y=[0, 0], psi=[0, 0], kappa=[0, 0])

    def test_rejects_wide_spacing(self):
        with pytest.raises(ValueError):
            RefPath(s=[0.0, 1.0], x=[0, 1], y=[0, 0], psi=[0, 0], kappa=[0, 0])

    def test_rejects_heading_mismatch_when_strict(self):
        # heading says north, geometry goes east
        with pytest.raises(ValueError):
            RefPath(s=[0.0, 0.4], x=[0, 0.4], y=[0, 0], psi=[1.57, 1.57], kappa=[0, 0])

    def test_lenient_mode_for_raw_ingestion(self):
        p = RefPath(s=[0.0, 0.4], x=[0, 0.4], y=[0, 0], psi=[1.57, 1.57], kappa=[0, 0],
                    strict=False)
        assert len(p) == 2

    def test_immutable_arrays(self):
        p = gen_path("line", spacing=0.1, length=5.0)
        with pytest.raises(ValueError):
            p.kappa[0] = 1.0


class TestGenPath:
    def test_line(self):
        p = gen_path("line", spacing=0.1, length=100.0)
        assert np.all(p.kappa == 0.0)
        assert np.all(p.psi == p.psi[0])
        assert p.length == pytest.approx(100.0, abs=1e-9)

    def test_circle_constant_curvature(self):
        p = gen_path("circle", spacing=0.1, radius=50.0, direction="left", arc_deg=360.0)
        assert np.all(p.kappa == 0.02)
        assert p.closed
        r = gen_path("circle", spacing=0.1, radius=50.0, direction="right", arc_deg=90.0)
        assert np.all(r.kappa == -0.02)
        assert not r.closed

    def test_circle_radius_guard(self):
        with pytest.raises(ValueError):
            gen_path("circle", spacing=0.1, radius=4.0)

    def test_spacing_bounds(self):
        with pytest.raises(ValueError):
            gen_path("line", spacing=0.009, length=10.0)
        with pytest.raises(ValueError):
            gen_path("line", spacing=0.6, length=10.0)

    def test_s_curve_peak_matches_analytic_maximum(self):
        p = gen_path("s_curve", spacing=0.05, length=60.0, offset=3.0)
        xs = np.linspace(0.0, 60.0, 2_000_001)
        analytic_max = np.max(np.abs(profile_curvature("s_curve", xs, 60.0, 3.0)))
        assert np.max(np.abs(p.kappa)) == pytest.approx(analytic_max, abs=1e-6)

    def test_lane_change_ends_straight(self):
        p = gen_path("lane_change", spacing=0.1, length=40.0, offset=3.0)
        assert p.psi[0] == pytest.approx(0.0, abs=1e-12)
        assert p.psi[-1] == pytest.approx(0.0, abs=1e-9)
        assert p.y[-1] - p.y[0] == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("kind,params", [
        ("line", dict(length=80.0)),
        ("circle", dict(radius=40.0, arc_deg=200.0)),
        ("lane_change", dict(length=50.0, offset=3.5)),
        ("s_curve", dict(length=70.0, offset=2.5)),
    ])
    def test_gauss_bonnet(self, kind, params):
        # integral of curvature over arc length equals net heading change
        p = gen_path(kind, spacing=0.1, **params)
        integral = np.trapezoid(p.kappa, p.s)
        net = 0.0
        for a, b in zip(p.psi[:-1], p.psi[1:]):
            net += math.atan2(math.sin(b - a), math.cos(b - a))
        assert integral == pytest.approx(net, abs=1e-3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_path("spiral", spacing=0.1)


class TestProject:
    def test_on_path_aligned(self):
        p = gen_path("line", spacing=0.1, length=50.0)
        pr = project(p, Pose(10.0, 0.0, 0.0))
        assert pr.e_y == pytest.approx(0.0, abs=1e-12)
        assert pr.e_psi == pytest.approx(0.0, abs=1e-12)
        assert pr.s == pytest.approx(10.0, abs=1e-9)

    def test_left_offset_sign(self):
        p = gen_path("line", spacing=0.1, length=50.0)
        pr = project(p, Pose(10.0, 1.0, 0.0))
        assert pr.e_y == pytest.approx(1.0, abs=1e-12)

    def test_outside_ccw_circle_is_right(self):
        p = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=270.0)
        pr = project(p, Pose(0.0, -1.0, 0.0))
        assert pr.e_y == pytest.approx(-1.0, abs=1e-7)
        assert pr.kappa == pytest.approx(0.02, abs=1e-15)

    def test_circle_kappa_exact_on_path(self):
        p = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=270.0)
        pr = project(p, Pose(float(p.x[100]), float(p.y[100]), float(p.psi[100])))
        assert pr.kappa == 0.02

    def test_reflection_negates_lateral_error(self):
        line = gen_path("line", spacing=0.1, length=50.0, heading=0.3)
        pose = Pose(20.0, 7.0, 0.3)
        pr = project(line, pose)
        # reflect across the path: rotate offset to the other side
        foot_x = pose.x - pr.e_y * -math.sin(0.3)
        foot_y = pose.y - pr.e_y * math.cos(0.3)
        mirrored = Pose(2 * foot_x - pose.x, 2 * foot_y - pose.y, 0.3)
        pm = project(line, mirrored)
        assert pm.e_y == pytest.approx(-pr.e_y, abs=1e-12)

    def test_reflection_on_circle(self):
        p = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=270.0)
        out = project(p, Pose(0.0, -1.0, 0.0))
        inn = project(p, Pose(0.0, 1.0, 0.0))
        assert inn.e_y == pytest.approx(-out.e_y, abs=1e-7)

    def test_heading_error_wrap(self):
        p = gen_path("line", spacing=0.1, length=50.0)
        pr = project(p, Pose(10.0, 0.0, 3.0))
        assert pr.e_psi == pytest.approx(3.0, abs=1e-12)
        pr2 = project(p, Pose(10.0, 0.0, -3.0))
        assert pr2.e_psi == pytest.approx(-3.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["line", "left", "right"]),
           heading=st.floats(-math.pi, math.pi), radius=st.floats(10.0, 200.0),
           frac=st.floats(0.1, 0.9), d=st.floats(-2.0, 2.0), a=st.floats(-1.5, 1.5))
    def test_sign_conventions_property(self, kind, heading, radius, frac, d, a):
        # offset d along the left normal, heading error a: e_y = d, e_psi = a
        if kind == "line":
            p = gen_path("line", spacing=0.1, length=50.0, heading=heading)
        else:
            p = gen_path("circle", spacing=0.1, radius=radius, arc_deg=180.0,
                         direction=kind, heading=heading)
        i = int(frac * (len(p) - 1))
        psi = float(p.psi[i])
        pose = Pose(float(p.x[i]) - d * math.sin(psi), float(p.y[i]) + d * math.cos(psi), psi + a)
        pr = project(p, pose)
        assert pr.e_y == pytest.approx(d, abs=1e-9)
        assert pr.e_psi == pytest.approx(a, abs=1e-9)

    def test_beyond_horizon_raises(self):
        p = gen_path("line", spacing=0.1, length=50.0)
        with pytest.raises(SimulationError):
            project(p, Pose(10.0, 100.0, 0.0))

    def test_window_memory_prevents_backward_jump(self):
        # figure-eight-like self-near path: two parallel passes
        s = np.arange(0.0, 40.0, 0.2)
        half = len(s) // 2
        x = np.concatenate([s[:half], s[:len(s) - half][::-1]])
        y = np.concatenate([np.zeros(half), np.full(len(s) - half, 1.5)])
        psi = np.concatenate([np.zeros(half), np.full(len(s) - half, math.pi)])
        p = RefPath(s=s, x=x, y=y, psi=psi, kappa=np.zeros_like(s), strict=False)
        pose = Pose(3.0, 0.75, 0.0)  # equidistant between the passes
        near_start = project(p, pose, prev_s=3.0)
        assert near_start.s < 6.0
        far = project(p, pose, prev_s=35.0)
        assert far.s > 30.0


class TestLoadRecorded:
    def test_circle_curvature_recovered(self):
        p = recorded_circle()
        mid = slice(len(p) // 10, -len(p) // 10)
        assert np.all(np.abs(p.kappa[mid] - 0.02) <= 0.02 * 0.02)

    def test_circle_geometry_without_rates(self):
        p = recorded_circle(with_rates=False)
        mid = slice(len(p) // 10, -len(p) // 10)
        assert np.max(np.abs(p.kappa[mid] - 0.02)) < 0.002

    def test_straight_zero_curvature(self):
        t = np.arange(0.0, 30.0, 0.5)
        p = load_recorded(t, 2.0 * t, np.zeros_like(t), np.zeros_like(t))
        assert np.max(np.abs(p.kappa)) < 1e-3

    def test_duplicates_dropped(self):
        t = np.arange(0.0, 30.0, 0.5)
        x = 2.0 * t
        x = np.repeat(x, 2)[: len(t) * 2 - 1]
        t2 = np.linspace(0, 30, len(x))
        p = load_recorded(t2, x, np.zeros_like(x), np.zeros_like(x))
        assert len(p) > 10

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            load_recorded([0, 1], [0, 1], [0, 0], [0, 0])

    def test_zero_displacement(self):
        t = np.arange(12.0)
        with pytest.raises(ValueError):
            load_recorded(t, np.zeros_like(t), np.zeros_like(t), np.zeros_like(t))

    def test_non_monotone_time(self):
        t = np.arange(12.0)
        t[5] = 10.0
        with pytest.raises(ValueError):
            load_recorded(t, t * 2, np.zeros_like(t), np.zeros_like(t))

    def test_projection_consistency(self):
        t = np.arange(0.0, 30.0, 0.5)
        x, y = 2.0 * t, 0.5 * np.sin(0.1 * t)
        psi = np.arctan2(np.gradient(y), np.gradient(x))
        p = load_recorded(t, x, y, psi, spacing=0.25)
        for i in range(0, len(t), 7):
            pr = project(p, Pose(x[i], y[i], psi[i]))
            assert abs(pr.e_y) <= 0.125  # spacing / 2


class TestSmoothRecorded:
    def test_noisy_straight_becomes_drivable(self, params):
        rng = np.random.default_rng(1)
        t = np.arange(0.0, 40.0, 0.2)
        raw = load_recorded(t, 3.0 * t, 0.3 * rng.standard_normal(len(t)), np.zeros_like(t))
        sm = smooth_recorded(raw, params, v=3.0)
        assert np.max(np.abs(sm.kappa)) < 0.01

    def test_total_variation_reduced(self, params):
        rng = np.random.default_rng(2)
        t = np.arange(0.0, 40.0, 0.2)
        raw = load_recorded(t, 3.0 * t, 0.3 * rng.standard_normal(len(t)), np.zeros_like(t))
        sm = smooth_recorded(raw, params, v=3.0)
        assert np.sum(np.abs(np.diff(sm.kappa))) < np.sum(np.abs(np.diff(raw.kappa)))

    def test_smooth_circle_self_consistent(self, params):
        raw = recorded_circle()
        sm = smooth_recorded(raw, params, v=3.0)
        mid = slice(len(sm) // 10, -len(sm) // 10)
        assert np.all(np.abs(sm.kappa[mid] - 0.02) <= 0.05 * 0.02)

    def test_output_within_steering_envelope(self, params):
        raw = recorded_circle(radius=20.0, speed=2.0)
        sm = smooth_recorded(raw, params, v=2.0)
        assert np.max(np.abs(sm.kappa)) <= math.tan(params.max_steer) / params.wheelbase + 1e-9

    def test_noise_estimator_scales(self):
        t = np.arange(0.0, 40.0, 0.2)
        rng = np.random.default_rng(3)
        clean = load_recorded(t, 3.0 * t, np.zeros_like(t), np.zeros_like(t))
        noisy = load_recorded(t, 3.0 * t, 0.3 * rng.standard_normal(len(t)), np.zeros_like(t))
        assert position_noise_estimate(clean) < 0.02
        assert 0.15 < position_noise_estimate(noisy) < 0.45
