import math

import numpy as np
import pytest

from steerkit.models import (
    ControlInput, DynamicState, Pose, VehicleParams, dynamic_derivative, dynamic_matrices,
    error_dynamics_matrices, front_axle_pose, kinematic_derivative,
    kinematic_error_model, pfaffian_residuals, slip_angles, wrap_angle,
)


class TestVehicleParams:
    def test_defaults_consistent(self, params):
        assert params.wheelbase == pytest.approx(2.7, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VehicleParams(m=0.0)
        with pytest.raises(ValueError):
            VehicleParams(lf=-1.0)

    def test_rejects_huge_steer(self):
        with pytest.raises(ValueError):
            VehicleParams(max_steer=2.0)


class TestPose:
    def test_wraps_heading(self):
        assert Pose(0, 0, 3 * math.pi).psi == pytest.approx(math.pi, abs=1e-12)
        assert Pose(0, 0, -math.pi).psi == pytest.approx(math.pi, abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Pose(float("nan"), 0, 0)


class TestKinematicDerivative:
    def test_straight_ahead(self, params):
        assert kinematic_derivative((0, 0, 0), ControlInput(1.0, 0.0), params) == (1.0, 0.0, 0.0)

    def test_due_north(self, params):
        dx, dy, dpsi = kinematic_derivative((0, 0, math.pi / 2), ControlInput(2.0, 0.0), params)
        assert dx == pytest.approx(0.0, abs=1e-15)
        assert dy == pytest.approx(2.0, abs=1e-15)
        assert dpsi == 0.0

    def test_circle_yaw_rate(self, params):
        # steering for a 50 m radius at 10 m/s turns at V/R
        delta = math.atan(params.wheelbase / 50.0)
        _, _, dpsi = kinematic_derivative((0, 0, 0.3), ControlInput(10.0, delta), params)
        assert dpsi == pytest.approx(10.0 / 50.0, abs=1e-14)

    def test_steer_singularity(self, params):
        with pytest.raises(ValueError):
            kinematic_derivative((0, 0, 0), ControlInput(1.0, math.pi / 2), params)


class TestDynamicDerivative:
    def test_lateral_rows_match_dynamic_matrices(self, params):
        # the simulated plant and the design model are one single-track model
        vx, vy, r, delta = 12.0, 0.3, 0.1, 0.05
        d = dynamic_derivative((1.0, 2.0, 0.4, vy, r), ControlInput(vx, delta), params)
        sys = dynamic_matrices(vx, params)
        lin = sys.A @ np.array([0.0, vy, 0.0, r]) + sys.B[:, 0] * delta
        assert d[3] == pytest.approx(lin[1], rel=1e-12)
        assert d[4] == pytest.approx(lin[3], rel=1e-12)
        assert d[2] == r
        assert math.hypot(d[0], d[1]) == pytest.approx(math.hypot(vx, vy), rel=1e-12)


class TestFrontAxle:
    def test_east(self, params):
        assert front_axle_pose(Pose(0, 0, 0), params) == pytest.approx((2.7, 0.0))

    def test_north(self):
        p = VehicleParams(lf=1.0, lr=1.0)
        xf, yf = front_axle_pose(Pose(1, 1, math.pi / 2), p)
        assert (xf, yf) == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_diagonal(self):
        p = VehicleParams(lf=math.sqrt(2) / 2, lr=math.sqrt(2) / 2)
        xf, yf = front_axle_pose(Pose(0, 0, math.pi / 4), p)
        assert (xf, yf) == pytest.approx((1.0, 1.0), abs=1e-12)


class TestPfaffian:
    def test_model_satisfies_own_constraints(self, params):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pose = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
            u = ControlInput(rng.uniform(0.5, 20.0), rng.uniform(-0.5, 0.5))
            vel = kinematic_derivative((pose.x, pose.y, pose.psi), u, params)
            r_rear, r_front = pfaffian_residuals(pose, vel, u, params)
            assert abs(r_rear) < 1e-12
            assert abs(r_front) < 1e-12

    def test_sideways_slide_violates(self, params):
        r_rear, _ = pfaffian_residuals(Pose(0, 0, 0), (0.0, 1.0, 0.0), ControlInput(1.0, 0.0), params)
        assert r_rear == pytest.approx(-1.0, abs=1e-15)

    def test_pure_forward_motion(self, params):
        res = pfaffian_residuals(Pose(0, 0, 0), (1.0, 0.0, 0.0), ControlInput(1.0, 0.0), params)
        assert res == (0.0, 0.0)


class TestSlipAngles:
    def test_zero_motion(self, params):
        s = slip_angles(DynamicState(0, 0, 0, 0), 10.0, params)
        assert (s.beta, s.beta_f, s.beta_r) == (0.0, 0.0, 0.0)
        assert s.small_angle

    def test_arithmetic(self, params):
        s = slip_angles(DynamicState(0, 0.5, 0, 0.1), 10.0, params)
        assert s.beta == pytest.approx(0.05, abs=1e-15)
        assert s.beta_f == pytest.approx(0.062, abs=1e-15)
        assert s.beta_r == pytest.approx(0.035, abs=1e-15)

    def test_speed_guard(self, params):
        with pytest.raises(ValueError):
            slip_angles(DynamicState(0, 0, 0, 0), 0.4, params)

    def test_superposition(self, params):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y1, p1 = rng.uniform(-1, 1, 2)
            y2, p2 = rng.uniform(-1, 1, 2)
            a = slip_angles(DynamicState(0, y1, 0, p1), 8.0, params)
            b = slip_angles(DynamicState(0, y2, 0, p2), 8.0, params)
            c = slip_angles(DynamicState(0, y1 + y2, 0, p1 + p2), 8.0, params)
            assert c.beta == pytest.approx(a.beta + b.beta, abs=1e-14)
            assert c.beta_f == pytest.approx(a.beta_f + b.beta_f, abs=1e-14)
            assert c.beta_r == pytest.approx(a.beta_r + b.beta_r, abs=1e-14)

    def test_linear_region_flag(self, params):
        # beta = 2.0/10 = 0.2 rad leaves the linear tire region
        assert not slip_angles(DynamicState(0, 2.0, 0, 0.0), 10.0, params).small_angle
        assert slip_angles(DynamicState(0, 1.0, 0, 0.0), 10.0, params).small_angle


class TestDynamicMatrices:
    def test_integrator_rows(self, params):
        sys = dynamic_matrices(10.0, params)
        assert sys.A[0, 1] == 1.0 and sys.A[2, 3] == 1.0
        assert np.count_nonzero(sys.A[0]) == 1 and np.count_nonzero(sys.A[2]) == 1

    def test_damping_coefficient(self, params):
        sys = dynamic_matrices(10.0, params)
        assert sys.A[1, 1] == pytest.approx(-16.0, abs=1e-12)

    def test_input_column(self, params):
        sys = dynamic_matrices(10.0, params)
        assert sys.B[1, 0] == pytest.approx(80.0, abs=1e-12)
        assert sys.B[3, 0] == pytest.approx(2 * 1.2 * 60000 / 3000.0, abs=1e-12)

    def test_speed_guard(self, params):
        with pytest.raises(ValueError):
            dynamic_matrices(0.5, params)

    def test_open_loop_eigenstructure(self, params):
        # two pure integrators, remaining pair strictly stable
        for vx in np.linspace(1.0, 30.0, 12):
            ev = np.linalg.eigvals(dynamic_matrices(vx, params).A)
            re = np.sort(np.real(ev))
            assert np.sum(np.abs(np.real(ev)) < 1e-9) == 2
            assert np.all(re[:2] < 0)


class TestErrorDynamics:
    def test_shares_body_frame_coefficients(self, params):
        body = dynamic_matrices(8.0, params)
        err, _ = error_dynamics_matrices(8.0, params)
        assert np.array_equal(err.B, body.B)
        assert err.A[1, 1] == body.A[1, 1]
        assert err.A[3, 1] == body.A[3, 1]
        assert np.array_equal(err.A[0], body.A[0])
        assert np.array_equal(err.A[2], body.A[2])

    def test_substitution_coupling_terms(self, params):
        err, dist = error_dynamics_matrices(10.0, params)
        caf = car = 60000.0
        m, iz, lf, lr, vx = 1500.0, 3000.0, 1.2, 1.5, 10.0
        assert err.A[1, 2] == pytest.approx(2 * (caf + car) / m, abs=1e-12)
        assert err.A[1, 3] == pytest.approx(-2 * (caf * lf - car * lr) / (m * vx), abs=1e-12)
        assert err.A[3, 2] == pytest.approx(2 * (lf * caf - lr * car) / iz, abs=1e-12)
        assert dist[1, 0] == pytest.approx(-2 * (caf * lf - car * lr) / (m * vx) - vx, abs=1e-12)
        assert dist[3, 0] == pytest.approx(-2 * (lf**2 * caf + lr**2 * car) / (iz * vx), abs=1e-12)

    def test_equilibrium_at_zero(self, params):
        err, dist = error_dynamics_matrices(10.0, params)
        x = np.zeros((4, 1))
        assert np.all(err.A @ x + err.B * 0.0 + dist * 0.0 == 0.0)

    def test_stabilizable_with_single_input(self, params):
        err, _ = error_dynamics_matrices(10.0, params)
        n = 4
        ctrb = np.hstack([np.linalg.matrix_power(err.A, i) @ err.B for i in range(n)])
        assert np.linalg.matrix_rank(ctrb) == n

    def test_steady_state_cornering_fixed_point(self, params, dynamic_schedule):
        # constant desired yaw rate with stabilizing feedback settles to a
        # constant lateral error solved from the closed-loop equilibrium
        vx, kappa = 10.0, 0.02
        err, dist = error_dynamics_matrices(vx, params)
        k = dynamic_schedule.lookup(vx).k
        acl = err.A - err.B @ k.reshape(1, -1)
        psi_dot_d = vx * kappa
        x_ss = np.linalg.solve(acl, -dist * psi_dot_d)
        assert np.all(np.isfinite(x_ss))
        # derivative at the fixed point vanishes
        resid = acl @ x_ss + dist * psi_dot_d
        assert np.linalg.norm(resid) < 1e-9
        assert abs(x_ss[1, 0]) < 1e-9 and abs(x_ss[3, 0]) < 1e-9


class TestKinematicErrorModel:
    def test_direct_substitution(self):
        sys = kinematic_error_model(10.0, 2.7)
        assert np.array_equal(sys.A, [[0.0, 10.0], [0.0, 0.0]])
        assert sys.B[1, 0] == pytest.approx(10.0 / 2.7, abs=1e-12)

    def test_jacobian_matches_finite_differences(self):
        # nonlinear tangent-frame error model: (de_y, de_psi) =
        # (v sin(e_psi), v/L tan(delta_fb))
        v, wheelbase = 7.0, 2.7

        def f(state, delta):
            return np.array([v * math.sin(state[1]), v / wheelbase * math.tan(delta)])

        sys = kinematic_error_model(v, wheelbase)
        h = 1e-6
        a_fd = np.zeros((2, 2))
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = h
            a_fd[:, j] = (f(dx, 0.0) - f(-dx, 0.0)) / (2 * h)
        b_fd = ((f(np.zeros(2), h) - f(np.zeros(2), -h)) / (2 * h)).reshape(2, 1)
        assert np.allclose(a_fd, sys.A, atol=1e-6 * max(1.0, v))
        assert np.allclose(b_fd, sys.B, rtol=1e-6)

    def test_equilibrium(self):
        sys = kinematic_error_model(5.0, 2.7)
        assert np.all(sys.A @ np.zeros(2) + sys.B[:, 0] * 0.0 == 0.0)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            kinematic_error_model(0.0, 2.7)


class TestWrapAngle:
    def test_range(self):
        for a in np.linspace(-10, 10, 101):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
            assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)
