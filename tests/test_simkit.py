import copy
import io
import math
import pickle

import numpy as np
import pytest

from steerkit import SimulationError
from steerkit.curvkit import MIN_COS_HEADING
from steerkit.models import ControlInput, ErrorState, Pose, dynamic_step, \
    kinematic_derivative, kinematic_step, pfaffian_residuals
from steerkit.pathkit import PathProjection, gen_path
from steerkit.simkit import (
    MAX_LOG_ROWS, ROW_BYTES, ActuatorConfig, CSV_COLUMNS, ScenarioConfig, SensorConfig, SimLog,
    compute_metrics, default_sensors, dynamic_controller, kinematic_controller,
    run_scenario,
)


def circle_scenario(speed=10.0, arc_deg=270.0, **kw):
    path = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=arc_deg)
    return ScenarioConfig(path=path, speed=speed, t_end=kw.pop("t_end", 40.0), **kw)


def synthetic_log(e_y, speed=2.0, dt=0.01):
    """A straight-line log with lateral error e_y, built as its row table."""
    e_y = np.asarray(e_y, dtype=float)
    t = np.arange(len(e_y)) * dt
    rows = np.zeros((len(e_y), len(CSV_COLUMNS)))
    for name, col in (("t", t), ("x", speed * t), ("y", e_y), ("odometer", speed * t),
                      ("v_cmd", speed), ("s", speed * t), ("e_y", e_y)):
        rows[:, CSV_COLUMNS.index(name)] = col
    return SimLog(rows)


class TestRk4:
    """The fused plant steps, models.kinematic_step and dynamic_step."""

    def test_linear_motion_exact(self, params):
        state = kinematic_step((0.0, 0.0, 0.0), 1.0, 0.0, 0.01, params)
        assert state[0] == pytest.approx(0.01, abs=1e-18)
        assert state[1] == 0.0 and state[2] == 0.0

    def circle_arc_error(self, params, dt, arc=2 * math.pi):
        # endpoint error against the analytic circular solution
        radius, v = 50.0, 10.0
        delta = math.atan(params.wheelbase / radius)
        period = arc * radius / v
        n = int(round(period / dt))
        state = (0.0, 0.0, 0.0)
        for _ in range(n):
            state = kinematic_step(state, v, delta, period / n, params)
        xe = radius * math.sin(arc)
        ye = radius * (1.0 - math.cos(arc))
        return math.hypot(state[0] - xe, state[1] - ye)

    def test_circle_closure_fine_step(self, params):
        assert self.circle_arc_error(params, 1e-3) < 1e-6

    def test_order_four_convergence(self, params):
        # quarter arc: per-step errors cannot cancel around the loop there
        e1 = self.circle_arc_error(params, 0.1, arc=math.pi / 2)
        e2 = self.circle_arc_error(params, 0.05, arc=math.pi / 2)
        assert 12.0 < e1 / e2 < 20.0

    def test_rejects_bad_dt(self, params):
        with pytest.raises(ValueError):
            kinematic_step((0.0, 0.0, 0.0), 1.0, 0.0, 0.0, params)

    def test_nonfinite_state_aborts(self, params):
        with pytest.raises(SimulationError):
            kinematic_step((float("inf"), 0.0, 0.0), 1.0, 0.0, 0.01, params)

    def test_dynamic_rejects_bad_dt_and_nonfinite_state(self, params):
        with pytest.raises(ValueError):
            dynamic_step((0.0,) * 5, 10.0, 0.0, -0.01, params)
        with pytest.raises(SimulationError):
            dynamic_step((0.0, 0.0, 0.0, float("nan"), 0.0), 10.0, 0.0, 0.01, params)

    def test_kinematic_rejects_tangent_singularity(self, params):
        with pytest.raises(ValueError, match="singularity"):
            kinematic_step((0.0, 0.0, 0.0), 1.0, math.pi / 2, 0.01, params)


class TestKinematicController:
    def test_on_path_straight(self, params, kinematic_schedule):
        u = kinematic_controller(PathProjection(0.0, 0.0, 0.0, 0.0), 5.0,
                                 kinematic_schedule.lookup(5.0).k, params)
        assert u.delta == 0.0

    def test_pure_feedforward_on_circle(self, params, kinematic_schedule):
        u = kinematic_controller(PathProjection(0.0, 0.0, 0.0, 0.02), 10.0,
                                 kinematic_schedule.lookup(10.0).k, params)
        assert u.delta == pytest.approx(math.atan(0.02 * params.wheelbase), abs=1e-15)

    def test_left_offset_steers_right(self, params, kinematic_schedule):
        k1 = kinematic_schedule.lookup(5.0).k[0]
        u = kinematic_controller(PathProjection(0.0, 0.3, 0.0, 0.0), 5.0,
                                 kinematic_schedule.lookup(5.0).k, params)
        assert u.delta == pytest.approx(-0.3 * k1, abs=1e-12)
        assert u.delta < 0.0

    def test_clamps_at_max_steer(self, params, kinematic_schedule):
        u = kinematic_controller(PathProjection(0.0, 10.0, 0.0, 0.0), 5.0,
                                 kinematic_schedule.lookup(5.0).k, params)
        assert u.delta == -params.max_steer


class TestDynamicController:
    def test_zero_error_zero_curvature(self, params, dynamic_schedule):
        k = dynamic_schedule.lookup(10.0).k
        u = dynamic_controller(ErrorState(0, 0, 0, 0), 10.0, k, 0.0, params)
        assert u.delta == 0.0

    def test_pure_feedforward(self, params, dynamic_schedule):
        k = dynamic_schedule.lookup(10.0).k
        u = dynamic_controller(ErrorState(0, 0, 0, 0), 10.0, k, 0.02, params)
        assert u.delta == pytest.approx(math.atan(0.054), abs=1e-15)

    def test_feedback_linearity_before_clamp(self, params, dynamic_schedule):
        e1 = ErrorState(0.1, 0.01, 0.02, 0.001)
        e2 = ErrorState(0.2, 0.02, 0.04, 0.002)
        k = dynamic_schedule.lookup(10.0).k
        u1 = dynamic_controller(e1, 10.0, k, 0.0, params)
        u2 = dynamic_controller(e2, 10.0, k, 0.0, params)
        assert u2.delta == pytest.approx(2.0 * u1.delta, abs=1e-12)

    def test_speed_guard(self, params, dynamic_schedule):
        with pytest.raises(ValueError):
            dynamic_controller(ErrorState(0, 0, 0, 0), 0.3, dynamic_schedule.gains[0].k, 0.0,
                               params)


class TestScenarioConfig:
    def test_dt_divisibility(self):
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError):
            ScenarioConfig(path=path, sim_dt=0.003, control_dt=0.02)

    def test_sim_dt_bound(self):
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError):
            ScenarioConfig(path=path, sim_dt=0.05, control_dt=0.02)

    def test_row_budget(self):
        # built only, never run: the check comes before anything is allocated
        path = gen_path("line", spacing=0.1, length=30.0)
        assert MAX_LOG_ROWS * ROW_BYTES == 800_000_000
        at = ScenarioConfig(path=path, t_end=(MAX_LOG_ROWS - 1) * 0.001, sim_dt=0.001)
        assert round(at.t_end / at.sim_dt) + 1 == MAX_LOG_ROWS
        with pytest.raises(ValueError, match=r"t_end 5000 s at sim_dt 0.001 s logs "
                                             r"5,000,001 rows, above the budget of 5,000,000"):
            ScenarioConfig(path=path, t_end=MAX_LOG_ROWS * 0.001, sim_dt=0.001)

    def test_step_counts_that_overflow_are_input_errors(self):
        # control_dt / sim_dt and t_end / sim_dt are inf here, which round() cannot take
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError, match=r"integer multiple of sim_dt 4.94066e-324 s"):
            ScenarioConfig(path=path, sim_dt=5e-324)
        with pytest.raises(ValueError, match=r"t_end 1e\+308 s at sim_dt 0.001 s logs inf rows"):
            ScenarioConfig(path=path, t_end=1e308)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_t_end_positive_and_finite(self, bad):
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            ScenarioConfig(path=path, t_end=bad)

    def test_unknown_channel_rejected(self):
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError):
            ScenarioConfig(path=path, sensors={"gps": SensorConfig()})

    def test_sample_periods(self):
        path = gen_path("line", spacing=0.1, length=30.0)
        cfg = ScenarioConfig(path=path, sensors={"speed": SensorConfig(rate_hz=1000.0)})
        assert cfg.control_every == 20
        assert [cfg.sample_period(n) for n in ("heading", "speed", "yaw_rate")] == [20, 1, 5]
        coarse = ScenarioConfig(path=path, sim_dt=0.002,
                                sensors={"yaw_rate": SensorConfig(rate_hz=250.0)})
        assert coarse.sample_period("yaw_rate") == 2

    @pytest.mark.parametrize("sim_dt, channel, rate, message", [
        (0.001, "yaw_rate", 300.0, "whole number of sim_dt"),
        (0.001, "lateral", 1500.0, "above the sim rate"),
        (0.001, "speed", 5000.0, "above the sim rate"),
        (0.002, "yaw_rate", 200.0, "whole number of sim_dt"),
    ])
    def test_sensor_rate_must_be_whole_sim_steps(self, sim_dt, channel, rate, message):
        # 300 Hz at 1 kHz used to sample every 3rd step (333 Hz); 5 kHz every step
        path = gen_path("line", spacing=0.1, length=30.0)
        sensors = default_sensors() | {channel: SensorConfig(rate_hz=rate)}
        with pytest.raises(ValueError, match=f"sensors.{channel}: .*{message}"):
            ScenarioConfig(path=path, sim_dt=sim_dt, sensors=sensors)

    def test_negative_seed_rejected(self):
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError, match="seed"):
            ScenarioConfig(path=path, seed=-1)

    def test_piecewise_speed(self):
        path = gen_path("line", spacing=0.1, length=30.0)
        cfg = ScenarioConfig(path=path, speed=[(0.0, 2.0), (10.0, 6.0)])
        assert cfg.speed_at(0.0) == 2.0
        assert cfg.speed_at(5.0) == pytest.approx(4.0)
        assert cfg.speed_at(20.0) == 6.0
        ts = [0.0, 2.5, 5.0, 10.0, 20.0]
        assert cfg.speed_at(np.array(ts)).tolist() == [cfg.speed_at(t) for t in ts]
        constant = ScenarioConfig(path=path, speed=7.0)
        assert constant.speed_at(np.zeros(3)).tolist() == [7.0, 7.0, 7.0]

    def test_speed_table_must_ascend(self):
        path = gen_path("line", spacing=0.1, length=30.0)
        for table in ([(5.0, 2.0), (0.0, 6.0)], [(0.0, 2.0), (0.0, 6.0)]):
            with pytest.raises(ValueError, match=r"knot 1 \["):
                ScenarioConfig(path=path, speed=table)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_speeds_must_be_positive(self, bad):
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError, match=r"knot 1 \["):
            ScenarioConfig(path=path, speed=[(0.0, 2.0), (10.0, bad)])
        with pytest.raises(ValueError, match="speed"):
            ScenarioConfig(path=path, speed=bad)

    def test_empty_speed_table_rejected(self):
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError, match="at least one"):
            ScenarioConfig(path=path, speed=[])


class TestRunScenario:
    def test_straight_equilibrium_is_exact(self, params, kinematic_schedule):
        path = gen_path("line", spacing=0.1, length=80.0)
        cfg = ScenarioConfig(path=path, speed=8.0, t_end=12.0)
        log = run_scenario(cfg, kinematic_schedule, params=params)
        assert np.max(np.abs(log.e_y)) < 1e-9
        assert log.stop_reason == "path_end"

    def test_determinism_bit_identical(self, params, kinematic_schedule):
        path = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=90.0)
        sensors = {"lateral": SensorConfig(noise_std=0.02),
                   "yaw_rate": SensorConfig(noise_std=0.01, rate_hz=200.0)}
        cfg = ScenarioConfig(path=path, speed=10.0, t_end=4.0, sensors=sensors, seed=99)
        b1, b2 = io.StringIO(), io.StringIO()
        run_scenario(cfg, kinematic_schedule, params=params).to_csv(b1)
        run_scenario(cfg, kinematic_schedule, params=params).to_csv(b2)
        assert b1.getvalue() == b2.getvalue()

    def test_seed_changes_noise(self, params, kinematic_schedule):
        path = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=90.0)
        sensors = {"lateral": SensorConfig(noise_std=0.02)}
        log1 = run_scenario(ScenarioConfig(path=path, speed=10.0, t_end=3.0,
                                           sensors=sensors, seed=1),
                            kinematic_schedule, params=params)
        log2 = run_scenario(ScenarioConfig(path=path, speed=10.0, t_end=3.0,
                                           sensors=sensors, seed=2),
                            kinematic_schedule, params=params)
        assert not np.array_equal(log1.delta_cmd, log2.delta_cmd)

    def test_path_end_log_has_exactly_the_stepped_rows(self, params, kinematic_schedule):
        path = gen_path("line", spacing=0.1, length=40.0)
        cfg = ScenarioConfig(path=path, speed=8.0, t_end=12.0, initial_offset=(0.3, 0.0))
        log = run_scenario(cfg, kinematic_schedule, params=params)
        assert log.stop_reason == "path_end"
        assert len(log) < round(cfg.t_end / cfg.sim_dt) + 1
        # the run stops on the first row past the end margin, and logs it
        end_s = path.s[-1] - 2.0 * np.max(np.diff(path.s))
        assert log.s[-1] >= end_s and np.all(log.s[:-1] < end_s)
        np.testing.assert_array_equal(log.t, np.arange(len(log)) * cfg.sim_dt)
        for name in CSV_COLUMNS:
            assert np.all(np.isfinite(getattr(log, name))), name

    def test_closed_circle_wraps_once_per_lap(self, params, kinematic_schedule):
        path = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=360.0)
        assert path.closed
        t_end = 1.25 * path.length / 10.0
        log = run_scenario(ScenarioConfig(path=path, speed=10.0, t_end=t_end),
                           kinematic_schedule, params=params)
        assert log.stop_reason == "t_end"
        assert len(log) == round(t_end / 0.001) + 1
        ds = np.diff(log.s)
        back = np.nonzero(ds < 0)[0]
        assert len(back) == 1
        assert -ds[back[0]] == pytest.approx(path.length, abs=0.5)
        assert np.all(np.delete(ds, back) >= 0)
        assert compute_metrics(log)["max_abs_e_y"] <= 0.10  # criterion 3 bound

    def test_pfaffian_residuals_along_log(self, params, kinematic_schedule):
        cfg = circle_scenario(speed=10.0, arc_deg=90.0, t_end=8.0)
        log = run_scenario(cfg, kinematic_schedule, params=params)
        for i in range(0, len(log), 500):
            pose = Pose(log.x[i], log.y[i], log.psi[i])
            u = ControlInput(log.v_cmd[i], log.delta_act[i])
            vel = kinematic_derivative((pose.x, pose.y, pose.psi), u, params)
            r_rear, r_front = pfaffian_residuals(pose, vel, u, params)
            assert abs(r_rear) < 1e-12 and abs(r_front) < 1e-12

    def test_speed_consistency(self, params, kinematic_schedule):
        cfg = circle_scenario(speed=7.0, arc_deg=90.0, t_end=8.0)
        log = run_scenario(cfg, kinematic_schedule, params=params)
        for i in range(0, len(log), 700):
            pose = Pose(log.x[i], log.y[i], log.psi[i])
            vel = kinematic_derivative((pose.x, pose.y, pose.psi),
                                       ControlInput(log.v_cmd[i], log.delta_act[i]), params)
            assert math.hypot(vel[0], vel[1]) == pytest.approx(log.v_cmd[i], abs=1e-9)

    def test_vehicle_lost_raises(self, params):
        # negligible feedback plus a heading error pointing away from the
        # path walks the vehicle beyond the projection horizon
        from steerkit.lqr import GainSchedule, GainSet

        limp = GainSchedule(
            speeds=np.array([1.0, 10.0]),
            gains=[GainSet(k=np.array([1e-9, 1e-9]), v=v, dt=0.02, model="kinematic",
                           closed_loop_radius=0.999999) for v in (1.0, 10.0)],
            dt=0.02, model="kinematic", params=params)
        path = gen_path("line", spacing=0.1, length=400.0)
        cfg = ScenarioConfig(path=path, speed=10.0, t_end=20.0, initial_offset=(0.0, 1.5))
        with pytest.raises(SimulationError):
            run_scenario(cfg, limp, params=params)

    def test_differential_sample_rotates_near_quarter_turn(self, params, kinematic_schedule):
        # heading error 1.56 rad: |cos| < MIN_COS_HEADING, so the differential
        # source is evaluated in the sample-aligned frame instead of held at 0
        path = gen_path("line", spacing=0.1, length=80.0)
        cfg = ScenarioConfig(path=path, speed=5.0, t_end=0.1, initial_offset=(0.0, 1.56),
                             initial_steer=0.1)
        log = run_scenario(cfg, kinematic_schedule, params=params)
        assert abs(math.cos(log.e_psi[0])) < MIN_COS_HEADING
        yaw = 5.0 / params.wheelbase * math.tan(0.1)
        assert log.kappa_diff[0] == pytest.approx(yaw / 5.0, rel=1e-12)

    def test_gain_dimension_mismatch(self, params, kinematic_schedule, dynamic_schedule):
        path = gen_path("line", spacing=0.1, length=30.0)
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig(path=path, controller="dynamic_lqr"),
                         kinematic_schedule, params=params)
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig(path=path), dynamic_schedule, params=params)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, -0.61])
    def test_bad_initial_steer_rejected(self, params, kinematic_schedule, dynamic_schedule, bad):
        # NaN used to fail in the steer quantizer; 1.0 rad ran silently past max_steer
        path = gen_path("line", spacing=0.1, length=30.0)
        for model, controller, schedule in (("kinematic", "kinematic_ff_fb", kinematic_schedule),
                                            ("dynamic", "dynamic_lqr", dynamic_schedule)):
            cfg = ScenarioConfig(path=path, model=model, controller=controller, t_end=0.1,
                                 initial_steer=bad)
            with pytest.raises(ValueError, match="initial_steer"):
                run_scenario(cfg, schedule, params=params)

    def test_initial_steer_at_max_steer_runs(self, params, kinematic_schedule):
        path = gen_path("line", spacing=0.1, length=30.0)
        cfg = ScenarioConfig(path=path, t_end=0.1, initial_steer=-params.max_steer)
        log = run_scenario(cfg, kinematic_schedule, params=params)
        assert log.delta_act[0] == -params.max_steer

    def test_dynamic_model_tracks_circle(self, params, dynamic_schedule):
        path = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=120.0)
        cfg = ScenarioConfig(path=path, model="dynamic", controller="dynamic_lqr",
                             speed=10.0, t_end=20.0)
        log = run_scenario(cfg, dynamic_schedule, params=params)
        m = compute_metrics(log)
        assert m["max_abs_e_y"] < 0.15
        assert log.stop_reason == "path_end"

    def test_saturation_flagged(self, params, kinematic_schedule):
        path = gen_path("line", spacing=0.1, length=60.0)
        cfg = ScenarioConfig(path=path, speed=5.0, t_end=10.0, initial_offset=(2.0, 0.0))
        log = run_scenario(cfg, kinematic_schedule, params=params)
        assert np.any(log.saturated > 0)
        assert np.max(np.abs(log.delta_cmd)) <= params.max_steer + 1e-12

    def test_steer_quantization_visible_in_ack_channel(self, params, kinematic_schedule):
        cfg = circle_scenario(speed=10.0, arc_deg=90.0, t_end=8.0)
        log = run_scenario(cfg, kinematic_schedule, params=params)
        q = math.radians(0.1) / 16.0
        steer_meas = np.arctan(log.kappa_ack * params.wheelbase)
        steps = steer_meas / q
        assert np.max(np.abs(steps - np.round(steps))) < 1e-6

    def test_csv_columns_contract(self, params, kinematic_schedule):
        cfg = circle_scenario(speed=10.0, arc_deg=30.0, t_end=3.0)
        log = run_scenario(cfg, kinematic_schedule, params=params)
        buf = io.StringIO()
        log.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(log)

    def test_dynamic_speed_dip_rejected_before_the_first_step(self, params, dynamic_schedule):
        # the dip comes 4 s into the run; the whole commanded table is checked up front
        cfg = ScenarioConfig(path=gen_path("line", spacing=0.1, length=80.0), model="dynamic",
                             controller="dynamic_lqr", speed=[(0.0, 5.0), (4.0, 0.3)], t_end=8.0)
        with pytest.raises(ValueError, match=r"0\.3 m/s \(speed command at t=4 s\)"):
            run_scenario(cfg, dynamic_schedule, params=params)


class TestSimLog:
    """A SimLog is its run's row table; a column reads by its CSV_COLUMNS name."""

    def test_to_csv_equals_per_row_repr(self, params, kinematic_schedule):
        cfg = circle_scenario(speed=10.0, arc_deg=30.0, t_end=2.0, seed=3,
                              sensors={"lateral": SensorConfig(noise_std=0.02)})
        log = run_scenario(cfg, kinematic_schedule, params=params)
        buf = io.StringIO()
        log.to_csv(buf)
        want = ["# steerkit simulation log; SI units, radians; saturated is 0/1",
                ",".join(CSV_COLUMNS)]
        want += [",".join(map(repr, row)) for row in log.rows.tolist()]
        assert buf.getvalue() == "\n".join(want) + "\n"

    def test_columns_are_views_of_the_table(self):
        log = synthetic_log(np.linspace(0.1, 0.0, 7))
        assert len(log) == 7
        for i, name in enumerate(CSV_COLUMNS):
            column = getattr(log, name)
            assert np.shares_memory(column, log.rows)
            assert np.array_equal(column, log.rows[:, i])

    def test_unknown_attribute_raises_attribute_error(self):
        log = synthetic_log(np.zeros(3))
        with pytest.raises(AttributeError, match="no_such_column"):
            log.no_such_column
        assert not hasattr(log, "e_z") and not hasattr(log, "__no_such_dunder__")
        # a log with no table yet (as copy and pickle make one) fails cleanly, not by recursion
        with pytest.raises(AttributeError):
            object.__new__(SimLog).e_y
        assert log.stop_reason == "t_end"

    def test_copy_and_pickle_round_trip(self):
        log = SimLog(synthetic_log(np.linspace(0.2, 0.0, 5)).rows, stop_reason="path_end")
        for clone in (copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
            assert np.array_equal(clone.rows, log.rows)
            assert clone.stop_reason == "path_end"
            assert np.array_equal(clone.e_y, log.e_y)

    def test_synthetic_log_builds_a_table(self):
        log = synthetic_log(np.array([0.3, 0.2]), speed=2.0, dt=0.5)
        assert log.rows.shape == (2, len(CSV_COLUMNS))
        assert log.e_y.tolist() == [0.3, 0.2]
        assert log.odometer.tolist() == [0.0, 1.0]
        assert log.v_cmd.tolist() == [2.0, 2.0] and not log.delta_act.any()


class TestMetrics:
    def test_constant_error(self):
        m = compute_metrics(synthetic_log(np.full(100, 0.03)))
        assert m["max_abs_e_y"] == pytest.approx(0.03)
        assert m["rms_e_y"] == pytest.approx(0.03)
        assert m["settled"] and m["settle_distance"] == 0.0

    def test_settle_distance_definition(self):
        # decays through the 0.05 band at a known odometer reading
        e = np.concatenate([np.linspace(1.0, 0.049, 621), np.full(200, 0.049)])
        log = synthetic_log(e, speed=2.0, dt=0.01)
        m = compute_metrics(log)
        # first in-band index is 620 -> odometer = 2.0 * 6.20
        assert m["settled"]
        assert m["settle_distance"] == pytest.approx(12.4, abs=0.05)

    def test_unsettled_flag(self):
        m = compute_metrics(synthetic_log(np.full(50, 0.2)))
        assert not m["settled"]
        assert m["settle_distance"] is None
        assert m["post_transient"]["max_abs_e_y"] is None

    def test_refinement_invariance(self, params, kinematic_schedule):
        path = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=120.0)
        logs = [run_scenario(ScenarioConfig(path=path, speed=10.0, t_end=12.0, sim_dt=dt),
                             kinematic_schedule, params=params)
                for dt in (0.001, 0.0005)]
        m1, m2 = (compute_metrics(lg) for lg in logs)
        assert m1["max_abs_e_y"] == pytest.approx(m2["max_abs_e_y"], rel=0.02)
        assert m1["rms_e_y"] == pytest.approx(m2["rms_e_y"], rel=0.02)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(synthetic_log(np.array([])))

    def test_to_dict_shape(self):
        d = compute_metrics(synthetic_log(np.full(10, 0.01)))
        assert set(d) == {"max_abs_e_y", "rms_e_y", "max_abs_e_psi", "settle_distance",
                          "settled", "post_transient"}


class TestDelayMarginCrossCheck:
    def test_instability_onset_matches_phase_margin_estimate(self, params, kinematic_schedule):
        # time-delay margin predicted from the loop's phase margin agrees
        # with the simulated instability onset within a factor of two
        from steerkit.lqr import discrete_error_model
        from steerkit.margins import compute_margins, default_grid, loop_response

        v = 10.0
        gs = kinematic_schedule.lookup(v)
        sysd = discrete_error_model("kinematic", v, params, 0.02)
        rep = compute_margins(loop_response(sysd, gs, default_grid(0.02)))
        t_pm = math.radians(rep.pm) / rep.pm_freq

        path = gen_path("line", spacing=0.1, length=260.0)

        def unstable(delay_steps):
            # 200 Hz is not a whole number of 2 ms steps; 250 Hz is a sample every 2 steps
            cfg = ScenarioConfig(
                path=path, speed=v, t_end=22.0, sim_dt=0.002, initial_offset=(0.3, 0.0),
                sensors=default_sensors() | {"yaw_rate": SensorConfig(rate_hz=250.0)},
                actuator=ActuatorConfig(lag_tau=1e-3, delay_steps=delay_steps,
                                        rate_limit=None))
            try:
                log = run_scenario(cfg, kinematic_schedule, params=params)
            except SimulationError:
                return True
            tail = np.abs(log.e_y[len(log) // 2:])
            return bool(np.max(tail) > 1.0)

        onset = None
        for steps in range(1, 26):
            if unstable(steps):
                onset = steps * 0.02
                break
        assert onset is not None, "no instability found within the sweep"
        assert 0.5 * t_pm <= onset <= 2.0 * t_pm


class TestDefaultSensors:
    def test_channels(self):
        s = default_sensors()
        assert set(s) == {"lateral", "heading", "yaw_rate", "steer", "speed"}
        assert s["yaw_rate"].rate_hz == 200.0
        assert s["steer"].quantization_step == pytest.approx(math.radians(0.1) / 16.0)

    def test_sensor_validation(self):
        with pytest.raises(ValueError):
            SensorConfig(noise_std=-1.0)
        with pytest.raises(ValueError):
            SensorConfig(rate_hz=0.0)
        with pytest.raises(ValueError):
            ActuatorConfig(lag_tau=-0.1)

    @pytest.mark.parametrize("field, bad", [
        ("noise_std", math.nan), ("quantization_step", math.nan), ("rate_hz", math.nan),
        ("noise_std", math.inf), ("delay_steps", 1.5), ("delay_steps", -1),
    ])
    def test_sensor_rejects_nan_and_fractional_delay(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SensorConfig(**{field: bad})

    @pytest.mark.parametrize("field, bad", [
        ("lag_tau", math.nan), ("rate_limit", math.nan), ("delay_steps", 1.5),
        ("delay_steps", 2.0), ("delay_steps", -1),
    ])
    def test_actuator_rejects_nan_and_fractional_delay(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ActuatorConfig(**{field: bad})
