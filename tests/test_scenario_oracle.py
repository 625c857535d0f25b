"""run_scenario against the per-step loop it replaced, kept here as the
oracle: the loop that projects every step's pose at once with
`pathkit.project`, before each step's row is logged, with the foot of the
last read step before it as its memory.  run_scenario projects only the
steps the loop reads at once and settles the others in blocks; its rows,
stop reason and errors must be the oracle's to the bit."""

import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from steerkit import pathbatch, simkit
from steerkit.curvkit import DEFAULT_Q_PROCESS, DEFAULT_R_ACKERMANN, DEFAULT_R_DIFFERENTIAL, \
    INITIAL_KAPPA, INITIAL_VARIANCE, ackermann_curvature, differential_sample, \
    feedforward_steer, kf_step
from steerkit.lqr import GainSchedule, GainSet, LqrWeights, build_schedule, certify
from steerkit.models import Pose, VehicleParams, check_dynamic_speed, dynamic_step, \
    kinematic_step, kinematic_yaw_rate
from steerkit.pathkit import gen_path, load_recorded, project
from steerkit.simkit import CSV_COLUMNS, ActuatorConfig, ScenarioConfig, SensorConfig, \
    SimLog, default_sensors, run_scenario

from oracles import lookup


def per_step_run_scenario(cfg, gains, p):
    """run_scenario as one loop that projects every pose when it is reached.
    Read steps come every gcd(heading, lateral, control period) steps; a
    step's memory is the foot of the last read step before it."""
    path = cfg.path
    rng = np.random.default_rng(cfg.seed)
    e_y0, e_psi0 = cfg.initial_offset
    psi0 = float(path.psi[0])
    x0 = float(path.x[0]) - e_y0 * math.sin(psi0)
    y0 = float(path.y[0]) + e_y0 * math.cos(psi0)
    heading0 = psi0 + e_psi0

    n_steps = int(round(cfg.t_end / cfg.sim_dt))
    times = np.arange(n_steps + 1) * cfg.sim_dt
    speeds = cfg.speed_at(times).tolist()
    kinematic = cfg.model == "kinematic"
    state = (x0, y0, heading0) if kinematic else (x0, y0, heading0, 0.0, 0.0)
    plant_step = kinematic_step if kinematic else dynamic_step
    if not kinematic:
        v_min = min(speeds)
        check_dynamic_speed(v_min, f" (speed command at t={times[speeds.index(v_min)]:g} s)")

    control_every = cfg.control_every
    sensors = default_sensors() | cfg.sensors
    proj = project(path, Pose(x0, y0, heading0))

    def channel(name, initial):
        return simkit._Channel(sensors[name], cfg.sample_period(name), initial, rng)

    heading_ch = channel("heading", proj.e_psi)
    lateral_ch = channel("lateral", proj.e_y)
    speed_ch = channel("speed", speeds[0])
    steer_ch = channel("steer", cfg.initial_steer)
    yaw_ch = channel("yaw_rate", 0.0)
    offer_every = math.gcd(*(ch.period for ch in (heading_ch, lateral_ch, speed_ch, steer_ch,
                                                  yaw_ch)))
    read_every = math.gcd(heading_ch.period, lateral_ch.period, control_every)
    memory = proj.s

    act = cfg.actuator
    cmd_buffer = deque([cfg.initial_steer] * (act.delay_steps + 1), maxlen=act.delay_steps + 1)
    lag_alpha = 1.0 - math.exp(-cfg.sim_dt / act.lag_tau) if act.lag_tau > 0 else 1.0
    max_move = None if act.rate_limit is None else act.rate_limit * cfg.sim_dt
    delta_act = delta_cmd = cfg.initial_steer
    saturated = False

    kappa_fused, kf_p, q_step = INITIAL_KAPPA, INITIAL_VARIANCE, DEFAULT_Q_PROCESS * cfg.control_dt
    kappa_ack = kappa_diff = 0.0

    rows = np.empty((n_steps + 1, len(CSV_COLUMNS)))
    odometer = 0.0
    stop_reason = "t_end"
    end_s = float(path.s[-1]) - 2.0 * float(np.max(np.diff(path.s)))

    for step, (t, v) in enumerate(zip(times.tolist(), speeds)):
        if kinematic:
            vy = 0.0
            yaw_rate = kinematic_yaw_rate(v, delta_act, p)
        else:
            vy, yaw_rate = state[3], state[4]

        if step % offer_every == 0:
            heading_ch.maybe_sample(step, proj.e_psi)
            lateral_ch.maybe_sample(step, proj.e_y)
            speed_ch.maybe_sample(step, v)
            steer_ch.maybe_sample(step, delta_act)
            yaw_ch.maybe_sample(step, yaw_rate)

        if step % control_every == 0:
            e_y_m = lateral_ch.latest()
            e_psi_m = heading_ch.latest()
            v_m = max(speed_ch.latest(), 1e-6)
            yaw_m = yaw_ch.latest()
            steer_m = steer_ch.latest()
            # the law of the row: -k @ e + atan(kappa L), clamped to max_steer
            dynamic = gains.model == "dynamic"
            if dynamic:
                check_dynamic_speed(v_m, f" (sensors.speed reading at t={t:g} s)")
            k = lookup(gains, v_m).k
            if dynamic:
                fb = -float(k @ np.array([e_y_m, vy + v_m * e_psi_m, e_psi_m,
                                          yaw_rate - v_m * proj.kappa]))
            else:
                k1, k2 = k.tolist()   # on floats: past the float range is inf, silently
                fb = -k1 * e_y_m - k2 * e_psi_m
            delta_cmd = float(min(max(fb + feedforward_steer(proj.kappa, p.wheelbase),
                                      -p.max_steer), p.max_steer))
            saturated = abs(delta_cmd) >= p.max_steer - 1e-12
            cmd_buffer.append(delta_cmd)
            try:
                kappa_ack = ackermann_curvature(steer_m, p.wheelbase)
            except ValueError as e:
                raise ValueError(f"sensors.steer reading {steer_m:g} rad at t={t:g} s: {e}") \
                    from None
            kappa_diff, diff_ok = differential_sample(e_psi_m, yaw_m, v_m, kappa_diff)
            kappa_fused, kf_p = kf_step(kappa_fused, kf_p, q_step, kappa_ack, DEFAULT_R_ACKERMANN,
                                        kappa_diff if diff_ok else None,
                                        DEFAULT_R_DIFFERENTIAL / v_m**2)

        target = cmd_buffer[0]
        if max_move is None:
            delta_act = delta_act + lag_alpha * (target - delta_act)
        else:
            delta_next = delta_act + lag_alpha * (target - delta_act)
            delta_act = delta_act + min(max(delta_next - delta_act, -max_move), max_move)

        rows[step] = (t, state[0], state[1], state[2], vy, yaw_rate, odometer,
                      v, delta_cmd, delta_act, saturated,
                      proj.s, proj.e_y, proj.e_psi, vy + v * proj.e_psi,
                      yaw_rate - v * proj.kappa, proj.kappa, kappa_ack, kappa_diff, kappa_fused)

        if proj.s >= end_s and not path.closed:
            stop_reason = "path_end"
            break
        if step == n_steps:
            break
        state = plant_step(state, v, delta_act, cfg.sim_dt, p)
        odometer += v * cfg.sim_dt
        prev_s = memory - path.length if path.closed and memory >= end_s else memory
        proj = project(path, Pose(state[0], state[1], state[2]), prev_s=prev_s)
        if (step + 1) % read_every == 0:
            memory = proj.s

    return SimLog(rows[:step + 1], stop_reason=stop_reason)


P = VehicleParams()
LIMP_SPEEDS = (2.0, 5.0, 9.0, 14.0)
GRID = np.arange(1.0, 16.0, 1.0)
SCHEDULES = {
    "kinematic": build_schedule(GRID, "kinematic", P, LqrWeights((1.0, 1.0), 1.0), dt=0.02),
    "dynamic": build_schedule(GRID, "dynamic", P, LqrWeights((1.0, 1.0, 1.0, 1.0), 1.0),
                              dt=0.02),
    # negligible feedback, run at its grid speeds only (an interpolated gain
    # fails certification): a heading offset walks the vehicle off the path
    "limp": GainSchedule(
        speeds=np.array(LIMP_SPEEDS),
        gains=[GainSet(k=np.array([1e-9, 1e-9]), v=v, dt=0.02, model="kinematic",
                       closed_loop_radius=0.999999) for v in LIMP_SPEEDS],
        dt=0.02, model="kinematic", params=P),
}

# certified at its two grid speeds, but a gain interpolated between about
# 2.52 and 11.85 m/s fails certification
BREAKING = GainSchedule(
    speeds=np.array([2.0, 14.0]),
    gains=certify("dynamic", [[5.361, 1.639, 0.392, -0.409], [2.704, 0.789, 3.078, 0.73]],
                  [2.0, 14.0], P, 0.02),
    dt=0.02, model="dynamic", params=P)


def _recorded():
    t = np.arange(0.0, 20.0, 0.05)
    x, y = 3.0 * t, 6.0 * np.sin(0.04 * t) + 0.02 * np.cos(7.0 * t)
    return load_recorded(t, x, y, np.arctan2(np.gradient(y), np.gradient(x)), spacing=0.25)


PATHS = {
    "line": gen_path("line", spacing=0.1, length=40.0, heading=0.7),
    "lane_change": gen_path("lane_change", spacing=0.1, length=45.0, offset=3.5),
    "s_curve": gen_path("s_curve", spacing=0.25, length=50.0, offset=-4.0),
    "recorded": _recorded(),
    "open_circle": gen_path("circle", spacing=0.1, radius=10.0, arc_deg=200.0,
                            direction="right"),
    "closed_circle": gen_path("circle", spacing=0.1, radius=8.0),
    "circle_720": gen_path("circle", spacing=0.1, radius=6.0, arc_deg=720.0),
}

rate = st.sampled_from([None, 200.0, 1000.0])   # read steps every 20, 5 or 1 sim steps


@st.composite
def scenarios(draw):
    """A run aimed at one ending: the end of an open path, a vehicle lost
    between read steps, or t_end, which on a closed circle passes the seam."""
    ending = draw(st.sampled_from(["path_end", "lost", "t_end"]))
    opened = sorted(k for k, v in PATHS.items() if not v.closed)
    name = draw(st.sampled_from(opened if ending == "path_end" else sorted(PATHS)))
    path = PATHS[name]
    model = "kinematic" if ending == "lost" else \
        draw(st.sampled_from(["kinematic", "dynamic"]))
    if ending == "lost":
        speed = draw(st.sampled_from(LIMP_SPEEDS[1:]))
        side = draw(st.sampled_from([-1.0, 1.0]))
        offset = (side * draw(st.floats(38.0, 49.9)), side * draw(st.floats(1.2, 1.5)))
    else:
        speed = draw(st.one_of(st.floats(6.0, 14.0),
                               st.tuples(st.floats(6.0, 14.0), st.floats(6.0, 14.0))))
        if isinstance(speed, tuple):   # a speed table
            speed = [(0.0, speed[0]), (1.5, speed[1]), (3.0, speed[0])]
        offset = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-0.4, 0.4)))
    noise = draw(st.booleans())
    sensors = {
        "heading": SensorConfig(noise_std=0.003 if noise else 0.0, rate_hz=draw(rate)),
        "lateral": SensorConfig(noise_std=0.03 if noise else 0.0, rate_hz=draw(rate)),
        # the limp gains hold only at their grid speeds: no speed noise there
        "speed": SensorConfig(noise_std=0.05 if noise and ending != "lost" else 0.0),
        "yaw_rate": SensorConfig(noise_std=0.005 if noise else 0.0, rate_hz=200.0),
    }
    v_low = speed if isinstance(speed, float) else min(v for _, v in speed)
    t_end = {"path_end": 1.3 * path.length / v_low, "lost": 4.0,
             "t_end": draw(st.floats(0.3, 1.2)) * path.length / v_low}[ending]
    cfg = ScenarioConfig(path=path, model=model, speed=speed, t_end=min(t_end, 8.0),
                         initial_offset=offset, sensors=sensors,
                         actuator=ActuatorConfig(rate_limit=draw(st.sampled_from([None, 0.5]))),
                         seed=draw(st.integers(0, 9)))
    return cfg, SCHEDULES["limp" if ending == "lost" else model]


def outcome(run, cfg, gains):
    try:
        log = run(cfg, gains, P)
    except Exception as e:  # noqa: BLE001 - the type and text are compared
        return type(e).__name__, str(e)
    return log.rows.tobytes(), log.stop_reason


class TestRunScenarioOracle:
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=scenarios(), block=st.sampled_from([simkit.BLOCK_ROWS, 64, 20, 7, 1]),
           cells=st.sampled_from([pathbatch.RUN_TABLE_CELLS, 1500]))
    def test_rows_stop_and_errors_equal_the_per_step_loop(self, scenario, block, cells):
        cfg, gains = scenario
        want = outcome(per_step_run_scenario, cfg, gains)
        with mock.patch.object(simkit, "BLOCK_ROWS", block), \
                mock.patch.object(pathbatch, "RUN_TABLE_CELLS", cells):
            got = outcome(lambda c, g, p: run_scenario(c, g, params=p), cfg, gains)
        assert got == want

    @pytest.mark.parametrize("name, speed, offset, gains, end", [
        ("closed_circle", 9.0, (0.0, 0.0), "kinematic", "t_end"),   # across the seam
        ("line", 9.0, (0.3, 0.0), "kinematic", "path_end"),
        ("line", 9.0, (45.0, 1.4), "limp", "SimulationError"),      # lost between read steps
        # the path end falls on row 4423, between read steps; the speed then
        # leaves the limp grid, so the next read step's lookup raises
        ("line", [(0.0, 9.0), (4.424, 9.0), (6.0, 14.0)], (0.0, 0.0), "limp", "path_end"),
    ])
    def test_named_runs(self, name, speed, offset, gains, end):
        path = PATHS[name]
        cfg = ScenarioConfig(path=path, speed=speed, t_end=min(2.2 * path.length / 9.0, 6.0),
                             initial_offset=offset)
        want = outcome(per_step_run_scenario, cfg, SCHEDULES[gains])
        assert end in want
        assert outcome(lambda c, g, p: run_scenario(c, g, params=p), cfg,
                       SCHEDULES[gains]) == want


    @pytest.mark.parametrize("model, gains", [("kinematic", "dynamic"), ("dynamic", "kinematic")])
    def test_either_row_on_either_plant(self, model, gains):
        # the law comes from the gain row, whatever the plant
        cfg = ScenarioConfig(path=PATHS["lane_change"], model=model, speed=9.0, t_end=6.0,
                             initial_offset=(0.3, 0.05))
        want = outcome(per_step_run_scenario, cfg, SCHEDULES[gains])
        assert "path_end" in want
        assert outcome(lambda c, g, p: run_scenario(c, g, params=p), cfg,
                       SCHEDULES[gains]) == want


def _limp_run(speed, offset):
    return ScenarioConfig(path=PATHS["line"], speed=speed, t_end=6.0, initial_offset=offset)


def _breaking_run(speed):
    # a speed channel quantized to 2 m/s reads 0 below 1 m/s, at the dynamic
    # guard, and 4 m/s from 3 m/s up, where the interpolated gain fails
    return ScenarioConfig(path=PATHS["line"], model="dynamic", speed=speed, t_end=2.0,
                          sensors={"speed": SensorConfig(quantization_step=2.0)})


def _dynamic_run(table, t_end, **sensors):
    return ScenarioConfig(path=PATHS["line"], model="dynamic", speed=table, t_end=t_end,
                          sensors=sensors)


class TestCertificationOrder:
    """run_scenario certifies the interpolated gains in bulk; the first that
    fails raises as the per-tick certificate did, unless a stop or an error
    of an earlier step came first.  The events fall between two bulk
    certifications, so the order is the queue's to keep."""

    @pytest.mark.parametrize("block", [simkit.BLOCK_ROWS, 64, 20, 7, 1])
    @pytest.mark.parametrize("cfg, gains, first", [
        # off the limp grid on row 560, lost between read steps on row 564,
        # before the next read step (580) and, with blocks of 7 or 64 rows,
        # after a bulk certification (567 or 576) that finds the failing gain
        (_limp_run([(0.0, 9.0), (0.559, 9.0), (0.56, 9.5)], (45.0, 1.4)), "limp",
         "fails certification"),
        (_limp_run([(0.0, 9.0), (0.61, 9.0), (0.62, 9.5)], (45.0, 1.4)), "limp",
         "vehicle lost"),
        # off the limp grid at 4.4 s, at the path end on row 4423
        (_limp_run([(0.0, 9.0), (4.39, 9.0), (4.4, 9.5)], (0.0, 0.0)), "limp",
         "fails certification"),
        (_limp_run([(0.0, 9.0), (4.43, 9.0), (4.44, 9.5)], (0.0, 0.0)), "limp", "path_end"),
        # a failing gain at 1.0 s, the speed reading at the guard at 1.26 s
        (_breaking_run([(0.0, 2.0), (0.98, 2.0), (1.0, 3.5), (1.2, 3.5), (1.25, 0.9)]),
         "breaking", "fails certification"),
        (_breaking_run([(0.0, 2.0), (0.98, 2.0), (1.0, 0.9), (1.2, 0.9), (1.25, 3.5)]),
         "breaking", "sensors.speed reading at t=1 s"),
        # at the path end on row 4423, between read steps, before the speed
        # reading of the next one (4440) is at the guard
        (_dynamic_run([(0.0, 9.0), (4.424, 9.0), (4.43, 0.9)], 6.0,
                      speed=SensorConfig(quantization_step=2.0)), "dynamic", "path_end"),
        # a gain off the grid on the tick at 0.24 s fails before that tick's
        # steer reading, past the tangent singularity, raises; the gain of
        # the tick at 0 s passes
        (_dynamic_run([(0.0, 2.3), (0.23, 2.3), (0.24, 3.5)], 2.0,
                      steer=SensorConfig(noise_std=0.8)), "breaking", "fails certification"),
        # that steer reading at 0.24 s raises before the gain of the next
        # tick, at 0.26 s, fails
        (_dynamic_run([(0.0, 2.3), (0.25, 2.3), (0.26, 3.5)], 2.0,
                      steer=SensorConfig(noise_std=0.8)), "breaking",
         "sensors.steer reading -1.86002 rad at t=0.24 s"),
    ])
    def test_the_first_event_in_step_order(self, block, cfg, gains, first):
        gains = BREAKING if gains == "breaking" else SCHEDULES[gains]
        want = outcome(per_step_run_scenario, cfg, gains)
        assert first in want[1]
        with mock.patch.object(simkit, "BLOCK_ROWS", block):
            assert outcome(lambda c, g, p: run_scenario(c, g, params=p), cfg, gains) == want

    def test_a_constant_off_grid_speed_certifies_once(self):
        cfg = ScenarioConfig(path=PATHS["lane_change"], speed=7.5, t_end=3.0)
        calls = []
        real = simkit.certify

        def counted(model, k, v, p, dt):
            calls.append(np.ravel(v).tolist())
            return real(model, k, v, p, dt)

        with mock.patch.object(simkit, "certify", counted):
            run_scenario(cfg, SCHEDULES["kinematic"], params=P)
        assert calls == [[7.5]]
