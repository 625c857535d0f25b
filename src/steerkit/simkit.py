"""Closed-loop simulation: RK4 plant integration, controllers, sensors, actuator.

One scenario is one single-threaded deterministic loop: given the same
config and seed, the produced log is bit-identical (noise comes from
numpy's seeded PCG64 generator, drawn in a fixed channel order).
Separate scenarios share no state and may run concurrently.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import SimulationError
from .curvkit import KfState, ackermann_curvature, differential_sample, feedforward_steer, \
    kf_step
from .lqr import GainSchedule
from .models import MIN_DYNAMIC_SPEED, ControlInput, ErrorState, Pose, VehicleParams
from .pathkit import PathProjection, RefPath, project

SETTLE_BAND = 0.05  # m, |e_y| band used for settle metrics

CSV_COLUMNS = (
    "t", "x", "y", "psi", "vy", "yaw_rate", "odometer",
    "v_cmd", "delta_cmd", "delta_act", "saturated",
    "s", "e_y", "e_psi", "e_y_dot", "e_psi_dot",
    "kappa_path", "kappa_ack", "kappa_diff", "kappa_fused",
)


@dataclass(frozen=True)
class SensorConfig:
    """One measured channel: additive Gaussian noise, quantization, rate, delay.

    rate_hz None means the channel is sampled every control period.
    delay_steps counts this channel's own sample periods.
    """

    noise_std: float = 0.0
    quantization_step: float = 0.0
    rate_hz: float | None = None
    delay_steps: int = 0

    def __post_init__(self):
        if self.noise_std < 0 or self.quantization_step < 0 or self.delay_steps < 0:
            raise ValueError("sensor parameters must be nonnegative")
        if self.rate_hz is not None and self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")


@dataclass(frozen=True)
class ActuatorConfig:
    """Steering actuator: pure delay (control periods), first-order lag, rate limit."""

    lag_tau: float = 0.1
    delay_steps: int = 2
    rate_limit: float | None = None

    def __post_init__(self):
        if self.lag_tau < 0 or self.delay_steps < 0:
            raise ValueError("actuator parameters must be nonnegative")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")


def default_sensors() -> dict[str, SensorConfig]:
    # steering is read from a coarse CAN channel: 0.1 deg at the wheel,
    # ratio 16 to the road wheel; yaw rate is the 200 Hz gyro channel
    return {
        "lateral": SensorConfig(),
        "heading": SensorConfig(),
        "yaw_rate": SensorConfig(rate_hz=200.0),
        "steer": SensorConfig(quantization_step=math.radians(0.1) / 16.0),
        "speed": SensorConfig(),
    }


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one closed-loop run needs besides the gain schedule."""

    path: RefPath
    model: str = "kinematic"                 # kinematic | dynamic
    controller: str = "kinematic_ff_fb"      # kinematic_ff_fb | dynamic_lqr
    speed: float | Sequence[tuple[float, float]] = 10.0
    t_end: float = 60.0
    sim_dt: float = 0.001
    control_dt: float = 0.02
    initial_offset: tuple[float, float] = (0.0, 0.0)
    initial_steer: float = 0.0
    sensors: dict[str, SensorConfig] = field(default_factory=default_sensors)
    actuator: ActuatorConfig = field(default_factory=ActuatorConfig)
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("kinematic", "dynamic"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.controller not in ("kinematic_ff_fb", "dynamic_lqr"):
            raise ValueError(f"unknown controller {self.controller!r}")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.sim_dt <= 0 or self.sim_dt > self.control_dt:
            raise ValueError("need 0 < sim_dt <= control_dt")
        ratio = self.control_dt / self.sim_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("control_dt must be an integer multiple of sim_dt")
        for name in self.sensors:
            if name not in default_sensors():
                raise ValueError(f"unknown sensor channel {name!r}")
        constant = isinstance(self.speed, (int, float))
        knots = [(0.0, self.speed)] if constant else list(self.speed)
        if not knots:
            raise ValueError("speed table needs at least one [t, v] knot")
        for i, (t, v) in enumerate(knots):
            if not (0.0 < v < math.inf and -math.inf < t < math.inf
                    and (i == 0 or knots[i - 1][0] < t)):
                where = f"speed {v}" if constant else f"speed table knot {i} [{t}, {v}]"
                raise ValueError(f"{where}: speeds must be positive and finite, times finite "
                                 "and strictly ascending")

    def speed_at(self, t: float) -> float:
        if isinstance(self.speed, (int, float)):
            return float(self.speed)
        ts, vs = zip(*self.speed)
        return float(np.interp(t, ts, vs))


@dataclass
class SimLog:
    """Uniformly sampled run record; one row per sim_dt.  Columns in CSV_COLUMNS."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    vy: np.ndarray
    yaw_rate: np.ndarray
    odometer: np.ndarray
    v_cmd: np.ndarray
    delta_cmd: np.ndarray
    delta_act: np.ndarray
    saturated: np.ndarray
    s: np.ndarray
    e_y: np.ndarray
    e_psi: np.ndarray
    e_y_dot: np.ndarray
    e_psi_dot: np.ndarray
    kappa_path: np.ndarray
    kappa_ack: np.ndarray
    kappa_diff: np.ndarray
    kappa_fused: np.ndarray
    stop_reason: str = "t_end"
    seed: int = 0

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def to_csv(self, fobj) -> None:
        fobj.write("# steerkit simulation log; SI units, radians; saturated is 0/1\n")
        fobj.write(",".join(CSV_COLUMNS) + "\n")
        cols = [self.column(c) for c in CSV_COLUMNS]
        for row in zip(*cols):
            fobj.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass(frozen=True)
class Metrics:
    """Tracking quality of one run, over the whole log and post path contact."""

    max_abs_e_y: float
    rms_e_y: float
    max_abs_e_psi: float
    settle_distance: float | None
    settled: bool
    post_max_abs_e_y: float | None
    post_rms_e_y: float | None
    post_max_abs_e_psi: float | None

    def to_dict(self) -> dict:
        return {
            "max_abs_e_y": self.max_abs_e_y,
            "rms_e_y": self.rms_e_y,
            "max_abs_e_psi": self.max_abs_e_psi,
            "settle_distance": self.settle_distance,
            "settled": self.settled,
            "post_transient": {
                "max_abs_e_y": self.post_max_abs_e_y,
                "rms_e_y": self.post_rms_e_y,
                "max_abs_e_psi": self.post_max_abs_e_psi,
            },
        }


def rk4_step(deriv: Callable[[np.ndarray, object], np.ndarray],
             state: np.ndarray, u, dt: float) -> np.ndarray:
    """Classical 4th-order Runge-Kutta step with the input held constant."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = deriv(state, u)
    k2 = deriv(state + 0.5 * dt * k1, u)
    k3 = deriv(state + 0.5 * dt * k2, u)
    k4 = deriv(state + dt * k3, u)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise SimulationError("non-finite state after integration step")
    return out


def kinematic_deriv(p: VehicleParams) -> Callable[[np.ndarray, ControlInput], np.ndarray]:
    """Derivative of (x, y, psi) for the rear-axle kinematic bicycle."""
    wheelbase = p.wheelbase

    def f(state: np.ndarray, u: ControlInput) -> np.ndarray:
        _, _, psi = state
        return np.array([
            u.v * math.cos(psi),
            u.v * math.sin(psi),
            u.v / wheelbase * math.tan(u.delta),
        ])

    return f


def dynamic_deriv(p: VehicleParams) -> Callable[[np.ndarray, ControlInput], np.ndarray]:
    """Derivative of (x, y, psi, vy, r) for the linear-tire single track model."""

    def f(state: np.ndarray, u: ControlInput) -> np.ndarray:
        _, _, psi, vy, r = state
        vx = u.v
        fyf = 2.0 * p.caf * (u.delta - (vy + p.lf * r) / vx)
        fyr = -2.0 * p.car * (vy - p.lr * r) / vx
        return np.array([
            vx * math.cos(psi) - vy * math.sin(psi),
            vx * math.sin(psi) + vy * math.cos(psi),
            r,
            (fyf + fyr) / p.m - vx * r,
            (p.lf * fyf - p.lr * fyr) / p.iz,
        ])

    return f


def kinematic_controller(proj: PathProjection, v: float, schedule: GainSchedule,
                         p: VehicleParams) -> ControlInput:
    """Feedback on (e_y, e_psi) plus Ackermann feedforward from path curvature.

    delta = clamp(-k1 e_y - k2 e_psi + atan(kappa L), +-max_steer)
    """
    gains = schedule.lookup(v)
    delta_fb = -gains.k[0] * proj.e_y - gains.k[1] * proj.e_psi
    delta = delta_fb + feedforward_steer(proj.kappa, p.wheelbase)
    return ControlInput(v=v, delta=float(np.clip(delta, -p.max_steer, p.max_steer)))


def dynamic_controller(err: ErrorState, vx: float, schedule: GainSchedule,
                       kappa: float, p: VehicleParams) -> ControlInput:
    """Full error-state feedback plus Ackermann feedforward."""
    if vx <= MIN_DYNAMIC_SPEED:
        raise ValueError(f"vx={vx} below the dynamic-model speed guard")
    gains = schedule.lookup(vx)
    delta_fb = -float(gains.k @ err.as_array())
    delta = delta_fb + feedforward_steer(kappa, p.wheelbase)
    return ControlInput(v=vx, delta=float(np.clip(delta, -p.max_steer, p.max_steer)))


class _Channel:
    """Sampled sensor channel with noise, quantization, and a delay buffer."""

    def __init__(self, cfg: SensorConfig, period_steps: int, initial: float, rng):
        self.cfg = cfg
        self.period = max(1, period_steps)
        self.buffer = deque([initial] * (cfg.delay_steps + 1), maxlen=cfg.delay_steps + 1)
        self.rng = rng

    def maybe_sample(self, step: int, true_value: float) -> None:
        if step % self.period:
            return
        v = true_value
        if self.cfg.noise_std > 0:
            v += self.cfg.noise_std * self.rng.standard_normal()
        q = self.cfg.quantization_step
        if q > 0:
            v = round(v / q) * q
        self.buffer.append(v)

    def latest(self) -> float:
        return self.buffer[0]


def run_scenario(cfg: ScenarioConfig, gains: GainSchedule,
                 params: VehicleParams | None = None) -> SimLog:
    """Run one closed-loop scenario and return its log.

    Per sim step the plant integrates by RK4; per control period the
    sensors' latest values feed the selected controller and the curvature
    estimators; the commanded steer passes through the actuator's pure
    delay, first-order lag, and rate limit.  Raises SimulationError when
    the vehicle leaves the projection horizon or the state goes
    non-finite.
    """
    p = params if params is not None else VehicleParams()
    path = cfg.path
    rng = np.random.default_rng(cfg.seed)

    if cfg.controller == "dynamic_lqr" and len(gains.gains[0].k) != 4:
        raise ValueError("dynamic_lqr controller needs a 4-state gain schedule")
    if cfg.controller == "kinematic_ff_fb" and len(gains.gains[0].k) != 2:
        raise ValueError("kinematic_ff_fb controller needs a 2-state gain schedule")

    # start pose: path start displaced by the configured lateral/heading offset
    e_y0, e_psi0 = cfg.initial_offset
    psi0 = float(path.psi[0])
    x0 = float(path.x[0]) - e_y0 * math.sin(psi0)
    y0 = float(path.y[0]) + e_y0 * math.cos(psi0)
    heading0 = psi0 + e_psi0

    if cfg.model == "kinematic":
        state = np.array([x0, y0, heading0])
        deriv = kinematic_deriv(p)
    else:
        state = np.array([x0, y0, heading0, 0.0, 0.0])
        deriv = dynamic_deriv(p)
        if cfg.speed_at(0.0) <= MIN_DYNAMIC_SPEED:
            raise ValueError(f"dynamic model requires speed above {MIN_DYNAMIC_SPEED} m/s")

    control_every = int(round(cfg.control_dt / cfg.sim_dt))
    n_steps = int(round(cfg.t_end / cfg.sim_dt))

    channels: dict[str, _Channel] = {}
    sensor_cfgs = dict(default_sensors())
    sensor_cfgs.update(cfg.sensors)
    first_proj = project(path, Pose(x0, y0, heading0))
    initial_truth = {
        "lateral": first_proj.e_y,
        "heading": first_proj.e_psi,
        "yaw_rate": 0.0,
        "steer": cfg.initial_steer,
        "speed": cfg.speed_at(0.0),
    }
    for name in sorted(sensor_cfgs):
        scfg = sensor_cfgs[name]
        period = control_every if scfg.rate_hz is None else max(
            1, int(round(1.0 / (scfg.rate_hz * cfg.sim_dt))))
        channels[name] = _Channel(scfg, period, initial_truth[name], rng)

    act = cfg.actuator
    cmd_buffer = deque([cfg.initial_steer] * (act.delay_steps + 1), maxlen=act.delay_steps + 1)
    lag_alpha = 1.0 - math.exp(-cfg.sim_dt / act.lag_tau) if act.lag_tau > 0 else 1.0
    delta_act = cfg.initial_steer
    delta_cmd = cfg.initial_steer
    saturated = False

    kf = KfState()
    kappa_fused, kf_p, q_step = kf.kappa_hat, kf.p, kf.q_process * cfg.control_dt
    kappa_ack = kappa_diff = 0.0

    cols: dict[str, list] = {name: [] for name in CSV_COLUMNS}
    prev_s = None
    odometer = 0.0
    stop_reason = "t_end"
    end_s = float(path.s[-1]) - 2.0 * float(np.max(np.diff(path.s)))

    for step in range(n_steps + 1):
        t = step * cfg.sim_dt
        v = cfg.speed_at(t)
        pose = Pose(float(state[0]), float(state[1]), float(state[2]))
        proj = project(path, pose, prev_s=prev_s)
        prev_s = proj.s
        if path.closed and prev_s >= end_s:
            # start and end coincide on a closed path; wrap the search memory
            prev_s -= path.length

        if cfg.model == "kinematic":
            vy = 0.0
            yaw_rate = v / p.wheelbase * math.tan(delta_act)
        else:
            vy = float(state[3])
            yaw_rate = float(state[4])

        # sensors sample on their own cadence, in fixed name order
        truth = {
            "lateral": proj.e_y,
            "heading": proj.e_psi,
            "yaw_rate": yaw_rate,
            "steer": delta_act,
            "speed": v,
        }
        for name in sorted(channels):
            channels[name].maybe_sample(step, truth[name])

        if step % control_every == 0:
            e_y_m = channels["lateral"].latest()
            e_psi_m = channels["heading"].latest()
            v_m = max(channels["speed"].latest(), 1e-6)
            yaw_m = channels["yaw_rate"].latest()
            steer_m = channels["steer"].latest()

            if cfg.controller == "kinematic_ff_fb":
                meas_proj = PathProjection(s=proj.s, e_y=e_y_m, e_psi=e_psi_m, kappa=proj.kappa)
                u = kinematic_controller(meas_proj, v_m, gains, p)
            else:
                err = ErrorState(e_y=e_y_m, e_y_dot=vy + v_m * e_psi_m,
                                 e_psi=e_psi_m, e_psi_dot=yaw_rate - v_m * proj.kappa)
                u = dynamic_controller(err, v_m, gains, proj.kappa, p)
            delta_cmd = u.delta
            saturated = abs(delta_cmd) >= p.max_steer - 1e-12
            cmd_buffer.append(delta_cmd)

            # curvature estimators run alongside the controller
            kappa_ack = ackermann_curvature(steer_m, p.wheelbase)
            kappa_diff, diff_ok = differential_sample(e_psi_m, yaw_m, v_m, kappa_diff)
            kappa_fused, kf_p = kf_step(kappa_fused, kf_p, q_step, kappa_ack, kf.r_ack,
                                        kappa_diff if diff_ok else None, kf.r_diff / v_m**2)

        target = cmd_buffer[0]
        if act.rate_limit is not None:
            max_move = act.rate_limit * cfg.sim_dt
            delta_next = delta_act + lag_alpha * (target - delta_act)
            delta_act = delta_act + float(np.clip(delta_next - delta_act, -max_move, max_move))
        else:
            delta_act = delta_act + lag_alpha * (target - delta_act)

        row = {
            "t": t, "x": state[0], "y": state[1], "psi": state[2],
            "vy": vy, "yaw_rate": yaw_rate, "odometer": odometer,
            "v_cmd": v, "delta_cmd": delta_cmd, "delta_act": delta_act,
            "saturated": float(saturated),
            "s": proj.s, "e_y": proj.e_y, "e_psi": proj.e_psi,
            "e_y_dot": vy + v * proj.e_psi,
            "e_psi_dot": yaw_rate - v * proj.kappa,
            "kappa_path": proj.kappa, "kappa_ack": kappa_ack,
            "kappa_diff": kappa_diff, "kappa_fused": kappa_fused,
        }
        for name, val in row.items():
            cols[name].append(float(val))

        if proj.s >= end_s and not path.closed:
            stop_reason = "path_end"
            break
        if step == n_steps:
            break
        state = rk4_step(deriv, state, ControlInput(v=v, delta=delta_act), cfg.sim_dt)
        odometer += v * cfg.sim_dt

    return SimLog(**{name: np.array(vals) for name, vals in cols.items()},
                  stop_reason=stop_reason, seed=cfg.seed)


def compute_metrics(log: SimLog, band: float = SETTLE_BAND) -> Metrics:
    """Tracking metrics over the whole run and after first path contact.

    Settle distance is the odometer reading at the first entry into the
    |e_y| < band window that holds to the end of the log.
    """
    if len(log) == 0:
        raise ValueError("empty log")
    abs_ey = np.abs(log.e_y)
    inside = abs_ey < band
    settled = bool(inside[-1])
    settle_distance = None
    if settled:
        last_bad = np.nonzero(~inside)[0]
        settle_idx = int(last_bad[-1]) + 1 if len(last_bad) else 0
        settle_distance = float(log.odometer[settle_idx] - log.odometer[0])

    contact = np.nonzero(abs_ey <= band)[0]
    c = int(contact[0]) if len(contact) else None
    return Metrics(
        max_abs_e_y=float(np.max(abs_ey)),
        rms_e_y=float(np.sqrt(np.mean(log.e_y**2))),
        max_abs_e_psi=float(np.max(np.abs(log.e_psi))),
        settle_distance=settle_distance,
        settled=settled,
        post_max_abs_e_y=None if c is None else float(np.max(abs_ey[c:])),
        post_rms_e_y=None if c is None else float(np.sqrt(np.mean(log.e_y[c:] ** 2))),
        post_max_abs_e_psi=None if c is None else float(np.max(np.abs(log.e_psi[c:]))),
    )
