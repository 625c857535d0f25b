"""Closed-loop simulation: RK4 plant integration, controllers, sensors, actuator.

One scenario is one single-threaded deterministic loop: given the same
config and seed, the produced log is bit-identical (noise comes from
numpy's seeded PCG64 generator, drawn in a fixed channel order).
Separate scenarios share no state and may run concurrently.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import SimulationError
from .curvkit import KfState, ackermann_curvature, differential_sample, feedforward_steer, \
    kf_step
from .lqr import GainSchedule
from .models import MIN_DYNAMIC_SPEED, ControlInput, ErrorState, Pose, VehicleParams, \
    dynamic_derivative, kinematic_derivative
from .numkit import write_float_csv
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
        _validate(self, ("noise_std", "quantization_step"), "rate_hz")


@dataclass(frozen=True)
class ActuatorConfig:
    """Steering actuator: pure delay (control periods), first-order lag, rate limit."""

    lag_tau: float = 0.1
    delay_steps: int = 2
    rate_limit: float | None = None

    def __post_init__(self):
        _validate(self, ("lag_tau",), "rate_limit")


def _validate(cfg, nonnegative: tuple[str, ...], optional_positive: str) -> None:
    """Finite nonnegative fields, a positive-or-None one, an integer delay_steps;
    the comparisons are written so that NaN fails them."""
    for name in nonnegative:
        if not 0.0 <= getattr(cfg, name) < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {getattr(cfg, name)}")
    value = getattr(cfg, optional_positive)
    if value is not None and not value > 0:
        raise ValueError(f"{optional_positive} must be positive, got {value}")
    d = cfg.delay_steps
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 0:
        raise ValueError(f"delay_steps must be a nonnegative integer, got {d!r}")


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
        knots = self.speed_table
        if not knots:
            raise ValueError("speed table needs at least one [t, v] knot")
        for i, (t, v) in enumerate(knots):
            if not (0.0 < v < math.inf and -math.inf < t < math.inf
                    and (i == 0 or knots[i - 1][0] < t)):
                where = f"speed {v}" if constant else f"speed table knot {i} [{t}, {v}]"
                raise ValueError(f"{where}: speeds must be positive and finite, times finite "
                                 "and strictly ascending")

    @property
    def speed_table(self) -> list[tuple[float, float]]:
        """[(t, v), ...] knots; a constant speed is one knot."""
        return [(0.0, self.speed)] if isinstance(self.speed, (int, float)) else list(self.speed)

    def speed_at(self, t):
        """Speed command at time t, a float or an array of times: linear
        between knots, held beyond the first and last."""
        ts, vs = zip(*self.speed_table)
        v = np.interp(t, ts, vs)
        return float(v) if np.ndim(v) == 0 else v


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

    def to_csv(self, fobj) -> None:
        fobj.write("# steerkit simulation log; SI units, radians; saturated is 0/1\n")
        write_float_csv(fobj, CSV_COLUMNS, [getattr(self, c) for c in CSV_COLUMNS])


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


def rk4_step(deriv: Callable[[Sequence[float], object], Sequence[float]],
             state: Sequence[float], u, dt: float) -> list[float]:
    """Classical 4th-order Runge-Kutta step with the input held constant."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = 0.5 * dt
    k1 = deriv(state, u)
    k2 = deriv([x + h * k for x, k in zip(state, k1)], u)
    k3 = deriv([x + h * k for x, k in zip(state, k2)], u)
    k4 = deriv([x + dt * k for x, k in zip(state, k3)], u)
    c = dt / 6.0
    out = [x + c * (a + 2.0 * b + 2.0 * g + d) for x, a, b, g, d in zip(state, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise SimulationError("non-finite state after integration step")
    return out


def kinematic_controller(proj: PathProjection, v: float, schedule: GainSchedule,
                         p: VehicleParams) -> ControlInput:
    """Feedback on (e_y, e_psi) plus Ackermann feedforward from path curvature.

    delta = clamp(-k1 e_y - k2 e_psi + atan(kappa L), +-max_steer)
    """
    gains = schedule.lookup(v)
    delta_fb = -gains.k[0] * proj.e_y - gains.k[1] * proj.e_psi
    delta = delta_fb + feedforward_steer(proj.kappa, p.wheelbase)
    return ControlInput(v=v, delta=float(min(max(delta, -p.max_steer), p.max_steer)))


def dynamic_controller(err: ErrorState, vx: float, schedule: GainSchedule,
                       kappa: float, p: VehicleParams) -> ControlInput:
    """Full error-state feedback plus Ackermann feedforward."""
    if vx <= MIN_DYNAMIC_SPEED:
        raise ValueError(f"vx={vx} below the dynamic-model speed guard")
    gains = schedule.lookup(vx)
    delta_fb = -float(gains.k @ err.as_array())
    delta = delta_fb + feedforward_steer(kappa, p.wheelbase)
    return ControlInput(v=vx, delta=float(min(max(delta, -p.max_steer), p.max_steer)))


class _Channel:
    """Sampled sensor channel with noise, quantization, and a delay buffer."""

    def __init__(self, cfg: SensorConfig, period: int, initial: float, rng):
        self.period = period
        self.noise_std, self.q = cfg.noise_std, cfg.quantization_step
        self.buffer = deque([initial] * (cfg.delay_steps + 1), maxlen=cfg.delay_steps + 1)
        self.rng = rng

    def maybe_sample(self, step: int, v: float) -> None:
        if step % self.period:
            return
        if self.noise_std > 0:
            v += self.noise_std * self.rng.standard_normal()
        if self.q > 0:
            v = round(v / self.q) * self.q
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

    n_steps = int(round(cfg.t_end / cfg.sim_dt))
    times = np.arange(n_steps + 1) * cfg.sim_dt
    speeds = cfg.speed_at(times).tolist()
    # the solver's psi stays unwrapped; only the Pose handed to project wraps it
    kinematic = cfg.model == "kinematic"
    if kinematic:
        state = [x0, y0, heading0]
        deriv = partial(kinematic_derivative, p=p)
    else:
        state = [x0, y0, heading0, 0.0, 0.0]
        deriv = partial(dynamic_derivative, p=p)
        if speeds[0] <= MIN_DYNAMIC_SPEED:
            raise ValueError(f"dynamic model requires speed above {MIN_DYNAMIC_SPEED} m/s")

    control_every = int(round(cfg.control_dt / cfg.sim_dt))
    sensors = default_sensors() | cfg.sensors
    proj = project(path, Pose(x0, y0, heading0))

    def channel(name: str, initial: float) -> _Channel:
        scfg = sensors[name]
        period = control_every if scfg.rate_hz is None else max(
            1, int(round(1.0 / (scfg.rate_hz * cfg.sim_dt))))
        return _Channel(scfg, period, initial, rng)

    # offered a sample every step in this fixed (name) order, which fixes the noise draws
    heading_ch = channel("heading", proj.e_psi)
    lateral_ch = channel("lateral", proj.e_y)
    speed_ch = channel("speed", speeds[0])
    steer_ch = channel("steer", cfg.initial_steer)
    yaw_ch = channel("yaw_rate", 0.0)

    act = cfg.actuator
    cmd_buffer = deque([cfg.initial_steer] * (act.delay_steps + 1), maxlen=act.delay_steps + 1)
    lag_alpha = 1.0 - math.exp(-cfg.sim_dt / act.lag_tau) if act.lag_tau > 0 else 1.0
    max_move = None if act.rate_limit is None else act.rate_limit * cfg.sim_dt
    delta_act = delta_cmd = cfg.initial_steer
    saturated = False
    wheelbase = p.wheelbase

    kf = KfState()
    kappa_fused, kf_p, q_step = kf.kappa_hat, kf.p, kf.q_process * cfg.control_dt
    kappa_ack = kappa_diff = 0.0

    rows = np.empty((n_steps + 1, len(CSV_COLUMNS)))
    odometer = 0.0
    stop_reason = "t_end"
    end_s = float(path.s[-1]) - 2.0 * float(np.max(np.diff(path.s)))

    for step, (t, v) in enumerate(zip(times.tolist(), speeds)):
        if kinematic:
            vy = 0.0
            yaw_rate = v / wheelbase * math.tan(delta_act)
        else:
            vy, yaw_rate = state[3], state[4]

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
            kappa_ack = ackermann_curvature(steer_m, wheelbase)
            kappa_diff, diff_ok = differential_sample(e_psi_m, yaw_m, v_m, kappa_diff)
            kappa_fused, kf_p = kf_step(kappa_fused, kf_p, q_step, kappa_ack, kf.r_ack,
                                        kappa_diff if diff_ok else None, kf.r_diff / v_m**2)

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
        state = rk4_step(deriv, state, ControlInput(v=v, delta=delta_act), cfg.sim_dt)
        odometer += v * cfg.sim_dt
        prev_s = proj.s
        if path.closed and prev_s >= end_s:
            # start and end coincide on a closed path; wrap the search memory
            prev_s -= path.length
        proj = project(path, Pose(state[0], state[1], state[2]), prev_s=prev_s)

    return SimLog(**dict(zip(CSV_COLUMNS, rows[:step + 1].T)),
                  stop_reason=stop_reason, seed=cfg.seed)


def compute_metrics(log: SimLog) -> Metrics:
    """Tracking metrics over the whole run and after first path contact.

    Settle distance is the odometer reading at the first entry into the
    |e_y| < SETTLE_BAND window that holds to the end of the log.
    """
    if len(log) == 0:
        raise ValueError("empty log")
    abs_ey = np.abs(log.e_y)
    inside = abs_ey < SETTLE_BAND
    settled = bool(inside[-1])
    settle_distance = None
    if settled:
        last_bad = np.nonzero(~inside)[0]
        settle_idx = int(last_bad[-1]) + 1 if len(last_bad) else 0
        settle_distance = float(log.odometer[settle_idx] - log.odometer[0])

    contact = np.nonzero(abs_ey <= SETTLE_BAND)[0]
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
