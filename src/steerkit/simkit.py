"""Closed-loop simulation: RK4 plant steps, controllers, sensors, actuator.

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
from typing import Sequence

import numpy as np

from . import NumericalError, SimulationError
from .curvkit import DEFAULT_Q_PROCESS, DEFAULT_R_ACKERMANN, DEFAULT_R_DIFFERENTIAL, \
    INITIAL_KAPPA, INITIAL_VARIANCE, ackermann_curvature, differential_sample, \
    feedforward_steer, kf_step
from .lqr import GainSchedule, GainSet, certify
from .models import ControlInput, ErrorState, Pose, VehicleParams, check_dynamic_speed, \
    dynamic_step, kinematic_step, kinematic_yaw_rate
from .numkit import CSV_BLOCK_ROWS, write_csv_rows
from .pathbatch import project_run
from .pathkit import PathProjection, RefPath, project

SETTLE_BAND = 0.05  # m, |e_y| band used for settle metrics
BLOCK_ROWS = 480    # rows whose logged-only projections are settled in one batch, at most

CSV_COLUMNS = (
    "t", "x", "y", "psi", "vy", "yaw_rate", "odometer",
    "v_cmd", "delta_cmd", "delta_act", "saturated",
    "s", "e_y", "e_psi", "e_y_dot", "e_psi_dot",
    "kappa_path", "kappa_ack", "kappa_diff", "kappa_fused",
)
LOG_HEAD = ("# steerkit simulation log; SI units, radians; saturated is 0/1\n"
            + ",".join(CSV_COLUMNS) + "\n")
ROW_BYTES = 8 * len(CSV_COLUMNS)   # one float64 per column
MAX_LOG_ROWS = 5_000_000           # rows of one run's log: 800 MB of row table
_S, _VY, _YAW_RATE, _V, _E_Y_DOT, _E_PSI_DOT = (CSV_COLUMNS.index(c) for c in (
    "s", "vy", "yaw_rate", "v_cmd", "e_y_dot", "e_psi_dot"))
_PROJ = [CSV_COLUMNS.index(c) for c in ("s", "e_y", "e_psi", "kappa_path")]
# the projection a deferred row carries until its block settles
_UNSETTLED = PathProjection(math.nan, math.nan, math.nan, math.nan)


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


def _whole_steps(ratio: float) -> int | None:
    """round(ratio) when ratio is a whole number (to 1e-9) of at least one
    sim step, else None (inf too, which round() cannot take)."""
    if not ratio < math.inf:
        return None
    steps = round(ratio)
    return steps if steps >= 1 and abs(ratio - steps) <= 1e-9 else None


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
        if not all(map(math.isfinite, self.initial_offset)):
            raise ValueError(f"initial_offset must be finite, got {list(self.initial_offset)}")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.sim_dt <= 0 or self.sim_dt > self.control_dt:
            raise ValueError("need 0 < sim_dt <= control_dt")
        if _whole_steps(self.control_dt / self.sim_dt) is None:
            raise ValueError(f"control_dt {self.control_dt:g} s must be an integer multiple of "
                             f"sim_dt {self.sim_dt:g} s")
        rows = self.log_rows
        if rows > MAX_LOG_ROWS:
            raise ValueError(f"t_end {self.t_end:g} s at sim_dt {self.sim_dt:g} s logs {rows:,} "
                             f"rows, above the budget of {MAX_LOG_ROWS:,} rows "
                             f"({ROW_BYTES} B each)")
        for name in self.sensors:
            if name not in default_sensors():
                raise ValueError(f"unknown sensor channel {name!r}")
        for name in default_sensors():
            self.sample_period(name)
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
    def log_rows(self) -> int | float:
        """Rows of a log that runs to t_end, one per sim step and the start;
        inf where t_end / sim_dt overflows, which round() cannot take."""
        ratio = self.t_end / self.sim_dt
        return round(ratio) + 1 if ratio < math.inf else math.inf

    @property
    def control_every(self) -> int:
        """Sim steps per control period."""
        return round(self.control_dt / self.sim_dt)

    def sample_period(self, name: str) -> int:
        """Sim steps between samples of sensor channel `name`: the control
        period when its rate_hz is None.  A rate must be at most 1/sim_dt and
        give a whole number of sim steps per sample, by the control_dt rule."""
        rate = (default_sensors() | self.sensors)[name].rate_hz
        if rate is None:
            return self.control_every
        ratio = 1.0 / rate / self.sim_dt   # inf, not a ZeroDivisionError, for a tiny rate
        steps = _whole_steps(ratio)
        if steps is None and ratio < 1.0:
            raise ValueError(f"sensors.{name}: rate_hz {rate:g} is above the sim rate "
                             f"1/sim_dt = {1.0 / self.sim_dt:g} Hz")
        if steps is None:
            raise ValueError(f"sensors.{name}: rate_hz {rate:g} samples every {ratio:.6g} sim "
                             f"steps; the period must be a whole number of sim_dt = "
                             f"{self.sim_dt:g} s steps")
        return steps

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
    """Uniformly sampled run record: `rows` holds one row per sim_dt with the
    columns CSV_COLUMNS, and a column reads by name (log.e_y is a view)."""

    rows: np.ndarray
    stop_reason: str = "t_end"

    def __getattr__(self, name: str) -> np.ndarray:
        # reached for non-fields only; "rows" is no column, so no recursion
        if name not in CSV_COLUMNS:
            raise AttributeError(f"SimLog has no column {name!r}")
        return self.rows[:, CSV_COLUMNS.index(name)]

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, fobj) -> None:
        fobj.write(LOG_HEAD)
        write_csv_rows(fobj, self.rows)


def kinematic_controller(proj: PathProjection, v: float, k: np.ndarray,
                         p: VehicleParams) -> ControlInput:
    """Feedback on (e_y, e_psi) through the gain row k = (k1, k2) plus
    Ackermann feedforward from path curvature.

    delta = clamp(-k1 e_y - k2 e_psi + atan(kappa L), +-max_steer)
    """
    k1, k2 = k.tolist()   # float arithmetic: a reading past the float range gives inf silently
    delta_fb = -k1 * proj.e_y - k2 * proj.e_psi
    delta = delta_fb + feedforward_steer(proj.kappa, p.wheelbase)
    return ControlInput(v=v, delta=float(min(max(delta, -p.max_steer), p.max_steer)))


def dynamic_controller(err: ErrorState, vx: float, k: np.ndarray,
                       kappa: float, p: VehicleParams) -> ControlInput:
    """Full error-state feedback through the gain row k plus Ackermann
    feedforward."""
    check_dynamic_speed(vx)
    delta_fb = -float(k @ err.as_array())
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
            try:
                v = round(v / self.q) * self.q
            except OverflowError:   # a step below v's own float resolution changes nothing
                pass
        self.buffer.append(v)

    def latest(self) -> float:
        return self.buffer[0]


class _Unverified(Exception):
    """A read step's projection, taken while its memory was still pending,
    is not the one the exact memory gives."""


def run_scenario(cfg: ScenarioConfig, gains: GainSchedule,
                 params: VehicleParams | None = None, writer=None) -> SimLog:
    """Run one closed-loop scenario and return its log.

    Per sim step the plant takes one RK4 step (`models.kinematic_step` or
    `dynamic_step`); per control period the sensors' latest values feed the
    selected controller and the curvature estimators; the commanded steer
    passes through the actuator's pure delay, first-order lag, and rate
    limit.  Raises SimulationError when the vehicle leaves the projection
    horizon or the state goes non-finite, NumericalError when a gain the
    controller used fails certification, and ValueError for an
    initial_steer that is not finite or exceeds max_steer.

    The controller uses an interpolated gain at once; the interpolated
    gains of a run are certified in bulk, every BLOCK_ROWS steps and before
    the run ends or raises, and the first one that fails raises as if it
    had been certified on its own tick.

    A `writer` (`logfork.ForkedLog`) provides the row table (`table(shape)`)
    and is told that the rows below a watermark are final (`publish(k)`,
    checked every BLOCK_ROWS steps and sent once k passes a CSV_BLOCK_ROWS
    boundary), then the log's length (`finish(n)`); a rerun first abandons
    the first table (`abort()`).
    """
    p = params if params is not None else VehicleParams()
    if not abs(cfg.initial_steer) <= p.max_steer:
        raise ValueError(f"initial_steer {cfg.initial_steer} must be finite and at most "
                         f"max_steer {p.max_steer} in magnitude")
    if cfg.controller == "dynamic_lqr" and len(gains.gains[0].k) != 4:
        raise ValueError("dynamic_lqr controller needs a 4-state gain schedule")
    if cfg.controller == "kinematic_ff_fb" and len(gains.gains[0].k) != 2:
        raise ValueError("kinematic_ff_fb controller needs a 2-state gain schedule")
    try:
        log = _run(cfg, gains, p, BLOCK_ROWS, writer)
    except _Unverified:
        if writer is not None:
            writer.abort()
        log = _run(cfg, gains, p, 1, writer)
    if writer is not None:
        writer.finish(len(log))
    return log


def _run(cfg: ScenarioConfig, gains: GainSchedule, p: VehicleParams, block: int,
         writer) -> SimLog:
    """run_scenario's loop.  Every step where the controller runs or the
    heading or lateral channel samples projects its pose at once; with
    block > 1 the other steps' projections, which only the log reads, wait
    in the row table and are settled by one `pathbatch.project_run` call per
    block of at most `block` rows.  The pending rows leave the memory of
    the next read step open: it projects with a margin and is checked
    against the exact projection when its block settles; a run that fails
    that check raises _Unverified.  The off-grid gains the controller uses
    wait in a queue, and certify_ticks() certifies them in one stacked call
    before every stop and error and every BLOCK_ROWS steps.  Stops and
    errors come in step order."""
    path = cfg.path
    rng = np.random.default_rng(cfg.seed)

    # start pose: path start displaced by the configured lateral/heading offset
    e_y0, e_psi0 = cfg.initial_offset
    psi0 = float(path.psi[0])
    x0 = float(path.x[0]) - e_y0 * math.sin(psi0)
    y0 = float(path.y[0]) + e_y0 * math.cos(psi0)
    heading0 = psi0 + e_psi0

    n_steps = cfg.log_rows - 1
    times = np.arange(n_steps + 1) * cfg.sim_dt
    speeds = cfg.speed_at(times).tolist()
    # the solver's psi stays unwrapped; only the Pose handed to project wraps it
    kinematic = cfg.model == "kinematic"
    state = (x0, y0, heading0) if kinematic else (x0, y0, heading0, 0.0, 0.0)
    w = w_speed = math.nan   # the kinematic yaw rate of the last plant step, and its speed
    if not kinematic:
        v_min = min(speeds)
        check_dynamic_speed(v_min, f" (speed command at t={times[speeds.index(v_min)]:g} s)")

    control_every = cfg.control_every
    sensors = default_sensors() | cfg.sensors
    proj = project(path, Pose(x0, y0, heading0))

    def channel(name: str, initial: float) -> _Channel:
        return _Channel(sensors[name], cfg.sample_period(name), initial, rng)

    # offered a sample in this fixed (name) order, which fixes the noise draws,
    # on every step where one of them is due
    heading_ch = channel("heading", proj.e_psi)
    lateral_ch = channel("lateral", proj.e_y)
    speed_ch = channel("speed", speeds[0])
    steer_ch = channel("steer", cfg.initial_steer)
    yaw_ch = channel("yaw_rate", 0.0)
    offer_every = math.gcd(*(ch.period for ch in (heading_ch, lateral_ch, speed_ch, steer_ch,
                                                  yaw_ch)))

    act = cfg.actuator
    cmd_buffer = deque([cfg.initial_steer] * (act.delay_steps + 1), maxlen=act.delay_steps + 1)
    lag_alpha = 1.0 - math.exp(-cfg.sim_dt / act.lag_tau) if act.lag_tau > 0 else 1.0
    max_move = None if act.rate_limit is None else act.rate_limit * cfg.sim_dt
    delta_act = delta_cmd = cfg.initial_steer
    saturated = False
    wheelbase = p.wheelbase

    kappa_fused, kf_p, q_step = INITIAL_KAPPA, INITIAL_VARIANCE, DEFAULT_Q_PROCESS * cfg.control_dt
    kappa_ack = kappa_diff = 0.0

    shape = (n_steps + 1, len(CSV_COLUMNS))
    rows = np.empty(shape) if writer is None else writer.table(shape)
    # the next step that certifies the queued gains and tells the writer which
    # rows are final once they pass the next CSV block boundary, block_end
    check = min(BLOCK_ROWS, n_steps)
    block_end = CSV_BLOCK_ROWS
    odometer = 0.0
    stop_reason = "t_end"
    end_s = float(path.s[-1]) - 2.0 * float(np.max(np.diff(path.s)))
    sim_dt, closed, length = cfg.sim_dt, path.closed, path.length

    # read steps: every step where a projection feeds the loop
    read_every = math.gcd(heading_ch.period, lateral_ch.period, control_every) \
        if block > 1 else 1
    # how far the foot may move between read steps, and over a block, with
    # slack; the first is checked by settle(), the second keeps a block off
    # a closed path's seam, where the memory wraps
    travel = 2.0 * max(speeds) * sim_dt
    reach = 1.0 + travel * read_every
    seam_reach = reach + travel * block
    pending = None          # first row whose projection waits for settle()
    last_s = proj.s         # foot of the newest row projected at once
    written = -1
    ticks = []              # (step, v, k) of the interpolated gains not yet certified
    queued_v = math.nan     # the speed of the last one queued
    failed = None           # the step of the tick whose gain failed certification

    def certify_ticks(before: float) -> None:
        """Certify the queued gains of the ticks before step `before` in one
        stacked call and empty the queue, later ticks included; raise the
        first failing tick's NumericalError, its step in `failed`."""
        nonlocal failed
        todo = [tick for tick in ticks if tick[0] < before]
        ticks.clear()
        if not todo:
            return
        model, sp, dt = gains.model, gains.params, gains.dt
        try:
            certify(model, [k for _, _, k in todo], [v for _, v, _ in todo], sp, dt)
        except NumericalError:
            for step, v, k in todo:   # the first tick whose gain fails on its own
                failed = step
                certify(model, k, v, sp, dt)
            raise

    def settle(b: int) -> SimLog | None:
        """Project the pending rows up to b from the foot of the row before
        them, check the read rows among them against the projections the
        loop used, and fill their projection columns.  Return the log ended
        at the first row that reaches the path end, or None; raise the
        first lost row's SimulationError."""
        nonlocal pending
        a, pending = pending, None
        blk = rows[a:b + 1]
        feet, lost = project_run(path, *blk[:, 1:4].T,   # x, y, psi
                                 rows[a - 1, _S].item(), end_s)
        ends = () if closed else np.flatnonzero(feet[0] >= end_s)
        m = int(ends[0]) + 1 if len(ends) else feet.shape[1]
        reads = slice(-a % read_every, m, read_every)
        if not np.array_equal(blk[reads][:, _PROJ].view(np.uint64),
                              feet[:, reads].T.view(np.uint64)):
            raise _Unverified
        blk = blk[:m]
        blk[:, _PROJ] = feet[:, :m].T
        with np.errstate(over="ignore", invalid="ignore"):   # as a read row's float arithmetic
            blk[:, _E_Y_DOT] = blk[:, _VY] + blk[:, _V] * feet[2, :m]
            blk[:, _E_PSI_DOT] = blk[:, _YAW_RATE] - blk[:, _V] * feet[3, :m]
        if len(ends) or lost is not None:
            certify_ticks(a + m)   # the ticks before the row that ends the run
        if len(ends):
            return SimLog(rows[:a + m], stop_reason="path_end")
        if lost is not None:
            raise lost
        return None

    try:
        for step, (t, v) in enumerate(zip(times.tolist(), speeds)):
            if kinematic:
                vy = 0.0
                # the last plant step's rate, unless the speed has changed since
                yaw_rate = w if v == w_speed else kinematic_yaw_rate(v, delta_act, p)
            else:
                vy, yaw_rate = state[3], state[4]

            q = proj or _UNSETTLED
            if step % offer_every == 0:
                heading_ch.maybe_sample(step, q.e_psi)
                lateral_ch.maybe_sample(step, q.e_y)
                speed_ch.maybe_sample(step, v)
                steer_ch.maybe_sample(step, delta_act)
                yaw_ch.maybe_sample(step, yaw_rate)

            if step % control_every == 0:
                e_y_m = lateral_ch.latest()
                e_psi_m = heading_ch.latest()
                v_m = max(speed_ch.latest(), 1e-6)
                yaw_m = yaw_ch.latest()
                steer_m = steer_ch.latest()

                if cfg.controller == "dynamic_lqr":
                    check_dynamic_speed(v_m, f" (sensors.speed reading at t={t:g} s)")
                k = gains.gain(v_m)
                if isinstance(k, GainSet):
                    k = k.k
                elif v_m != queued_v:   # interpolated: certify_ticks() certifies it
                    queued_v = v_m
                    ticks.append((step, v_m, k))
                if cfg.controller == "kinematic_ff_fb":
                    meas_proj = PathProjection(proj.s, e_y_m, e_psi_m, proj.kappa)
                    u = kinematic_controller(meas_proj, v_m, k, p)
                else:
                    err = ErrorState(e_y=e_y_m, e_y_dot=vy + v_m * e_psi_m,
                                     e_psi=e_psi_m, e_psi_dot=yaw_rate - v_m * proj.kappa)
                    u = dynamic_controller(err, v_m, k, proj.kappa, p)
                delta_cmd = u.delta
                saturated = abs(delta_cmd) >= p.max_steer - 1e-12
                cmd_buffer.append(delta_cmd)

                # curvature estimators run alongside the controller
                try:
                    kappa_ack = ackermann_curvature(steer_m, wheelbase)
                except ValueError as e:
                    raise ValueError(f"sensors.steer reading {steer_m:g} rad at t={t:g} s: {e}") \
                        from None
                kappa_diff, diff_ok = differential_sample(e_psi_m, yaw_m, v_m, kappa_diff)
                try:
                    r_diff = DEFAULT_R_DIFFERENTIAL / v_m**2
                except OverflowError:   # float ** raises where v_m^2 passes the float range
                    r_diff = 0.0        # r_diff / inf
                kappa_fused, kf_p = kf_step(kappa_fused, kf_p, q_step, kappa_ack,
                                            DEFAULT_R_ACKERMANN,
                                            kappa_diff if diff_ok else None, r_diff)

            target = cmd_buffer[0]
            if max_move is None:
                delta_act = delta_act + lag_alpha * (target - delta_act)
            else:
                delta_next = delta_act + lag_alpha * (target - delta_act)
                delta_act = delta_act + min(max(delta_next - delta_act, -max_move), max_move)

            rows[step] = (t, state[0], state[1], state[2], vy, yaw_rate, odometer,
                          v, delta_cmd, delta_act, saturated,
                          q.s, q.e_y, q.e_psi, vy + v * q.e_psi,
                          yaw_rate - v * q.kappa, q.kappa, kappa_ack, kappa_diff, kappa_fused)
            written = step

            if proj is not None and proj.s >= end_s and not closed:
                if pending is not None:
                    return settle(step)   # this row or an earlier one ends the run
                stop_reason = "path_end"
                break
            if step >= check:
                if step == n_steps:
                    break
                certify_ticks(step + 1)
                final = step + 1 if pending is None else pending   # settle() starts at pending
                if writer is not None and final >= block_end:
                    writer.publish(final)
                    block_end = final - final % CSV_BLOCK_ROWS + CSV_BLOCK_ROWS
                check = min(step + BLOCK_ROWS, n_steps)
            if kinematic:
                w, w_speed = kinematic_yaw_rate(v, delta_act, p), v
                state = kinematic_step(state, v, delta_act, sim_dt, p, w)
            else:
                state = dynamic_step(state, v, delta_act, sim_dt, p)
            odometer += v * sim_dt

            nxt = step + 1
            near_seam = closed and last_s + seam_reach >= end_s
            if nxt % read_every and not near_seam:
                proj = None
                if pending is None:
                    pending = nxt
                continue
            pose = Pose(state[0], state[1], state[2])
            proj = None
            if pending is not None and nxt - pending < block and not near_seam:
                try:
                    proj = project(path, pose, prev_s=last_s, margin=reach)
                except SimulationError:
                    pass
            if proj is None:
                if pending is not None:
                    log = settle(step)
                    if log is not None:
                        return log
                    last_s = rows[step, _S].item()
                # start and end coincide on a closed path; wrap the search memory
                prev_s = last_s - length if closed and last_s >= end_s else last_s
                proj = project(path, pose, prev_s=prev_s)
            last_s = proj.s
    except _Unverified:   # run_scenario redoes the run whole, with a fresh queue
        raise
    except Exception as e:
        # a queued gain may fail before this error; then, up to the first
        # error, a pending row may end the run or be lost
        error = e
        if failed is None:
            try:
                certify_ticks(math.inf)
            except NumericalError as c:
                error = c
        end = written if failed is None else failed - 1
        if pending is not None and end >= pending:
            log = settle(end)
            if log is not None:
                return log
        raise error

    if pending is not None:
        log = settle(step)
        if log is not None:
            return log
    certify_ticks(math.inf)
    return SimLog(rows[:step + 1], stop_reason=stop_reason)


def compute_metrics(log: SimLog) -> dict:
    """Tracking metrics over the whole run and after first path contact, as
    metrics.json holds them (post-contact values under "post_transient",
    None without contact).

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
    return {
        "max_abs_e_y": float(np.max(abs_ey)),
        "rms_e_y": float(np.sqrt(np.mean(log.e_y**2))),
        "max_abs_e_psi": float(np.max(np.abs(log.e_psi))),
        "settle_distance": settle_distance,
        "settled": settled,
        "post_transient": {
            "max_abs_e_y": None if c is None else float(np.max(abs_ey[c:])),
            "rms_e_y": None if c is None else float(np.sqrt(np.mean(log.e_y[c:] ** 2))),
            "max_abs_e_psi": None if c is None else float(np.max(np.abs(log.e_psi[c:]))),
        },
    }
