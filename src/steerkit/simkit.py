"""Closed-loop simulation: RK4 plant steps, the steering law, sensors, actuator.

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
from itertools import chain
from typing import Sequence

import numpy as np

from .curvkit import DEFAULT_Q_PROCESS, DEFAULT_R_ACKERMANN, DEFAULT_R_DIFFERENTIAL, \
    INITIAL_KAPPA, INITIAL_VARIANCE, ackermann_curvature, differential_sample, \
    feedforward_steer, kf_step
from .lqr import DEFAULT_CONTROL_DT, GainSchedule, GainSet, certify
from .models import MIN_DYNAMIC_SPEED, Pose, VehicleParams, check_dynamic_speed, \
    dynamic_step, kinematic_step, kinematic_yaw_rate
from .numkit import write_csv_rows
from .pathbatch import project_run
from .pathkit import RefPath, project

SETTLE_BAND = 0.05  # m, |e_y| band used for settle metrics
BLOCK_ROWS = 480    # rows that may wait before a read step makes them final

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
# a waiting row's cells s, e_y, e_psi, e_y_dot, e_psi_dot and kappa_path,
# which its flush fills
_WAITING = (math.nan,) * 6


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
    speed: float | Sequence[tuple[float, float]] = 10.0
    t_end: float = 60.0
    sim_dt: float = 0.001
    control_dt: float = DEFAULT_CONTROL_DT
    initial_offset: tuple[float, float] = (0.0, 0.0)
    initial_steer: float = 0.0
    sensors: dict[str, SensorConfig] = field(default_factory=default_sensors)
    actuator: ActuatorConfig = field(default_factory=ActuatorConfig)
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("kinematic", "dynamic"):
            raise ValueError(f"unknown model {self.model!r}")
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


class _Channel:
    """Sampled sensor channel with noise, quantization, and a delay buffer."""

    def __init__(self, cfg: SensorConfig, period: int, initial: float, rng):
        self.period = period
        self.noise_std, self.q = cfg.noise_std, cfg.quantization_step
        self.buffer = deque(maxlen=cfg.delay_steps + 1)
        self.initial = initial
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
        """The sample delay_steps samples back; the initial value until there is one."""
        return self.buffer[0] if len(self.buffer) == self.buffer.maxlen else self.initial


def run_scenario(cfg: ScenarioConfig, gains: GainSchedule,
                 params: VehicleParams | None = None, writer=None) -> SimLog:
    """Run one closed-loop scenario and return its log.

    Per sim step the plant takes one RK4 step (`models.kinematic_step` or
    `dynamic_step`); per control period the sensors' latest values feed the
    steering law and the curvature estimators; the commanded steer passes
    through the actuator's pure delay, first-order lag, and rate limit.
    The law is one for every gain row, delta = clamp(-k @ e + atan(kappa L),
    +-max_steer), and the row picks its error state e: (e_y, e_psi) for a
    kinematic schedule, (e_y, e_y_dot, e_psi, e_psi_dot) for a dynamic one,
    whose speed reading must pass the dynamic guard; either row runs on
    either plant.  Raises SimulationError when the vehicle leaves the
    projection horizon or the state goes non-finite, NumericalError when a
    gain the law used fails certification, and ValueError for an
    initial_steer that is not finite or exceeds max_steer or a schedule
    whose dt is not the scenario's control_dt.

    The law uses an interpolated gain at once; the interpolated
    gains of a run are certified in bulk each time rows are made final (by
    the first read step once BLOCK_ROWS rows are not, and before the run
    ends or raises), and the first one that fails raises as if it had been
    certified on its own tick.  Each step's pose is projected with the foot
    of the last read step before it as its search memory (`_run`); row 0
    searches the whole path.

    A `writer` (`logfork.ForkedLog`) provides the row table (`table(shape)`)
    and is told, each time rows are made final, that the rows below that
    watermark are (`publish(k)`), then the log's row count (`finish(n)`).
    """
    p = params if params is not None else VehicleParams()
    if not abs(cfg.initial_steer) <= p.max_steer:
        raise ValueError(f"initial_steer {cfg.initial_steer} must be finite and at most "
                         f"max_steer {p.max_steer} in magnitude")
    if gains.dt != cfg.control_dt:   # its off-grid gains are certified at gains.dt
        raise ValueError(f"gain schedule has dt {gains.dt} s, the scenario's control_dt is "
                         f"{cfg.control_dt} s")
    log = _run(cfg, gains, p, writer)
    if writer is not None:
        writer.finish(len(log))
    return log


def _run(cfg: ScenarioConfig, gains: GainSchedule, p: VehicleParams, writer) -> SimLog:
    """run_scenario's loop.  Every read step, where the law runs or
    the heading or lateral channel samples, projects its pose at once; the
    other steps' projections, which only the log reads, wait.  Every step's
    memory is the foot of the last read step before it.  Each step appends
    its row's cells to a flat list, a waiting row's six projection cells NaN.
    One watermark, `done`, marks the rows that are final, and flush(end)
    alone moves it: the list goes into the row table in one `np.fromiter`,
    one `pathbatch.project_run` call projects the waiting rows, the queued
    off-grid gains are certified in one stacked call, and the writer is
    told.  The first read step once BLOCK_ROWS rows are not final flushes;
    the end of the run and every error flush first, so that stops and
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
    speeds = cfg.speed_at(times)
    # the solver's psi stays unwrapped; only the Pose handed to project wraps it
    kinematic = cfg.model == "kinematic"
    state = (x0, y0, heading0) if kinematic else (x0, y0, heading0, 0.0, 0.0)
    w = w_speed = math.nan   # the kinematic yaw rate of the last plant step, and its speed
    if not kinematic:
        i = int(np.argmin(speeds))   # the first step at the slowest command
        check_dynamic_speed(speeds[i].item(), f" (speed command at t={times[i]:g} s)")

    control_every = cfg.control_every
    sensors = default_sensors() | cfg.sensors
    proj = project(path, Pose(x0, y0, heading0))
    mem = proj.s   # the search memory of the next read step

    def channel(name: str, initial: float) -> _Channel:
        return _Channel(sensors[name], cfg.sample_period(name), initial, rng)

    # offered a sample in this fixed (name) order, which fixes the noise draws,
    # on every step where one of them is due
    heading_ch = channel("heading", proj.e_psi)
    lateral_ch = channel("lateral", proj.e_y)
    speed_ch = channel("speed", speeds[0].item())
    steer_ch = channel("steer", cfg.initial_steer)
    yaw_ch = channel("yaw_rate", 0.0)
    offer_every = math.gcd(*(ch.period for ch in (heading_ch, lateral_ch, speed_ch, steer_ch,
                                                  yaw_ch)))

    act = cfg.actuator
    cmd_buffer = deque(maxlen=act.delay_steps + 1)
    target = cfg.initial_steer   # the delayed command; the start steer until the buffer fills
    lag_alpha = 1.0 - math.exp(-cfg.sim_dt / act.lag_tau) if act.lag_tau > 0 else 1.0
    max_move = None if act.rate_limit is None else act.rate_limit * cfg.sim_dt
    delta_act = delta_cmd = cfg.initial_steer
    saturated = False
    wheelbase, max_steer = p.wheelbase, p.max_steer
    dynamic_law = gains.model == "dynamic"   # the gain row's law (run_scenario)

    kappa_fused, kf_p, q_step = INITIAL_KAPPA, INITIAL_VARIANCE, DEFAULT_Q_PROCESS * cfg.control_dt
    kappa_ack = kappa_diff = 0.0

    shape = (n_steps + 1, len(CSV_COLUMNS))
    rows = np.empty(shape) if writer is None else writer.table(shape)
    pending = []            # the cells of the rows not yet in the table, one flat list
    odometer = 0.0
    end_s = math.inf if path.closed else path.end_s   # a closed path has no end
    sim_dt = cfg.sim_dt

    # read steps: every step where a projection feeds the loop; rows wait
    # only between read steps more than one step apart
    read_every = math.gcd(heading_ch.period, lateral_ch.period, control_every)
    done = 1                # rows below done are final; row 0 is projected at once
    written = -1
    ticks = []              # (step, v, k) of the interpolated gains not yet certified
    queued_v = math.nan     # the speed of the last one queued

    def certify_ticks(before: float) -> None:
        """Certify the queued gains of the ticks before step `before` in one
        stacked call and drop them from the queue; raise the first failing
        tick's NumericalError, with the queue as it was."""
        todo = [tick for tick in ticks if tick[0] < before]
        if not todo:
            return
        certify(gains.model, [k for _, _, k in todo], [v for _, v, _ in todo], gains.params,
                gains.dt)
        del ticks[:len(todo)]

    def flush(end: int) -> SimLog | None:
        """Make rows [done, end) final.  Project the waiting rows, each from
        the foot of the last read row before it, fill their projection
        columns, and certify the ticks before the first row that reaches the
        path end or is lost, or else before end.  Then return the log ended
        at that path-end row, raise the lost row's SimulationError, or
        publish end.  One that raises leaves `done` and the failing tick, so
        called again it raises the same error."""
        nonlocal done
        if pending:   # rows [end - len(pending) // width, end) go into the table
            width = len(CSV_COLUMNS)
            rows[end - len(pending) // width:end] = \
                np.fromiter(pending, float, len(pending)).reshape(-1, width)
            pending.clear()
        a = done if read_every > 1 else end   # no row waits for a projection
        blk = rows[a:end]
        feet, lost = project_run(path, *blk[:, 1:4].T,   # x, y, psi
                                 rows[np.arange(a - 1, end - 1) // read_every * read_every, _S])
        ends = np.flatnonzero(feet[0] >= end_s)
        m = int(ends[0]) + 1 if len(ends) else feet.shape[1]
        blk = blk[:m]
        blk[:, _PROJ] = feet[:, :m].T
        with np.errstate(over="ignore", invalid="ignore"):   # as a read row's float arithmetic
            blk[:, _E_Y_DOT] = blk[:, _VY] + blk[:, _V] * feet[2, :m]
            blk[:, _E_PSI_DOT] = blk[:, _YAW_RATE] - blk[:, _V] * feet[3, :m]
        certify_ticks(a + m)
        if len(ends):
            return SimLog(rows[:a + m], stop_reason="path_end")
        if lost is not None:
            raise lost
        done = end
        if writer is not None:
            writer.publish(end)
        return None

    # the schedule as floats, one block at a time: no per-step list of the run
    schedule = chain.from_iterable(
        zip(range(b, b + BLOCK_ROWS), times[b:b + BLOCK_ROWS].tolist(),
            speeds[b:b + BLOCK_ROWS].tolist()) for b in range(0, n_steps + 1, BLOCK_ROWS))
    try:
        for step, t, v in schedule:
            if kinematic:
                vy = 0.0
                # the last plant step's rate, unless the speed has changed since
                yaw_rate = w if v == w_speed else kinematic_yaw_rate(v, delta_act, p)
            else:
                vy, yaw_rate = state[3], state[4]

            if step % offer_every == 0:
                if proj is not None:   # the heading and lateral samples come on read steps
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

                if dynamic_law and not v_m > MIN_DYNAMIC_SPEED:   # the message only on failure
                    check_dynamic_speed(v_m, f" (sensors.speed reading at t={t:g} s)")
                k = gains.gain(v_m)
                if isinstance(k, GainSet):
                    k = k.k
                elif v_m != queued_v:   # interpolated: certify_ticks() certifies it
                    queued_v = v_m
                    ticks.append((step, v_m, k))
                if dynamic_law:   # e_y_dot and e_psi_dot from the true vy and yaw rate
                    fb = -float(k @ np.array([e_y_m, vy + v_m * e_psi_m, e_psi_m,
                                              yaw_rate - v_m * proj.kappa]))
                else:   # on floats: a reading past the float range gives inf silently
                    k1, k2 = k.tolist()
                    fb = -k1 * e_y_m - k2 * e_psi_m
                delta_cmd = float(min(max(fb + feedforward_steer(proj.kappa, wheelbase),
                                          -max_steer), max_steer))
                saturated = abs(delta_cmd) >= max_steer - 1e-12
                cmd_buffer.append(delta_cmd)
                if len(cmd_buffer) == cmd_buffer.maxlen:
                    target = cmd_buffer[0]

                # curvature estimators run alongside the law
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

            if max_move is None:
                delta_act = delta_act + lag_alpha * (target - delta_act)
            else:
                delta_next = delta_act + lag_alpha * (target - delta_act)
                delta_act = delta_act + min(max(delta_next - delta_act, -max_move), max_move)

            pending += (t, state[0], state[1], state[2], vy, yaw_rate, odometer, v, delta_cmd,
                        delta_act, saturated)
            pending += _WAITING if proj is None else (
                proj.s, proj.e_y, proj.e_psi, vy + v * proj.e_psi, yaw_rate - v * proj.kappa,
                proj.kappa)
            pending += (kappa_ack, kappa_diff, kappa_fused)
            written = step

            at_end = proj is not None and proj.s >= end_s
            if at_end or step == n_steps:
                log = flush(step + 1)   # a waiting row may reach the path end first
                return log if log is not None else \
                    SimLog(rows[:step + 1], stop_reason="path_end" if at_end else "t_end")
            if kinematic:
                w, w_speed = kinematic_yaw_rate(v, delta_act, p), v
                state = kinematic_step(state, v, delta_act, sim_dt, p, w)
            else:
                state = dynamic_step(state, v, delta_act, sim_dt, p)
            odometer += v * sim_dt

            nxt = step + 1
            proj = None
            if nxt % read_every:
                continue
            if nxt - done >= BLOCK_ROWS:
                log = flush(nxt)
                if log is not None:
                    return log
            proj = project(path, Pose(state[0], state[1], state[2]), prev_s=mem)
            mem = proj.s
    except Exception:
        # the rows before the error are made final first: one of them may end
        # the run or be lost, or a queued gain fail; then the failing step's
        # own tick is certified
        log = flush(written + 1)
        if log is not None:
            return log
        certify_ticks(math.inf)
        raise


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
