"""Discrete LQR gain synthesis and speed-scheduled gain tables.

Gains regulate path-relative errors with the convention delta_fb = -k @ e
and positive gain entries, so positive lateral error (vehicle left of
path) commands a right steer.  Every gain set, designed, interpolated or
loaded, passes the one certificate in `certify`: spectral radius of
(Ad - Bd k) strictly below 1 - CERT_MARGIN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import NumericalError
from .models import VehicleParams, error_dynamics_matrices
from .numkit import StateSpace, c2d, mat_solve, solve_dare, spectral_radius, write_float_csv

CERT_MARGIN = 1e-6
DEFAULT_CONTROL_DT = 0.02  # 50 Hz steering command rate
CONTROL_DT_RANGE = (0.001, 0.1)  # s, a designable control period has lo < dt <= hi


@dataclass(frozen=True)
class LqrWeights:
    """Diagonal state weights and the scalar control weight."""

    q_diag: tuple[float, ...] = (1.0, 1.0)
    r: float = 1.0

    def __post_init__(self):
        if any(q < 0 for q in self.q_diag):
            raise ValueError("state weights must be nonnegative")
        if not any(q > 0 for q in self.q_diag):
            raise ValueError("at least one state weight must be positive")
        if self.r <= 0:
            raise ValueError("control weight must be positive")


@dataclass(frozen=True)
class GainSet:
    """Feedback gain row for one design speed, with its certification record."""

    k: np.ndarray
    v: float
    dt: float
    model: str
    closed_loop_radius: float

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        if self.k.ndim != 1:
            raise ValueError("gain set must be a flat row of gains")


def _zoh(model: str, v: float, p: VehicleParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(Ad, Bd) of the ZOH-discretized error model, Bd one column; the one
    discretization behind design, certification and `discrete_error_model`.

    The kinematic model's A = [[0, v], [0, 0]] is nilpotent, so its ZOH is
    closed form: Ad = [[1, v dt], [0, 1]], Bd = [(v dt)(v dt / L) / 2, v dt / L].
    The dynamic model goes through `c2d`.
    """
    if model == "kinematic":
        if not v > 0:
            raise ValueError("speed must be > 0")
        vdt, wdt = v * dt, v / p.wheelbase * dt
        return np.array([[1.0, vdt], [0.0, 1.0]]), np.array([[vdt * wdt / 2.0], [wdt]])
    if model == "dynamic":
        sysd = c2d(error_dynamics_matrices(v, p)[0], dt)
        return sysd.A, sysd.B
    raise ValueError(f"unknown model {model!r}")


def discrete_error_model(model: str, v: float, p: VehicleParams, dt: float) -> StateSpace:
    """ZOH-discretized error model used for design and certification."""
    ad, bd = _zoh(model, v, p, dt)
    return StateSpace(A=ad, B=bd, dt=dt)


def certify(model: str, k, v: float, p: VehicleParams, dt: float) -> GainSet:
    """Certify gain row k against the model at speed v and return its GainSet.

    Raises NumericalError unless the closed-loop spectral radius of
    (Ad - Bd k) is below 1 - CERT_MARGIN (a NaN radius fails), and
    ValueError for a gain row of the wrong length or with a non-finite entry.
    """
    return _certify_on(*_zoh(model, v, p, dt), model, k, v, dt)


def _certify_on(ad: np.ndarray, bd: np.ndarray, model: str, k, v: float, dt: float) -> GainSet:
    """The radius check of `certify` on an already discretized model."""
    k = np.asarray(k, dtype=float)
    if k.shape != (len(ad),):
        raise ValueError(f"{model} gain row needs {len(ad)} entries, got shape {k.shape}")
    # a non-finite k makes a non-finite loop, which spectral_radius rejects
    rho = spectral_radius(ad - bd * k)
    if not rho < 1.0 - CERT_MARGIN:
        raise NumericalError(
            f"{model} gain at v={v} fails certification (closed-loop radius {rho:.8f})")
    return GainSet(k=k, v=float(v), dt=float(dt), model=model, closed_loop_radius=rho)


def check_control_dt(dt: float, where: str = "") -> float:
    """Return dt, or raise ValueError unless it lies in CONTROL_DT_RANGE;
    `where` says where dt comes from in the message."""
    lo, hi = CONTROL_DT_RANGE
    if not lo < dt <= hi:
        raise ValueError(f"control period {dt} s{where} must be in ({lo}, {hi}] s")
    return dt


def _design(model: str, v: float, p: VehicleParams, w: LqrWeights, dt: float) -> GainSet:
    check_control_dt(dt)
    ad, bd = _zoh(model, v, p, dt)
    n = len(ad)
    if len(w.q_diag) != n:
        raise ValueError(f"{model} design needs {n} state weights, got {len(w.q_diag)}")
    q = np.diag(w.q_diag).astype(float)
    r = np.array([[w.r]])
    x = solve_dare(ad, bd, q, r)
    k = mat_solve(r + bd.T @ x @ bd, bd.T @ x @ ad)[0]
    return _certify_on(ad, bd, model, k, v, dt)


def design_kinematic(v: float, p: VehicleParams, w: LqrWeights,
                     dt: float = DEFAULT_CONTROL_DT) -> GainSet:
    """LQR gains (k1 lateral, k2 heading) for the kinematic error model,
    whose build rejects v <= 0."""
    return _design("kinematic", v, p, w, dt)


def design_dynamic(vx: float, p: VehicleParams, w: LqrWeights,
                   dt: float = DEFAULT_CONTROL_DT) -> GainSet:
    """LQR gains over the 4 error states for the dynamic single-track model.

    The curvature disturbance column is excluded from the Riccati design;
    only the steering input is regulated.  The model build rejects a vx at
    or below models.MIN_DYNAMIC_SPEED.
    """
    return _design("dynamic", vx, p, w, dt)


@dataclass
class GainSchedule:
    """Certified gains on an ascending speed grid with linear interpolation.

    Lookups between grid points interpolate the gain entries and certify
    the interpolated gain against the model at that speed.  The last
    interpolated GainSet is kept, so repeated lookups at one speed (a
    constant-speed run) certify once.  Outside the grid the end gains
    apply unchanged; a non-finite speed is a ValueError.
    """

    speeds: np.ndarray
    gains: list[GainSet]
    dt: float
    model: str
    params: VehicleParams
    _last: GainSet | None = field(default=None, repr=False, compare=False)

    def lookup(self, v: float) -> GainSet:
        v = float(v)
        if not math.isfinite(v):
            raise ValueError(f"gain lookup at non-finite speed {v}")
        s = self.speeds
        if v <= s[0]:
            return self.gains[0]
        if v >= s[-1]:
            return self.gains[-1]
        i = int(np.searchsorted(s, v, side="right")) - 1
        if v == s[i]:
            return self.gains[i]
        # one read of the memo: a concurrent lookup can only replace it whole
        last = self._last
        if last is not None and last.v == v:
            return last
        a = (v - s[i]) / (s[i + 1] - s[i])
        k = self.gains[i].k + a * (self.gains[i + 1].k - self.gains[i].k)
        gs = certify(self.model, k, v, self.params, self.dt)
        self._last = gs
        return gs


def build_schedule(speeds, designer: str, p: VehicleParams, w: LqrWeights,
                   dt: float = DEFAULT_CONTROL_DT) -> GainSchedule:
    """Design certified gains at every grid speed.

    The grid must be ascending with at least two points inside
    [0.5, 30] m/s.  Any single failed design aborts the build.
    """
    speeds = np.asarray(speeds, dtype=float)
    if speeds.ndim != 1 or len(speeds) < 2:
        raise ValueError("speed grid needs at least two points")
    if np.any(np.diff(speeds) <= 0):
        raise ValueError("speed grid must be strictly ascending")
    if speeds[0] < 0.5 or speeds[-1] > 30.0:
        bad = speeds[0] if speeds[0] < 0.5 else speeds[-1]
        raise ValueError(f"grid speed {bad} m/s outside the designable range [0.5, 30]")
    if designer not in ("kinematic", "dynamic"):
        raise ValueError(f"unknown designer {designer!r}")
    design = design_kinematic if designer == "kinematic" else design_dynamic
    gains = [design(float(v), p, w, dt) for v in speeds]
    return GainSchedule(speeds=speeds, gains=gains, dt=dt, model=designer, params=p)


def save_gain_csv(schedule: GainSchedule, fobj) -> None:
    """Write the schedule as `v,k1,k2[,k3,k4],dt` rows; floats use repr for
    bit-exact round trips."""
    gains = schedule.gains
    n = len(gains[0].k)
    write_float_csv(fobj, ["v"] + [f"k{i + 1}" for i in range(n)] + ["dt"],
                    [[g.v for g in gains], [g.k for g in gains], [g.dt for g in gains]])


def load_gain_csv(fobj, p: VehicleParams) -> GainSchedule:
    """Rebuild a schedule from a gain table; every cell must be finite and
    every dt in CONTROL_DT_RANGE, and every row is re-certified."""
    rows = []
    header = None
    for lineno, line in enumerate(fobj, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = [c.strip() for c in cells]
            n = len(header) - 2
            if header[0] != "v" or header[-1] != "dt" or n not in (2, 4) or \
                    header[1 : 1 + n] != [f"k{i + 1}" for i in range(n)]:
                raise ValueError(f"unexpected gain table header {header!r}")
            continue
        if len(cells) != len(header):
            raise ValueError(f"gain table line {lineno} ({line!r}) has {len(cells)} cells, "
                             f"the header has {len(header)}")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"gain table line {lineno} ({line!r}) has a non-numeric cell") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"gain table line {lineno} ({line!r}) has a non-finite cell")
        check_control_dt(row[-1], f" on gain table line {lineno}")
        rows.append(row)
    if not rows:
        raise ValueError("gain table is empty")
    model = "kinematic" if n == 2 else "dynamic"
    dts = {row[-1] for row in rows}
    if len(dts) != 1:
        raise ValueError("gain table mixes control periods")
    dt = dts.pop()
    speeds = np.array([row[0] for row in rows])
    if np.any(np.diff(speeds) <= 0):
        raise ValueError("gain table speeds must be ascending")
    gains = [certify(model, row[1:-1], row[0], p, dt) for row in rows]
    return GainSchedule(speeds=speeds, gains=gains, dt=dt, model=model, params=p)
