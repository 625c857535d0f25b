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
from .models import MIN_DYNAMIC_SPEED, VehicleParams, error_dynamics_matrices, \
    kinematic_error_model
from .numkit import StateSpace, c2d, mat_solve, solve_dare, spectral_radius, write_float_csv

CERT_MARGIN = 1e-6
DEFAULT_CONTROL_DT = 0.02  # 50 Hz steering command rate


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


def discrete_error_model(model: str, v: float, p: VehicleParams, dt: float) -> StateSpace:
    """ZOH-discretized error model used for design and certification."""
    if model == "kinematic":
        return c2d(kinematic_error_model(v, p.wheelbase), dt)
    if model == "dynamic":
        sys, _ = error_dynamics_matrices(v, p)
        return c2d(sys, dt)
    raise ValueError(f"unknown model {model!r}")


def certify(model: str, k, v: float, p: VehicleParams, dt: float) -> GainSet:
    """Certify gain row k against the model at speed v and return its GainSet.

    Raises NumericalError unless the closed-loop spectral radius of
    (Ad - Bd k) is below 1 - CERT_MARGIN.
    """
    return _certify_on(discrete_error_model(model, v, p, dt), model, k, v, dt)


def _certify_on(sysd: StateSpace, model: str, k, v: float, dt: float) -> GainSet:
    """The radius check of `certify` on an already discretized model."""
    k = np.asarray(k, dtype=float)
    if k.shape != (sysd.n_states,):
        raise ValueError(f"{model} gain row needs {sysd.n_states} entries, got shape {k.shape}")
    rho = spectral_radius(sysd.A - np.outer(sysd.B[:, 0], k))
    if rho >= 1.0 - CERT_MARGIN:
        raise NumericalError(
            f"{model} gain at v={v} fails certification (closed-loop radius {rho:.8f})")
    return GainSet(k=k, v=float(v), dt=float(dt), model=model, closed_loop_radius=rho)


def _design(model: str, v: float, p: VehicleParams, w: LqrWeights, dt: float) -> GainSet:
    sysd = discrete_error_model(model, v, p, dt)
    n = sysd.n_states
    if len(w.q_diag) != n:
        raise ValueError(f"{model} design needs {n} state weights, got {len(w.q_diag)}")
    q = np.diag(w.q_diag).astype(float)
    r = np.array([[w.r]])
    x = solve_dare(sysd.A, sysd.B, q, r)
    k = mat_solve(r + sysd.B.T @ x @ sysd.B, sysd.B.T @ x @ sysd.A)[0]
    return _certify_on(sysd, model, k, v, dt)


def design_kinematic(v: float, p: VehicleParams, w: LqrWeights,
                     dt: float = DEFAULT_CONTROL_DT) -> GainSet:
    """LQR gains (k1 lateral, k2 heading) for the kinematic error model."""
    if v <= 0:
        raise ValueError("design speed must be positive")
    if not (0.001 < dt <= 0.1):
        raise ValueError("control period must be in (0.001, 0.1] s")
    return _design("kinematic", v, p, w, dt)


def design_dynamic(vx: float, p: VehicleParams, w: LqrWeights,
                   dt: float = DEFAULT_CONTROL_DT) -> GainSet:
    """LQR gains over the 4 error states for the dynamic single-track model.

    The curvature disturbance column is excluded from the Riccati design;
    only the steering input is regulated.
    """
    if vx <= MIN_DYNAMIC_SPEED:
        raise ValueError(f"dynamic design needs vx > {MIN_DYNAMIC_SPEED} m/s")
    if not (0.001 < dt <= 0.1):
        raise ValueError("control period must be in (0.001, 0.1] s")
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
    """Rebuild a schedule from a gain table; every row is re-certified."""
    rows = []
    header = None
    for lineno, line in enumerate(fobj, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = [c.strip() for c in cells]
            continue
        if len(cells) != len(header):
            raise ValueError(f"gain table line {lineno} ({line!r}) has {len(cells)} cells, "
                             f"the header has {len(header)}")
        rows.append([float(c) for c in cells])
    if header is None or not rows:
        raise ValueError("gain table is empty")
    n = len(header) - 2
    if header[0] != "v" or header[-1] != "dt" or n not in (2, 4) or \
            header[1 : 1 + n] != [f"k{i + 1}" for i in range(n)]:
        raise ValueError(f"unexpected gain table header {header!r}")
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
