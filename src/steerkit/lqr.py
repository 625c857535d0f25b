"""Discrete LQR gain synthesis and speed-scheduled gain tables.

Gains regulate path-relative errors with the convention delta_fb = -k @ e
and positive gain entries, so positive lateral error (vehicle left of
path) commands a right steer.  Every gain set, designed, interpolated or
loaded, passes the one certificate in `certify`: spectral radius of
(Ad - Bd k) strictly below 1 - CERT_MARGIN.

The ZOH, the design and the certificate take a vector of speeds as well as
one speed, and compute the whole vector in stacked numkit calls: a speed
grid is designed in one Riccati solve, a gain table or a run's interpolated
gains are certified in one call.  Each speed's result is the one it gets
alone, and the first speed that fails raises its own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _zoh(model: str, v, p: VehicleParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(Ad, Bd) of the ZOH-discretized error model, Bd one column; the one
    discretization behind design, certification and `discrete_error_model`.
    An array of speeds gives stacks, one item per speed.

    The kinematic model's A = [[0, v], [0, 0]] is nilpotent, so its ZOH is
    closed form: Ad = [[1, v dt], [0, 1]], Bd = [(v dt)(v dt / L) / 2, v dt / L].
    The dynamic model goes through `c2d`.
    """
    if model == "kinematic":
        v = np.asarray(v, dtype=float)
        if not np.all(v > 0):
            raise ValueError("speed must be > 0")
        with np.errstate(over="ignore"):   # an inf entry fails the radius check
            vdt, wdt = v * dt, v / p.wheelbase * dt
            bd = np.stack((vdt * wdt / 2.0, wdt), axis=-1)[..., None]
        ad = np.zeros(v.shape + (2, 2))
        ad[..., 0, 0] = ad[..., 1, 1] = 1.0
        ad[..., 0, 1] = vdt
        return ad, bd
    if model == "dynamic":
        sysd = c2d(error_dynamics_matrices(v, p)[0], dt)
        return sysd.A, sysd.B
    raise ValueError(f"unknown model {model!r}")


def discrete_error_model(model: str, v: float, p: VehicleParams, dt: float) -> StateSpace:
    """ZOH-discretized error model used for design and certification."""
    ad, bd = _zoh(model, v, p, dt)
    return StateSpace(A=ad, B=bd, dt=dt)


def certify(model: str, k, v, p: VehicleParams, dt: float):
    """Certify gain row k against the model at speed v and return its GainSet.

    Raises NumericalError unless the closed-loop spectral radius of
    (Ad - Bd k) is below 1 - CERT_MARGIN (a NaN radius fails), and
    ValueError for a gain row of the wrong length or with a non-finite entry.
    A vector of speeds, with one row of k per speed, is certified in one
    stacked computation and gives a list of GainSets; the first speed that
    fails raises.
    """
    return _certify_on(*_zoh(model, v, p, dt), model, k, v, dt)


def _certify_on(ad: np.ndarray, bd: np.ndarray, model: str, k, v, dt: float):
    """The radius check of `certify` on an already discretized model."""
    k = np.asarray(k, dtype=float)
    if k.shape != ad.shape[:-1]:
        raise ValueError(f"{model} gain row needs {ad.shape[-1]} entries, got shape {k.shape}")
    # a non-finite k makes a non-finite loop, which spectral_radius rejects
    rho = np.asarray(spectral_radius(ad - bd * k[..., None, :]))
    speeds, radii = np.ravel(v).tolist(), rho.ravel().tolist()
    bad = np.flatnonzero(~(rho.ravel() < 1.0 - CERT_MARGIN))
    if len(bad):
        i = bad[0]
        raise NumericalError(f"{model} gain at v={speeds[i]} fails certification "
                             f"(closed-loop radius {radii[i]:.8f})")
    gains = [GainSet(k=row, v=float(s), dt=float(dt), model=model, closed_loop_radius=rho_)
             for row, s, rho_ in zip(k.reshape(-1, k.shape[-1]), speeds, radii)]
    return gains if np.ndim(v) else gains[0]


def check_control_dt(dt: float, where: str = "") -> float:
    """Return dt, or raise ValueError unless it lies in CONTROL_DT_RANGE;
    `where` says where dt comes from in the message."""
    lo, hi = CONTROL_DT_RANGE
    if not lo < dt <= hi:
        raise ValueError(f"control period {dt} s{where} must be in ({lo}, {hi}] s")
    return dt


def _design(model: str, v, p: VehicleParams, w: LqrWeights, dt: float):
    """LQR gains at speed v, or at each of a vector of speeds in one stacked
    Riccati solve; a failed vector is redone speed by speed, so that the
    error raised is the first failing speed's."""
    check_control_dt(dt)
    ad, bd = _zoh(model, v, p, dt)
    n = ad.shape[-1]
    if len(w.q_diag) != n:
        raise ValueError(f"{model} design needs {n} state weights, got {len(w.q_diag)}")
    q = np.diag(w.q_diag).astype(float)
    r = np.array([[w.r]])
    try:
        x = solve_dare(ad, bd, q, r)
        bdt = np.swapaxes(bd, -1, -2)
        k = mat_solve(r + bdt @ x @ bd, bdt @ x @ ad)[..., 0, :]
        return _certify_on(ad, bd, model, k, v, dt)
    except NumericalError:
        if np.ndim(v):
            for speed in np.ravel(v).tolist():   # the first speed that fails alone raises
                _design(model, speed, p, w, dt)
        raise


def design_kinematic(v: float, p: VehicleParams, w: LqrWeights,
                     dt: float = DEFAULT_CONTROL_DT) -> GainSet:
    """LQR gains (k1 lateral, k2 heading) for the kinematic error model,
    whose build rejects v <= 0; a vector of speeds gives a list of GainSets
    from one stacked design."""
    return _design("kinematic", v, p, w, dt)


def design_dynamic(vx: float, p: VehicleParams, w: LqrWeights,
                   dt: float = DEFAULT_CONTROL_DT) -> GainSet:
    """LQR gains over the 4 error states for the dynamic single-track model.

    The curvature disturbance column is excluded from the Riccati design;
    only the steering input is regulated.  The model build rejects a vx at
    or below models.MIN_DYNAMIC_SPEED.  A vector of speeds gives a list of
    GainSets from one stacked design.
    """
    return _design("dynamic", vx, p, w, dt)


@dataclass
class GainSchedule:
    """Certified gains on an ascending speed grid with linear interpolation.

    On and outside the grid the designed gains apply (outside, the end
    ones, unchanged); between grid points the gain entries are
    interpolated.  `gain` gives that gain as it is, an interpolated one not
    yet certified; `lookup` certifies an interpolated gain against the model
    at its speed.  A non-finite speed is a ValueError.
    """

    speeds: np.ndarray
    gains: list[GainSet]
    dt: float
    model: str
    params: VehicleParams

    def gain(self, v: float) -> GainSet | np.ndarray:
        """The designed GainSet that applies at speed v, or, between grid
        points, the interpolated gain row, which `certify` has yet to see."""
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
        a = (v - s[i]) / (s[i + 1] - s[i])
        return self.gains[i].k + a * (self.gains[i + 1].k - self.gains[i].k)

    def lookup(self, v: float) -> GainSet:
        gain = self.gain(v)
        if isinstance(gain, GainSet):
            return gain
        return certify(self.model, gain, float(v), self.params, self.dt)


def build_schedule(speeds, designer: str, p: VehicleParams, w: LqrWeights,
                   dt: float = DEFAULT_CONTROL_DT) -> GainSchedule:
    """Design certified gains at every grid speed, all in one stacked design.

    The grid must be ascending with at least two points inside
    [0.5, 30] m/s.  Any single failed design aborts the build, with the
    error of the first speed that fails.
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
    return GainSchedule(speeds=speeds, gains=design(speeds, p, w, dt), dt=dt, model=designer,
                        params=p)


def save_gain_csv(schedule: GainSchedule, fobj) -> None:
    """Write the schedule as `v,k1,k2[,k3,k4],dt` rows; floats use repr for
    bit-exact round trips."""
    gains = schedule.gains
    n = len(gains[0].k)
    write_float_csv(fobj, ["v"] + [f"k{i + 1}" for i in range(n)] + ["dt"],
                    [[g.v for g in gains], [g.k for g in gains], [g.dt for g in gains]])


def load_gain_csv(fobj, p: VehicleParams) -> GainSchedule:
    """Rebuild a schedule from a gain table; every cell must be finite, every
    dt in CONTROL_DT_RANGE and the same, and the speeds ascending, and every
    row is re-certified, all in one stacked call.  The first row that fails
    raises, with its line named where the input is at fault."""
    rows, where = [], []   # the rows, and "gain table line N (text)" of each
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
        at = f"gain table line {lineno} ({line!r})"
        if len(cells) != len(header):
            raise ValueError(f"{at} has {len(cells)} cells, the header has {len(header)}")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"{at} has a non-numeric cell") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{at} has a non-finite cell")
        check_control_dt(row[-1], f" on gain table line {lineno}")
        rows.append(row)
        where.append(at)
    if not rows:
        raise ValueError("gain table is empty")
    model = "kinematic" if n == 2 else "dynamic"
    dt = rows[0][-1]
    for row, at in zip(rows, where):
        if row[-1] != dt:
            raise ValueError(f"{at} has dt {row[-1]} after {dt}: the table mixes control periods")
    for prev, row, at in zip(rows, rows[1:], where[1:]):
        if not row[0] > prev[0]:
            raise ValueError(f"{at} has speed {row[0]} after {prev[0]}: speeds must be ascending")
    speeds = np.array([row[0] for row in rows])
    try:
        gains = certify(model, [row[1:-1] for row in rows], speeds, p, dt)
    except ValueError:
        for row, at in zip(rows, where):   # the first row that fails on its own
            try:
                certify(model, row[1:-1], row[0], p, dt)
            except ValueError as e:
                raise ValueError(f"{at}: {e}") from None
        raise
    return GainSchedule(speeds=speeds, gains=gains, dt=dt, model=model, params=p)
