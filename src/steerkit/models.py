"""Vehicle models: kinematic bicycle, linear single-track dynamics, error dynamics.

The kinematic model is referenced to the rear axle center.  The dynamic
model is the classical linear single-track (bicycle) lumping: per-tire
cornering stiffnesses with the factor 2 applied in the force balance,
small slip angles, constant longitudinal speed, friction folded into the
stiffness values.  Each plant is one fused RK4 step on floats
(`kinematic_step`, `dynamic_step`); `error_dynamics_matrices` is the
path-relative linear model the dynamic gains are designed on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import SimulationError
from .numkit import StateSpace

# Below this longitudinal speed the linear tire model divides by ~zero and
# is physically meaningless; callers must switch to the kinematic model.
MIN_DYNAMIC_SPEED = 0.5


def check_dynamic_speed(vx: float, where: str = "") -> None:
    """Raise ValueError when vx is at/below MIN_DYNAMIC_SPEED; `where` says
    what the speed is in the message."""
    if not vx > MIN_DYNAMIC_SPEED:  # NaN fails too
        raise ValueError(f"vx={vx} m/s{where} is at/below the {MIN_DYNAMIC_SPEED} m/s guard; "
                         "use the kinematic model")


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


@dataclass(frozen=True)
class VehicleParams:
    """Mass, geometry and tire parameters shared by both models.

    caf/car are per-tire cornering stiffnesses; the axle-pair factor 2
    appears explicitly in the model equations.
    """

    m: float = 1500.0       # kg
    iz: float = 3000.0      # kg m^2
    lf: float = 1.2         # m, CoG to front axle
    lr: float = 1.5         # m, CoG to rear axle
    caf: float = 60000.0    # N/rad
    car: float = 60000.0    # N/rad
    max_steer: float = 0.6  # rad

    def __post_init__(self):
        for name in ("m", "iz", "lf", "lr", "caf", "car", "max_steer"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.max_steer >= math.pi / 2:
            raise ValueError("max_steer must be below pi/2")

    @cached_property
    def wheelbase(self) -> float:
        """lf + lr, computed once: the loop reads it on every step."""
        return self.lf + self.lr


class Pose(NamedTuple("Pose", [("x", float), ("y", float), ("psi", float)])):
    """Planar configuration (X east, Y north, heading psi wrapped to (-pi, pi]).

    A tuple, cheap enough for the simulator to build one per step.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, psi: float):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(psi)):
            raise ValueError("pose entries must be finite")
        return tuple.__new__(cls, (x, y, wrap_angle(psi)))


class ControlInput(NamedTuple):
    """Speed command v (m/s) and road-wheel steering angle delta (rad)."""

    v: float
    delta: float


@dataclass(frozen=True)
class ErrorState:
    """Path-relative states: e_y, e_y_dot, e_psi, e_psi_dot."""

    e_y: float
    e_y_dot: float
    e_psi: float
    e_psi_dot: float

    def as_array(self) -> np.ndarray:
        return np.array([self.e_y, self.e_y_dot, self.e_psi, self.e_psi_dot])


def kinematic_yaw_rate(v: float, delta: float, p: VehicleParams) -> float:
    """Heading rate of the kinematic bicycle: (v / L) tan(delta)."""
    if abs(delta) >= math.pi / 2:
        raise ValueError(f"steer angle {delta} at/beyond tangent singularity pi/2")
    return v / p.wheelbase * math.tan(delta)


def kinematic_step(state, v: float, delta: float, dt: float, p: VehicleParams,
                   w: float | None = None) -> tuple:
    """One classical RK4 step of the rear-axle kinematic bicycle on the
    state (X, Y, psi) with the input held: dX = v cos(psi), dY = v sin(psi),
    dpsi = w = (v / L) tan(delta).  Each stage evaluates these expressions in
    that order, so the step is bit-equal to generic RK4 on them.  w does not
    depend on the state, so stages 2 and 3 are equal: one tan and three
    cos/sin pairs.  A caller that has w = kinematic_yaw_rate(v, delta, p)
    passes it.  Raises ValueError for dt <= 0 or |delta| >= pi/2 and
    SimulationError when the result is not finite."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, psi = state
    if w is None:
        w = kinematic_yaw_rate(v, delta, p)
    psi_h, psi_e = psi + 0.5 * dt * w, psi + dt * w
    a, b, c = v * math.cos(psi_h), v * math.sin(psi_h), dt / 6.0
    x = x + c * (v * math.cos(psi) + 2.0 * a + 2.0 * a + v * math.cos(psi_e))
    y = y + c * (v * math.sin(psi) + 2.0 * b + 2.0 * b + v * math.sin(psi_e))
    psi = psi + c * (w + 2.0 * w + 2.0 * w + w)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(psi)):
        raise SimulationError("non-finite state after integration step")
    return x, y, psi


def dynamic_step(state, vx: float, delta: float, dt: float, p: VehicleParams) -> tuple:
    """One RK4 step of the linear-tire single track on the state
    (X, Y, psi, vy, r) at held speed vx, bit-equal as in kinematic_step:
    with fyf = 2 caf (delta - (vy + lf r) / vx) and
    fyr = -2 car (vy - lr r) / vx, dX = vx cos(psi) - vy sin(psi),
    dY = vx sin(psi) + vy cos(psi), dpsi = r, dvy = (fyf + fyr) / m - vx r
    and dr = (lf fyf - lr fyr) / iz.  vy is the body-frame lateral velocity
    at the CoG and r the yaw rate.  The leading 2 caf and -2 car, which
    Python evaluates first anyway, are hoisted.  The four stages (dX, dY,
    dvy, dr at the stage's psi, vy and r) are written out, each in the same
    expression order.  No steer check: the tire model has no tan."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, psi, vy, r = state
    lf, lr, m, iz, cf, cr = p.lf, p.lr, p.m, p.iz, 2.0 * p.caf, -2.0 * p.car
    cos, sin, h = math.cos, math.sin, 0.5 * dt

    co, si = cos(psi), sin(psi)
    f, g = cf * (delta - (vy + lf * r) / vx), cr * (vy - lr * r) / vx
    x1, y1 = vx * co - vy * si, vx * si + vy * co
    v1, w1 = (f + g) / m - vx * r, (lf * f - lr * g) / iz
    ps, vs, r2 = psi + h * r, vy + h * v1, r + h * w1
    co, si = cos(ps), sin(ps)
    f, g = cf * (delta - (vs + lf * r2) / vx), cr * (vs - lr * r2) / vx
    x2, y2 = vx * co - vs * si, vx * si + vs * co
    v2, w2 = (f + g) / m - vx * r2, (lf * f - lr * g) / iz
    ps, vs, r3 = psi + h * r2, vy + h * v2, r + h * w2
    co, si = cos(ps), sin(ps)
    f, g = cf * (delta - (vs + lf * r3) / vx), cr * (vs - lr * r3) / vx
    x3, y3 = vx * co - vs * si, vx * si + vs * co
    v3, w3 = (f + g) / m - vx * r3, (lf * f - lr * g) / iz
    ps, vs, r4 = psi + dt * r3, vy + dt * v3, r + dt * w3
    co, si = cos(ps), sin(ps)
    f, g = cf * (delta - (vs + lf * r4) / vx), cr * (vs - lr * r4) / vx
    x4, y4 = vx * co - vs * si, vx * si + vs * co
    v4, w4 = (f + g) / m - vx * r4, (lf * f - lr * g) / iz
    c = dt / 6.0
    out = (x + c * (x1 + 2.0 * x2 + 2.0 * x3 + x4), y + c * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
           psi + c * (r + 2.0 * r2 + 2.0 * r3 + r4), vy + c * (v1 + 2.0 * v2 + 2.0 * v3 + v4),
           r + c * (w1 + 2.0 * w2 + 2.0 * w3 + w4))
    if not all(map(math.isfinite, out)):
        raise SimulationError("non-finite state after integration step")
    return out


def error_dynamics_matrices(vx, p: VehicleParams) -> tuple[StateSpace, np.ndarray]:
    """Error-coordinate dynamics on (e_y, e_y_dot, e_psi, e_psi_dot).

    Obtained from the body-frame model by substituting
    y_dot = e_y_dot - vx e_psi and psi_dot = e_psi_dot + psi_dot_d, which
    moves slip-force coupling onto the heading-error column; without that
    coupling the pair (A, B) is unstabilizable (two decoupled marginal
    modes against one steering input) and no regulator exists.  B is
    unchanged.  The second return value is the disturbance column
    multiplying the desired yaw rate psi_dot_d = vx * kappa.  An array of
    speeds gives stacks, one item per speed; the first speed at or below
    the guard raises.
    """
    for v in np.ravel(vx).tolist():
        check_dynamic_speed(v)
    vx = np.asarray(vx, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        a22 = -2.0 * (p.caf + p.car) / (p.m * vx)
        a23 = 2.0 * (p.caf + p.car) / p.m
        a24 = -2.0 * (p.caf * p.lf - p.car * p.lr) / (p.m * vx)
        a42 = -2.0 * (p.lf * p.caf - p.lr * p.car) / (p.iz * vx)
        a43 = 2.0 * (p.lf * p.caf - p.lr * p.car) / p.iz
        try:
            yaw_stiffness = p.lf**2 * p.caf + p.lr**2 * p.car
        except OverflowError:   # float ** raises where the square passes the float range
            yaw_stiffness = math.inf
        a44 = -2.0 * yaw_stiffness / (p.iz * vx)
        b2 = 2.0 * p.caf / p.m
        b4 = 2.0 * p.lf * p.caf / p.iz
    a = np.zeros(vx.shape + (4, 4))
    a[..., 0, 1] = a[..., 2, 3] = 1.0
    a[..., 1, 1], a[..., 1, 2], a[..., 1, 3] = a22, a23, a24
    a[..., 3, 1], a[..., 3, 2], a[..., 3, 3] = a42, a43, a44
    b = np.zeros(vx.shape + (4, 1))
    b[..., 1, 0], b[..., 3, 0] = b2, b4
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(f"the dynamic model of {p} is not finite")
    disturbance = np.zeros(vx.shape + (4, 1))
    disturbance[..., 1, 0], disturbance[..., 3, 0] = a24 - vx, a44
    return StateSpace(a, b), disturbance
