"""Vehicle models: kinematic bicycle, linear single-track dynamics, error dynamics.

The kinematic model is referenced to the rear axle center.  The dynamic
model is the classical linear single-track (bicycle) lumping: per-tire
cornering stiffnesses with the factor 2 applied in the force balance,
small slip angles, constant longitudinal speed, friction folded into the
stiffness values.
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

# Slip angles beyond ~10 degrees leave the linear cornering-stiffness region.
SMALL_ANGLE_LIMIT = 0.17


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
class DynamicState:
    """Lateral states of the single-track model: y, y_dot, psi, psi_dot."""

    y: float
    y_dot: float
    psi: float
    psi_dot: float


@dataclass(frozen=True)
class ErrorState:
    """Path-relative states: e_y, e_y_dot, e_psi, e_psi_dot."""

    e_y: float
    e_y_dot: float
    e_psi: float
    e_psi_dot: float

    def as_array(self) -> np.ndarray:
        return np.array([self.e_y, self.e_y_dot, self.e_psi, self.e_psi_dot])


@dataclass(frozen=True)
class SlipAngles:
    """Side-slip angles at the CoG and both axles (linearized).

    small_angle is False when any angle leaves the linear tire region.
    """

    beta: float
    beta_f: float
    beta_r: float

    @property
    def small_angle(self) -> bool:
        return max(abs(self.beta), abs(self.beta_f), abs(self.beta_r)) <= SMALL_ANGLE_LIMIT


def kinematic_yaw_rate(v: float, delta: float, p: VehicleParams) -> float:
    """Heading rate of the kinematic bicycle: (v / L) tan(delta)."""
    if abs(delta) >= math.pi / 2:
        raise ValueError(f"steer angle {delta} at/beyond tangent singularity pi/2")
    return v / p.wheelbase * math.tan(delta)


def kinematic_derivative(state, u: ControlInput, p: VehicleParams) -> tuple[float, float, float]:
    """Rear-axle kinematic bicycle: (dX, dY, dpsi) of the state (X, Y, psi).

    dX = v cos(psi), dY = v sin(psi), dpsi = (v / L) tan(delta).
    """
    v, delta = u
    dpsi = kinematic_yaw_rate(v, delta, p)
    _, _, psi = state
    return v * math.cos(psi), v * math.sin(psi), dpsi


def dynamic_derivative(state, u: ControlInput, p: VehicleParams) -> tuple[float, ...]:
    """Linear-tire single track: derivative of the state (X, Y, psi, vy, r).

    vy is the body-frame lateral velocity at the CoG and r the yaw rate;
    the longitudinal speed vx = u.v is held.
    """
    _, _, psi, vy, r = state
    vx, delta = u
    fyf = 2.0 * p.caf * (delta - (vy + p.lf * r) / vx)
    fyr = -2.0 * p.car * (vy - p.lr * r) / vx
    return (
        vx * math.cos(psi) - vy * math.sin(psi),
        vx * math.sin(psi) + vy * math.cos(psi),
        r,
        (fyf + fyr) / p.m - vx * r,
        (p.lf * fyf - p.lr * fyr) / p.iz,
    )


def kinematic_step(state, v: float, delta: float, dt: float, p: VehicleParams,
                   w: float | None = None) -> tuple:
    """One classical RK4 step of kinematic_derivative with the input held,
    bit-equal to generic RK4: each stage evaluates the derivative's
    expressions in the same order.  w does not depend on the state, so
    stages 2 and 3 are equal: one tan and three cos/sin pairs.  A caller
    that has w = kinematic_yaw_rate(v, delta, p) passes it.  Raises
    ValueError for dt <= 0 or |delta| >= pi/2 and SimulationError when
    the result is not finite."""
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
    """One RK4 step of dynamic_derivative at held speed vx, bit-equal as in
    kinematic_step; the leading 2 caf and -2 car, which Python evaluates
    first anyway, are hoisted.  No steer check: the tire model has no tan."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, psi, vy, r = state
    lf, lr, m, iz, cf, cr = p.lf, p.lr, p.m, p.iz, 2.0 * p.caf, -2.0 * p.car
    cos, sin, h = math.cos, math.sin, 0.5 * dt

    def rates(psi, vy, r):  # dynamic_derivative's dX, dY, dvy, dr
        co, si = cos(psi), sin(psi)
        f, g = cf * (delta - (vy + lf * r) / vx), cr * (vy - lr * r) / vx
        return vx * co - vy * si, vx * si + vy * co, (f + g) / m - vx * r, (lf * f - lr * g) / iz

    x1, y1, v1, w1 = rates(psi, vy, r)
    x2, y2, v2, w2 = rates(psi + h * r, vy + h * v1, r2 := r + h * w1)
    x3, y3, v3, w3 = rates(psi + h * r2, vy + h * v2, r3 := r + h * w2)
    x4, y4, v4, w4 = rates(psi + dt * r3, vy + dt * v3, r4 := r + dt * w3)
    c = dt / 6.0
    out = (x + c * (x1 + 2.0 * x2 + 2.0 * x3 + x4), y + c * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
           psi + c * (r + 2.0 * r2 + 2.0 * r3 + r4), vy + c * (v1 + 2.0 * v2 + 2.0 * v3 + v4),
           r + c * (w1 + 2.0 * w2 + 2.0 * w3 + w4))
    if not all(map(math.isfinite, out)):
        raise SimulationError("non-finite state after integration step")
    return out


def front_axle_pose(pose: Pose, p: VehicleParams) -> tuple[float, float]:
    """Front axle center position from the rear-axle pose."""
    return (
        pose.x + p.wheelbase * math.cos(pose.psi),
        pose.y + p.wheelbase * math.sin(pose.psi),
    )


def pfaffian_residuals(
    pose: Pose,
    vel: tuple[float, float, float],
    u: ControlInput,
    p: VehicleParams,
) -> tuple[float, float]:
    """Rolling-without-slipping constraint residuals at the rear and front axles.

    r_rear  = dX sin(psi) - dY cos(psi)
    r_front = dX sin(psi+delta) - dY cos(psi+delta) - dpsi L cos(delta)

    Both vanish for velocities produced by kinematic_derivative.  The front
    residual uses the cos(delta) form obtained by substituting the front
    axle position into the front no-slip constraint.
    """
    dx, dy, dpsi = vel
    r_rear = dx * math.sin(pose.psi) - dy * math.cos(pose.psi)
    ang = pose.psi + u.delta
    r_front = dx * math.sin(ang) - dy * math.cos(ang) - dpsi * p.wheelbase * math.cos(u.delta)
    return r_rear, r_front


def slip_angles(s: DynamicState, vx: float, p: VehicleParams) -> SlipAngles:
    """Linearized side-slip angles at CoG, front and rear axles."""
    check_dynamic_speed(vx)
    return SlipAngles(
        beta=s.y_dot / vx,
        beta_f=(s.y_dot + p.lf * s.psi_dot) / vx,
        beta_r=(s.y_dot - p.lr * s.psi_dot) / vx,
    )


def _lateral_coefficients(vx: float, p: VehicleParams) -> tuple[float, float, float, float, float, float]:
    a22 = -2.0 * (p.caf + p.car) / (p.m * vx)
    a24 = -vx - 2.0 * (p.caf * p.lf - p.car * p.lr) / (p.m * vx)
    a42 = -2.0 * (p.lf * p.caf - p.lr * p.car) / (p.iz * vx)
    try:
        yaw_stiffness = p.lf**2 * p.caf + p.lr**2 * p.car
    except OverflowError:   # float ** raises where the square passes the float range
        yaw_stiffness = math.inf
    a44 = -2.0 * yaw_stiffness / (p.iz * vx)
    b2 = 2.0 * p.caf / p.m
    b4 = 2.0 * p.lf * p.caf / p.iz
    return a22, a24, a42, a44, b2, b4


def dynamic_matrices(vx: float, p: VehicleParams) -> StateSpace:
    """Continuous-time lateral dynamics on (y, y_dot, psi, psi_dot), input delta.

    Rows follow the scalar lateral-force and yaw-moment balances; the two
    integrator rows couple y -> y_dot and psi -> psi_dot.
    """
    check_dynamic_speed(vx)
    a22, a24, a42, a44, b2, b4 = _lateral_coefficients(vx, p)
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, a22, 0.0, a24],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, a42, 0.0, a44],
        ]
    )
    b = np.array([[0.0], [b2], [0.0], [b4]])
    return StateSpace(a, b)


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
        a22, _, a42, a44, b2, b4 = _lateral_coefficients(vx, p)
        a23 = 2.0 * (p.caf + p.car) / p.m
        a24 = -2.0 * (p.caf * p.lf - p.car * p.lr) / (p.m * vx)
        a43 = 2.0 * (p.lf * p.caf - p.lr * p.car) / p.iz
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


def kinematic_error_model(v: float, wheelbase: float) -> StateSpace:
    """Linearized kinematic error model on (e_y, e_psi), input steer feedback.

    A = [[0, v], [0, 0]], B = [0, v/L]^T: the tangent-frame linearization
    of the bicycle kinematics about the reference path.
    """
    if not v > 0:
        raise ValueError("speed must be > 0")
    if wheelbase <= 0:
        raise ValueError("wheelbase must be > 0")
    a = np.array([[0.0, v], [0.0, 0.0]])
    b = np.array([[0.0], [v / wheelbase]])
    return StateSpace(a, b)
