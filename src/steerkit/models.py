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

import numpy as np

from .numkit import StateSpace

# Below this longitudinal speed the linear tire model divides by ~zero and
# is physically meaningless; callers must switch to the kinematic model.
MIN_DYNAMIC_SPEED = 0.5

# Slip angles beyond ~10 degrees leave the linear cornering-stiffness region.
SMALL_ANGLE_LIMIT = 0.17


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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_steer >= math.pi / 2:
            raise ValueError("max_steer must be below pi/2")

    @property
    def wheelbase(self) -> float:
        return self.lf + self.lr


@dataclass(frozen=True)
class Pose:
    """Planar configuration (X east, Y north, heading psi)."""

    x: float
    y: float
    psi: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.psi)):
            raise ValueError("pose entries must be finite")
        object.__setattr__(self, "psi", wrap_angle(self.psi))


@dataclass(frozen=True)
class ControlInput:
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


def kinematic_derivative(state, u: ControlInput, p: VehicleParams) -> tuple[float, float, float]:
    """Rear-axle kinematic bicycle: (dX, dY, dpsi) of the state (X, Y, psi).

    dX = v cos(psi), dY = v sin(psi), dpsi = (v / L) tan(delta).
    """
    if abs(u.delta) >= math.pi / 2:
        raise ValueError(f"steer angle {u.delta} at/beyond tangent singularity pi/2")
    _, _, psi = state
    return (
        u.v * math.cos(psi),
        u.v * math.sin(psi),
        u.v / p.wheelbase * math.tan(u.delta),
    )


def dynamic_derivative(state, u: ControlInput, p: VehicleParams) -> tuple[float, ...]:
    """Linear-tire single track: derivative of the state (X, Y, psi, vy, r).

    vy is the body-frame lateral velocity at the CoG and r the yaw rate;
    the longitudinal speed vx = u.v is held.
    """
    _, _, psi, vy, r = state
    vx = u.v
    fyf = 2.0 * p.caf * (u.delta - (vy + p.lf * r) / vx)
    fyr = -2.0 * p.car * (vy - p.lr * r) / vx
    return (
        vx * math.cos(psi) - vy * math.sin(psi),
        vx * math.sin(psi) + vy * math.cos(psi),
        r,
        (fyf + fyr) / p.m - vx * r,
        (p.lf * fyf - p.lr * fyr) / p.iz,
    )


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
    if vx <= MIN_DYNAMIC_SPEED:
        raise ValueError(
            f"vx={vx} m/s is at/below the {MIN_DYNAMIC_SPEED} m/s guard; use the kinematic model"
        )
    return SlipAngles(
        beta=s.y_dot / vx,
        beta_f=(s.y_dot + p.lf * s.psi_dot) / vx,
        beta_r=(s.y_dot - p.lr * s.psi_dot) / vx,
    )


def _lateral_coefficients(vx: float, p: VehicleParams) -> tuple[float, float, float, float, float, float]:
    a22 = -2.0 * (p.caf + p.car) / (p.m * vx)
    a24 = -vx - 2.0 * (p.caf * p.lf - p.car * p.lr) / (p.m * vx)
    a42 = -2.0 * (p.lf * p.caf - p.lr * p.car) / (p.iz * vx)
    a44 = -2.0 * (p.lf**2 * p.caf + p.lr**2 * p.car) / (p.iz * vx)
    b2 = 2.0 * p.caf / p.m
    b4 = 2.0 * p.lf * p.caf / p.iz
    return a22, a24, a42, a44, b2, b4


def dynamic_matrices(vx: float, p: VehicleParams) -> StateSpace:
    """Continuous-time lateral dynamics on (y, y_dot, psi, psi_dot), input delta.

    Rows follow the scalar lateral-force and yaw-moment balances; the two
    integrator rows couple y -> y_dot and psi -> psi_dot.  Full-state output.
    """
    if vx <= MIN_DYNAMIC_SPEED:
        raise ValueError(
            f"vx={vx} m/s is at/below the {MIN_DYNAMIC_SPEED} m/s guard; use the kinematic model"
        )
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
    return StateSpace(A=a, B=b, C=np.eye(4), dt=0.0)


def error_dynamics_matrices(vx: float, p: VehicleParams) -> tuple[StateSpace, np.ndarray]:
    """Error-coordinate dynamics on (e_y, e_y_dot, e_psi, e_psi_dot).

    Obtained from the body-frame model by substituting
    y_dot = e_y_dot - vx e_psi and psi_dot = e_psi_dot + psi_dot_d, which
    moves slip-force coupling onto the heading-error column; without that
    coupling the pair (A, B) is unstabilizable (two decoupled marginal
    modes against one steering input) and no regulator exists.  B is
    unchanged.  The second return value is the disturbance column
    multiplying the desired yaw rate psi_dot_d = vx * kappa.
    """
    if vx <= MIN_DYNAMIC_SPEED:
        raise ValueError(
            f"vx={vx} m/s is at/below the {MIN_DYNAMIC_SPEED} m/s guard; use the kinematic model"
        )
    a22, _, a42, a44, b2, b4 = _lateral_coefficients(vx, p)
    a23 = 2.0 * (p.caf + p.car) / p.m
    a24 = -2.0 * (p.caf * p.lf - p.car * p.lr) / (p.m * vx)
    a43 = 2.0 * (p.lf * p.caf - p.lr * p.car) / p.iz
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, a22, a23, a24],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, a42, a43, a44],
        ]
    )
    b = np.array([[0.0], [b2], [0.0], [b4]])
    disturbance = np.array([[0.0], [a24 - vx], [0.0], [a44]])
    return StateSpace(A=a, B=b, C=np.eye(4), dt=0.0), disturbance


def kinematic_error_model(v: float, wheelbase: float) -> StateSpace:
    """Linearized kinematic error model on (e_y, e_psi), input steer feedback.

    A = [[0, v], [0, 0]], B = [0, v/L]^T: the tangent-frame linearization
    of the bicycle kinematics about the reference path.
    """
    if v <= 0:
        raise ValueError("speed must be > 0")
    if wheelbase <= 0:
        raise ValueError("wheelbase must be > 0")
    a = np.array([[0.0, v], [0.0, 0.0]])
    b = np.array([[0.0], [v / wheelbase]])
    return StateSpace(A=a, B=b, C=np.eye(2), dt=0.0)
