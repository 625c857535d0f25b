"""Independent oracles that the tests hold the program to.

No command runs these: they restate a model, a closed form or a per-item
rule the program computes in another way, so a test can compare the two.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from steerkit.lqr import GainSchedule, GainSet, certify
from steerkit.models import Pose, VehicleParams, check_dynamic_speed, kinematic_yaw_rate
from steerkit.numkit import StateSpace
from steerkit.pathkit import _lateral_profile


# ------------------------------------------------------------------ models

class ControlInput(NamedTuple):
    """Speed v (m/s) and road-wheel steering angle delta (rad), held over a step."""

    v: float
    delta: float


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


def generic_rk4(deriv, state, u, dt):
    """Classical 4th-order Runge-Kutta step with the input held constant: the
    oracle the fused model steps must equal bit for bit."""
    h = 0.5 * dt
    k1 = deriv(state, u)
    k2 = deriv([x + h * k for x, k in zip(state, k1)], u)
    k3 = deriv([x + h * k for x, k in zip(state, k2)], u)
    k4 = deriv([x + dt * k for x, k in zip(state, k3)], u)
    c = dt / 6.0
    return tuple(x + c * (a + 2.0 * b + 2.0 * g + d)
                 for x, a, b, g, d in zip(state, k1, k2, k3, k4))


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


def lateral_coefficients(vx: float, p: VehicleParams) -> tuple[float, ...]:
    """a22, a24, a42, a44, b2, b4 of the single-track model at speed vx, in the
    float operations models.error_dynamics_matrices uses."""
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
    a22, a24, a42, a44, b2, b4 = lateral_coefficients(vx, p)
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


def curvature_disturbance(vx: float, p: VehicleParams) -> np.ndarray:
    """The column of the error dynamics (e_y, e_y_dot, e_psi, e_psi_dot) that
    multiplies the desired yaw rate psi_dot_d = vx * kappa: (0, a24 - vx, 0,
    a44) with the error model's a24 and a44.  The body frame's a24 already
    holds the -vx, so the column is its (a24, a44), bit for bit."""
    _, a24, _, a44, _, _ = lateral_coefficients(vx, p)
    return np.array([[0.0], [a24], [0.0], [a44]])


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


# ----------------------------------------------------------- curvature, paths

def kf_steady_state_variance(q_step: float, variances: tuple[float, ...]) -> float:
    """Closed-form steady-state posterior variance of the scalar filter.

    q_step is the per-cycle process noise (q_process * dt); variances are
    the per-cycle measurement variances applied sequentially.  Solves the
    fixed point p = update(p + q_step) by bisection; used as the
    independent oracle for the fusion tests.
    """
    if q_step <= 0 or any(r <= 0 for r in variances):
        raise ValueError("noise parameters must be positive")

    def cycle(p: float) -> float:
        p = p + q_step
        for r in variances:
            p = p * r / (p + r)
        return p

    lo, hi = 0.0, q_step + max(variances)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cycle(mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def profile_curvature(kind: str, x: np.ndarray, length: float, offset: float) -> np.ndarray:
    """Analytic curvature of a lateral-profile path at longitudinal positions x."""
    _, dy, ddy = _lateral_profile(kind, np.asarray(x, dtype=float), length, offset)
    return ddy / (1.0 + dy**2) ** 1.5


# ------------------------------------------------------------------- gains

def lookup(schedule: GainSchedule, v: float) -> GainSet:
    """The gain of `schedule` at speed v, certified: a designed GainSet as it
    is, an interpolated row certified against the model at v, one speed at
    a time (runs certify their off-grid rows in bulk)."""
    gain = schedule.gain(v)
    if isinstance(gain, GainSet):
        return gain
    return certify(schedule.model, gain, float(v), schedule.params, schedule.dt)
