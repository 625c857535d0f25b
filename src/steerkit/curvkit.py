"""Curvature from steering geometry, from heading/yaw-rate/speed, and Kalman fusion.

The steering-derived (Ackermann) source is quantized but unbiased; the
differential source is noisy at low speed.  A scalar random-walk Kalman
filter (`kf_step`) fuses both.  The curvature functions accept scalars or
numpy arrays.  Python floats (the simulator's per-tick calls) skip the
array conversions and guards; they go through the same numpy ufunc for
every elementary function, so they give the bits a 0-d array gives.  One
rule (`differential_sample`) governs the differential source everywhere:
at v >= MIN_CURVATURE_SPEED it is evaluated at the heading, or at heading
0 (the sample-aligned frame, exact since the formula collapses to
psi_dot / v) when |cos psi| < MIN_COS_HEADING; below the speed guard there
is no measurement and the value holds the last one."""

from __future__ import annotations

import math

import numpy as np

MIN_CURVATURE_SPEED = 0.5
MIN_COS_HEADING = 0.05

# Filter defaults: the estimate starts at zero curvature with a wide
# variance; q_process is the random-walk intensity ((1/m)^2 per second).
# The steering channel is coarse but steady (low-resolution CAN
# measurement); the yaw-rate channel is clean at speed but noisy near zero,
# so its variance is scaled by 1/v^2 at use sites.
INITIAL_KAPPA = 0.0
INITIAL_VARIANCE = 1e-2
DEFAULT_Q_PROCESS = 1e-6
DEFAULT_R_ACKERMANN = 4e-6
DEFAULT_R_DIFFERENTIAL = 1e-4


def ackermann_curvature(delta, wheelbase: float):
    """Curvature from the steering angle: tan(delta) / L."""
    if isinstance(delta, float):
        singular = abs(delta) >= math.pi / 2
    else:
        delta = np.asarray(delta, dtype=float)
        singular = np.any(np.abs(delta) >= math.pi / 2)
    if singular:
        raise ValueError("steer angle at/beyond the pi/2 tangent singularity")
    out = np.tan(delta) / wheelbase
    return float(out) if out.ndim == 0 else out


def feedforward_steer(kappa, wheelbase: float):
    """Steering angle tracking curvature kappa: atan(kappa * L), the exact
    inverse of ackermann_curvature; the steering law adds it to the feedback
    and clamps the sum to max_steer."""
    if not isinstance(kappa, float):
        kappa = np.asarray(kappa, dtype=float)
    out = np.arctan(kappa * wheelbase)
    return float(out) if out.ndim == 0 else out


def differential_curvature(psi, psi_dot, v):
    """Curvature from heading, yaw rate, and speed via the plane-curve formula.

    Evaluates kappa = Y'' / (1 + Y'^2)^(3/2) with Y' = tan(psi) and
    Y'' = psi_dot / (|v cos(psi)| cos(psi)^2).  The chain collapses
    algebraically to psi_dot / v; the full expression is evaluated so the
    simplification stays a testable property rather than an assumption.

    Guards: v >= 0.5 m/s and |cos(psi)| >= 0.05.  Near the heading
    singularity callers must rotate the frame or fall back to the
    Ackermann source.
    """
    scalar = isinstance(psi, float) and isinstance(psi_dot, float) and isinstance(v, float)
    if not scalar:
        psi, psi_dot, v = (np.asarray(a, dtype=float) for a in (psi, psi_dot, v))
    any_of = bool if scalar else np.any
    if any_of(v < MIN_CURVATURE_SPEED):
        raise ValueError(f"speed below the {MIN_CURVATURE_SPEED} m/s guard")
    cos_psi = np.cos(psi)
    if any_of(np.abs(cos_psi) < MIN_COS_HEADING):
        raise ValueError("heading too close to +-pi/2; rotate the frame first")
    y1 = np.tan(psi)
    y2 = psi_dot / (np.abs(v * cos_psi) * cos_psi**2)
    out = y2 / (1.0 + y1**2) ** 1.5
    return float(out) if out.ndim == 0 else out


def differential_sample(psi, psi_dot, v, held: float = 0.0):
    """Differential curvature under the one heading and speed rule.

    Where v >= MIN_CURVATURE_SPEED the sample is a measurement, evaluated
    at heading psi, or at heading 0 where |cos psi| < MIN_COS_HEADING.
    Elsewhere the value holds the series' last measurement (held before
    the first).  Takes scalars or 1-D arrays; returns (kappa, valid).
    """
    if isinstance(psi, float) and isinstance(psi_dot, float) and isinstance(v, float):
        if not v >= MIN_CURVATURE_SPEED:
            return float(held), False
        if not (abs(psi) < math.inf and abs(np.cos(psi)) >= MIN_COS_HEADING):   # cos(inf) is NaN
            psi = 0.0
        return differential_curvature(psi, psi_dot, v), True
    psi, psi_dot, v = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (psi, psi_dot, v)))
    valid = v >= MIN_CURVATURE_SPEED
    psi = np.where(np.abs(np.cos(psi)) >= MIN_COS_HEADING, psi, 0.0)
    if psi.ndim == 0:
        return (differential_curvature(psi, psi_dot, v) if valid else float(held)), bool(valid)
    kappa = np.zeros(len(psi))
    kappa[valid] = differential_curvature(psi[valid], psi_dot[valid], v[valid])
    last = np.maximum.accumulate(np.where(valid, np.arange(len(psi)), -1))
    return np.where(last >= 0, kappa[last], float(held)), valid


def kf_step(kappa: float, p: float, q_step: float, z_ack: float | None, r_ack: float,
            z_diff: float | None, r_diff: float) -> tuple[float, float]:
    """One filter cycle on floats: random-walk predict by q_step = q_process * dt
    (positive, else ValueError), then the Ackermann update, then the differential
    update.  A measurement given as None is skipped.  Returns the posterior (kappa, p).
    """
    if not q_step > 0:
        raise ValueError(f"per-cycle process noise q_step must be positive, got {q_step}")
    p = p + q_step
    for z, r in ((z_ack, r_ack), (z_diff, r_diff)):
        if z is None:
            continue
        gain = p / (p + r)
        kappa = kappa + gain * (z - kappa)
        p = (1.0 - gain) * p
    return kappa, p


def curvature_series(t, steer, psi, yaw_rate, speed, wheelbase: float):
    """Ackermann, differential and fused curvature arrays of a recorded log.

    Both sources are evaluated vectorized, then the filter with the
    module's default constants runs `kf_step` per sample: the step is the
    timestamp difference floored at 1e-6 s (1e-3 s first) and the
    differential variance DEFAULT_R_DIFFERENTIAL / max(v, MIN_CURVATURE_SPEED)^2.
    """
    t = np.asarray(t, dtype=float)
    ka = np.asarray(ackermann_curvature(steer, wheelbase), dtype=float)
    kd, valid = differential_sample(psi, yaw_rate, speed)
    dt = np.concatenate(([1e-3], np.maximum(np.diff(t), 1e-6)))
    q_step = DEFAULT_Q_PROCESS * dt
    with np.errstate(over="ignore"):   # a square past the float range gives r_diff 0
        r_diff = DEFAULT_R_DIFFERENTIAL / np.maximum(speed, MIN_CURVATURE_SPEED) ** 2
    fused = np.empty(len(t))
    kappa, p = INITIAL_KAPPA, INITIAL_VARIANCE
    for i, (q, za, zd, ok, rd) in enumerate(zip(q_step.tolist(), ka.tolist(), kd.tolist(),
                                                 valid.tolist(), r_diff.tolist())):
        kappa, p = kf_step(kappa, p, q, za, DEFAULT_R_ACKERMANN, zd if ok else None, rd)
        fused[i] = kappa
    return ka, kd, fused

