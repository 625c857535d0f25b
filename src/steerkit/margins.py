"""Frequency response of designed loops and gain/phase margin extraction.

The loop is broken at the plant input: L(z) = k (zI - Ad)^-1 Bd evaluated
on the unit circle z = exp(j w dt).  Gain margin is 1/|L| at the -180 deg
phase crossover; phase margin is 180 deg plus the phase at the unity-gain
crossover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import StateSpace

DEFAULT_GRID_POINTS = 400
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class FreqResponse:
    """Loop response samples: rad/s grid, magnitude in dB, unwrapped phase in deg."""

    omegas: np.ndarray
    mag_db: np.ndarray
    phase_deg: np.ndarray

    def __post_init__(self):
        if not (len(self.omegas) == len(self.mag_db) == len(self.phase_deg)):
            raise ValueError("grid and response lengths differ")


@dataclass(frozen=True)
class MarginReport:
    """Stability margins; gm is a ratio (math.inf when no phase crossover),
    pm in degrees (None when the loop never reaches unity gain)."""

    gm: float
    gm_freq: float | None
    pm: float | None
    pm_freq: float | None
    multiple_crossings: bool = False

    def to_dict(self) -> dict:
        return {
            "gm": None if math.isinf(self.gm) else self.gm,
            "gm_db": None if math.isinf(self.gm) else 20.0 * math.log10(self.gm),
            "gm_freq": self.gm_freq,
            "pm": self.pm,
            "pm_freq": self.pm_freq,
            "gm_infinite": math.isinf(self.gm),
            "pm_defined": self.pm is not None,
            "multiple_crossings": self.multiple_crossings,
        }


def default_grid(dt: float, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Logarithmic frequency grid over [1e-2, 0.99 pi/dt] rad/s."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return np.logspace(math.log10(1e-2), math.log10(0.99 * math.pi / dt), points)


def loop_response(sys: StateSpace, k, omegas) -> FreqResponse:
    """Evaluate the state-feedback loop transfer on the unit circle.

    k is a gain row or has one as .k.  Phase is unwrapped by nearest-multiple
    continuity from the first grid point.  (zI - Ad) x = b is solved over the
    grid at once, b a column per point (the one b shape numpy 1.x and 2.x read
    alike); z = 1, the only pole on the unit circle, lies outside every grid.
    """
    if not sys.is_discrete:
        raise ValueError("loop_response needs a discrete-time model")
    krow = np.asarray(getattr(k, "k", k), dtype=float).reshape(-1)
    if len(krow) != sys.n_states:
        raise ValueError(f"gain row has {len(krow)} entries, model has {sys.n_states} states")
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas <= 0) or np.any(omegas >= math.pi / sys.dt):
        raise ValueError("frequencies must lie in (0, pi/dt)")

    z = np.exp(1j * omegas * sys.dt)
    b = np.broadcast_to(sys.B[:, :1], (len(z), sys.n_states, 1))
    x = np.linalg.solve(z[:, None, None] * np.eye(sys.n_states) - sys.A, b)[:, :, 0]
    values = np.array([krow @ xi for xi in x], dtype=complex)  # x @ krow rounds differently
    mag_db = 20.0 * np.log10(np.abs(values))
    phase_deg = np.degrees(np.unwrap(np.angle(values)))
    return FreqResponse(omegas=omegas, mag_db=mag_db, phase_deg=phase_deg)


def _crossings(xgrid: np.ndarray, f: np.ndarray, g: np.ndarray) -> list[tuple[float, float]]:
    """Linear-interpolated (x, g) points where f crosses zero."""
    out = []
    for i in range(len(f) - 1):
        a, b = f[i], f[i + 1]
        if a == 0.0:
            out.append((float(xgrid[i]), float(g[i])))
        elif a * b < 0.0:
            w = a / (a - b)
            out.append((
                float(xgrid[i] + w * (xgrid[i + 1] - xgrid[i])),
                float(g[i] + w * (g[i + 1] - g[i])),
            ))
    if len(f) and f[-1] == 0.0:
        out.append((float(xgrid[-1]), float(g[-1])))
    return out


def compute_margins(fr: FreqResponse) -> MarginReport:
    """Extract worst-case gain and phase margins from a frequency response.

    With several crossovers the smallest margin is reported and the
    multiplicity flagged.  No -180 deg crossing means infinite gain
    margin; no 0 dB crossing leaves the phase margin undefined.
    """
    if len(fr.omegas) == 0:
        raise ValueError("empty frequency response")
    finite = np.isfinite(fr.mag_db)
    omegas, mag_db, phase = fr.omegas[finite], fr.mag_db[finite], fr.phase_deg[finite]
    if len(omegas) < 2:
        raise ValueError("not enough finite response points")

    phase_cross = _crossings(omegas, phase + 180.0, mag_db)
    gain_cross = _crossings(omegas, mag_db, phase)

    if phase_cross:
        gains = [10.0 ** (-m / 20.0) for _, m in phase_cross]
        idx = int(np.argmin(gains))
        gm, gm_freq = gains[idx], phase_cross[idx][0]
    else:
        gm, gm_freq = math.inf, None

    if gain_cross:
        pms = [180.0 + ph for _, ph in gain_cross]
        idx = int(np.argmin(pms))
        pm, pm_freq = pms[idx], gain_cross[idx][0]
    else:
        pm, pm_freq = None, None

    return MarginReport(
        gm=gm, gm_freq=gm_freq, pm=pm, pm_freq=pm_freq,
        multiple_crossings=len(phase_cross) > 1 or len(gain_cross) > 1,
    )
