"""Reference paths: analytic generators, recorded-log ingestion, projection, smoothing.

Sign conventions, fixed once and asserted by the test fixtures:
positive lateral error means the vehicle is left of the path; positive
curvature means a left turn.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from . import SimulationError
from .curvkit import ackermann_curvature, differential_sample
from .models import VehicleParams, Pose, wrap_angle
from .numkit import read_csv_table, read_input

RECORDED_COLUMNS = ("t", "X", "Y", "psi", "yaw_rate", "speed", "steer")

MAX_SPACING = 0.5
MAX_PATH_SAMPLES = 200_000   # samples of one path: 20 km at 0.1 m
DEFAULT_KAPPA_BOUND = 0.75   # 1/m, ~1/(0.5 L) for a mid-size wheelbase
HEADING_CONSISTENCY_TOL = 0.05
PROJECT_HORIZON = 50.0   # m, a pose farther than this from every sample is lost
PROJECT_WINDOW = 30.0    # m of arc ahead of the search memory (a fifth behind)
PROJECT_CHUNK = 32       # samples per box of RefPath._chunks
# a smoothing run at speed v designs its gains on 4 speeds from max(FLOOR, v/2)
# to min(CAP, 1.5 v + 1); that grid ascends, as build_schedule needs, while v/2 < CAP
SMOOTH_GRID_FLOOR, SMOOTH_GRID_CAP = 0.6, 29.0
SMOOTH_SPEED_LIMIT = 2.0 * SMOOTH_GRID_CAP
SMOOTH_SPACING = 0.25   # m between the samples of a smoothed path


class PathProjection(NamedTuple):
    """Projection of a pose onto a path: foot arc length and signed errors."""

    s: float
    e_y: float
    e_psi: float
    kappa: float


class RefPath:
    """Arc-length-indexed (position, heading, curvature) samples.

    Immutable after construction.  strict=True additionally enforces the
    heading-consistency and curvature sanity bounds, which generated and
    smoothed paths satisfy; raw recorded paths are ingested with
    strict=False and carry clipped curvature until smoothed.
    """

    def __init__(self, s, x, y, psi, kappa, closed: bool = False, strict: bool = True,
                 kappa_bound: float = DEFAULT_KAPPA_BOUND):
        self.s = np.asarray(s, dtype=float)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.psi = np.asarray(psi, dtype=float)
        self.kappa = np.asarray(kappa, dtype=float)
        self.closed = bool(closed)
        n = len(self.s)
        if n < 2:
            raise ValueError("a path needs at least two samples")
        for name in ("x", "y", "psi", "kappa"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"column {name} contains non-finite values")
        ds = np.diff(self.s)
        if np.any(ds <= 0):
            raise ValueError("arc length must be strictly increasing")
        if np.any(ds > MAX_SPACING + 1e-9):
            raise ValueError(f"sample spacing exceeds {MAX_SPACING} m; resample first")
        if strict:
            self._check_consistency(kappa_bound)
        for arr in (self.s, self.x, self.y, self.psi, self.kappa):
            arr.setflags(write=False)
        self.length = (self.s[-1] - self.s[0]).item()
        # where an open path ends and a closed path's search memory wraps (_memory)
        self.end_s = (self.s[-1] - 2.0 * ds.max()).item()
        # float lists of the frozen columns, for project's per-sample scalar reads
        self._lists = tuple(arr.tolist() for arr in (self.s, self.x, self.y, self.psi, self.kappa))
        # project's squared bracket widths by Python's float ** (libm's pow):
        # (s1 - s0) ** 2 of nearest sample i is entry i, (s1 - s2) ** 2 entry
        # i + 1, and 0.0 past either end, where the bracket is clamped
        self._widths2 = [0.0, *(w ** 2 for w in ds.tolist()), 0.0]
        self._widths2_array = np.array(self._widths2)
        # a pose outside this box is beyond the horizon from every sample; inside
        # it, project's squared distances stay in the float range
        self._box = (self.x.min().item() - PROJECT_HORIZON, self.x.max().item() + PROJECT_HORIZON,
                     self.y.min().item() - PROJECT_HORIZON, self.y.max().item() + PROJECT_HORIZON)
        # the x and y bounds of each run of PROJECT_CHUNK samples, which
        # pathbatch.project_run searches only where a pose may be nearest
        starts = np.arange(0, n, PROJECT_CHUNK)
        self._chunks = (PROJECT_CHUNK, *(f.reduceat(a, starts) for a in (self.x, self.y)
                                         for f in (np.minimum, np.maximum)))

    def _check_consistency(self, kappa_bound: float) -> None:
        if np.max(np.abs(self.kappa)) > kappa_bound + 1e-12:
            raise ValueError(f"curvature exceeds drivable bound {kappa_bound} 1/m")
        chord = np.arctan2(np.diff(self.y), np.diff(self.x))
        dpsi = np.diff(self.psi)
        dpsi = np.arctan2(np.sin(dpsi), np.cos(dpsi))
        mid = self.psi[:-1] + 0.5 * dpsi
        err = np.abs(np.arctan2(np.sin(chord - mid), np.cos(chord - mid)))
        if np.max(err) > HEADING_CONSISTENCY_TOL:
            raise ValueError(
                f"heading inconsistent with geometry (max {np.max(err):.3f} rad); path too rough"
            )

    def __len__(self) -> int:
        return len(self.s)


def _smoothstep(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quintic smoothstep and its first two derivatives on u in [0, 1]."""
    sig = ((6.0 * u - 15.0) * u + 10.0) * u**3
    d1 = 30.0 * u**2 * (1.0 - u) ** 2
    d2 = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)
    return sig, d1, d2


def _lateral_profile(kind: str, xs: np.ndarray, length: float, offset: float):
    """Lateral profile y(x) with analytic y' and y'' for lane_change / s_curve."""
    u = np.clip(xs / length, 0.0, 1.0)
    if kind == "lane_change":
        sig, d1, d2 = _smoothstep(u)
        return offset * sig, offset / length * d1, offset / length**2 * d2
    # s_curve: smoothstep out on the first half, mirrored back on the second
    w_out = np.clip(2.0 * u, 0.0, 1.0)
    w_back = np.clip(2.0 - 2.0 * u, 0.0, 1.0)
    first = u <= 0.5
    sig_o, d1_o, d2_o = _smoothstep(w_out)
    sig_b, d1_b, d2_b = _smoothstep(w_back)
    y = np.where(first, offset * sig_o, offset * sig_b)
    dy = np.where(first, 2.0 * offset / length * d1_o, -2.0 * offset / length * d1_b)
    ddy = np.where(first, 4.0 * offset / length**2 * d2_o, 4.0 * offset / length**2 * d2_b)
    return y, dy, ddy


def _check_samples(what: str, length: float, spacing: float) -> None:
    """Raise ValueError unless `length` m at `spacing` m, a finite span, takes
    at most MAX_PATH_SAMPLES samples."""
    if not length / spacing < MAX_PATH_SAMPLES:
        raise ValueError(f"{what} of {length:g} m at {spacing:g} m spacing needs more than "
                         f"{MAX_PATH_SAMPLES:,} samples")


def gen_path(kind: str, spacing: float = 0.1, **params) -> RefPath:
    """Generate an analytic reference path sampled at ~uniform arc length.

    kinds and parameters:
      line:        length, heading=0, x0=0, y0=0
      circle:      radius, arc_deg=360 (or arc_rad), direction='left'|'right',
                   x0=0, y0=0, heading=0, wheelbase=2.7 (drivability check)
      lane_change: length, offset, x0=0, y0=0
      s_curve:     length, offset, x0=0, y0=0

    Samples carry exact analytic heading and curvature.
    """
    if not (0.01 < spacing <= MAX_SPACING):
        raise ValueError(f"spacing must be in (0.01, {MAX_SPACING}]")
    reads = {"line": {"length", "heading"}, "lane_change": {"length", "offset"},
             "s_curve": {"length", "offset"},
             "circle": {"radius", "arc_deg", "arc_rad", "direction", "heading", "wheelbase"}}
    if kind not in reads:
        raise ValueError(f"unknown path kind {kind!r}")
    unknown = set(params) - reads[kind] - {"x0", "y0"}
    if unknown:
        raise ValueError(f"unknown {kind}-path keys {sorted(unknown)}")

    if kind == "line":
        length = float(params.get("length", 100.0))
        if length <= spacing:
            raise ValueError("line length must exceed spacing")
        _check_samples("line path", length, spacing)
        heading = float(params.get("heading", 0.0))
        x0, y0 = float(params.get("x0", 0.0)), float(params.get("y0", 0.0))
        n = int(math.floor(length / spacing)) + 1
        s = np.linspace(0.0, spacing * (n - 1), n)
        if s[-1] < length - 1e-9:
            s = np.append(s, length)
        return RefPath(
            s=s,
            x=x0 + s * math.cos(heading),
            y=y0 + s * math.sin(heading),
            psi=np.full_like(s, wrap_angle(heading)),
            kappa=np.zeros_like(s),
        )

    if kind == "circle":
        radius = float(params.get("radius", 50.0))
        wheelbase = float(params.get("wheelbase", 2.7))
        if radius < 2.0 * wheelbase:
            raise ValueError(f"radius {radius} below drivable minimum {2 * wheelbase}")
        direction = params.get("direction", "left")
        if direction not in ("left", "right"):
            raise ValueError("direction must be 'left' or 'right'")
        sign = 1.0 if direction == "left" else -1.0
        if "arc_rad" in params:
            arc = float(params["arc_rad"])
        else:
            arc = math.radians(float(params.get("arc_deg", 360.0)))
        if arc <= 0:
            raise ValueError("arc must be positive")
        heading = float(params.get("heading", 0.0))
        x0, y0 = float(params.get("x0", 0.0)), float(params.get("y0", 0.0))
        total = radius * arc
        _check_samples("circle path", total, spacing)
        n = max(2, int(math.ceil(total / spacing)) + 1)
        s = np.linspace(0.0, total, n)
        theta = sign * s / radius
        # center sits one radius along the left/right normal of the start pose
        cx = x0 - sign * radius * math.sin(heading)
        cy = y0 + sign * radius * math.cos(heading)
        ang0 = math.atan2(y0 - cy, x0 - cx)
        ang = ang0 + theta
        return RefPath(
            s=s,
            x=cx + radius * np.cos(ang),
            y=cy + radius * np.sin(ang),
            psi=np.array([wrap_angle(heading + t) for t in theta]),
            kappa=np.full_like(s, sign / radius),
            closed=arc >= 2.0 * math.pi - 1e-9,
        )

    if kind in ("lane_change", "s_curve"):
        length = float(params.get("length", 60.0))
        offset = float(params.get("offset", 3.0))
        if length <= 4.0 * spacing:
            raise ValueError("profile length too short for the requested spacing")
        if offset == 0.0:
            raise ValueError("offset must be nonzero")
        x0, y0 = float(params.get("x0", 0.0)), float(params.get("y0", 0.0))
        _check_samples(f"{kind} path", length, spacing)
        # arc length by fine trapezoid quadrature, then uniform-s sample points
        fine = np.linspace(0.0, length, max(2000, 20 * int(length / spacing)))
        _, dy_f, _ = _lateral_profile(kind, fine, length, offset)
        seg = np.sqrt(1.0 + dy_f**2)
        s_fine = np.concatenate(([0.0], np.cumsum(0.5 * (seg[1:] + seg[:-1]) * np.diff(fine))))
        total = s_fine[-1]
        n = max(2, int(math.ceil(total / spacing)) + 1)
        s = np.linspace(0.0, total, n)
        xs = np.interp(s, s_fine, fine)
        y, dy, ddy = _lateral_profile(kind, xs, length, offset)
        kappa = ddy / (1.0 + dy**2) ** 1.5
        return RefPath(s=s, x=x0 + xs, y=y0 + y, psi=np.arctan(dy), kappa=kappa)


def _resample(x: np.ndarray, y: np.ndarray, spacing: float):
    """Drop repeated positions, resample to uniform arc length and take
    central-difference headings.  Returns (keep, s_raw, s, x, y, psi): the
    kept-sample mask and arc length, then the resampled path."""
    keep = np.concatenate(([True], np.hypot(np.diff(x), np.diff(y)) > 1e-9))
    x, y = x[keep], y[keep]
    with np.errstate(over="ignore"):   # an arc length past the float range fails the check
        s_raw = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(x), np.diff(y)))))
    _check_samples("recorded path", s_raw[-1], spacing)
    n = max(2, int(math.ceil(s_raw[-1] / spacing)) + 1)
    s = np.linspace(0.0, s_raw[-1], n)
    xr = np.interp(s, s_raw, x)
    yr = np.interp(s, s_raw, y)
    psi = np.empty(n)
    psi[1:-1] = np.arctan2(yr[2:] - yr[:-2], xr[2:] - xr[:-2])
    psi[0] = math.atan2(yr[1] - yr[0], xr[1] - xr[0])
    psi[-1] = math.atan2(yr[-1] - yr[-2], xr[-1] - xr[-2])
    return keep, s_raw, s, xr, yr, psi


def load_recorded(t, x, y, psi, yaw_rate=None, speed=None, spacing: float = 0.25) -> RefPath:
    """Build a RefPath from recorded pose samples.

    Positions are deduplicated and resampled to uniform arc length.
    Headings come from central differences of the resampled positions
    (raw heading channels are noisy at parking speeds).  Curvature is
    initialized from the yaw-rate/speed differential estimate when both
    channels are present (`curvkit.differential_sample`), otherwise
    from heading finite differences, and clipped to DEFAULT_KAPPA_BOUND.
    The result is not strict-validated: smooth it before control use.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if not (len(t) == len(x) == len(y) == len(psi)):
        raise ValueError("channel lengths differ")
    if len(t) < 10:
        raise ValueError(f"need at least 10 samples, got {len(t)}")
    if np.any(np.diff(t) < 0):
        raise ValueError("timestamps must be monotone")

    keep, s_raw, s, xr, yr, psi_d = _resample(x, y, spacing)
    if s_raw[-1] < max(2.0 * spacing, 1e-6):
        raise ValueError("recorded log has zero net displacement")

    if yaw_rate is not None and speed is not None:
        kappa_raw, _ = differential_sample(psi[keep], np.asarray(yaw_rate, dtype=float)[keep],
                                           np.asarray(speed, dtype=float)[keep])
        kappa = np.interp(s, s_raw, kappa_raw)
    else:
        kappa = np.zeros(len(s))
        dpsi = np.arctan2(np.sin(np.diff(psi_d)), np.cos(np.diff(psi_d)))
        step = s[1] - s[0]
        kappa[1:-1] = (dpsi[:-1] + dpsi[1:]) / (2.0 * step)
        kappa[0] = dpsi[0] / step
        kappa[-1] = dpsi[-1] / step

    kappa = np.clip(kappa, -DEFAULT_KAPPA_BOUND, DEFAULT_KAPPA_BOUND)
    return RefPath(s=s, x=xr, y=yr, psi=psi_d, kappa=kappa, strict=False)


def _memory(path: RefPath, prev_s):
    """The search memory of the foot prev_s (a float or an array): on a closed
    path, whose end meets its start, one at or past end_s moves back a lap."""
    return prev_s - path.length * (prev_s >= path.end_s) if path.closed else prev_s


def _lost(px: float, py: float) -> SimulationError:
    return SimulationError(f"pose ({px:.1f}, {py:.1f}) is beyond the {PROJECT_HORIZON} m "
                           "horizon: vehicle lost")


def project(path: RefPath, pose: Pose, prev_s: float | None = None) -> PathProjection:
    """Project a pose onto the path: foot point, signed lateral and heading error.

    The foot point comes from quadratic interpolation of the squared
    distance around the nearest sample.  Passing the previous projection's
    arc length restricts the search window, preventing backward jumps on
    self-near paths; that memory is caller-owned state, and on a closed
    path one at or past end_s moves back by the path length (_memory).
    A pose outside the path's bounding box widened by PROJECT_HORIZON is
    lost at once.  The nearest sample is a numpy argmin over the window;
    everything after it reads the path's float lists.
    """
    s, x, y, psi, kappa = path._lists
    px, py = pose.x, pose.y
    x_lo, x_hi, y_lo, y_hi = path._box
    if px < x_lo or px > x_hi or py < y_lo or py > y_hi:
        raise _lost(px, py)
    n = len(s)
    lo, hi = 0, n
    if prev_s is not None:   # the search window of the memory
        mem = _memory(path, prev_s)
        lo, hi = (max(0, bisect_left(s, mem - 0.2 * PROJECT_WINDOW) - 1),
                  min(n, bisect_left(s, mem + PROJECT_WINDOW) + 2))
    # d2 = dx * dx + dy * dy over the window, in place
    d2 = path.x[lo:hi] - px
    d2 *= d2
    dy = path.y[lo:hi] - py
    dy *= dy
    d2 += dy
    k = int(d2.argmin())
    i = lo + k
    if math.sqrt(d2[k]) > PROJECT_HORIZON:
        raise _lost(px, py)

    im = max(0, i - 1)
    ip = min(n - 1, i + 1)
    s0, s1, s2 = s[im], s[i], s[ip]
    f0 = (x[im] - px) ** 2 + (y[im] - py) ** 2
    f1 = (x[i] - px) ** 2 + (y[i] - py) ** 2
    f2 = (x[ip] - px) ** 2 + (y[ip] - py) ** 2
    # parabola vertex through the three bracketing squared distances
    denom = (s1 - s0) * (f1 - f2) - (s1 - s2) * (f1 - f0)
    if abs(denom) < 1e-30:
        s_star = s1
    else:   # (s1 - s0) ** 2 and (s1 - s2) ** 2 from the path
        widths2 = path._widths2
        s_star = s1 - 0.5 * (widths2[i] * (f1 - f2) - widths2[i + 1] * (f1 - f0)) / denom
    s_star = min(max(s_star, s0), s2)

    j = min(max(bisect_left(s, s_star) - 1, 0), n - 2)
    a = (s_star - s[j]) / (s[j + 1] - s[j])
    xf = x[j] + a * (x[j + 1] - x[j])
    yf = y[j] + a * (y[j + 1] - y[j])
    psi_f = wrap_angle(psi[j] + a * wrap_angle(psi[j + 1] - psi[j]))
    kappa_f = kappa[j] + a * (kappa[j + 1] - kappa[j])

    e_y = math.cos(psi_f) * (py - yf) - math.sin(psi_f) * (px - xf)
    return PathProjection(s_star, e_y, wrap_angle(pose.psi - psi_f), kappa_f)


def _moving_average(values: np.ndarray, half: int) -> np.ndarray:
    """Centered moving average with shrinking windows at the ends."""
    if half < 1:
        return values.copy()
    csum = np.concatenate(([0.0], np.cumsum(values)))
    idx = np.arange(len(values))
    lo, hi = np.maximum(idx - half, 0), np.minimum(idx + half + 1, len(values))
    return (csum[hi] - csum[lo]) / (hi - lo)


def _condition_for_tracking(path: RefPath, window_m: float) -> RefPath:
    """Averaged copy of a rough path, good enough to feed the tracker.

    Raw recorded geometry carries heading and curvature noise large
    enough to saturate the steering through the feedforward term.
    Positions get a centered moving average over window_m meters,
    headings use a window-wide chord base, and the half-window edges
    (where the average is one-sided) are dropped.  The fine smoothing is
    still done by the vehicle run.
    """
    step = float(np.min(np.diff(path.s)))
    half = max(1, int(round(0.5 * window_m / step)))
    xs = _moving_average(path.x, half)
    ys = _moving_average(path.y, half)
    n = len(xs)
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    psi = np.arctan2(ys[hi] - ys[lo], xs[hi] - xs[lo])
    dpsi = np.arctan2(np.sin(psi[hi] - psi[lo]), np.cos(psi[hi] - psi[lo]))
    span = path.s[hi] - path.s[lo]
    kappa = _moving_average(np.clip(dpsi / span, -0.5, 0.5), half)
    trim = half if n > 6 * half else 0
    sl = slice(trim, n - trim if trim else n)
    return RefPath(s=path.s[sl], x=xs[sl], y=ys[sl], psi=psi[sl], kappa=kappa[sl], strict=False)


def read_recorded_csv(path) -> dict[str, np.ndarray]:
    """One array per column of a recorded-log CSV, read by `read_csv_table`: header
    t,X,Y,psi[,yaw_rate,speed,steer] in any order, SI units and radians."""
    def check(header):
        unknown = set(header) - set(RECORDED_COLUMNS)
        if unknown:
            raise ValueError(f"{path}: unknown columns {sorted(unknown)}")
        for col in ("t", "X", "Y", "psi"):
            if col not in header:
                raise ValueError(f"{path}: missing required channel '{col}'")

    header, table, _ = read_csv_table(read_input(path), str(path), check)
    return {name: table[:, i] for i, name in enumerate(header)}


def position_noise_estimate(path: RefPath) -> float:
    """Position noise amplitude from midpoint residuals over a ~3 m base.

    r_i = p_i - (p_{i-h} + p_{i+h})/2 has variance 1.5 sigma^2 for white
    position noise (the wide base also sees noise that arc-length
    resampling correlated), while smooth geometry contributes only its
    sagitta, small for drivable curvature.
    """
    step = float(np.min(np.diff(path.s)))
    half = max(1, int(round(1.5 / step)))
    if len(path) < 2 * half + 1:
        return 0.0
    rx = path.x[half:-half] - 0.5 * (path.x[:-2 * half] + path.x[2 * half:])
    ry = path.y[half:-half] - 0.5 * (path.y[:-2 * half] + path.y[2 * half:])
    return float(np.sqrt(np.mean(rx**2 + ry**2) / 1.5))


def smooth_recorded(path: RefPath, p: VehicleParams, v: float = 3.0) -> RefPath:
    """Smooth a rough recorded path by driving the closed-loop kinematic model along it.

    The raw geometry is first averaged over a noise-scaled window so the
    feedforward stays sane, then the simulated vehicle tracks it gently
    (soft gains, slow actuator) at speed v from the path's start pose.
    The vehicle trajectory, resampled to SMOOTH_SPACING, is the smoothed
    path.  Feasibility is guaranteed by construction: curvature
    comes from the actual steering angle, so |kappa| <= tan(max_steer)/L.
    Raises SimulationError if tracking diverges beyond 5 m, which marks
    the raw path as unusable.
    """
    from . import simkit
    from .lqr import DEFAULT_CONTROL_DT, LqrWeights, build_schedule

    v = float(v)
    if not 0.0 < v < SMOOTH_SPEED_LIMIT:
        raise ValueError(f"smoothing speed must be in (0, {SMOOTH_SPEED_LIMIT:g}) m/s, got {v}")
    ref = _condition_for_tracking(path, min(12.0, max(1.0, 40.0 * position_noise_estimate(path))))
    t_end = 1.2 * ref.length / v + 30.0
    sim_dt, budget = simkit.ScenarioConfig.sim_dt, simkit.MAX_LOG_ROWS
    ratio = t_end / sim_dt
    if not ratio < math.inf or round(ratio) + 1 > budget:   # rows as ScenarioConfig counts them
        slowest = 1.2 * ref.length / ((budget - 1) * sim_dt - 30.0)
        step = 10.0 ** (math.floor(math.log10(slowest)) - 3)
        slowest = math.ceil(slowest / step) * step   # rounded up to 4 digits
        raise ValueError(f"smoothing speed {v:g} m/s is too slow for the {ref.length:.1f} m "
                         f"path it tracks: the run would log more than the budget of "
                         f"{budget:,} rows; the slowest speed it allows is {slowest:.4g} m/s")
    grid = np.linspace(max(SMOOTH_GRID_FLOOR, 0.5 * v), min(SMOOTH_GRID_CAP, 1.5 * v + 1.0), 4)
    # deliberately soft loop: the vehicle must not follow what noise remains
    # after conditioning, so high control weight and a slow linear actuator
    schedule = build_schedule(grid, "kinematic", p, LqrWeights(q_diag=(1.0, 1.0), r=100.0),
                              dt=DEFAULT_CONTROL_DT)
    cfg = simkit.ScenarioConfig(
        path=ref,
        model="kinematic",
        speed=v,
        t_end=t_end,
        initial_offset=(0.0, 0.0),
        initial_steer=float(np.clip(math.atan(ref.kappa[0] * p.wheelbase),
                                    -p.max_steer, p.max_steer)),
        actuator=simkit.ActuatorConfig(lag_tau=0.5, delay_steps=0, rate_limit=None),
        seed=0,
    )
    log = simkit.run_scenario(cfg, schedule, params=p)
    e_max = float(np.max(np.abs(log.e_y)))
    if e_max > 5.0:
        raise SimulationError(f"smoothing run diverged: max |e_y| = {e_max:.2f} m > 5 m")

    step = max(1, int(round(SMOOTH_SPACING / (v * cfg.sim_dt) / 4)))
    xs, ys = log.x[::step], log.y[::step]
    kap = ackermann_curvature(log.delta_act[::step], p.wheelbase)
    keep, s_raw, s, xr, yr, psi_d = _resample(xs, ys, SMOOTH_SPACING)
    return RefPath(s=s, x=xr, y=yr, psi=psi_d, kappa=np.interp(s, s_raw, kap[keep]),
                   kappa_bound=math.tan(p.max_steer) / p.wheelbase + 1e-9)
