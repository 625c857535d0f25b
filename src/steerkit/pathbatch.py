"""Exact batch projection of a run's poses onto a path.

`project_run` gives, for a run of consecutive poses, what `pathkit.project`
gives pose by pose with each pose's memory taken from the previous foot,
to the bit.  The simulator projects the steps whose projection only its
log reads through it, in blocks; its distance tables replace one numpy
call per pose.  It is a module of its own because, without a bytecode
cache, the interpreter compiles each imported module whole, and the
memory that takes grows with the module: in `pathkit` this code raised
the peak resident set of every command by about 0.4 MB.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from . import SimulationError
from .models import Pose
from .pathkit import PROJECT_HORIZON, PROJECT_WINDOW, RefPath, _lost, _memory, _window, project

RUN_TABLE_CELLS = 1 << 15   # float64 cells of one project_run distance table: 256 KiB


def _wrap(a: np.ndarray) -> np.ndarray:
    """models.wrap_angle per element (fmod is exact, so np.fmod is math.fmod)."""
    w = np.fmod(a + math.pi, 2.0 * math.pi)
    return np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi


def _feet(path: RefPath, i: np.ndarray, px: np.ndarray, py: np.ndarray,
          pose_psi: np.ndarray) -> np.ndarray:
    """project's foot computation for the nearest samples i of the poses
    (px, py, pose_psi), per element the same float operations in the same
    order; rows s, e_y, e_psi, kappa of a (4, len(i)) array."""
    s, x, y, psi, kappa = path.s, path.x, path.y, path.psi, path.kappa
    n = len(s)
    im, ip = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
    s0, s1, s2 = s[im], s[i], s[ip]
    # Python's float ** 2, as in project: libm's pow(v, 2) and v * v differ
    # in the last bit for some v; within the horizon no square overflows
    terms = np.concatenate((x[im] - px, y[im] - py, x[i] - px, y[i] - py, x[ip] - px,
                            y[ip] - py, s1 - s0, s1 - s2))
    sq = np.fromiter(map(pow, memoryview(terms), repeat(2)), float, len(terms)).reshape(8, -1)
    f0, f1, f2 = sq[0] + sq[1], sq[2] + sq[3], sq[4] + sq[5]
    # a degenerate parabola (im == i or ip == i) has a zero denominator
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = (s1 - s0) * (f1 - f2) - (s1 - s2) * (f1 - f0)
        vertex = s1 - 0.5 * (sq[6] * (f1 - f2) - sq[7] * (f1 - f0)) / denom
    s_star = np.where(np.abs(denom) < 1e-30, s1, vertex)
    s_star = np.where(s0 > s_star, s0, s_star)   # Python's max(s_star, s0)
    s_star = np.where(s2 < s_star, s2, s_star)   # and min(., s2)

    j = np.clip(np.searchsorted(s, s_star) - 1, 0, n - 2)
    a = (s_star - s[j]) / (s[j + 1] - s[j])
    xf = x[j] + a * (x[j + 1] - x[j])
    yf = y[j] + a * (y[j + 1] - y[j])
    psi_f = _wrap(psi[j] + a * _wrap(psi[j + 1] - psi[j]))
    kappa_f = kappa[j] + a * (kappa[j + 1] - kappa[j])
    # math's cos and sin, as in project
    e_y = (np.fromiter(map(math.cos, memoryview(psi_f)), float, len(i)) * (py - yf)
           - np.fromiter(map(math.sin, memoryview(psi_f)), float, len(i)) * (px - xf))
    return np.array((s_star, e_y, _wrap(_wrap(pose_psi) - psi_f), kappa_f))


def project_run(path: RefPath, x: np.ndarray, y: np.ndarray, psi: np.ndarray,
                prev_s: float) -> tuple[np.ndarray, SimulationError | None]:
    """Project the consecutive poses (x, y, psi) of one run, each with the
    previous pose's foot as its memory (prev_s, the foot before the run,
    for the first), which project wraps on a closed path.

    Returns the (4, m) array of rows s, e_y, e_psi, kappa that project gives
    pose by pose, and None; or, when pose m is lost, the rows before it and
    that pose's SimulationError.  The nearest samples come from distance
    tables over chunks of poses, each over a sample range meant to hold
    the chunk's windows; a pose beyond the horizon from its nearest sample
    there is lost, and only the poses before the first lost one get feet.
    Each pose up to that one then checks, in order, that the window of its
    predecessor's foot lies inside its chunk's range and holds its nearest
    sample; from the first pose that fails, project runs pose by pose.
    """
    s_list = path._lists[0]
    rows, n = len(x), len(s_list)
    travel = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(x), np.diff(y)))))
    i = np.empty(rows, dtype=np.intp)
    near = np.empty(rows)
    bounds = np.empty((2, rows), dtype=np.intp)
    r, ahead = 0, prev_s
    while r < rows:
        # a chunk's range: the windows of memories from 1 m behind its anchor
        # (prev_s, then the sample nearest the previous chunk's last pose) to
        # 1 m plus 1.5 times its poses' travel ahead, in RUN_TABLE_CELLS cells
        mem = _memory(path, ahead)
        lo = _window(s_list, mem - 1.0)[0]
        widest = _window(s_list, mem + 1.0 + 1.5 * (travel[-1] - travel[r]))[1] - lo
        end = min(rows, r + max(1, RUN_TABLE_CELLS // widest))
        hi = _window(s_list, mem + 1.0 + 1.5 * (travel[end - 1] - travel[r]))[1]
        d2 = path.x[lo:hi] - x[r:end, None]
        dy = path.y[lo:hi] - y[r:end, None]
        with np.errstate(over="ignore"):   # inf past the float range: lost
            d2 *= d2
            dy *= dy
            d2 += dy
        k = d2.argmin(axis=1)
        near[r:end] = d2[np.arange(end - r), k]
        i[r:end] = k + lo
        bounds[:, r:end] = ((lo,), (hi,))
        ahead = s_list[lo + k[-1]]
        r = end
    lost = np.flatnonzero(np.sqrt(near) > PROJECT_HORIZON)
    m = int(lost[0]) if len(lost) else rows
    feet = np.empty((4, rows))
    feet[:, :m] = _feet(path, i[:m], x[:m], y[:m], psi[:m])
    # the memories of the poses up to the first lost one
    mems = _memory(path, np.concatenate(((prev_s,), feet[0, :m])))[:rows]
    c = len(mems)
    w_lo = np.maximum(np.searchsorted(path.s, mems - 0.2 * PROJECT_WINDOW) - 1, 0)
    w_hi = np.minimum(np.searchsorted(path.s, mems + PROJECT_WINDOW) + 2, n)
    exact = (bounds[0, :c] <= w_lo) & (w_hi <= bounds[1, :c]) & (w_lo <= i[:c]) & (i[:c] < w_hi)
    fails = np.flatnonzero(~exact)
    if not len(fails):
        return (feet, None) if m == rows else (feet[:, :m], _lost(float(x[m]), float(y[m])))
    # from the first pose whose check fails on, pose by pose
    r = int(fails[0])
    prev = float(feet[0, r - 1]) if r else prev_s
    for xr, yr, psir in zip(x[r:].tolist(), y[r:].tolist(), psi[r:].tolist()):
        try:
            feet[:, r] = proj = project(path, Pose(xr, yr, psir), prev)
        except SimulationError as e:
            return feet[:, :r], e
        prev = proj.s
        r += 1
    return feet, None
