"""Exact batch projection of poses onto a path.

`project_run` gives, for poses that each carry their own search memory,
what `pathkit.project` gives pose by pose, to the bit.  The simulator
projects the steps whose projection only its log reads through it, in
blocks; its distance tables replace one numpy call per pose.  It is a
module of its own because, without a bytecode cache, the interpreter
compiles each imported module whole, and the memory that takes grows with
the module: in `pathkit` this code raised the peak resident set of every
command by about 0.4 MB.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from . import SimulationError
from .models import Pose
from .pathkit import PROJECT_HORIZON, PROJECT_WINDOW, RefPath, _lost, _memory, project

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


def _spans(path: RefPath, x: np.ndarray, y: np.ndarray, mems: np.ndarray, w_lo: np.ndarray,
           w_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per pose (x, y), the part [lo, hi) of its window [w_lo, w_hi) that
    holds the window's first nearest sample: from the first to the last
    path chunk (RefPath._chunks) in the window whose box bound
    max(0, x0 - x, x - x1)**2 + max(0, y0 - y, y - y1)**2 is at most the
    squared distance d2 of the window's sample at the pose's memory mems.
    Rounding is monotone, so no sample's squared distance, computed as
    project_run's tables compute it, lies below its chunk's bound, and
    every sample nearer than d2, or as near, lies in a chunk kept."""
    size, x0, x1, y0, y1 = path._chunks
    j = np.clip(np.searchsorted(path.s, mems), w_lo, w_hi - 1)
    c_lo, c_hi = w_lo // size, (w_hi - 1) // size + 1
    c = c_lo[:, None] + np.arange((c_hi - c_lo).max(initial=1))
    c_in = c < c_hi[:, None]
    c = np.minimum(c, len(x0) - 1)
    px, py = x[:, None], y[:, None]
    with np.errstate(over="ignore"):   # inf past the float range, as in the tables
        dx, dy = path.x[j] - x, path.y[j] - y
        d2 = dx * dx + dy * dy
        bx = np.maximum(np.maximum(x0[c] - px, px - x1[c]), 0.0)
        by = np.maximum(np.maximum(y0[c] - py, py - y1[c]), 0.0)
        keep = (bx * bx + by * by <= d2[:, None]) & c_in
    first = keep.argmax(axis=1)
    last = keep.shape[1] - keep[:, ::-1].argmax(axis=1)
    return np.maximum(w_lo, (c_lo + first) * size), np.minimum(w_hi, (c_lo + last) * size)


def project_run(path: RefPath, x: np.ndarray, y: np.ndarray, psi: np.ndarray,
                prev_s: np.ndarray) -> tuple[np.ndarray, SimulationError | None]:
    """Project the poses (x, y, psi), each with its own memory prev_s[r].

    Returns the (4, m) array of rows s, e_y, e_psi, kappa that project gives
    pose by pose, and None; or, when pose m is the first lost one, the rows
    before it and that pose's SimulationError.  The nearest samples come
    from distance tables over chunks of poses, each over the union of its
    poses' spans (`_spans`, the part of a pose's window that holds its
    nearest sample) in at most RUN_TABLE_CELLS cells (one pose at least).
    The nearest sample of a union that contains a pose's span is, where it
    lies in the pose's window, the window's first nearest; a pose whose
    nearest sample there lies outside its own window is projected by
    project alone."""
    rows, n = len(x), len(path)
    mems = _memory(path, prev_s)
    w_lo = np.maximum(np.searchsorted(path.s, mems - 0.2 * PROJECT_WINDOW) - 1, 0)
    w_hi = np.minimum(np.searchsorted(path.s, mems + PROJECT_WINDOW) + 2, n)
    s_lo, s_hi = _spans(path, x, y, mems, w_lo, w_hi)
    i, near = np.empty(rows, dtype=np.intp), np.empty(rows)
    r = 0
    while r < rows:
        # the longest chunk from r whose spans' union fits the table
        lo = np.minimum.accumulate(s_lo[r:r + RUN_TABLE_CELLS])
        hi = np.maximum.accumulate(s_hi[r:r + RUN_TABLE_CELLS])
        c = max(1, np.count_nonzero((hi - lo) * np.arange(1, len(lo) + 1) <= RUN_TABLE_CELLS))
        lo, hi, end = lo[c - 1], hi[c - 1], r + c
        d2 = path.x[lo:hi] - x[r:end, None]
        dy = path.y[lo:hi] - y[r:end, None]
        with np.errstate(over="ignore"):   # inf past the float range: lost
            d2 *= d2
            dy *= dy
            d2 += dy
        k = d2.argmin(axis=1)
        near[r:end] = d2[np.arange(c), k]
        i[r:end] = k + lo
        r = end
    own = (w_lo <= i) & (i < w_hi)
    lost = np.flatnonzero(own & (np.sqrt(near) > PROJECT_HORIZON))
    m = int(lost[0]) if len(lost) else rows
    error = _lost(float(x[m]), float(y[m])) if len(lost) else None
    feet = np.empty((4, m))
    for r in np.flatnonzero(~own[:m]).tolist():
        try:
            feet[:, r] = project(path, Pose(float(x[r]), float(y[r]), float(psi[r])),
                                 float(prev_s[r]))
        except SimulationError as e:
            m, error = r, e
            break
    ok = np.flatnonzero(own[:m])
    feet[:, ok] = _feet(path, i[ok], x[ok], y[ok], psi[ok])
    return feet[:, :m], error
