import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings, strategies as st

from steerkit import SimulationError, pathbatch, pathkit
from steerkit.models import Pose, wrap_angle
from steerkit.pathbatch import RUN_TABLE_CELLS, project_run
from steerkit.pathkit import (
    PROJECT_HORIZON, PROJECT_WINDOW, RECORDED_COLUMNS, SMOOTH_SPEED_LIMIT, PathProjection,
    RefPath, gen_path, load_recorded, position_noise_estimate, project, read_recorded_csv,
    smooth_recorded,
)

from oracles import profile_curvature


def recorded_circle(radius=50.0, speed=3.0, arc_deg=180.0, spacing=0.25, with_rates=True):
    circ = gen_path("circle", spacing=spacing, radius=radius, arc_deg=arc_deg)
    t = circ.s / speed
    rates = dict(
        yaw_rate=np.full(len(circ), speed / radius),
        speed=np.full(len(circ), speed),
    ) if with_rates else {}
    return load_recorded(t, circ.x, circ.y, circ.psi, spacing=spacing, **rates)


class TestRefPath:
    def test_rejects_decreasing_s(self):
        with pytest.raises(ValueError):
            RefPath(s=[0.0, 0.0], x=[0, 1], y=[0, 0], psi=[0, 0], kappa=[0, 0])

    def test_rejects_wide_spacing(self):
        with pytest.raises(ValueError):
            RefPath(s=[0.0, 1.0], x=[0, 1], y=[0, 0], psi=[0, 0], kappa=[0, 0])

    def test_rejects_heading_mismatch_when_strict(self):
        # heading says north, geometry goes east
        with pytest.raises(ValueError):
            RefPath(s=[0.0, 0.4], x=[0, 0.4], y=[0, 0], psi=[1.57, 1.57], kappa=[0, 0])

    def test_lenient_mode_for_raw_ingestion(self):
        p = RefPath(s=[0.0, 0.4], x=[0, 0.4], y=[0, 0], psi=[1.57, 1.57], kappa=[0, 0],
                    strict=False)
        assert len(p) == 2

    def test_immutable_arrays(self):
        p = gen_path("line", spacing=0.1, length=5.0)
        with pytest.raises(ValueError):
            p.kappa[0] = 1.0


class TestGenPath:
    def test_line(self):
        p = gen_path("line", spacing=0.1, length=100.0)
        assert np.all(p.kappa == 0.0)
        assert np.all(p.psi == p.psi[0])
        assert p.length == pytest.approx(100.0, abs=1e-9)

    def test_circle_constant_curvature(self):
        p = gen_path("circle", spacing=0.1, radius=50.0, direction="left", arc_deg=360.0)
        assert np.all(p.kappa == 0.02)
        assert p.closed
        r = gen_path("circle", spacing=0.1, radius=50.0, direction="right", arc_deg=90.0)
        assert np.all(r.kappa == -0.02)
        assert not r.closed

    def test_circle_radius_guard(self):
        with pytest.raises(ValueError):
            gen_path("circle", spacing=0.1, radius=4.0)

    def test_spacing_bounds(self):
        with pytest.raises(ValueError):
            gen_path("line", spacing=0.009, length=10.0)
        with pytest.raises(ValueError):
            gen_path("line", spacing=0.6, length=10.0)

    def test_s_curve_peak_matches_analytic_maximum(self):
        p = gen_path("s_curve", spacing=0.05, length=60.0, offset=3.0)
        xs = np.linspace(0.0, 60.0, 2_000_001)
        analytic_max = np.max(np.abs(profile_curvature("s_curve", xs, 60.0, 3.0)))
        assert np.max(np.abs(p.kappa)) == pytest.approx(analytic_max, abs=1e-6)

    def test_lane_change_ends_straight(self):
        p = gen_path("lane_change", spacing=0.1, length=40.0, offset=3.0)
        assert p.psi[0] == pytest.approx(0.0, abs=1e-12)
        assert p.psi[-1] == pytest.approx(0.0, abs=1e-9)
        assert p.y[-1] - p.y[0] == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("kind,params", [
        ("line", dict(length=80.0)),
        ("circle", dict(radius=40.0, arc_deg=200.0)),
        ("lane_change", dict(length=50.0, offset=3.5)),
        ("s_curve", dict(length=70.0, offset=2.5)),
    ])
    def test_gauss_bonnet(self, kind, params):
        # integral of curvature over arc length equals net heading change
        p = gen_path(kind, spacing=0.1, **params)
        integral = np.trapezoid(p.kappa, p.s)
        net = 0.0
        for a, b in zip(p.psi[:-1], p.psi[1:]):
            net += math.atan2(math.sin(b - a), math.cos(b - a))
        assert integral == pytest.approx(net, abs=1e-3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_path("spiral", spacing=0.1)


class TestProject:
    def test_on_path_aligned(self):
        p = gen_path("line", spacing=0.1, length=50.0)
        pr = project(p, Pose(10.0, 0.0, 0.0))
        assert pr.e_y == pytest.approx(0.0, abs=1e-12)
        assert pr.e_psi == pytest.approx(0.0, abs=1e-12)
        assert pr.s == pytest.approx(10.0, abs=1e-9)

    def test_left_offset_sign(self):
        p = gen_path("line", spacing=0.1, length=50.0)
        pr = project(p, Pose(10.0, 1.0, 0.0))
        assert pr.e_y == pytest.approx(1.0, abs=1e-12)

    def test_outside_ccw_circle_is_right(self):
        p = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=270.0)
        pr = project(p, Pose(0.0, -1.0, 0.0))
        assert pr.e_y == pytest.approx(-1.0, abs=1e-7)
        assert pr.kappa == pytest.approx(0.02, abs=1e-15)

    def test_circle_kappa_exact_on_path(self):
        p = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=270.0)
        pr = project(p, Pose(float(p.x[100]), float(p.y[100]), float(p.psi[100])))
        assert pr.kappa == 0.02

    def test_reflection_negates_lateral_error(self):
        line = gen_path("line", spacing=0.1, length=50.0, heading=0.3)
        pose = Pose(20.0, 7.0, 0.3)
        pr = project(line, pose)
        # reflect across the path: rotate offset to the other side
        foot_x = pose.x - pr.e_y * -math.sin(0.3)
        foot_y = pose.y - pr.e_y * math.cos(0.3)
        mirrored = Pose(2 * foot_x - pose.x, 2 * foot_y - pose.y, 0.3)
        pm = project(line, mirrored)
        assert pm.e_y == pytest.approx(-pr.e_y, abs=1e-12)

    def test_reflection_on_circle(self):
        p = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=270.0)
        out = project(p, Pose(0.0, -1.0, 0.0))
        inn = project(p, Pose(0.0, 1.0, 0.0))
        assert inn.e_y == pytest.approx(-out.e_y, abs=1e-7)

    def test_heading_error_wrap(self):
        p = gen_path("line", spacing=0.1, length=50.0)
        pr = project(p, Pose(10.0, 0.0, 3.0))
        assert pr.e_psi == pytest.approx(3.0, abs=1e-12)
        pr2 = project(p, Pose(10.0, 0.0, -3.0))
        assert pr2.e_psi == pytest.approx(-3.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["line", "left", "right"]),
           heading=st.floats(-math.pi, math.pi), radius=st.floats(10.0, 200.0),
           frac=st.floats(0.1, 0.9), d=st.floats(-2.0, 2.0), a=st.floats(-1.5, 1.5))
    def test_sign_conventions_property(self, kind, heading, radius, frac, d, a):
        # offset d along the left normal, heading error a: e_y = d, e_psi = a
        if kind == "line":
            p = gen_path("line", spacing=0.1, length=50.0, heading=heading)
        else:
            p = gen_path("circle", spacing=0.1, radius=radius, arc_deg=180.0,
                         direction=kind, heading=heading)
        i = int(frac * (len(p) - 1))
        psi = float(p.psi[i])
        pose = Pose(float(p.x[i]) - d * math.sin(psi), float(p.y[i]) + d * math.cos(psi), psi + a)
        pr = project(p, pose)
        assert pr.e_y == pytest.approx(d, abs=1e-9)
        assert pr.e_psi == pytest.approx(a, abs=1e-9)

    def test_beyond_horizon_raises(self):
        p = gen_path("line", spacing=0.1, length=50.0)
        with pytest.raises(SimulationError):
            project(p, Pose(10.0, 100.0, 0.0))

    def test_window_memory_prevents_backward_jump(self):
        # figure-eight-like self-near path: two parallel passes
        s = np.arange(0.0, 40.0, 0.2)
        half = len(s) // 2
        x = np.concatenate([s[:half], s[:len(s) - half][::-1]])
        y = np.concatenate([np.zeros(half), np.full(len(s) - half, 1.5)])
        psi = np.concatenate([np.zeros(half), np.full(len(s) - half, math.pi)])
        p = RefPath(s=s, x=x, y=y, psi=psi, kappa=np.zeros_like(s), strict=False)
        pose = Pose(3.0, 0.75, 0.0)  # equidistant between the passes
        near_start = project(p, pose, prev_s=3.0)
        assert near_start.s < 6.0
        far = project(p, pose, prev_s=35.0)
        assert far.s > 30.0



def oracle_end_s(path):
    """Where an open path ends and a closed path's memory wraps: 2 samples
    before the last one."""
    return float(path.s[-1]) - 2.0 * float(np.max(np.diff(path.s)))


def numpy_project(path, pose, prev_s=None):
    """The numpy-scalar projection that `project` replaced, kept as its oracle."""
    n = len(path)
    if prev_s is not None and path.closed and prev_s >= oracle_end_s(path):
        prev_s -= path.length
    if prev_s is None:
        lo, hi = 0, n
    else:
        lo = int(np.searchsorted(path.s, prev_s - 0.2 * PROJECT_WINDOW)) - 1
        hi = int(np.searchsorted(path.s, prev_s + PROJECT_WINDOW)) + 2
        lo, hi = max(0, lo), min(n, hi)
    dx = path.x[lo:hi] - pose.x
    dy = path.y[lo:hi] - pose.y
    d2 = dx * dx + dy * dy
    i = lo + int(np.argmin(d2))
    if math.sqrt(d2[i - lo]) > PROJECT_HORIZON:
        raise SimulationError("vehicle lost")

    im = max(0, i - 1)
    ip = min(n - 1, i + 1)
    if im == ip:
        s_star = float(path.s[i])
    else:
        s0, s1, s2 = float(path.s[im]), float(path.s[i]), float(path.s[ip])
        f0 = (path.x[im] - pose.x) ** 2 + (path.y[im] - pose.y) ** 2
        f1 = (path.x[i] - pose.x) ** 2 + (path.y[i] - pose.y) ** 2
        f2 = (path.x[ip] - pose.x) ** 2 + (path.y[ip] - pose.y) ** 2
        denom = (s1 - s0) * (f1 - f2) - (s1 - s2) * (f1 - f0)
        if abs(denom) < 1e-30:
            s_star = s1
        else:
            s_star = s1 - 0.5 * ((s1 - s0) ** 2 * (f1 - f2) - (s1 - s2) ** 2 * (f1 - f0)) / denom
        s_star = min(max(s_star, s0), s2)

    j = min(max(int(np.searchsorted(path.s, s_star)) - 1, 0), n - 2)
    seg = float(path.s[j + 1] - path.s[j])
    a = (s_star - float(path.s[j])) / seg
    xf = float(path.x[j]) + a * float(path.x[j + 1] - path.x[j])
    yf = float(path.y[j]) + a * float(path.y[j + 1] - path.y[j])
    dpsi_seg = wrap_angle(float(path.psi[j + 1]) - float(path.psi[j]))
    psi_f = wrap_angle(float(path.psi[j]) + a * dpsi_seg)
    kappa_f = float(path.kappa[j]) + a * float(path.kappa[j + 1] - path.kappa[j])

    tx, ty = math.cos(psi_f), math.sin(psi_f)
    ox, oy = pose.x - xf, pose.y - yf
    e_y = tx * oy - ty * ox
    e_psi = wrap_angle(pose.psi - psi_f)
    return PathProjection(s=float(s_star), e_y=float(e_y), e_psi=float(e_psi), kappa=kappa_f)


def oracle_paths():
    rng = np.random.default_rng(7)
    t = np.arange(0.0, 60.0, 0.2)
    x, y = 2.0 * t + 0.05 * rng.standard_normal(len(t)), 4.0 * np.sin(0.05 * t)
    return {
        "line": gen_path("line", spacing=0.1, length=80.0, heading=2.5, x0=3.0, y0=-4.0),
        "short_line": gen_path("line", spacing=0.5, length=3.2),
        "two_samples": RefPath(s=[0.0, 0.4], x=[0.0, 0.4], y=[0.0, 0.0], psi=[0.0, 0.0],
                               kappa=[0.0, 0.0]),
        "open_circle": gen_path("circle", spacing=0.1, radius=30.0, arc_deg=200.0,
                                direction="right", heading=-1.0),
        "closed_circle": gen_path("circle", spacing=0.1, radius=50.0),
        "lane_change": gen_path("lane_change", spacing=0.1, length=60.0, offset=3.5),
        "s_curve": gen_path("s_curve", spacing=0.25, length=80.0, offset=-4.0),
        "recorded": load_recorded(t, x, y, np.arctan2(np.gradient(y), np.gradient(x)),
                                  spacing=0.25),
    }


ORACLE_PATHS = oracle_paths()


def hairpin(spacing=0.1, leg=12.0, radius=1.5):
    """Out along +x, a half turn left of `radius`, back along -x: every
    window reaches both legs, 2 radii apart."""
    s = np.arange(0.0, 2.0 * leg + math.pi * radius, spacing)
    turn = np.clip((s - leg) / radius, 0.0, math.pi)
    x = np.where(s < leg, s, leg + radius * np.sin(turn))
    x = np.where(s > leg + math.pi * radius, leg - (s - leg - math.pi * radius), x)
    y = radius - radius * np.cos(turn)
    psi = np.array([wrap_angle(v) for v in turn.tolist()])
    kappa = np.where((s > leg) & (s < leg + math.pi * radius), 1.0 / radius, 0.0)
    return RefPath(s=s, x=x, y=y, psi=psi, kappa=kappa, strict=False)


@functools.cache
def chunked_paths(size):
    """ORACLE_PATHS and the hairpin, built with path chunks of `size` samples."""
    with mock.patch.object(pathkit, "PROJECT_CHUNK", size):
        return {**oracle_paths(), "hairpin": hairpin()}


CHUNK_SIZES = (1, 7, 32)


def bits(proj):
    return tuple(float(v).hex() for v in proj)


class TestProjectOracle:
    """`project` on the path's float lists is bit-identical to the numpy oracle."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(ORACLE_PATHS)), frac=st.floats(0.0, 1.0),
           on_sample=st.booleans(), d=st.one_of(st.just(0.0), st.floats(-45.0, 45.0)),
           bearing=st.floats(-math.pi, math.pi), heading=st.floats(-10.0, 10.0),
           memory=st.sampled_from(["none", "near", "wrapped"]), ds=st.floats(-3.0, 3.0))
    def test_bit_identical_within_horizon(self, name, frac, on_sample, d, bearing, heading,
                                          memory, ds):
        path = ORACLE_PATHS[name]
        i = round(frac * (len(path) - 1))
        # on a sample, or halfway to the next one, where the nearest sample ties
        k = min(i + 1, len(path) - 1)
        w = 0.0 if on_sample else 0.5
        bx = (1.0 - w) * float(path.x[i]) + w * float(path.x[k])
        by = (1.0 - w) * float(path.y[i]) + w * float(path.y[k])
        pose = Pose(bx + d * math.cos(bearing), by + d * math.sin(bearing), heading)
        s_near = float(path.s[i]) + ds
        prev_s = {"none": None, "near": s_near, "wrapped": s_near - path.length}[memory]
        try:
            want = numpy_project(path, pose, prev_s)
        except SimulationError:
            with pytest.raises(SimulationError):
                project(path, pose, prev_s)
            return
        assert bits(project(path, pose, prev_s)) == bits(want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(ORACLE_PATHS)), extra=st.floats(1e-6, 1e4),
           bearing=st.floats(-math.pi, math.pi),
           prev_s=st.one_of(st.none(), st.floats(-100.0, 400.0)))
    def test_both_raise_beyond_horizon(self, name, extra, bearing, prev_s):
        path = ORACLE_PATHS[name]
        # the pose sits farther than the horizon from every sample of the path
        cx, cy = float(np.mean(path.x)), float(np.mean(path.y))
        reach = float(np.max(np.hypot(path.x - cx, path.y - cy)))
        r = reach + PROJECT_HORIZON * (1.0 + 1e-9) + extra
        pose = Pose(cx + r * math.cos(bearing), cy + r * math.sin(bearing), 0.0)
        with pytest.raises(SimulationError):
            numpy_project(path, pose, prev_s)
        with pytest.raises(SimulationError, match="horizon"):
            project(path, pose, prev_s)


class TestPathEnd:
    """The path owns where it ends and where a closed path's memory wraps."""

    @pytest.mark.parametrize("name", sorted(ORACLE_PATHS))
    def test_end_s_is_two_samples_before_the_last(self, name):
        path = ORACLE_PATHS[name]
        assert path.end_s == oracle_end_s(path) and type(path.end_s) is float

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(past=st.floats(0.0, 3.0), back=st.integers(0, 40), d=st.floats(-2.0, 2.0))
    def test_closed_memory_at_or_past_end_s_wraps(self, past, back, d):
        # start and end coincide: a memory at or past end_s searches as the
        # same memory one path length back
        path = ORACLE_PATHS["closed_circle"]
        i = (len(path) - 1 - back) % len(path)
        psi = float(path.psi[i])
        pose = Pose(float(path.x[i]) - d * math.sin(psi), float(path.y[i]) + d * math.cos(psi),
                    psi)
        memory = path.end_s + past
        assert bits(project(path, pose, memory)) == bits(project(path, pose,
                                                                 memory - path.length))


def sequential_project(path, x, y, psi, prev_s, seam):
    """project_run's contract spelled out: project pose by pose, each with its
    own memory prev_s[r], wrapped by the path length at the seam of a closed
    path; stop at the first lost pose."""
    feet = []
    for xr, yr, pr, mr in zip(x, y, psi, prev_s):
        memory = mr - path.length if path.closed and mr >= seam else mr
        try:
            proj = project(path, Pose(xr, yr, pr), memory)
        except SimulationError as e:
            return feet, str(e)
        feet.append(tuple(proj))
    return feet, None


@st.composite
def pose_runs(draw):
    """A vehicle-like run of poses near a path, with path chunks of any of
    CHUNK_SIZES samples: it starts near a sample and
    advances 0-3 samples per pose (past the seam of a closed path) with a
    drifting lateral offset, heading error and noise; a large offset can
    leave the horizon.  Each pose's memory is the arc length at the pose
    1, 5 or 20 poses back, as read steps hold it, shifted; some memories
    stray anywhere along the path, so that the pose's nearest sample in
    its chunk can lie outside its own window."""
    paths = chunked_paths(draw(st.sampled_from(CHUNK_SIZES)))
    path = paths[draw(st.sampled_from(sorted(paths)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 400))
    # anywhere, or close to the end: the end of an open path, the seam of a closed one
    i0 = draw(st.one_of(st.integers(0, len(path) - 1),
                        st.integers(max(0, len(path) - 60), len(path) - 1)))
    idx = (i0 + np.cumsum(rng.integers(0, 4, rows))) % len(path) if path.closed else \
        np.minimum(i0 + np.cumsum(rng.integers(0, 4, rows)), len(path) - 1)
    # near the path, anywhere up to beyond the horizon, or far inside a bend,
    # where the foot moves several times faster than the pose
    kappa = float(path.kappa[i0])
    inside = [st.floats(0.7, 0.95).map(lambda f: f / kappa)] if abs(kappa) > 1e-3 else []
    offset = draw(st.one_of(st.floats(-2.0, 2.0), st.floats(-60.0, 60.0), *inside))
    lateral = offset + np.cumsum(rng.normal(0.0, draw(st.sampled_from([0.0, 0.01, 0.5])), rows))
    psi = path.psi[idx]
    x = path.x[idx] - lateral * np.sin(psi) + rng.normal(0.0, 0.02, rows)
    y = path.y[idx] + lateral * np.cos(psi) + rng.normal(0.0, 0.02, rows)
    heading = psi + draw(st.floats(-1.0, 1.0)) + rng.normal(0.0, 0.05, rows).cumsum()
    hold = draw(st.sampled_from([1, 5, 20]))
    held = np.concatenate(([i0], idx))[np.arange(rows) // hold * hold]
    prev_s = path.s[held] + draw(st.floats(-3.0, 3.0))
    stray = rng.random(rows) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    prev_s[stray] = rng.uniform(-5.0, float(path.s[-1]) + 5.0, int(stray.sum()))
    seam = oracle_end_s(path)
    return path, x, y, heading, prev_s, seam


class TestProjectRun:
    """project_run on a run of poses is project called pose by pose."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(run=pose_runs(), cells=st.sampled_from([RUN_TABLE_CELLS, 200, 2000]))
    def test_equals_project_pose_by_pose(self, run, cells):
        path, x, y, psi, prev_s, seam = run
        want, error = sequential_project(path, x.tolist(), y.tolist(), psi.tolist(), prev_s,
                                         seam)
        with mock.patch.object(pathbatch, "RUN_TABLE_CELLS", cells):
            feet, lost = project_run(path, x, y, psi, prev_s)
        assert [tuple(f) for f in feet.T.tolist()] == want
        assert np.array(want).reshape(-1, 4).tobytes() == np.ascontiguousarray(feet.T).tobytes()
        assert (None if lost is None else str(lost)) == error

    @pytest.mark.parametrize("start", [30, 3])
    def test_across_the_seam_of_a_closed_path(self, start):
        # the memory wraps once the foot passes the seam: the next windows
        # lie at the path start, away from the samples nearest the end
        for size in CHUNK_SIZES:
            path = chunked_paths(size)["closed_circle"]
            n = len(path)
            seam = oracle_end_s(path)
            idx = (n - start + np.arange(60)) % n
            x, y, psi = path.x[idx] + 0.01, path.y[idx] + 0.02, path.psi[idx]
            prev_s = path.s[(idx - 1) % n]   # the sample before each pose's
            want, _ = sequential_project(path, x.tolist(), y.tolist(), psi.tolist(), prev_s,
                                         seam)
            feet, lost = project_run(path, x, y, psi, prev_s)
            assert lost is None and [tuple(f) for f in feet.T.tolist()] == want
            assert min(f[0] for f in want) == 0.0 and max(f[0] for f in want) >= seam

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("shift", [0.0, -2.0, 2.5])
    def test_the_far_part_of_the_window_is_nearest(self, shift, size):
        # on a hairpin the window of a memory on the way out reaches the way
        # back: a pose on the way back whose memory lies across, on the way
        # out, is nearest to samples far along its window from the memory
        path = chunked_paths(size)["hairpin"]
        n = len(path)
        pose_idx = n - 1 - np.arange(20, 100)
        x, y = path.x[pose_idx] + 0.03, path.y[pose_idx] - 0.02
        psi, prev_s = path.psi[pose_idx], path.s[n - 1 - pose_idx] + shift
        want, _ = sequential_project(path, x.tolist(), y.tolist(), psi.tolist(), prev_s, np.inf)
        with mock.patch.object(pathbatch, "project", wraps=project) as alone:
            feet, lost = project_run(path, x, y, psi, prev_s)
        assert lost is None and [tuple(f) for f in feet.T.tolist()] == want
        assert alone.call_count == 0
        # the feet lie on the pose's leg, not near the memory's
        assert np.all(np.abs(np.array(want)[:, 0] - path.s[pose_idx]) < 0.2)

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("where", ["chunk_seam", "between_legs"])
    def test_a_pose_equidistant_from_two_chunk_boxes(self, where, size):
        # halfway between the last sample of a chunk and the first of the
        # next, beside a line, where the two samples tie; or on the midline
        # of the hairpin, as far from a chunk of the way out as from one of
        # the way back: the first of the nearest samples gives the foot
        if where == "chunk_seam":
            path = chunked_paths(size)["line"]
            cos, sin = math.cos(float(path.psi[0])), math.sin(float(path.psi[0]))
            s = path.s[np.arange(2, 15) * size] - 0.05
            x = float(path.x[0]) + s * cos - 0.4 * sin
            y = float(path.y[0]) + s * sin + 0.4 * cos
            psi, prev_s = np.full(len(s), float(path.psi[0])), s - 1.0
        else:
            path = chunked_paths(size)["hairpin"]
            x = np.linspace(1.0, 11.0, 41)
            y, psi, prev_s = np.full(41, 1.5), np.zeros(41), x - 0.5
        want, _ = sequential_project(path, x.tolist(), y.tolist(), psi.tolist(), prev_s, np.inf)
        with mock.patch.object(pathbatch, "project", wraps=project) as alone, \
                mock.patch.object(pathbatch, "RUN_TABLE_CELLS", 1):
            feet, lost = project_run(path, x, y, psi, prev_s)
        assert lost is None and [tuple(f) for f in feet.T.tolist()] == want
        assert alone.call_count == 0

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("end", ["start", "end"])
    def test_windows_that_start_and_end_mid_chunk(self, end, size):
        # a pose behind its window's first sample or past its last is nearest
        # to that sample, in a chunk the window only partly covers; the
        # memories move the window's ends through every offset in a chunk
        path = chunked_paths(size)["line"]
        mems = 30.0 + 0.1 * np.arange(2 * size + 1)
        w_lo = np.maximum(np.searchsorted(path.s, mems - 0.2 * PROJECT_WINDOW) - 1, 0)
        w_hi = np.minimum(np.searchsorted(path.s, mems + PROJECT_WINDOW) + 2, len(path))
        edge = w_lo if end == "start" else w_hi - 1
        assert size == 1 or len(set((w_lo % size).tolist())) == size
        step = -1.5 if end == "start" else 1.5
        heading = float(path.psi[0])
        s = path.s[edge] + step
        x = path.x[0] + s * math.cos(heading) - 0.2 * math.sin(heading)
        y = path.y[0] + s * math.sin(heading) + 0.2 * math.cos(heading)
        psi = np.full(len(s), heading)
        want, _ = sequential_project(path, x.tolist(), y.tolist(), psi.tolist(), mems, np.inf)
        # a table per pose: its nearest sample is its span's
        with mock.patch.object(pathbatch, "project", wraps=project) as alone, \
                mock.patch.object(pathbatch, "RUN_TABLE_CELLS", 1):
            feet, lost = project_run(path, x, y, psi, mems)
        assert lost is None and [tuple(f) for f in feet.T.tolist()] == want
        assert alone.call_count == 0
        assert np.all(np.abs(np.array(want)[:, 0] - path.s[edge]) < 0.101)   # a sample at most

    @pytest.mark.parametrize("advance, inside", [(8, 0.95), (-3, 0.0)])
    def test_foot_leaving_the_range_the_poses_suggest(self, advance, inside):
        # far inside a bend the foot moves 20 times as fast as the pose; a
        # run that backs up moves its foot behind the range it starts in
        path = ORACLE_PATHS["closed_circle"]
        seam = oracle_end_s(path)
        idx = (1500 + advance * np.arange(300)) % len(path)
        lateral = inside / float(path.kappa[0])
        psi = path.psi[idx]
        x, y = path.x[idx] - lateral * np.sin(psi), path.y[idx] + lateral * np.cos(psi)
        # each memory held for 20 poses, from the pose before the first of them
        prev_s = path.s[np.concatenate(([1500 - np.sign(advance)], idx))[np.arange(300) // 20 * 20]]
        want, _ = sequential_project(path, x.tolist(), y.tolist(), psi.tolist(), prev_s, seam)
        feet, lost = project_run(path, x, y, psi, prev_s)
        assert lost is None and [tuple(f) for f in feet.T.tolist()] == want

    @pytest.mark.parametrize("far", [1e154, 1.4e154, 1e200, -1e300])
    def test_a_pose_whose_distance_squares_past_the_float_range_is_lost(self, far):
        # pow(v, 2) would raise OverflowError past about 1.34e154, but the pose
        # is lost before any foot is computed: the poses before it keep their
        # exact feet, and it is lost as project finds it
        path = ORACLE_PATHS["line"]
        x, y, psi = path.x[100:110].copy(), path.y[100:110] + 0.3, path.psi[100:110].copy()
        x[6] = far
        prev_s = path.s[99:109]
        want, error = sequential_project(path, x.tolist(), y.tolist(), psi.tolist(), prev_s,
                                         np.inf)
        feet, lost = project_run(path, x, y, psi, prev_s)
        assert len(want) == 6 and "vehicle lost" in error
        assert [tuple(f) for f in feet.T.tolist()] == want and str(lost) == error

    def test_a_pose_whose_memory_strays_is_projected_alone(self):
        # every third memory lies 40 m ahead of its pose: the chunk's range
        # holds the pose's nearest sample, but its own window does not, so
        # project searches that window alone
        path = ORACLE_PATHS["closed_circle"]
        idx = np.arange(1000, 1090)
        x, y, psi = path.x[idx] + 0.2, path.y[idx] - 0.1, path.psi[idx]
        stray = np.arange(90) % 3 == 0
        prev_s = path.s[idx - 1] + 40.0 * stray
        want, _ = sequential_project(path, x.tolist(), y.tolist(), psi.tolist(), prev_s, np.inf)
        with mock.patch.object(pathbatch, "project", wraps=project) as alone:
            feet, lost = project_run(path, x, y, psi, prev_s)
        assert lost is None and [tuple(f) for f in feet.T.tolist()] == want
        assert alone.call_count == stray.sum()
        assert all(f[0] > s + 30.0 for f, s in zip(np.array(want)[stray], path.s[idx][stray]))

    def test_vector_wrap_is_wrap_angle(self):
        # project_run wraps with np.fmod, which is exact like math.fmod
        a = np.concatenate((np.random.default_rng(5).uniform(-40.0, 40.0, 20000),
                            np.arange(-6, 7) * math.pi, [0.0, -0.0, 1e-300, -1e-300]))
        assert pathbatch._wrap(a).tolist() == [wrap_angle(v) for v in a.tolist()]


class TestLoadRecorded:
    def test_circle_curvature_recovered(self):
        p = recorded_circle()
        mid = slice(len(p) // 10, -len(p) // 10)
        assert np.all(np.abs(p.kappa[mid] - 0.02) <= 0.02 * 0.02)

    def test_circle_geometry_without_rates(self):
        p = recorded_circle(with_rates=False)
        mid = slice(len(p) // 10, -len(p) // 10)
        assert np.max(np.abs(p.kappa[mid] - 0.02)) < 0.002

    def test_straight_zero_curvature(self):
        t = np.arange(0.0, 30.0, 0.5)
        p = load_recorded(t, 2.0 * t, np.zeros_like(t), np.zeros_like(t))
        assert np.max(np.abs(p.kappa)) < 1e-3

    def test_duplicates_dropped(self):
        t = np.arange(0.0, 30.0, 0.5)
        x = 2.0 * t
        x = np.repeat(x, 2)[: len(t) * 2 - 1]
        t2 = np.linspace(0, 30, len(x))
        p = load_recorded(t2, x, np.zeros_like(x), np.zeros_like(x))
        assert len(p) > 10

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            load_recorded([0, 1], [0, 1], [0, 0], [0, 0])

    def test_zero_displacement(self):
        t = np.arange(12.0)
        with pytest.raises(ValueError):
            load_recorded(t, np.zeros_like(t), np.zeros_like(t), np.zeros_like(t))

    def test_non_monotone_time(self):
        t = np.arange(12.0)
        t[5] = 10.0
        with pytest.raises(ValueError):
            load_recorded(t, t * 2, np.zeros_like(t), np.zeros_like(t))

    def test_projection_consistency(self):
        t = np.arange(0.0, 30.0, 0.5)
        x, y = 2.0 * t, 0.5 * np.sin(0.1 * t)
        psi = np.arctan2(np.gradient(y), np.gradient(x))
        p = load_recorded(t, x, y, psi, spacing=0.25)
        for i in range(0, len(t), 7):
            pr = project(p, Pose(x[i], y[i], psi[i]))
            assert abs(pr.e_y) <= 0.125  # spacing / 2


def rowwise_read_recorded_csv(path) -> dict[str, np.ndarray]:
    """The row-by-row recorded-log reader that numpy's parser replaced, kept as the oracle."""
    try:
        # read_text reads line ends as text mode does; a line ends at \n only
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    rows = [(n, ln.strip()) for n, ln in enumerate(lines, 1)
            if ln.strip() and not ln.strip().startswith("#")]
    if not rows:
        raise ValueError(f"{path} is empty")
    header = [c.strip() for c in rows[0][1].split(",")]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ValueError(f"{path} line {rows[0][0]} ({rows[0][1]!r}) has the column "
                             f"{name!r} twice")
    unknown = set(header) - set(RECORDED_COLUMNS)
    if unknown:
        raise ValueError(f"{path}: unknown columns {sorted(unknown)}")
    for col in ("t", "X", "Y", "psi"):
        if col not in header:
            raise ValueError(f"{path}: missing required channel '{col}'")
    if len(rows) == 1:
        raise ValueError(f"{path} has no data rows")
    data = []
    for n, ln in rows[1:]:
        at = f"{path} line {n} ({ln!r})"
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{at} has {len(cells)} cells, the header has {len(header)}")
        try:
            data.append([float(c) for c in cells])
        except ValueError:
            raise ValueError(f"{at} has a non-numeric cell") from None
        for name, value in zip(header, data[-1]):
            if not math.isfinite(value):
                raise ValueError(f"{at} has a non-finite cell ({name})")
    arr = np.asarray(data)
    return {name: arr[:, i] for i, name in enumerate(header)}


# cells numpy's parser and float() might read differently: spaces, underscores,
# non-ASCII digits and spaces, the ASCII separators, signs, specials, garbage;
# and characters where str.splitlines() splits a line and text mode does not
_ODD_CELLS = ["", " ", " 1.5", "2.5 ", "\t3", "1_0", "\u0661\u0662", "\uff11", "\u20071",
              "1\x1f", "\x1f1", "\x0c1", "+1", "-0.0", "1.", ".5", "1e", "1e5", "1E-3",
              "nan", "-inf", "Infinity", "1e400", "0x10", "abc", "1,5", "#", "1#2", '"1"',
              "1\x0b2", "1\x1c", "\x1e#", "\x85", "1\u2028", "\u20292"]
_HEADERS = ["t,X,Y,psi", "t,X,Y,psi,yaw_rate,speed,steer", " t , X ,Y,psi,speed",
            "psi,t,Y,X,steer"] * 3 + ["t,X,Y", "t,X,Y,psi,altitude", "t,X,Y,psi,speed,",
                                      "t,X,Y,psi,t", "t,X,Y,psi,speed, speed"]


@st.composite
def recorded_log_text(draw) -> str:
    header = draw(st.sampled_from(_HEADERS))
    # now and then every data row is one cell short or long of the header
    width = header.count(",") + 1 + draw(st.sampled_from([0] * 6 + [-1, 1]))
    clean = st.floats(-1e6, 1e6).map(repr)
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 12 + ["odd"] * 2 + ["short", "long", "comment",
                                                                  "blank"]))
        if kind == "row":
            lines.append(",".join(draw(st.lists(clean, min_size=width, max_size=width))))
        elif kind == "odd":  # one odd cell in a clean row
            cells = draw(st.lists(clean, min_size=width, max_size=width))
            cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(_ODD_CELLS))
            lines.append(",".join(cells))
        elif kind in ("short", "long"):
            n = width - 1 if kind == "short" else width + 1
            lines.append(",".join(draw(st.lists(clean, min_size=n, max_size=n))))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #x,1", "#1,2,3,4"])))
        else:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
    if draw(st.booleans()):
        lines.insert(0, "# steerkit log")
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + \
        draw(st.sampled_from(["", "\n"]))


def _outcome(reader, file: Path):
    try:
        return {k: v.tobytes() for k, v in reader(file).items()}
    except ValueError as e:
        return str(e)


class TestReadRecordedCsvOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=recorded_log_text())
    def test_matches_rowwise_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "log.csv"
            file.write_text(text, encoding="utf-8", newline="")
            assert _outcome(read_recorded_csv, file) == _outcome(rowwise_read_recorded_csv, file)

    def test_long_log_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cols = np.column_stack([np.arange(3000) * 0.02] + [rng.standard_normal(3000) * 10.0 ** k
                                                          for k in range(-3, 3)])
        file = tmp_path / "log.csv"
        file.write_text("# header next\nt,X,Y,psi,yaw_rate,speed,steer\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in cols.tolist()), encoding="utf-8")
        assert _outcome(read_recorded_csv, file) == _outcome(rowwise_read_recorded_csv, file)
        assert read_recorded_csv(file)["steer"].tobytes() == cols[:, 6].tobytes()


class TestSmoothRecorded:
    def test_noisy_straight_becomes_drivable(self, params):
        rng = np.random.default_rng(1)
        t = np.arange(0.0, 40.0, 0.2)
        raw = load_recorded(t, 3.0 * t, 0.3 * rng.standard_normal(len(t)), np.zeros_like(t))
        sm = smooth_recorded(raw, params, v=3.0)
        assert np.max(np.abs(sm.kappa)) < 0.01

    def test_total_variation_reduced(self, params):
        rng = np.random.default_rng(2)
        t = np.arange(0.0, 40.0, 0.2)
        raw = load_recorded(t, 3.0 * t, 0.3 * rng.standard_normal(len(t)), np.zeros_like(t))
        sm = smooth_recorded(raw, params, v=3.0)
        assert np.sum(np.abs(np.diff(sm.kappa))) < np.sum(np.abs(np.diff(raw.kappa)))

    def test_smooth_circle_self_consistent(self, params):
        raw = recorded_circle()
        sm = smooth_recorded(raw, params, v=3.0)
        mid = slice(len(sm) // 10, -len(sm) // 10)
        assert np.all(np.abs(sm.kappa[mid] - 0.02) <= 0.05 * 0.02)

    def test_output_within_steering_envelope(self, params):
        raw = recorded_circle(radius=20.0, speed=2.0)
        sm = smooth_recorded(raw, params, v=2.0)
        assert np.max(np.abs(sm.kappa)) <= math.tan(params.max_steer) / params.wheelbase + 1e-9

    @pytest.mark.parametrize("v", [0.0, -1.0, SMOOTH_SPEED_LIMIT, 100.0])
    def test_speed_outside_grid_rule_rejected(self, params, v):
        # beyond SMOOTH_SPEED_LIMIT the smoothing gain grid would not ascend
        raw = recorded_circle()
        with pytest.raises(ValueError, match=f"in \\(0, {SMOOTH_SPEED_LIMIT:g}\\) m/s"):
            smooth_recorded(raw, params, v=v)

    def test_the_slowest_speed_named_is_the_first_the_row_budget_allows(self, params):
        # the message rounds the slowest speed up to 4 digits: that speed must
        # pass the budget check and one step of the 4th digit below must not
        from steerkit import simkit

        raw = recorded_circle()
        with pytest.raises(ValueError, match="too slow") as err:
            smooth_recorded(raw, params, v=0.001)
        named = str(err.value).rsplit("allows is ", 1)[1].removesuffix(" m/s")
        slowest = float(named)

        class Ran(Exception):
            pass

        def run_scenario(cfg, schedule, params):
            raise Ran(cfg.log_rows)

        with mock.patch.object(simkit, "run_scenario", run_scenario):
            with pytest.raises(Ran) as ran:
                smooth_recorded(raw, params, v=slowest)
        assert ran.value.args[0] <= simkit.MAX_LOG_ROWS
        below = slowest - 10.0 ** (math.floor(math.log10(slowest)) - 3)
        with pytest.raises(ValueError, match=f"smoothing speed {below:g} m/s is too slow"):
            smooth_recorded(raw, params, v=below)

    def test_speed_limit_is_where_grid_stops_ascending(self):
        from steerkit.pathkit import SMOOTH_GRID_CAP, SMOOTH_GRID_FLOOR

        def ascends(v):
            return max(SMOOTH_GRID_FLOOR, 0.5 * v) < min(SMOOTH_GRID_CAP, 1.5 * v + 1.0)

        assert SMOOTH_SPEED_LIMIT == 58.0
        assert ascends(np.nextafter(SMOOTH_SPEED_LIMIT, 0.0)) and ascends(1e-9)
        assert not ascends(SMOOTH_SPEED_LIMIT)

    def test_noise_estimator_scales(self):
        t = np.arange(0.0, 40.0, 0.2)
        rng = np.random.default_rng(3)
        clean = load_recorded(t, 3.0 * t, np.zeros_like(t), np.zeros_like(t))
        noisy = load_recorded(t, 3.0 * t, 0.3 * rng.standard_normal(len(t)), np.zeros_like(t))
        assert position_noise_estimate(clean) < 0.02
        assert 0.15 < position_noise_estimate(noisy) < 0.45
