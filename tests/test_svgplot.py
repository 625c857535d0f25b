import contextlib
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
from hypothesis import given, settings, strategies as st

from steerkit import svgplot
from steerkit.svgplot import PALETTE, PANEL_HEIGHT, TICKS, WIDTH, Panel, Series, escape


def per_point_polyline(x, y, logx, xlo, xhi, ylo, yhi, px0, px1, py0, py1):
    """The polyline points as render formatted them one point at a time: the
    oracle of the vectorized transform."""
    def tx(v):
        v = math.log10(v) if logx else v
        return px0 + (v - xlo) / (xhi - xlo) * (px1 - px0)

    def ty(v):
        return py1 - (v - ylo) / (yhi - ylo) * (py1 - py0)

    return " ".join(f"{tx(float(a)):.2f},{ty(float(b)):.2f}" for a, b in zip(x, y))


class TestPolylines:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9000), logx=st.booleans(),
           scale=st.floats(1e-6, 1e6))
    def test_points_equal_per_point_formatting(self, seed, n, logx, scale):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(1e-3, 1.0, n)) * scale
        y = rng.standard_normal(n) * scale
        text = svgplot.render([Panel(series=[Series(x, y)], logx=logx)])
        points = re.search(r'<polyline points="([^"]*)"', text).group(1)
        # render's axis limits: the data range, y padded by 5%
        xlo, xhi = (math.log10(x.min()), math.log10(x.max())) if logx else (x.min(), x.max())
        if xhi <= xlo:
            xhi = xlo + 1.0
        ylo, yhi = float(y.min()), float(y.max())
        if yhi <= ylo:
            yhi = ylo + 1.0
        pad = 0.05 * (yhi - ylo)
        step = max(1, n // 4000)
        assert points == per_point_polyline(x[::step], y[::step], logx, float(xlo), float(xhi),
                                            ylo - pad, yhi + pad, 70, 800, 34, 254)


def coordinates(inside: bool):
    """Coordinates that probe the point kernel, below POINT_BOUND in
    magnitude (inside) or any: exact and near ties of the hundredths (k / 8
    and k / 200), +-0.0, tiny magnitudes and values either side of the bound."""
    bound = svgplot.POINT_BOUND
    signed = st.booleans().map(lambda neg: -1.0 if neg else 1.0)
    if not inside:
        return st.one_of(st.floats(), st.sampled_from([bound, -bound, math.inf, math.nan]),
                         st.tuples(signed, st.floats(bound, 1.1 * bound)).map(math.prod))
    return st.one_of(
        st.integers(-8 * 10**5 + 1, 8 * 10**5 - 1).map(lambda k: k / 8),
        st.integers(-2 * 10**7 + 1, 2 * 10**7 - 1).map(lambda k: k / 200),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.005, -0.005, 0.015, 99999.995,
                         math.nextafter(bound, 0.0), math.nextafter(-bound, 0.0)]),
        st.tuples(signed, st.floats(0.0, 0.01)).map(math.prod),
        st.tuples(signed, st.floats(0.9 * bound, bound, exclude_max=True)).map(math.prod),
        st.floats(-bound, bound, exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(coordinates(True), coordinates(True)), max_size=30),
       outside=st.one_of(st.none(), st.tuples(coordinates(True), coordinates(False))))
def test_point_kernel_equals_percent_formatting(points, outside):
    # repeated up to POINT_KERNEL_MIN points (keeping the drawn count's
    # parity), so that the kernel formats them, not the short-series fallback
    n = svgplot.POINT_KERNEL_MIN + len(points) % 2
    points = (points * n)[:max(len(points), n)]
    # one coordinate at or past the bound sends the whole series to "%.2f"
    points = points + [outside[::-1] if len(points) % 2 else outside] if outside else points
    px, py = (np.array([p[i] for p in points], dtype=float) for i in (0, 1))
    assert svgplot._points(px, py) == " ".join("%.2f,%.2f" % p for p in points)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=st.text(alphabet=st.sampled_from("a<>&;'\" é"), max_size=30))
def test_escape_matches_saxutils(text):
    assert svgplot.escape(text) == sax_escape(text)


# ---------------------------------------------------------------- the oracle
# render as it took its axis ranges and decimated its series before it kept
# one finite mask per series: every series' finite points copied, then
# concatenated per axis.  Byte-equal to render wherever its ticks end.

def legacy_finite(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = np.isfinite(x) & np.isfinite(y)
    return x[ok], y[ok]


def legacy_ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def legacy_render(panels, out_path):
    fmt = svgplot._fmt
    ml, mr, mt, mb = 70, 20, 34, 46
    total_h = PANEL_HEIGHT * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{total_h}" '
        f'viewBox="0 0 {WIDTH} {total_h}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{total_h}" fill="white"/>',
    ]
    for pi, panel in enumerate(panels):
        oy = pi * PANEL_HEIGHT
        px0, px1 = ml, WIDTH - mr
        py0, py1 = oy + mt, oy + PANEL_HEIGHT - mb

        data = [legacy_finite(s.x, s.y) for s in panel.series]
        xs = np.concatenate([d[0] for d in data if len(d[0])] or [np.array([0.0, 1.0])])
        ys = np.concatenate([d[1] for d in data if len(d[1])] or [np.array([0.0, 1.0])])
        if panel.logx:
            xs = xs[xs > 0]
            if len(xs) == 0:
                xs = np.array([0.1, 1.0])
            xlo, xhi = math.log10(xs.min()), math.log10(xs.max())
        else:
            xlo, xhi = float(xs.min()), float(xs.max())
        for v, _ in panel.hlines:
            ys = np.append(ys, v)
        ylo, yhi = float(ys.min()), float(ys.max())
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            yhi = ylo + 1.0
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad

        def tx(x):
            v = math.log10(x) if panel.logx else x
            return px0 + (v - xlo) / (xhi - xlo) * (px1 - px0)

        def ty(y):
            return py1 - (y - ylo) / (yhi - ylo) * (py1 - py0)

        parts.append(f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" height="{py1 - py0}" '
                     'fill="none" stroke="#444"/>')
        if panel.title:
            parts.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{oy + 18}" text-anchor="middle" '
                         f'font-size="14">{escape(panel.title)}</text>')
        if panel.logx:
            xticks = [10.0**d for d in range(math.floor(xlo), math.ceil(xhi) + 1)
                      if xlo <= d <= xhi]
        else:
            xticks = legacy_ticks(xlo, xhi)
        for t in xticks:
            xx = tx(t)
            parts.append(f'<line x1="{xx:.1f}" y1="{py1}" x2="{xx:.1f}" y2="{py1 + 4}" stroke="#444"/>')
            parts.append(f'<text x="{xx:.1f}" y="{py1 + 17}" text-anchor="middle">{fmt(t)}</text>')
        for t in legacy_ticks(ylo, yhi):
            yy = ty(t)
            parts.append(f'<line x1="{px0 - 4}" y1="{yy:.1f}" x2="{px0}" y2="{yy:.1f}" stroke="#444"/>')
            parts.append(f'<text x="{px0 - 7}" y="{yy + 4:.1f}" text-anchor="end">{fmt(t)}</text>')
        if panel.xlabel:
            parts.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{py1 + 36}" '
                         f'text-anchor="middle">{escape(panel.xlabel)}</text>')
        if panel.ylabel:
            cx, cy = px0 - 52, (py0 + py1) / 2
            parts.append(f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
                         f'transform="rotate(-90 {cx} {cy:.1f})">{escape(panel.ylabel)}</text>')
        for v, label in panel.vlines:
            if (panel.logx and v <= 0) or not (xlo <= (math.log10(v) if panel.logx else v) <= xhi):
                continue
            xx = tx(v)
            parts.append(f'<line x1="{xx:.1f}" y1="{py0}" x2="{xx:.1f}" y2="{py1}" '
                         'stroke="#999" stroke-dasharray="4,3"/>')
            if label:
                parts.append(f'<text x="{xx + 3:.1f}" y="{py0 + 12}" fill="#555">{escape(label)}</text>')
        for v, label in panel.hlines:
            yy = ty(v)
            parts.append(f'<line x1="{px0}" y1="{yy:.1f}" x2="{px1}" y2="{yy:.1f}" '
                         'stroke="#999" stroke-dasharray="4,3"/>')
            if label:
                parts.append(f'<text x="{px0 + 5}" y="{yy - 4:.1f}" fill="#555">{escape(label)}</text>')
        for si, s in enumerate(panel.series):
            x, y = data[si]
            if panel.logx:
                keep = x > 0
                x, y = x[keep], y[keep]
            if len(x) == 0:
                continue
            color = PALETTE[si % len(PALETTE)]
            step = max(1, len(x) // 4000)
            pts = " ".join(f"{tx(a):.2f},{ty(b):.2f}"
                           for a, b in zip(x[::step].tolist(), y[::step].tolist()))
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.3"{dash}/>')
            if s.label:
                ly = py0 + 14 + 14 * si
                parts.append(f'<line x1="{px1 - 110}" y1="{ly - 4}" x2="{px1 - 90}" y2="{ly - 4}" '
                             f'stroke="{color}" stroke-width="2"/>')
                parts.append(f'<text x="{px1 - 85}" y="{ly}">{escape(s.label)}</text>')
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")


@st.composite
def series(draw, logx: bool):
    """One series: its length on either side of the 4,000-point decimation
    threshold or short, empty or all non-finite, NaN and +-inf cells, and
    x <= 0 on a log axis."""
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from([3999, 4000, 4001, 8000, 8001,
                                                            12003])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, offset = draw(st.sampled_from([1e-6, 1.0, 1e3, 1e6])), draw(st.sampled_from(
        [0.0, -5.0, 1e4]))
    x = np.sort(rng.uniform(-0.5 if logx else -1.0, 1.0, n)) * scale
    y = rng.standard_normal(n) * scale + offset
    kind = draw(st.sampled_from(["finite", "holes", "holes", "nonfinite"]))
    for a in (x, y):
        if kind == "nonfinite":
            a[:] = rng.choice([np.nan, np.inf, -np.inf], n)
        elif kind == "holes":
            hit = rng.random(n) < 0.1
            a[hit] = rng.choice([np.nan, np.inf, -np.inf], int(hit.sum()))
    return Series(x, y, label=draw(st.sampled_from(["", "a<b"])),
                  dash=draw(st.sampled_from([None, "4,2"])))


@st.composite
def panels(draw):
    out = []
    for _ in range(draw(st.integers(1, 2))):
        logx = draw(st.booleans())
        lines = st.lists(st.tuples(st.sampled_from([-180.0, 0.0, 0.3, 2.0]),
                                   st.sampled_from(["", "mark"])), max_size=2)
        out.append(Panel(series=draw(st.lists(series(logx), min_size=1, max_size=4)),
                         title="t", xlabel="x", ylabel="y", logx=logx,
                         hlines=draw(lines), vlines=draw(lines)))
    return out


class TestRangesAndDecimation:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(chart=panels())
    def test_bytes_equal_the_concatenating_oracle(self, tmp_path_factory, chart):
        old = tmp_path_factory.mktemp("svg") / "old.svg"
        legacy_render(chart, old)
        assert svgplot.render(chart).encode("utf-8") == old.read_bytes()

    def test_traced_peak_of_a_panel_of_four_long_series(self):
        # the masks and one series' drawn-point index, not a copy of the panel
        n = 250_000
        t = np.arange(n) * 1e-3
        chart = [Panel(series=[Series(t, np.sin(t * k)) for k in range(1, 5)])]
        tracemalloc.start()
        try:
            svgplot.render(chart)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n, f"traced peak {peak / n:.1f} B per point of one series"


# ------------------------------------------------------------ degenerate spans

@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in this (main) thread after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def assert_finite_svg(text: str) -> None:
    numbers = re.findall(r'\s(?:x1|y1|x2|y2|x|y)="([^"]*)"|points="([^"]*)"', text)
    cells = [c for a, b in numbers for c in (a.split() if a else re.split(r"[ ,]", b))]
    assert all(math.isfinite(float(c)) for c in cells if c)
    assert not re.search(r"\b(nan|inf)\b", text), "nan or inf written into the SVG"


DEGENERATE = [(1.0, 1.0 + 2.2e-16), (0.0, 5e-324), (-1e308, 1e308), (-1.7e308, 1.7e308),
              (2.0**51, 2.0**51), (1e300, 1e300), (-1.7e308, -1.7e308), (0.0, 1.79e308),
              (0.0, 1e-322), (9.9e-322, 9.95e-322), (0.0, 4.97e-321)]


def test_degenerate_spans_end_in_a_subprocess(tmp_path):
    """Ticks and plots over empty, one-ulp, subnormal and overflowing spans
    end (a stall would hang, so the work runs in a child with a timeout) and
    write finite SVG numbers."""
    code = ("import sys; import numpy as np; from steerkit import svgplot\n"
            "from steerkit.svgplot import Panel, Series\n"
            f"for i, (lo, hi) in enumerate({DEGENERATE!r}):\n"
            "    if lo < hi: svgplot._ticks(lo, hi)\n"
            "    s = Series(np.array([lo, hi]), np.array([lo, hi]))\n"
            "    svg = svgplot.render([Panel([s]), Panel([s], logx=True)])\n"
            "    open(f'{sys.argv[1]}/{i}.svg', 'w', encoding='utf-8').write(svg)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    for i in range(len(DEGENERATE)):
        assert_finite_svg((tmp_path / f"{i}.svg").read_text())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False))
def test_ticks_of_any_finite_span_are_finite_and_few(lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    if lo == hi:
        return
    with time_limit(10):
        ticks = svgplot._ticks(lo, hi)
    assert len(ticks) <= 2 * TICKS + 2
    assert all(math.isfinite(t) and lo <= t or abs(t) == 0.0 for t in ticks)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=6),
       logx=st.booleans(), hline=st.booleans())
def test_finite_data_never_raises_nor_writes_nan(values, logx, hline):
    x, y = np.array(values).T
    panel = Panel(series=[Series(x, y)], logx=logx, hlines=[(0.0, "")] if hline else [])
    with time_limit(10):
        text = svgplot.render([panel])
    assert_finite_svg(text)
