"""Minimal SVG line charts: no plotting dependency, valid XML, diff-able output.

Plots are pure views of data that is always co-emitted as CSV; nothing is
computed here beyond axis scaling, and nothing is written: `render` returns
the SVG text, which the caller writes as an artifact.  A polyline's points
are the text of "%.2f,%.2f" per point, made for a whole series of 100 points
or more at once in numpy from exact hundredths and a byte table (`_points`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, PANEL_HEIGHT = 820, 300   # px of the chart, and of each panel in it
TICKS = 5                        # a linear axis gets about this many ticks
POINT_BOUND = 1e5   # a series with a coordinate this large (or not finite) is formatted by "%.2f"
# a series of fewer points is formatted by "%.2f" too: the numpy text costs
# about 40-60 us a call, "%.2f" 0.5 us a point, so they break even near 100
POINT_KERNEL_MIN = 100
# byte pairs of a polyline point's text (`_points`): the digits of 0 to 99,
# "." and "," and " " each with a zero byte
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype="<u2")
_DOT, _COMMA, _SPACE = np.frombuffer(b".\0,\0 \0", dtype="<u2")
_TENS = 10 ** np.arange(1, 6)   # a whole part at or above each has one more digit


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    dash: str | None = None


@dataclass
class Panel:
    series: list[Series]
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    logx: bool = False
    vlines: list[tuple[float, str]] = field(default_factory=list)
    hlines: list[tuple[float, str]] = field(default_factory=list)


def escape(text: str) -> str:
    """XML-escape &, > and < (in that order, as xml.sax.saxutils.escape does)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _limits(lo: float, hi: float) -> tuple[float, float]:
    """An axis's limits for data from lo to hi.  An empty span widens to
    [lo, lo + 1], or, where lo + 1 rounds to lo, to the one float step
    between lo and its neighbour toward zero."""
    if not hi <= lo:
        return lo, hi
    if lo + 1.0 > lo:
        return lo, lo + 1.0
    near = math.nextafter(lo, 0.0)
    return min(lo, near), max(lo, near)


def _frac(v, lo: float, hi: float):
    """Where v (a float or an array) lies between an axis's limits, as
    (v - lo) / (hi - lo); taken on halves where the span overflows."""
    if hi - lo == math.inf:
        v, lo, hi = v * 0.5, lo * 0.5, hi * 0.5
    return (v - lo) / (hi - lo)


def _ticks(lo: float, hi: float) -> list[float]:
    """About TICKS ticks at the multiples of a 1-2-5 step in [lo, hi], for
    finite limits lo < hi.  The step is at least the smallest float, and the
    ticks end before one that is not finite or that the step cannot move."""
    raw = (hi - lo) / TICKS
    if raw == math.inf:   # the span overflows: take it on halves
        raw = (hi * 0.5 - lo * 0.5) / TICKS * 2.0
    tiny = math.ulp(0.0)
    raw = max(raw, tiny)
    mag = max(10.0 ** math.floor(math.log10(raw)), tiny)
    step = min((s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw), default=raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while math.isfinite(t) and t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:
            break
        t += step
    return out


def _extent(a: np.ndarray, where: np.ndarray) -> tuple[float, float]:
    """(min, max) of a where `where` holds; (inf, -inf) where it holds nowhere."""
    return (float(np.min(a, where=where, initial=math.inf)),
            float(np.max(a, where=where, initial=-math.inf)))


def _decimated(x: np.ndarray, y: np.ndarray, drawn: np.ndarray):
    """Copies of every step-th drawn point of a series, step = the drawn
    points // 4000 (at least 1)."""
    keep = np.flatnonzero(drawn)
    keep = keep[::max(1, len(keep) // 4000)]
    return x[keep], y[keep]


def _hundredths(v: np.ndarray) -> np.ndarray:
    """|v| * 100 rounded to a whole number exactly, ties to even as "%.2f"
    rounds them, as int64, for |v| < POINT_BOUND: frexp gives v's 53-bit
    significand, 100 times which fits in int64, and a right shift divides
    it by its power of two."""
    m, e = np.frexp(np.abs(v))
    scaled = (m * 2.0 ** 53).astype(np.int64) * 100   # below 2 ** 60
    shift = np.minimum(53 - e, 61)   # from 61 on, every scaled value rounds to 0
    q = scaled >> shift
    rest, half = scaled - (q << shift), np.int64(1) << (shift - 1)
    return q + ((rest > half) | ((rest == half) & (q & 1 == 1)))


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """" ".join("%.2f,%.2f" % p for p in zip(px, py)) for float64 arrays,
    made at once where every coordinate is below POINT_BOUND in magnitude
    and there are POINT_KERNEL_MIN points or more.
    Each coordinate is 7 little-endian byte pairs: a pad, three pairs of
    integer places, "." and a pad, the two decimals, then "," or " ".  The
    zero bytes before the first integer digit go, save the one that takes
    the sign, which is the coordinate's sign bit (so -0.0 keeps its "-")."""
    v = np.column_stack((px, py)).ravel()
    if len(px) < POINT_KERNEL_MIN or not (np.abs(v) < POINT_BOUND).all():   # NaN fails too
        return " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
    whole, cents = np.divmod(_hundredths(v), 100)
    text = np.empty((len(v), 7), dtype="<u2")
    text[:, 0] = 0
    text[:, 1] = _PAIRS[whole // 10000]
    text[:, 2] = _PAIRS[whole // 100 % 100]
    text[:, 3] = _PAIRS[whole % 100]
    text[:, 4] = _DOT
    text[:, 5] = _PAIRS[cents]
    text[0::2, 6] = _COMMA
    text[1::2, 6] = _SPACE
    chars = text.view(np.uint8)   # the integer places are bytes 2 to 7
    first = 7 - np.searchsorted(_TENS, whole, side="right")
    chars[:, :8] *= np.arange(8) >= first[:, None]
    neg = np.flatnonzero(np.signbit(v))
    chars[neg, first[neg] - 1] = ord("-")
    return chars.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render(panels: list[Panel]) -> str:
    """The SVG text of the panels stacked vertically in one chart."""
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

        # each series' drawn points: finite x and y, and x > 0 on a log axis;
        # y spans every finite point, x the drawn ones
        data = []
        xlo = ylo = math.inf
        xhi = yhi = -math.inf
        for s in panel.series:
            x, y = np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)
            drawn = np.isfinite(x)
            drawn &= np.isfinite(y)
            lo, hi = _extent(y, drawn)
            ylo, yhi = min(ylo, lo), max(yhi, hi)
            if panel.logx:
                drawn &= x > 0
            lo, hi = _extent(x, drawn)
            xlo, xhi = min(xlo, lo), max(xhi, hi)
            data.append((x, y, drawn))
        if ylo > yhi:       # no finite point: the unit square (its x > 0 part on a log axis)
            xlo, xhi, ylo, yhi = (1.0 if panel.logx else 0.0), 1.0, 0.0, 1.0
        elif xlo > xhi:     # a log axis with no x > 0
            xlo, xhi = 0.1, 1.0
        if panel.logx:
            xlo, xhi = math.log10(xlo), math.log10(xhi)
        if panel.hlines:
            ys = [ylo, yhi] + [v for v, _ in panel.hlines]
            ylo, yhi = float(np.min(ys)), float(np.max(ys))
        xlo, xhi = _limits(xlo, xhi)
        ylo, yhi = _limits(ylo, yhi)
        pad = 0.05 * (yhi - ylo)   # inf where the span overflows: y then spans every float
        top = sys.float_info.max
        ylo, yhi = max(ylo - pad, -top), min(yhi + pad, top)

        def sx(v):   # v on the x axis' scale (log10 x on a log axis)
            return px0 + _frac(v, xlo, xhi) * (px1 - px0)

        def tx(x):
            return sx(math.log10(x) if panel.logx else x)

        def ty(y):
            return py1 - _frac(y, ylo, yhi) * (py1 - py0)

        parts.append(f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" height="{py1 - py0}" '
                     'fill="none" stroke="#444"/>')
        if panel.title:
            parts.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{oy + 18}" text-anchor="middle" '
                         f'font-size="14">{escape(panel.title)}</text>')

        if panel.logx:
            xticks = [10.0**d for d in range(math.floor(xlo), math.ceil(xhi) + 1)
                      if xlo <= d <= xhi and d <= sys.float_info.max_10_exp]
        else:
            xticks = _ticks(xlo, xhi)
        for t in xticks:
            xx = tx(t if not panel.logx else t)
            parts.append(f'<line x1="{xx:.1f}" y1="{py1}" x2="{xx:.1f}" y2="{py1 + 4}" stroke="#444"/>')
            parts.append(f'<text x="{xx:.1f}" y="{py1 + 17}" text-anchor="middle">{_fmt(t)}</text>')
        for t in _ticks(ylo, yhi):
            yy = ty(t)
            parts.append(f'<line x1="{px0 - 4}" y1="{yy:.1f}" x2="{px0}" y2="{yy:.1f}" stroke="#444"/>')
            parts.append(f'<text x="{px0 - 7}" y="{yy + 4:.1f}" text-anchor="end">{_fmt(t)}</text>')
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

        for si, (s, (x, y, drawn)) in enumerate(zip(panel.series, data)):
            x, y = _decimated(x, y, drawn)
            if len(x) == 0:
                continue
            color = PALETTE[si % len(PALETTE)]
            if panel.logx:
                x = np.array(list(map(math.log10, x.tolist())))
            px, py = sx(x), ty(y)   # tx and ty on the whole slice, in their operation order
            pts = _points(px, py)
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.3"{dash}/>')
            if s.label:
                ly = py0 + 14 + 14 * si
                parts.append(f'<line x1="{px1 - 110}" y1="{ly - 4}" x2="{px1 - 90}" y2="{ly - 4}" '
                             f'stroke="{color}" stroke-width="2"/>')
                parts.append(f'<text x="{px1 - 85}" y="{ly}">{escape(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
