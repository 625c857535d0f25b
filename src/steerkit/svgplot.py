"""Minimal SVG line charts: no plotting dependency, valid XML, diff-able output.

Plots are pure views of data that is always co-emitted as CSV; nothing is
computed here beyond axis scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    color: str | None = None
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


def _finite(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = np.isfinite(x) & np.isfinite(y)
    return x[ok], y[ok]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render(panels: list[Panel], out_path, width: int = 820, panel_height: int = 300) -> None:
    """Write the panels stacked vertically into one SVG file."""
    ml, mr, mt, mb = 70, 20, 34, 46
    total_h = panel_height * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{total_h}" '
        f'viewBox="0 0 {width} {total_h}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{total_h}" fill="white"/>',
    ]
    for pi, panel in enumerate(panels):
        oy = pi * panel_height
        px0, px1 = ml, width - mr
        py0, py1 = oy + mt, oy + panel_height - mb

        data = [_finite(s.x, s.y) for s in panel.series]
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

        for si, s in enumerate(panel.series):
            x, y = data[si]
            if panel.logx:
                keep = x > 0
                x, y = x[keep], y[keep]
            if len(x) == 0:
                continue
            color = s.color or PALETTE[si % len(PALETTE)]
            step = max(1, len(x) // 4000)
            # tx and ty on the whole slice, in their operation order
            x, y = x[::step], y[::step]
            if panel.logx:
                x = np.array(list(map(math.log10, x.tolist())))
            px = px0 + (x - xlo) / (xhi - xlo) * (px1 - px0)
            py = py1 - (y - ylo) / (yhi - ylo) * (py1 - py0)
            pts = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
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
