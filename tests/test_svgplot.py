import math
import re
from xml.sax.saxutils import escape as sax_escape

import numpy as np
from hypothesis import given, settings, strategies as st

from steerkit import svgplot
from steerkit.svgplot import Panel, Series


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
    def test_points_equal_per_point_formatting(self, tmp_path_factory, seed, n, logx, scale):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(1e-3, 1.0, n)) * scale
        y = rng.standard_normal(n) * scale
        out = tmp_path_factory.mktemp("svg") / "p.svg"
        svgplot.render([Panel(series=[Series(x, y)], logx=logx)], out)
        points = re.search(r'<polyline points="([^"]*)"', out.read_text()).group(1)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=st.text(alphabet=st.sampled_from("a<>&;'\" é"), max_size=30))
def test_escape_matches_saxutils(text):
    assert svgplot.escape(text) == sax_escape(text)
