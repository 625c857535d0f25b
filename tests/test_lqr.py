import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steerkit import NumericalError, lqr
from steerkit.lqr import (
    CERT_MARGIN, GainSchedule, GainSet, LqrWeights, build_schedule, certify, design_dynamic,
    design_kinematic, discrete_error_model, load_gain_csv, save_gain_csv,
)
from steerkit.numkit import spectral_radius

from oracles import lookup
from test_cli_fuzz import TABLES
from test_pathkit import _ODD_CELLS

EQUAL = LqrWeights((1.0, 1.0), 1.0)
EQUAL4 = LqrWeights((1.0, 1.0, 1.0, 1.0), 1.0)

# frozen after the first verified computation (default sedan, dt=0.02)
KIN_GAINS_V5 = (0.9542362839931806, 2.462405900588253)


class TestWeights:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            LqrWeights((0.0, 0.0), 1.0)

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            LqrWeights((1.0, -0.1), 1.0)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            LqrWeights((1.0, 1.0), 0.0)


class TestDesignKinematic:
    def test_gain_signs_steer_toward_path(self, params):
        gs = design_kinematic(5.0, params, EQUAL, 0.02)
        assert gs.k[0] > 0 and gs.k[1] > 0

    def test_regression_values(self, params):
        gs = design_kinematic(5.0, params, EQUAL, 0.02)
        assert gs.k[0] == pytest.approx(KIN_GAINS_V5[0], abs=1e-9)
        assert gs.k[1] == pytest.approx(KIN_GAINS_V5[1], abs=1e-9)

    def test_lateral_gain_decreases_with_speed(self, params):
        k5 = design_kinematic(5.0, params, EQUAL, 0.02)
        k10 = design_kinematic(10.0, params, EQUAL, 0.02)
        assert k10.k[0] < k5.k[0]

    def test_degenerate_weights_rejected(self, params):
        with pytest.raises(ValueError):
            design_kinematic(5.0, params, LqrWeights((0.0, 0.0), 1.0), 0.02)

    def test_speed_and_dt_guards(self, params):
        with pytest.raises(ValueError):
            design_kinematic(0.0, params, EQUAL, 0.02)
        with pytest.raises(ValueError):
            design_kinematic(5.0, params, EQUAL, 0.2)

    def test_certified_radius(self, params):
        gs = design_kinematic(5.0, params, EQUAL, 0.02)
        sysd = discrete_error_model("kinematic", 5.0, params, 0.02)
        rho = spectral_radius(sysd.A - np.outer(sysd.B[:, 0], gs.k))
        assert rho == pytest.approx(gs.closed_loop_radius, abs=1e-9)
        assert rho < 1.0 - 1e-6


class TestControlDtRange:
    @pytest.mark.parametrize("design, v, w", [(design_kinematic, 5.0, EQUAL),
                                              (design_dynamic, 5.0, EQUAL4)])
    def test_both_designers_share_one_range(self, params, design, v, w):
        lo, hi = lqr.CONTROL_DT_RANGE
        assert design(v, params, w, hi).dt == hi
        for dt in (lo, hi * 1.001, math.nan):
            with pytest.raises(ValueError, match="control period"):
                design(v, params, w, dt)
        assert lqr.check_control_dt(lqr.DEFAULT_CONTROL_DT) == lqr.DEFAULT_CONTROL_DT


class TestDesignDiscretizesOnce:
    @pytest.mark.parametrize("model", ["kinematic", "dynamic"])
    def test_one_zoh_per_designed_gain(self, params, model, monkeypatch):
        calls = []
        real = lqr._zoh
        monkeypatch.setattr(lqr, "_zoh", lambda *a: calls.append(a) or real(*a))
        design = design_kinematic if model == "kinematic" else design_dynamic
        gs = design(6.0, params, EQUAL if model == "kinematic" else EQUAL4)
        assert len(calls) == 1
        # the certificate on the shared model is the one certify gives
        again = certify(model, gs.k, 6.0, params, 0.02)
        assert again.closed_loop_radius == gs.closed_loop_radius

    def test_kinematic_zoh_is_closed_form(self, params):
        v, dt = 10.0, 0.02
        wheelbase = params.wheelbase
        sysd = discrete_error_model("kinematic", v, params, dt)
        assert np.array_equal(sysd.A, [[1.0, v * dt], [0.0, 1.0]])
        assert sysd.B[0, 0] == (v * dt) * (v / wheelbase * dt) / 2.0
        assert sysd.B[1, 0] == v / wheelbase * dt
        assert sysd.B.shape == (2, 1) and sysd.dt == dt


class TestDesignDynamic:
    @pytest.mark.parametrize("vx", [1.0, 5.0, 10.0, 15.0, 20.0])
    def test_certified_over_speed_range(self, params, vx):
        gs = design_dynamic(vx, params, EQUAL4, 0.02)
        assert gs.closed_loop_radius < 1.0 - 1e-6

    def test_zero_error_zero_feedback(self, params):
        gs = design_dynamic(10.0, params, EQUAL4, 0.02)
        assert float(gs.k @ np.zeros(4)) == 0.0

    def test_expensive_control_shrinks_gains(self, params):
        cheap = design_dynamic(10.0, params, EQUAL4, 0.02)
        dear = design_dynamic(10.0, params, LqrWeights((1.0,) * 4, 100.0), 0.02)
        assert np.linalg.norm(dear.k) < np.linalg.norm(cheap.k)

    def test_speed_guard(self, params):
        with pytest.raises(ValueError):
            design_dynamic(0.5, params, EQUAL4, 0.02)


class TestCostProperties:
    def test_uniform_cost_scaling_leaves_gain(self, params):
        base = design_kinematic(7.0, params, EQUAL, 0.02)
        scaled = design_kinematic(7.0, params, LqrWeights((10.0, 10.0), 10.0), 0.02)
        assert np.allclose(base.k, scaled.k, atol=1e-9)

    def test_lqr_dominates_perturbed_gains(self, params):
        # simulated quadratic cost of the design beats 100 random
        # stabilizing perturbations of itself
        v, dt = 5.0, 0.02
        sysd = discrete_error_model("kinematic", v, params, dt)
        gs = design_kinematic(v, params, EQUAL, dt)
        q = np.eye(2)
        r = 1.0

        def cost(k):
            x = np.array([1.0, 0.0])
            total = 0.0
            acl = sysd.A - np.outer(sysd.B[:, 0], k)
            for _ in range(2000):
                u = -float(k @ x)
                total += float(x @ q @ x) + r * u * u
                x = acl @ x
            return total

        j_opt = cost(gs.k)
        rng = np.random.default_rng(2024)
        tried = 0
        while tried < 100:
            k_try = gs.k * rng.uniform(0.5, 1.5, size=2)
            if spectral_radius(sysd.A - np.outer(sysd.B[:, 0], k_try)) >= 1.0 - 1e-9:
                continue
            tried += 1
            assert j_opt <= cost(k_try) * (1.0 + 1e-9)


class TestSchedule:
    def test_grid_validation(self, params):
        with pytest.raises(ValueError):
            build_schedule([5.0], "kinematic", params, EQUAL, 0.02)
        with pytest.raises(ValueError):
            build_schedule([5.0, 4.0], "kinematic", params, EQUAL, 0.02)
        with pytest.raises(ValueError):
            build_schedule([0.1, 5.0], "kinematic", params, EQUAL, 0.02)
        with pytest.raises(ValueError):
            build_schedule([5.0, 31.0], "kinematic", params, EQUAL, 0.02)

    def test_fig6_range_all_stable(self, kinematic_schedule):
        assert len(kinematic_schedule.gains) == 15
        for gs in kinematic_schedule.gains:
            assert gs.closed_loop_radius < 1.0 - 1e-6

    def test_gain_trend_monotone(self, kinematic_schedule):
        k = np.array([g.k for g in kinematic_schedule.gains])
        assert np.all(np.diff(k[:, 0]) < 0)
        assert np.all(np.diff(k[:, 1]) < 0)

    def test_lookup_on_grid_returns_design(self, kinematic_schedule):
        assert kinematic_schedule.gain(5.0) is kinematic_schedule.gains[4]

    def test_lookup_midpoint_is_mean(self, kinematic_schedule):
        lo = kinematic_schedule.gains[4].k
        hi = kinematic_schedule.gains[5].k
        mid = kinematic_schedule.gain(5.5)
        assert np.allclose(mid, 0.5 * (lo + hi), atol=1e-12)

    def test_lookup_clamps_outside(self, kinematic_schedule):
        assert kinematic_schedule.gain(0.2) is kinematic_schedule.gains[0]
        assert kinematic_schedule.gain(99.0) is kinematic_schedule.gains[-1]

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_lookup_rejects_non_finite_speed(self, kinematic_schedule, v):
        with pytest.raises(ValueError, match=f"non-finite speed {v}"):
            kinematic_schedule.gain(v)

    @pytest.mark.parametrize("model", ["kinematic", "dynamic"])
    def test_interpolated_gains_stable_at_fine_resolution(self, params, model,
                                                          kinematic_schedule, dynamic_schedule):
        sched = kinematic_schedule if model == "kinematic" else dynamic_schedule
        for v in np.arange(1.0, 15.0001, 0.1):
            assert lookup(sched, float(v)).closed_loop_radius < 1.0 - CERT_MARGIN

    def test_lookup_certifies_interpolated_gain(self, params):
        # grid gains built by hand, bypassing design: the interpolated gain
        # between them must still fail its certificate
        bad = [GainSet(k=np.array([-1.0, -5.0]), v=v, dt=0.02, model="kinematic",
                       closed_loop_radius=0.0) for v in (4.0, 6.0)]
        sched = GainSchedule(speeds=np.array([4.0, 6.0]), gains=bad, dt=0.02,
                             model="kinematic", params=params)
        with pytest.raises(NumericalError):
            certify(sched.model, sched.gain(5.0), 5.0, params, sched.dt)


class TestGainCsv:
    def test_roundtrip_bit_exact(self, params, kinematic_schedule):
        buf = io.StringIO()
        save_gain_csv(kinematic_schedule, buf)
        loaded = load_gain_csv(io.StringIO(buf.getvalue()), params)
        for a, b in zip(kinematic_schedule.gains, loaded.gains):
            assert a.v == b.v and a.dt == b.dt
            assert np.array_equal(a.k, b.k)

    def test_roundtrip_dynamic(self, params, dynamic_schedule):
        buf = io.StringIO()
        save_gain_csv(dynamic_schedule, buf)
        loaded = load_gain_csv(io.StringIO(buf.getvalue()), params)
        assert loaded.model == "dynamic"
        assert np.array_equal(loaded.gains[3].k, dynamic_schedule.gains[3].k)

    def test_bad_header_rejected(self, params):
        with pytest.raises(ValueError):
            load_gain_csv(io.StringIO("a,b,c\n1,2,3\n"), params)

    def test_unstable_row_rejected(self, params):
        text = "v,k1,k2,dt\n5.0,-1.0,-5.0,0.02\n6.0,-1.0,-5.0,0.02\n"
        with pytest.raises(NumericalError):
            load_gain_csv(io.StringIO(text), params)

    def test_empty_rejected(self, params):
        with pytest.raises(ValueError):
            load_gain_csv(io.StringIO(""), params)

    def test_short_row_rejected(self, params):
        # without a length check this row loads as k=[0.4] and broadcasts
        # through the radius check
        text = "v,k1,k2,dt\n5.0,0.9,2.4,0.02\n6.0,0.4,0.02\n"
        with pytest.raises(ValueError, match="line 3"):
            load_gain_csv(io.StringIO(text), params)

    def test_long_row_rejected(self, params):
        text = "v,k1,k2,dt\n5.0,0.9,2.4,0.02\n6.0,0.8,2.2,0.1,0.02\n"
        with pytest.raises(ValueError, match="line 3"):
            load_gain_csv(io.StringIO(text), params)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1, 3])
    def test_non_finite_cell_rejected(self, params, cell, column):
        row = ["6.0", "0.8", "2.2", "0.02"]
        row[column] = cell
        text = "v,k1,k2,dt\n5.0,0.9,2.4,0.02\n" + ",".join(row) + "\n"
        with pytest.raises(ValueError, match="line 3 .*non-finite"):
            load_gain_csv(io.StringIO(text), params)

    @pytest.mark.parametrize("cell", ["abc", "", "0x1p3"])
    def test_non_numeric_cell_names_the_line(self, params, cell):
        text = f"v,k1,k2,dt\n5.0,0.9,2.4,0.02\n6.0,{cell},2.2,0.02\n"
        with pytest.raises(ValueError, match=r"gain table line 3 \('6\.0,.*has a non-numeric cell"):
            load_gain_csv(io.StringIO(text), params)

    @pytest.mark.parametrize("dt", ["0.5", "0.001", "0.0", "-0.02"])
    def test_dt_outside_control_range_rejected(self, params, dt):
        text = f"v,k1,k2,dt\n5.0,0.9,2.4,0.02\n6.0,0.8,2.2,{dt}\n"
        with pytest.raises(ValueError, match=f"control period {dt} s on gain table line 3"):
            load_gain_csv(io.StringIO(text), params)


def linewise_load_gain_csv(fobj, p) -> GainSchedule:
    """The line-by-line gain-table loader that the shared CSV reader replaced, kept
    as the oracle, with the reader's message forms: every fault of the reader (a
    repeated column, cell counts, numbers, finite cells) is found in file order
    before the table's own dt and speed rules, which then go row by row."""
    rows, where = [], []   # the rows, and "gain table line N ('text')" of each
    header = None
    for lineno, line in enumerate(fobj, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = [c.strip() for c in cells]
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise ValueError(f"gain table line {lineno} ({line!r}) has the column "
                                     f"{name!r} twice")
            n = len(header) - 2
            if header[0] != "v" or header[-1] != "dt" or n not in (2, 4) or \
                    header[1 : 1 + n] != [f"k{i + 1}" for i in range(n)]:
                raise ValueError(f"unexpected gain table header {header!r}")
            continue
        at = f"gain table line {lineno} ({line!r})"
        if len(cells) != len(header):
            raise ValueError(f"{at} has {len(cells)} cells, the header has {len(header)}")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"{at} has a non-numeric cell") from None
        for name, value in zip(header, row):
            if not math.isfinite(value):
                raise ValueError(f"{at} has a non-finite cell ({name})")
        rows.append(row)
        where.append(at)
    if header is None:
        raise ValueError("gain table is empty")
    if not rows:
        raise ValueError("gain table has no data rows")
    model = "kinematic" if n == 2 else "dynamic"
    dt = rows[0][-1]
    for i, (row, at) in enumerate(zip(rows, where)):
        lqr.check_control_dt(row[-1], f" on {at}")
        if row[-1] != dt:
            raise ValueError(f"{at} has dt {row[-1]} after {dt}: the table mixes control periods")
        if i and not row[0] > rows[i - 1][0]:
            raise ValueError(f"{at} has speed {row[0]} after {rows[i - 1][0]}: "
                             "speeds must be ascending")
    speeds = np.array([row[0] for row in rows])
    try:
        gains = certify(model, [row[1:-1] for row in rows], speeds, p, dt)
    except ValueError:
        for row, at in zip(rows, where):   # the first row that fails on its own
            try:
                certify(model, row[1:-1], row[0], p, dt)
            except ValueError as e:
                raise ValueError(f"{at}: {e}") from None
        raise
    return GainSchedule(speeds=speeds, gains=gains, dt=dt, model=model, params=p)


_TABLE_HEADERS = ["v,k1,k1,dt", "v,k1,k2,dt,dt", "v,k2,k1,dt", "v,k1,k2,k3,k4,dt",
                  " v , k1,k2 ,dt", "v,k1,k2,k3,k4,dt,v", "dt,k1,k2,v"]


@st.composite
def gain_table_text(draw) -> str:
    """A designed gain table with up to three edits: an odd or non-finite cell, a
    short or long row, an out-of-range or mixed dt, descending speeds, gains that
    fail their certificate, another header, a dropped row, a comment or blank
    line; joined by one line end."""
    lines = list(TABLES[draw(st.sampled_from(sorted(TABLES)))])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["odd", "nonfinite", "short", "long", "dt", "mixed", "mixed",
                                     "descend", "unstable", "header", "drop", "comment",
                                     "blank"]))
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        cells = lines[i].split(",")
        if kind in ("odd", "nonfinite"):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(
                _ODD_CELLS if kind == "odd" else ["nan", "-inf", "1e400", "Infinity"]))
            lines[i] = ",".join(cells)
        elif kind in ("short", "long"):
            lines[i] = ",".join(cells[:-1]) if kind == "short" else lines[i] + ",1.0"
        elif kind in ("dt", "mixed"):
            dt = draw(st.sampled_from(["0.5", "0.001", "0.0", "-0.02", "0.05", "0.1", "0.02"]))
            for j in range(1, len(lines)) if kind == "dt" else [i]:
                lines[j] = ",".join(lines[j].split(",")[:-1] + [dt])
        elif kind == "unstable":
            lines[i] = ",".join(cells[:1] + ["-1.0"] * (len(cells) - 2) + cells[-1:])
        elif kind == "descend" and 1 <= i < len(lines) - 1:
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif kind == "header":
            lines[0] = draw(st.sampled_from(_TABLE_HEADERS))
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind in ("comment", "blank"):
            lines.insert(i, draw(st.sampled_from(["# note", "  #x,1", "#v,k1,k2,dt"]
                                                 if kind == "comment" else ["", "  ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _loaded(loader, text: str, p):
    """What a loader makes of the text read in text mode: the schedule's bytes, or
    the error's type and message."""
    try:
        s = loader(io.StringIO(text, newline=None), p)
    except (ValueError, NumericalError) as e:
        return type(e).__name__, str(e)
    return s.model, s.dt, s.speeds.tobytes(), [(g.v, g.dt, g.k.tobytes(), g.closed_loop_radius)
                                               for g in s.gains]


class TestGainTableOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=gain_table_text())
    def test_matches_linewise_loader(self, params, text):
        assert _loaded(load_gain_csv, text, params) == \
            _loaded(linewise_load_gain_csv, text, params)

    @pytest.mark.parametrize("model", ["kinematic", "dynamic"])
    def test_designed_table_loads_as_the_oracle(self, params, model):
        text = "\n".join(TABLES[model]) + "\n"
        outcome = _loaded(load_gain_csv, text, params)
        assert outcome[0] == model and outcome == _loaded(linewise_load_gain_csv, text, params)


class TestCertify:
    def test_returns_certified_gain_set(self, params):
        gs = certify("kinematic", KIN_GAINS_V5, 5.0, params, 0.02)
        assert gs.v == 5.0 and gs.dt == 0.02 and gs.model == "kinematic"
        assert gs.closed_loop_radius < 1.0 - CERT_MARGIN

    def test_unstable_gain_raises(self, params):
        with pytest.raises(NumericalError):
            certify("kinematic", [-1.0, -5.0], 5.0, params, 0.02)

    def test_wrong_length_gain_rejected(self, params):
        with pytest.raises(ValueError):
            certify("kinematic", [0.4], 5.0, params, 0.02)
        with pytest.raises(ValueError):
            certify("dynamic", KIN_GAINS_V5, 5.0, params, 0.02)

    @pytest.mark.parametrize("model, n", [("kinematic", 2), ("dynamic", 4)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_row_is_value_error(self, params, model, n, bad):
        k = [0.5] * n
        k[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            certify(model, k, 5.0, params, 0.02)

    @pytest.mark.parametrize("model", ["kinematic", "dynamic"])
    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_non_finite_radius_fails_certification(self, params, model, rho, monkeypatch):
        gs = (design_kinematic if model == "kinematic" else design_dynamic)(
            5.0, params, EQUAL if model == "kinematic" else EQUAL4)
        monkeypatch.setattr(lqr, "spectral_radius", lambda a: rho)
        with pytest.raises(NumericalError, match="fails certification"):
            certify(model, gs.k, 5.0, params, 0.02)

    @pytest.mark.parametrize("k", [[1e306, 1e306], [-1e306, 1e306]])
    def test_overflowing_kinematic_loop_fails_closed(self, params, k):
        # finite gains whose loop entries are near the float range
        with pytest.raises(NumericalError, match="fails certification"):
            certify("kinematic", k, 5.0, params, 0.02)
