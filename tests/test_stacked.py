"""The stacked numerics against the per-item code they replaced, kept here
as the oracle: numkit's expm, c2d, solve_dare and spectral_radius, lqr's
ZOH, certify and design as they were, one matrix at a time.  A stack's
result must be each item's oracle result to the bit, and a stack with
failing items must raise what its first failing item raises alone: the
same exception type and text."""

import io
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from steerkit import NumericalError, lqr, numkit
from steerkit.lqr import CERT_MARGIN, GainSchedule, GainSet, LqrWeights, build_schedule, \
    certify, load_gain_csv, save_gain_csv
from steerkit.models import VehicleParams, check_dynamic_speed, error_dynamics_matrices
from steerkit.numkit import DARE_MAX_ITER, DARE_RESIDUAL_TOL, DARE_STEP_TOL, MAT_COND_MAX, \
    PADE13_THETA, c2d, expm, solve_dare, spectral_radius

from oracles import lateral_coefficients, lookup


# ------------------------------------------------------------------ oracle

def oracle_expm(m):
    """Pade-13 scaling and squaring of one matrix."""
    n = m.shape[0]
    norm = float(np.abs(m).sum(axis=0).max())
    s = math.ceil(math.log2(norm / PADE13_THETA)) if norm > PADE13_THETA else 0
    if s:
        m = m * 2.0**-s
    powers = np.empty((4, n, n))
    powers[0] = np.eye(n)
    a2 = np.matmul(m, m, out=powers[1])
    a4 = np.matmul(a2, a2, out=powers[2])
    a6 = np.matmul(a4, a2, out=powers[3])
    parts = (numkit._PADE13_BLOCK @ powers.reshape(4, n * n)).reshape(4, n, n)
    uv = a6 @ parts[:2] + parts[2:]
    u, v = m @ uv[0], uv[1]
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def oracle_c2d(a, b, dt):
    n, m = b.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    phi = oracle_expm(aug * dt)
    return phi[:n, :n], phi[:n, n:]


def oracle_mat_solve(a, b):
    if not np.linalg.cond(a) <= MAT_COND_MAX:
        raise NumericalError("matrix singular to working precision")
    return np.linalg.solve(a, b)


def oracle_dare_residual(a, b, q, r, x):
    axa = a.T @ x @ a
    bxb = r + b.T @ x @ b
    gain_term = a.T @ x @ b @ oracle_mat_solve(bxb, b.T @ x @ a)
    return float(np.linalg.norm(axa - x + q - gain_term, "fro"))


def oracle_solve_dare(a, b, q, r):
    """Doubling on one problem, inputs already validated."""
    eye = np.eye(a.shape[0])
    ak = a
    g = b @ oracle_mat_solve(r, b.T)
    h = 0.5 * (q + q.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DARE_MAX_ITER):
            w = eye + g @ h
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(ak))):
                raise NumericalError("DARE doubling diverged (unstabilizable pair?)")
            wa, wg = np.hsplit(oracle_mat_solve(w, np.hstack([ak, g])), 2)
            h_next = h + ak.T @ h @ wa
            h_next = 0.5 * (h_next + h_next.T)
            g = g + ak @ wg @ ak.T
            g = 0.5 * (g + g.T)
            ak = ak @ wa
            step = np.linalg.norm(h_next - h, "fro")
            h = h_next
            if np.isfinite(step) and step <= DARE_STEP_TOL * (1.0 + np.linalg.norm(h, "fro")):
                break
        else:
            raise NumericalError(
                f"DARE doubling did not converge in {DARE_MAX_ITER} steps "
                "(unstabilizable pair or ill-conditioning?)")
    res = oracle_dare_residual(a, b, q, r, h)
    if not res <= DARE_RESIDUAL_TOL * (1.0 + np.linalg.norm(h, "fro")):
        raise NumericalError(f"DARE residual {res:.3e} exceeds tolerance after convergence")
    return h


def oracle_radius(m):
    return float(np.abs(np.linalg.eigvals(m)).max())


def oracle_zoh(model, v, p, dt):
    if model == "kinematic":
        if not v > 0:
            raise ValueError("speed must be > 0")
        vdt, wdt = v * dt, v / p.wheelbase * dt
        return np.array([[1.0, vdt], [0.0, 1.0]]), np.array([[vdt * wdt / 2.0], [wdt]])
    check_dynamic_speed(v)
    a22, _, a42, a44, b2, b4 = lateral_coefficients(v, p)
    a23 = 2.0 * (p.caf + p.car) / p.m
    a24 = -2.0 * (p.caf * p.lf - p.car * p.lr) / (p.m * v)
    a43 = 2.0 * (p.lf * p.caf - p.lr * p.car) / p.iz
    a = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, a22, a23, a24],
                  [0.0, 0.0, 0.0, 1.0], [0.0, a42, a43, a44]])
    return oracle_c2d(a, np.array([[0.0], [b2], [0.0], [b4]]), dt)


def oracle_certify_on(ad, bd, model, k, v):
    """The closed-loop radius of one gain row, or the certificate's error."""
    k = np.asarray(k, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError("A contains non-finite entries")
    rho = oracle_radius(ad - bd * k)
    if not rho < 1.0 - CERT_MARGIN:
        raise NumericalError(
            f"{model} gain at v={v} fails certification (closed-loop radius {rho:.8f})")
    return rho


def oracle_certify(model, k, v, p, dt):
    return oracle_certify_on(*oracle_zoh(model, v, p, dt), model, k, v)


def oracle_design(model, v, p, w, dt):
    """(k, radius) of one speed's LQR design."""
    ad, bd = oracle_zoh(model, v, p, dt)
    q = np.diag(w.q_diag).astype(float)
    r = np.array([[w.r]])
    x = oracle_solve_dare(ad, bd, q, r)
    k = oracle_mat_solve(r + bd.T @ x @ bd, bd.T @ x @ ad)[0]
    return k, oracle_certify_on(ad, bd, model, k, v)


class Raised(NamedTuple):
    type: str
    text: str


def outcome(fn, *args):
    """fn's result, or its exception's type name and text."""
    try:
        return fn(*args)
    except (NumericalError, ValueError) as e:
        return Raised(type(e).__name__, str(e))


def first_outcome(fn, items):
    """The oracle's verdict on a stack: the first item's exception, or every result."""
    results = [outcome(fn, *item) for item in items]
    return next((r for r in results if isinstance(r, Raised)), results)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


# -------------------------------------------------------------- strategies

vehicles = st.builds(
    VehicleParams,
    m=st.floats(800.0, 3000.0), iz=st.floats(1000.0, 6000.0),
    lf=st.floats(0.8, 2.0), lr=st.floats(0.8, 2.0),
    caf=st.floats(3e4, 1.5e5), car=st.floats(3e4, 1.5e5))
periods = st.floats(0.001, 0.1, exclude_min=True)
models = st.sampled_from(["kinematic", "dynamic"])


@st.composite
def grids(draw):
    """An ascending speed grid in [0.6, 30]: a linspace or random points."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        lo = draw(st.floats(0.6, 20.0))
        return np.linspace(lo, draw(st.floats(lo + 0.5, 30.0)), n)
    speeds = np.unique(draw(st.lists(st.floats(0.6, 30.0), min_size=n, max_size=n)))
    assume(len(speeds) >= 2)
    return speeds


@st.composite
def weights(draw, n):
    return LqrWeights(tuple(draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))),
                      draw(st.floats(0.01, 100.0)))


# ------------------------------------------------------------------- tests

class TestExpmStack:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           scales=st.lists(st.floats(1e-3, 40.0), min_size=1, max_size=9),
           lead=st.sampled_from([(-1,), (3, -1), (-1, 1)]))
    def test_items_equal_the_oracle(self, n, seed, scales, lead):
        # 1-norms from about 1e-3 to 500: each item scales by its own s
        rng = np.random.default_rng(seed)
        items = [rng.standard_normal((n, n)) * scale for scale in scales]
        if lead == (3, -1):
            items = (items * 3)[:3 * len(items)]
        stack = np.array(items).reshape(lead + (n, n))
        got = expm(stack).reshape(-1, n, n)
        for g, m in zip(got, items):
            assert bits(g) == bits(oracle_expm(m))

    def test_scales_differ_within_one_stack(self):
        m = np.array([[0.0, 1.0], [-4.0, -0.4]])
        stack = np.array([m * f for f in (0.01, 1.0, 7.0, 60.0, 900.0)])
        norms = np.abs(stack).sum(axis=1).max(axis=1)
        assert (norms <= PADE13_THETA).any() and (norms > 16 * PADE13_THETA).any()
        for g, item in zip(expm(stack), stack):
            assert bits(g) == bits(oracle_expm(item))

    def test_a_two_d_matrix_is_a_stack_of_one(self):
        m = np.array([[0.3, -2.0], [1.5, 0.1]]) * 9.0
        assert expm(m).shape == (2, 2)
        assert bits(expm(m)) == bits(expm(m[None])[0]) == bits(oracle_expm(m))


class TestC2dStack:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(p=vehicles, speeds=grids(), dt=periods)
    def test_dynamic_error_models_equal_the_oracle(self, p, speeds, dt):
        # stiff vehicles at long periods scale the augmented matrix (s > 0)
        sysd = c2d(error_dynamics_matrices(speeds, p), dt)
        assert sysd.A.shape == (len(speeds), 4, 4) and sysd.B.shape == (len(speeds), 4, 1)
        for v, ad, bd in zip(speeds.tolist(), sysd.A, sysd.B):
            want_a, want_b = oracle_zoh("dynamic", v, p, dt)
            assert bits(ad) == bits(want_a) and bits(bd) == bits(want_b)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(p=vehicles, speeds=grids(), dt=periods)
    def test_kinematic_zoh_equals_the_oracle(self, p, speeds, dt):
        ad, bd = lqr._zoh("kinematic", speeds, p, dt)
        for v, a, b in zip(speeds.tolist(), ad, bd):
            want_a, want_b = oracle_zoh("kinematic", v, p, dt)
            assert bits(a) == bits(want_a) and bits(b) == bits(want_b)

    def test_the_first_speed_below_the_guard_raises(self, params):
        want = outcome(oracle_zoh, "dynamic", 0.4, params, 0.02)
        assert outcome(lqr._zoh, "dynamic", [0.5, 0.4, 3.0], params, 0.02) == \
            outcome(oracle_zoh, "dynamic", 0.5, params, 0.02) != want
        assert outcome(lqr._zoh, "kinematic", [2.0, -1.0], params, 0.02) == \
            outcome(oracle_zoh, "kinematic", -1.0, params, 0.02)


class TestSolveDareStack:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(model=models, p=vehicles, speeds=grids(), dt=periods, data=st.data())
    def test_vehicle_problems_equal_the_oracle(self, model, p, speeds, dt, data):
        n = 2 if model == "kinematic" else 4
        w = data.draw(weights(n))
        assume(model == "kinematic" or speeds[0] > 0.5)
        ad, bd = lqr._zoh(model, speeds, p, dt)
        q, r = np.diag(w.q_diag), np.array([[w.r]])
        items = [(a, b, q, r) for a, b in zip(ad, bd)]
        want = first_outcome(oracle_solve_dare, items)
        got = outcome(solve_dare, ad, bd, q, r)
        if isinstance(want, Raised):
            assert got == want
        else:
            assert [bits(x) for x in got] == [bits(x) for x in want]

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(n=st.integers(1, 4), m=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
           count=st.integers(1, 6))
    def test_random_problems_equal_the_oracle(self, n, m, seed, count):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.2, 1.2, (count, n, n))
        b = rng.uniform(-2.0, 2.0, (count, n, m))
        mq = rng.uniform(-2.0, 2.0, (count, n, n))
        q = np.swapaxes(mq, 1, 2) @ mq
        mr = rng.uniform(-2.0, 2.0, (count, m, m))
        r = np.swapaxes(mr, 1, 2) @ mr + np.eye(m)
        want = first_outcome(oracle_solve_dare, list(zip(a, b, q, r)))
        got = outcome(solve_dare, a, b, q, r)
        if isinstance(want, Raised):
            assert got == want
        else:
            assert [bits(x) for x in got] == [bits(x) for x in want]
            # the residual's Frobenius norm is np.linalg.norm's, to the bit
            assert bits(numkit.dare_residual(a, b, q, r, got)) == \
                bits([oracle_dare_residual(*item) for item in zip(a, b, q, r, want)])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from(["ok", "diverges", "stalls", "singular"]),
                          min_size=1, max_size=6))
    def test_a_failing_stack_raises_its_first_failing_item(self, kinds):
        # unstabilizable (H overflows), a marginal mode out of reach (H
        # doubles each step, never converging), and a singular R
        problems = {
            "ok": (np.array([[0.9, 0.2], [0.0, 1.1]]), np.array([[0.0], [1.0]]), 1.0),
            "diverges": (np.diag([1.5, 1.5]), np.array([[1.0], [0.0]]), 1.0),
            "stalls": (np.eye(2), np.array([[1.0], [0.0]]), 1.0),
            "singular": (np.array([[0.9, 0.2], [0.0, 1.1]]), np.array([[0.0], [1.0]]), 0.0),
        }
        items = [(problems[k][0], problems[k][1], np.eye(2), np.array([[problems[k][2]]]))
                 for k in kinds]
        want = first_outcome(oracle_solve_dare, items)
        got = outcome(solve_dare, *(np.array(col) for col in zip(*items)))
        if isinstance(want, Raised):
            assert got == want
        else:
            assert [bits(x) for x in got] == [bits(x) for x in want]

    def test_the_three_failures_differ(self):
        texts = {outcome(oracle_solve_dare, a, b, np.eye(2), np.array([[r]]))[1]
                 for a, b, r in [(np.diag([1.5, 1.5]), np.array([[1.0], [0.0]]), 1.0),
                                 (np.eye(2), np.array([[1.0], [0.0]]), 1.0),
                                 (np.eye(2), np.array([[1.0], [0.0]]), 0.0)]}
        assert len(texts) == 3

    def test_non_finite_stack_is_rejected_whole(self):
        a = np.array([np.eye(2) * 0.5] * 3)
        a[2, 0, 1] = np.nan
        assert outcome(solve_dare, a, np.ones((3, 2, 1)), np.eye(2), np.eye(1)) == \
            Raised("ValueError", "A contains non-finite entries")

    def test_a_two_d_problem_is_a_stack_of_one(self):
        a, b = np.array([[0.9, 0.2], [0.0, 1.1]]), np.array([[0.0], [1.0]])
        x = solve_dare(a, b, np.eye(2), np.eye(1))
        assert x.shape == (2, 2)
        assert bits(x) == bits(oracle_solve_dare(a, b, np.eye(2), np.eye(1)))
        assert bits(x) == bits(solve_dare(a[None], b[None], np.eye(2), np.eye(1))[0])


class TestRadiusStack:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8),
           scale=st.sampled_from([1.0, 1e150, 1e300]))
    def test_items_equal_the_oracle(self, n, seed, count, scale):
        # items near the float range go through LAPACK's balancing and scaling
        m = np.random.default_rng(seed).standard_normal((count, n, n)) * scale
        got = spectral_radius(m)
        assert bits(got) == bits([oracle_radius(item) for item in m])
        assert spectral_radius(m[0]) == got[0] or math.isnan(got[0])


class TestCertifyStack:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(model=models, p=vehicles, speeds=grids(), dt=periods, data=st.data())
    def test_interpolated_gains_equal_the_oracle(self, model, p, speeds, dt, data):
        # gains of arbitrary size at off-grid speeds: some pass, some fail
        n = 2 if model == "kinematic" else 4
        assume(model == "kinematic" or speeds[0] > 0.5)
        k = np.array(data.draw(st.lists(st.lists(st.floats(-0.5, 3.0), min_size=n, max_size=n),
                                        min_size=len(speeds), max_size=len(speeds))))
        want = first_outcome(oracle_certify, [(model, row, v, p, dt)
                                              for row, v in zip(k, speeds.tolist())])
        got = outcome(certify, model, k, speeds, p, dt)
        if isinstance(want, Raised):
            assert got == want
        else:
            assert [g.closed_loop_radius for g in got] == want
            assert [g.v for g in got] == speeds.tolist()
            assert all(bits(g.k) == bits(row) for g, row in zip(got, k))

    @pytest.mark.parametrize("model, bad", [
        ("kinematic", [-1.0, -5.0]),              # radius above 1
        ("kinematic", [1e306, 1e306]),            # inf radius
        ("kinematic", [-1e306, 1e306]),           # NaN radius
        ("dynamic", [-1.0, 0.0, -5.0, 0.0]),
    ])
    def test_the_first_failing_speed_raises(self, params, model, bad):
        n = len(bad)
        good = lqr._design(model, 6.0, params, LqrWeights((1.0,) * n, 1.0), 0.02).k
        speeds = [5.0, 6.0, 7.0, 8.0]
        k = [good, bad, good, [2 * b for b in bad]]
        want = first_outcome(oracle_certify, [(model, row, v, params, 0.02)
                                              for row, v in zip(k, speeds)])
        assert isinstance(want, Raised) and "v=6.0" in want[1]
        assert outcome(certify, model, k, speeds, params, 0.02) == want

    def test_a_scalar_speed_gives_one_gain_set(self, params):
        k = [0.5, 1.2]
        gs = certify("kinematic", k, 5, params, 0.02)
        assert isinstance(gs, GainSet) and gs.v == 5.0
        assert gs.closed_loop_radius == oracle_certify("kinematic", k, 5.0, params, 0.02)
        assert outcome(certify, "kinematic", [-1.0, -5.0], 5, params, 0.02) == \
            outcome(oracle_certify, "kinematic", [-1.0, -5.0], 5, params, 0.02)


class TestDesignStack:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(model=models, p=vehicles, speeds=grids(), dt=periods, data=st.data())
    def test_schedules_equal_the_per_speed_designs(self, model, p, speeds, dt, data):
        n = 2 if model == "kinematic" else 4
        w = data.draw(weights(n))
        assume(model == "kinematic" or speeds[0] > 0.5)
        want = first_outcome(oracle_design, [(model, v, p, w, dt) for v in speeds.tolist()])
        got = outcome(build_schedule, speeds, model, p, w, dt)
        if isinstance(want, Raised):
            assert got == want
        else:
            assert [bits(g.k) for g in got.gains] == [bits(k) for k, _ in want]
            assert [g.closed_loop_radius for g in got.gains] == [rho for _, rho in want]
            assert [g.v for g in got.gains] == speeds.tolist()

    def test_the_first_failing_speed_raises(self, params, monkeypatch):
        # speeds 3 and 5 fail their certificate, speed 5 also its Riccati
        # solve: the build reports speed 3, as designing speed by speed did
        speeds = np.array([2.0, 3.0, 4.0, 5.0])
        real_zoh, real_radius, real_dare = lqr._zoh, lqr.spectral_radius, lqr.solve_dare
        designing = []   # the speeds of the latest ZOH

        def zoh(model, v, p, dt):
            designing.append(np.ravel(v))
            return real_zoh(model, v, p, dt)

        def radius(a):
            rho = np.array(real_radius(a), dtype=float)
            rho[np.isin(designing[-1], (3.0, 5.0)).reshape(rho.shape)] = 1.5
            return rho

        def dare(a, b, q, r):
            if 5.0 in designing[-1]:
                raise NumericalError("DARE doubling diverged (unstabilizable pair?)")
            return real_dare(a, b, q, r)

        monkeypatch.setattr(lqr, "_zoh", zoh)
        monkeypatch.setattr(lqr, "spectral_radius", radius)
        monkeypatch.setattr(lqr, "solve_dare", dare)
        with pytest.raises(NumericalError, match=r"v=3\.0 fails certification"):
            build_schedule(speeds, "kinematic", params, LqrWeights((1.0, 1.0), 1.0), 0.02)
        with pytest.raises(NumericalError, match="diverged"):
            build_schedule(speeds[2:], "kinematic", params, LqrWeights((1.0, 1.0), 1.0), 0.02)


class TestGainTableStack:
    def test_the_first_failing_row_in_file_order_raises(self, params, kinematic_schedule):
        buf = io.StringIO()
        save_gain_csv(kinematic_schedule, buf)
        lines = buf.getvalue().splitlines()
        # rows 3 and 6 (file lines 4 and 7) get gains that fail
        for i, k in ((3, "-1.0,-5.0"), (6, "-2.0,-9.0")):
            v, _, _, dt = lines[i].split(",")
            lines[i] = f"{v},{k},{dt}"
        with pytest.raises(NumericalError, match="v=3.0 fails certification"):
            load_gain_csv(io.StringIO("\n".join(lines) + "\n"), params)

    def test_loaded_gains_equal_the_oracle(self, params, dynamic_schedule):
        buf = io.StringIO()
        save_gain_csv(dynamic_schedule, buf)
        loaded = load_gain_csv(io.StringIO(buf.getvalue()), params)
        for g in loaded.gains:
            assert g.closed_loop_radius == oracle_certify("dynamic", g.k, g.v, params, g.dt)


class TestScheduleGain:
    def test_gain_is_lookup_uncertified(self, params, kinematic_schedule):
        for v in (0.2, 1.0, 3.0, 3.25, 7.9, 15.0, 40.0):
            gain = kinematic_schedule.gain(v)
            looked = lookup(kinematic_schedule, v)
            if isinstance(gain, GainSet):
                assert gain is looked
            else:
                assert bits(gain) == bits(looked.k)

    def test_gain_does_not_certify(self, params):
        bad = [GainSet(k=np.array([-1.0, -5.0]), v=v, dt=0.02, model="kinematic",
                       closed_loop_radius=0.0) for v in (4.0, 6.0)]
        sched = GainSchedule(speeds=np.array([4.0, 6.0]), gains=bad, dt=0.02,
                             model="kinematic", params=params)
        assert sched.gain(5.0).tolist() == [-1.0, -5.0]
        with pytest.raises(NumericalError):
            lookup(sched, 5.0)
