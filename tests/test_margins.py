import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from steerkit import NumericalError
from steerkit.lqr import LqrWeights, build_schedule, certify, design_dynamic, design_kinematic, \
    discrete_error_model
from steerkit.margins import FreqResponse, compute_margins, default_grid, loop_response
from steerkit.numkit import StateSpace, expm, mat_solve, solve_dare

# frozen after the first verified computation (default sedan, v=10, dt=0.02,
# equal weights, 400-point grid)
PM_V10 = 62.91677061649719
PM_FREQ_V10 = 9.564363700670086


def integrator_loop(dt=0.01):
    return StateSpace(A=[[1.0]], B=[[dt]], dt=dt)


def loop_response_per_frequency(sys, k, omegas):
    """(mag_db, phase_deg) by one solve per frequency: the loop that
    loop_response's batched solve replaced, kept as its oracle."""
    krow = np.asarray(getattr(k, "k", k), dtype=float).reshape(-1)
    eye = np.eye(sys.n_states)
    values = np.empty(len(omegas), dtype=complex)
    for i, w in enumerate(omegas):
        z = np.exp(1j * w * sys.dt)
        values[i] = krow @ np.linalg.solve(z * eye - sys.A, sys.B[:, 0])
    return 20.0 * np.log10(np.abs(values)), np.degrees(np.unwrap(np.angle(values)))


def numpy1_solve(a, b):
    """np.linalg.solve as numpy 1.x dispatches it: b is a stack of vectors
    only when b.ndim == a.ndim - 1, otherwise a stack of matrices."""
    from numpy.linalg import _umath_linalg
    a, b = np.asarray(a), np.asarray(b)
    t = np.result_type(a, b, 1.0)
    gufunc = _umath_linalg.solve1 if b.ndim == a.ndim - 1 else _umath_linalg.solve
    return gufunc(a.astype(t), b.astype(t))


class TestBatchedSolveOracle:
    """The batched solve must stay bit-equal to the per-frequency loop: any
    other reduction of the final dot (x @ krow, einsum, a row sum) rounds
    differently in the last bits."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(model=st.sampled_from(["kinematic", "dynamic"]),
           v=st.floats(0.6, 30.0),
           dt=st.floats(0.001, 0.1, exclude_min=True),
           q=st.floats(0.01, 100.0),
           r=st.floats(0.01, 100.0),
           points=st.integers(2, 600))
    def test_bit_equal_to_per_frequency_loop(self, params, model, v, dt, q, r, points):
        n, design = (2, design_kinematic) if model == "kinematic" else (4, design_dynamic)
        try:
            gs = design(v, params, LqrWeights((q,) + (1.0,) * (n - 1), r), dt)
        except NumericalError:
            assume(False)
        sysd = discrete_error_model(model, v, params, dt)
        grid = default_grid(dt, points=points)
        fr = loop_response(sysd, gs, grid)
        mag_db, phase_deg = loop_response_per_frequency(sysd, gs, grid)
        assert np.array_equal(fr.mag_db, mag_db)
        assert np.array_equal(fr.phase_deg, phase_deg)

    @pytest.mark.parametrize("model", ["kinematic", "dynamic"])
    def test_bit_equal_under_numpy1_solve_dispatch(self, params, model, monkeypatch):
        n, design = (2, design_kinematic) if model == "kinematic" else (4, design_dynamic)
        gs = design(10.0, params, LqrWeights((1.0,) * n, 1.0), 0.02)
        sysd = discrete_error_model(model, 10.0, params, 0.02)
        grid = default_grid(0.02)
        fr = loop_response(sysd, gs, grid)
        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        fr1 = loop_response(sysd, gs, grid)
        assert np.array_equal(fr.mag_db, fr1.mag_db)
        assert np.array_equal(fr.phase_deg, fr1.phase_deg)


class TestStackedSolvesUnderNumpy1Dispatch:
    """Every solve of a stack (expm's, the Riccati doubling's, the gain's and
    the residual's through mat_solve) reads alike under numpy 1.x's dispatch."""

    def test_schedules_certificates_and_stacks_bit_equal(self, params, monkeypatch):
        grid = np.linspace(1.0, 15.0, 15)
        rng = np.random.default_rng(3)

        def run():
            out = []
            for model, n in (("kinematic", 2), ("dynamic", 4)):
                sched = build_schedule(grid, model, params, LqrWeights((1.0,) * n, 1.0), 0.02)
                out += [g.k for g in sched.gains] + [[g.closed_loop_radius for g in sched.gains]]
                mid = 0.5 * (grid[1:] + grid[:-1])
                k = [sched.gain(v) for v in mid]
                out.append([g.closed_loop_radius for g in certify(model, k, mid, params, 0.02)])
            a = rng.standard_normal((5, 3, 3)) * np.array([0.1, 1.0, 8.0, 30.0, 2.0])[:, None, None]
            out += [expm(a), mat_solve(a, np.ones((3, 2))), mat_solve(a, np.ones((5, 3, 1))),
                    solve_dare(0.3 * a, np.ones((3, 1)), np.eye(3), np.eye(1))]
            return [np.asarray(x, dtype=float).tobytes() for x in out]

        want = run()
        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        rng = np.random.default_rng(3)
        assert run() == want


class TestLoopResponse:
    def test_integrator_low_frequency_slope_and_phase(self):
        sys = integrator_loop()
        fr = loop_response(sys, np.array([1.0]), np.array([0.01, 0.02, 0.1, 1.0]))
        # |L| ~ 1/w: -20 dB/decade between the first and third points
        assert fr.mag_db[0] - fr.mag_db[2] == pytest.approx(20.0, abs=0.01)
        assert fr.phase_deg[0] == pytest.approx(-90.0, abs=0.1)

    def test_gain_scaling_shifts_magnitude_only(self):
        sys = integrator_loop()
        grid = default_grid(0.01, points=100)
        base = loop_response(sys, np.array([1.0]), grid)
        scaled = loop_response(sys, np.array([3.0]), grid)
        assert np.allclose(scaled.mag_db - base.mag_db, 20 * math.log10(3.0), atol=1e-9)
        assert np.allclose(scaled.phase_deg, base.phase_deg, atol=1e-9)

    def test_finite_at_grid_top_for_stable_plant(self):
        sys = StateSpace(A=[[0.5]], B=[[1.0]], dt=0.01)
        fr = loop_response(sys, np.array([1.0]), default_grid(0.01))
        assert np.all(np.isfinite(fr.mag_db))

    def test_rejects_beyond_nyquist(self):
        sys = integrator_loop()
        with pytest.raises(ValueError):
            loop_response(sys, np.array([1.0]), np.array([1.0, 400.0]))

    def test_rejects_continuous_model(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], dt=0.0)
        with pytest.raises(ValueError):
            loop_response(sys, np.array([1.0]), np.array([1.0]))

    def test_conjugate_symmetry(self):
        # response at w equals the conjugate of the response at -w; checked
        # through explicit evaluation since grids must be positive
        sys = integrator_loop()
        w = 3.0
        z_pos = np.exp(1j * w * sys.dt)
        z_neg = np.exp(-1j * w * sys.dt)
        l_pos = complex(sys.B[0, 0] / (z_pos - sys.A[0, 0]))
        l_neg = complex(sys.B[0, 0] / (z_neg - sys.A[0, 0]))
        assert l_neg == pytest.approx(l_pos.conjugate(), abs=1e-15)


class TestComputeMargins:
    def test_pure_integrator_textbook_margins(self):
        fr = loop_response(integrator_loop(), np.array([1.0]), default_grid(0.01, points=2000))
        rep = compute_margins(fr)
        assert math.isinf(rep.gm)
        assert rep.pm == pytest.approx(90.0, abs=0.5)
        assert rep.pm_freq == pytest.approx(1.0, rel=0.01)

    def test_small_loop_no_crossover(self):
        sys = StateSpace(A=[[0.5]], B=[[0.01]], dt=0.01)
        rep = compute_margins(loop_response(sys, np.array([1.0]), default_grid(0.01)))
        assert math.isinf(rep.gm)
        assert rep.pm is None

    def test_designed_loop_passes_paper_gate(self, params):
        gs = design_kinematic(10.0, params, LqrWeights((1.0, 1.0), 1.0), 0.02)
        sysd = discrete_error_model("kinematic", 10.0, params, 0.02)
        rep = compute_margins(loop_response(sysd, gs, default_grid(0.02)))
        assert rep.gm > 2.0
        assert rep.pm > 30.0

    def test_designed_loop_regression(self, params):
        gs = design_kinematic(10.0, params, LqrWeights((1.0, 1.0), 1.0), 0.02)
        sysd = discrete_error_model("kinematic", 10.0, params, 0.02)
        rep = compute_margins(loop_response(sysd, gs, default_grid(0.02)))
        assert rep.pm == pytest.approx(PM_V10, abs=1e-6)
        assert rep.pm_freq == pytest.approx(PM_FREQ_V10, abs=1e-6)

    def test_grid_refinement_stability(self, params):
        gs = design_kinematic(10.0, params, LqrWeights((1.0, 1.0), 1.0), 0.02)
        sysd = discrete_error_model("kinematic", 10.0, params, 0.02)
        rep1 = compute_margins(loop_response(sysd, gs, default_grid(0.02, points=400)))
        rep2 = compute_margins(loop_response(sysd, gs, default_grid(0.02, points=800)))
        assert abs(rep2.pm - rep1.pm) < 0.5
        assert math.isinf(rep1.gm) == math.isinf(rep2.gm)

    def test_schedule_sweep_positive_margins(self, params, kinematic_schedule):
        for gs in kinematic_schedule.gains:
            sysd = discrete_error_model("kinematic", gs.v, params, 0.02)
            rep = compute_margins(loop_response(sysd, gs, default_grid(0.02)))
            assert rep.gm > 1.0
            assert rep.pm is not None and rep.pm > 0.0

    def test_empty_response_rejected(self):
        fr = FreqResponse(omegas=np.array([]), mag_db=np.array([]), phase_deg=np.array([]),
                          dt=0.01)
        with pytest.raises(ValueError):
            compute_margins(fr)

    def test_multiple_crossings_flagged_and_worst_case(self):
        # synthetic response with two 0 dB crossings at different phases
        omegas = np.array([0.1, 1.0, 10.0, 100.0])
        mag = np.array([5.0, -1.0, 2.0, -3.0])
        phase = np.array([-100.0, -120.0, -140.0, -160.0])
        rep = compute_margins(FreqResponse(omegas=omegas, mag_db=mag, phase_deg=phase, dt=0.01))
        assert rep.multiple_crossings
        assert rep.pm is not None
        # worst case is the smallest entry of pm candidates
        assert rep.pm < 70.0


class TestDefaultGrid:
    def test_bounds(self):
        g = default_grid(0.02)
        assert g[0] == pytest.approx(1e-2)
        assert g[-1] == pytest.approx(0.99 * math.pi / 0.02)
        assert len(g) == 400

    def test_density_covers_crossing_bracketing(self):
        g = default_grid(0.02)
        decades = math.log10(g[-1] / g[0])
        assert len(g) / decades >= 50
