"""The closed-form kinematic ZOH, the Pade expm and the trace/determinant
radius against the numerics they replaced, kept here as the oracle: the
Taylor-series expm, the augmented-matrix c2d on it, and the LAPACK radius."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from steerkit import NumericalError, lqr
from steerkit.lqr import CERT_MARGIN, LqrWeights, certify, design_dynamic, design_kinematic, \
    discrete_error_model
from steerkit.models import VehicleParams, error_dynamics_matrices
from steerkit.numkit import expm, spectral_radius

from oracles import kinematic_error_model


def taylor_expm(m):
    """Scaling and squaring with a Taylor series summed until its terms
    vanish at double precision."""
    n = m.shape[0]
    norm = np.linalg.norm(m, np.inf)
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    x = m / (2.0**s)
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 120):
        term = term @ x / k
        result = result + term
        if np.linalg.norm(term, np.inf) <= 1e-18 * max(1.0, np.linalg.norm(result, np.inf)):
            break
    for _ in range(s):
        result = result @ result
    return result


def augmented(a, b, dt):
    n, m = b.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    return aug * dt


def taylor_zoh(model, v, p, dt):
    sys = kinematic_error_model(v, p.wheelbase) if model == "kinematic" else \
        error_dynamics_matrices(v, p)
    n = sys.n_states
    phi = taylor_expm(augmented(sys.A, sys.B, dt))
    return phi[:n, :n], phi[:n, n:]


def eigvals_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(m))))


vehicles = st.builds(
    VehicleParams,
    m=st.floats(800.0, 3000.0), iz=st.floats(1000.0, 6000.0),
    lf=st.floats(0.8, 2.0), lr=st.floats(0.8, 2.0),
    caf=st.floats(3e4, 1.5e5), car=st.floats(3e4, 1.5e5))
periods = st.floats(0.001, 0.1, exclude_min=True)


class TestCertifyOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(model=st.sampled_from(["kinematic", "dynamic"]), p=vehicles, dt=periods,
           q=st.floats(0.01, 100.0), r=st.floats(0.01, 100.0),
           v0=st.floats(0.6, 29.0), span=st.floats(0.1, 6.0), a=st.floats(0.0, 1.0))
    def test_radius_and_verdict_match_oracle(self, model, p, dt, q, r, v0, span, a):
        n, design = (2, design_kinematic) if model == "kinematic" else (4, design_dynamic)
        w = LqrWeights((q,) + (1.0,) * (n - 1), r)
        v1 = min(v0 + span, 30.0)
        try:
            g0, g1 = design(v0, p, w, dt), design(v1, p, w, dt)
        except NumericalError:
            assume(False)
        # a grid speed, then the off-grid interpolation GainSchedule.gain makes
        for v, k in ((v0, g0.k), (v0 + a * (v1 - v0), g0.k + a * (g1.k - g0.k))):
            ad, bd = taylor_zoh(model, v, p, dt)
            rho_ref = eigvals_radius(ad - np.outer(bd[:, 0], k))
            ad, bd = lqr._zoh(model, v, p, dt)
            rho = spectral_radius(ad - bd * k)
            assert abs(rho - rho_ref) <= 1e-12 * rho_ref
            if rho_ref < 1.0 - CERT_MARGIN:
                assert certify(model, k, v, p, dt).closed_loop_radius == rho
            else:
                try:
                    certify(model, k, v, p, dt)
                except NumericalError:
                    continue
                raise AssertionError(f"radius {rho_ref} certified")


class TestZohOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=vehicles, v=st.floats(0.5, 30.0), dt=periods)
    def test_kinematic_closed_form_equals_series(self, p, v, dt):
        ad, bd = taylor_zoh("kinematic", v, p, dt)
        sysd = discrete_error_model("kinematic", v, p, dt)
        assert np.array_equal(sysd.A, ad) and np.array_equal(sysd.B, bd)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(v=st.floats(0.6, 30.0), dt=periods)
    def test_pade_within_1e13_of_series_on_dynamic_models(self, params, v, dt):
        # on the shipped vehicle; on stiffer ones the series' own error grows
        # past 1e-13 (1.5e-13 against a 40-digit exp at m=800 kg, caf=1.19e5
        # N/rad, v=0.75 m/s, dt=0.094 s, where Pade is within 1.8e-15)
        sys = error_dynamics_matrices(v, params)
        aug = augmented(sys.A, sys.B, dt)
        ref = taylor_expm(aug)
        assert np.linalg.norm(expm(aug) - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(th=st.floats(0.01, 50.0))
    def test_scaled_rotation_matches_closed_form(self, th):
        # up to 4 squarings: exp of a rotation generator is the rotation
        g = np.array([[0.0, -th], [th, 0.0]])
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        assert np.abs(expm(g) - rot).max() <= 2e-14

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    def test_two_by_two_radius_matches_eigvals(self, m):
        # near a double root both are accurate to about sqrt(eps) only
        a = np.array(m).reshape(2, 2)
        ref = eigvals_radius(a)
        assert math.isclose(spectral_radius(a), ref, rel_tol=1e-9, abs_tol=1e-7)
