"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from steerkit.cli import main
from steerkit.curvkit import ackermann_curvature, differential_curvature, kf_step
from steerkit.lqr import LqrWeights, build_schedule, discrete_error_model
from steerkit.margins import compute_margins, default_grid, loop_response
from steerkit.models import Pose, kinematic_step
from steerkit.numkit import dare_residual, solve_dare
from steerkit.pathkit import gen_path, load_recorded
from steerkit.simkit import ScenarioConfig, compute_metrics, run_scenario

from oracles import ControlInput, kinematic_derivative, kinematic_error_model, lookup, \
    pfaffian_residuals

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "steerkit" / "configs"
EQUAL = LqrWeights((1.0, 1.0), 1.0)
EQUAL4 = LqrWeights((1.0, 1.0, 1.0, 1.0), 1.0)


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  ({message})")


def parking_path():
    from steerkit.pathkit import read_recorded_csv

    cols = read_recorded_csv(CONFIGS / "parking_path.csv")
    return load_recorded(cols["t"], cols["X"], cols["Y"], cols["psi"], spacing=0.25)


def test_criterion_1_dare_golden_ratio_and_oracle():
    t0 = time.perf_counter()
    one = np.array([[1.0]])
    x = solve_dare(one, one, one, one)
    assert abs(x[0, 0] - (1 + math.sqrt(5)) / 2) <= 1e-12

    def value_iteration(a, b, q, r):
        p = q.copy()
        for _ in range(500_000):
            gram = r + b.T @ p @ b
            pn = a.T @ p @ a + q - a.T @ p @ b @ np.linalg.solve(gram, b.T @ p @ a)
            pn = 0.5 * (pn + pn.T)
            if np.linalg.norm(pn - p, "fro") < 1e-14:
                return pn
            p = pn
        return p

    for n, seed in ((2, 11), (2, 12), (4, 13), (4, 14)):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a *= 0.9 / max(abs(np.linalg.eigvals(a)))
        b = rng.standard_normal((n, 1))
        q = np.eye(n)
        r = np.eye(1)
        x = solve_dare(a, b, q, r)
        assert np.linalg.norm(x - value_iteration(a, b, q, r), "fro") < 1e-8
        assert dare_residual(a, b, q, r, x) <= 1e-9 * (1 + np.linalg.norm(x, "fro"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"golden ratio to 1e-12, 4 seeded systems vs value iteration, {elapsed:.2f} s")


def test_criterion_2_stability_certification(params):
    t0 = time.perf_counter()
    grid = np.arange(1.0, 16.0, 1.0)
    kin = build_schedule(grid, "kinematic", params, EQUAL, dt=0.02)
    dyn = build_schedule(grid, "dynamic", params, EQUAL4, dt=0.02)
    for sched in (kin, dyn):
        for gs in sched.gains:
            assert gs.closed_loop_radius < 1.0 - 1e-6
        for v in np.arange(1.0, 15.0001, 0.1):
            assert lookup(sched, float(v)).closed_loop_radius < 1.0 - 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"30 designs + 0.1 m/s interpolation sweep certified, {elapsed:.2f} s")


def test_criterion_3_paper_error_bounds(params, kinematic_schedule):
    # R=50 m circle stand-in (the source experiments never state geometry);
    # zero sensor noise, default actuator lag
    path10 = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=270.0)
    t0 = time.perf_counter()
    log10 = run_scenario(ScenarioConfig(path=path10, speed=10.0, t_end=40.0, seed=0),
                         kinematic_schedule, params=params)
    t10 = time.perf_counter() - t0
    m10 = compute_metrics(log10)
    assert m10["max_abs_e_y"] <= 0.10
    assert t10 < 10.0

    path3 = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=180.0)
    t0 = time.perf_counter()
    log3 = run_scenario(ScenarioConfig(path=path3, speed=3.0, t_end=60.0, seed=0),
                        kinematic_schedule, params=params)
    t3 = time.perf_counter() - t0
    m3 = compute_metrics(log3)
    assert m3["max_abs_e_y"] <= 0.05
    assert m3["max_abs_e_psi"] <= math.radians(1.0)
    assert t3 < 10.0
    report(3, f"10 m/s: |e_y|<={m10['max_abs_e_y']:.3f} m ({t10:.1f} s); "
              f"3 m/s: |e_y|<={m3['max_abs_e_y']:.3f} m, "
              f"|e_psi|<={math.degrees(m3['max_abs_e_psi']):.2f} deg ({t3:.1f} s)")


def test_criterion_4_parking_sweep(params, kinematic_schedule):
    path = parking_path()
    worst_settle = 0.0
    for offset in (-1.0, -0.5, 0.5, 1.0):
        cfg = ScenarioConfig(path=path, speed=1.5, t_end=40.0,
                             initial_offset=(offset, 0.0), seed=0)
        metrics = compute_metrics(run_scenario(cfg, kinematic_schedule, params=params))
        assert metrics["settled"], f"offset {offset} never settled"
        assert metrics["settle_distance"] <= 15.0
        worst_settle = max(worst_settle, metrics["settle_distance"])
    report(4, f"4 offsets settle within {worst_settle:.1f} m <= 15 m and stay settled")


def test_criterion_5_curvature_agreement(params):
    t0 = time.perf_counter()
    # steady circular motion of the kinematic plant at constant Ackermann steer
    radius = 50.0
    delta = math.atan(params.wheelbase / radius)
    u = ControlInput(10.0, delta)
    state = (0.0, 0.0, 0.0)
    for _ in range(2000):
        state = kinematic_step(state, u.v, u.delta, 0.001, params)
    yaw_rate = kinematic_derivative(state, u, params)[2]
    kappa_ack = ackermann_curvature(delta, params.wheelbase)
    kappa_diff = differential_curvature(0.0, yaw_rate, u.v)  # path-aligned frame
    assert abs(kappa_ack - 0.02) <= 1e-9
    assert abs(kappa_diff - 0.02) <= 1e-9

    rng = np.random.default_rng(55)
    n = 1_000_000
    psi = rng.uniform(-1.5, 1.5, n)
    psi = psi[np.abs(np.cos(psi)) >= 0.05]
    psi_dot = rng.uniform(-1.0, 1.0, len(psi))
    v = rng.uniform(0.5, 30.0, len(psi))
    kappa = differential_curvature(psi, psi_dot, v)
    worst = float(np.max(np.abs(kappa - psi_dot / v)))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, f"steady-circle sources match 1/R to 1e-9; identity worst error "
              f"{worst:.1e} over {len(psi)} inputs, {elapsed:.2f} s")


def test_criterion_6_kalman_fusion():
    rng = np.random.default_rng(321)
    n, dt = 100_000, 0.02
    q, r_ack, r_diff = 1e-6, 4e-6, 1e-4
    truth = np.cumsum(math.sqrt(q * dt) * rng.standard_normal(n))
    z_ack = truth + math.sqrt(r_ack) * rng.standard_normal(n)
    z_diff = truth + math.sqrt(r_diff) * rng.standard_normal(n)

    def run(use_ack, use_diff):
        kappa, p = 0.0, 1e-2
        err = np.empty(n)
        for i in range(n):
            kappa, p = kf_step(kappa, p, q * dt, z_ack[i] if use_ack else None, r_ack,
                               z_diff[i] if use_diff else None, r_diff)
            err[i] = kappa - truth[i]
        return float(np.var(err[n // 10:]))

    fused = run(True, True)
    ack_only = run(True, False)
    diff_only = run(False, True)
    # closed-form scalar Riccati fixed point for sequential two-sensor updates
    r_eq = 1.0 / (1.0 / r_ack + 1.0 / r_diff)
    q_step = q * dt
    p_star = 0.5 * (-q_step + math.sqrt(q_step**2 + 4 * q_step * r_eq))
    assert fused < ack_only
    assert fused < diff_only
    assert abs(fused - p_star) <= 0.10 * p_star
    report(6, f"fused var {fused:.2e} < sources ({ack_only:.2e}, {diff_only:.2e}), "
              f"within {abs(fused - p_star) / p_star * 100:.1f}% of closed form")


def test_criterion_7_margins_gate(params, kinematic_schedule):
    worst_pm, worst_gm = 1e9, math.inf
    for gs in kinematic_schedule.gains:
        sysd = discrete_error_model("kinematic", gs.v, params, 0.02)
        rep = compute_margins(loop_response(sysd, gs, default_grid(0.02)))
        assert rep.gm > 2.0
        assert rep.pm is not None and rep.pm > 30.0
        fine = compute_margins(loop_response(sysd, gs, default_grid(0.02, points=800)))
        assert abs(fine.pm - rep.pm) <= 0.5
        if math.isinf(rep.gm):
            assert math.isinf(fine.gm)
        else:
            assert abs(fine.gm - rep.gm) <= 0.01 * rep.gm
        worst_pm = min(worst_pm, rep.pm)
        worst_gm = min(worst_gm, rep.gm)
    gm_txt = "inf" if math.isinf(worst_gm) else f"{worst_gm:.2f}"
    report(7, f"all 15 speeds: gm > 2 (worst {gm_txt}), pm > 30 (worst {worst_pm:.1f} deg), "
              "grid-refinement stable")


def test_criterion_8_model_cross_checks(params, kinematic_schedule):
    # analytic vs central-difference Jacobian of the tangent-frame error model
    v, wheelbase = 7.0, params.wheelbase

    def f(state, delta):
        return np.array([v * math.sin(state[1]), v / wheelbase * math.tan(delta)])

    sys = kinematic_error_model(v, wheelbase)
    h = 1e-6
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h
        col = (f(dx, 0.0) - f(-dx, 0.0)) / (2 * h)
        assert np.max(np.abs(col - sys.A[:, j])) <= 1e-6 * max(1.0, v)
    bcol = (f(np.zeros(2), h) - f(np.zeros(2), -h)) / (2 * h)
    assert np.max(np.abs(bcol - sys.B[:, 0])) <= 1e-6 * np.max(np.abs(sys.B))

    # Pfaffian residuals along a simulated kinematic log
    path = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=120.0)
    log = run_scenario(ScenarioConfig(path=path, speed=8.0, t_end=15.0, seed=0),
                       kinematic_schedule, params=params)
    worst = 0.0
    for i in range(len(log)):
        pose = Pose(log.x[i], log.y[i], log.psi[i])
        u = ControlInput(log.v_cmd[i], log.delta_act[i])
        vel = kinematic_derivative((pose.x, pose.y, pose.psi), u, params)
        r_rear, r_front = pfaffian_residuals(pose, vel, u, params)
        worst = max(worst, abs(r_rear), abs(r_front))
    assert worst < 1e-12

    # order-4 convergence of the integrator on the analytic circular solution
    def arc_error(dt):
        radius, speed = 50.0, 10.0
        delta = math.atan(params.wheelbase / radius)
        period = 0.5 * math.pi * radius / speed
        steps = int(round(period / dt))
        state = (0.0, 0.0, 0.0)
        for _ in range(steps):
            state = kinematic_step(state, speed, delta, period / steps, params)
        return math.hypot(state[0] - radius, state[1] - radius)

    ratio = arc_error(0.1) / arc_error(0.05)
    assert 12.0 < ratio < 20.0
    report(8, f"Jacobian FD match, Pfaffian worst {worst:.1e}, RK4 ratio {ratio:.1f}")


def test_criterion_9_determinism_and_io(tmp_path):
    cfg = {
        "schema_version": 1, "seed": 3,
        "path": {"kind": "circle", "radius": 50.0, "arc_deg": 60.0, "spacing": 0.1},
        "speed": 10.0, "t_end": 5.0,
        "gains": {"grid": [1.0, 15.0, 8], "weights": {"q": [1.0, 1.0], "r": 1.0}},
        "sensors": {"lateral": {"noise_std": 0.01}},
    }
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", str(cfile), "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", str(cfile), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "log.csv").read_bytes() == (tmp_path / "b" / "log.csv").read_bytes()

    # gains round trip is bit exact
    cfg2 = dict(cfg)
    cfg2["gains"] = {"csv": str(tmp_path / "a" / "gains.csv")}
    cfile2 = tmp_path / "cfg2.json"
    cfile2.write_text(json.dumps(cfg2), encoding="utf-8")
    assert main(["simulate", str(cfile2), "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "gains.csv").read_bytes() == \
        (tmp_path / "c" / "gains.csv").read_bytes()
    assert (tmp_path / "a" / "log.csv").read_bytes() == (tmp_path / "c" / "log.csv").read_bytes()

    # exit-code contract over a malformed-input fixture suite
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    assert main(["simulate", str(bad_json), "--out", str(tmp_path / "x1")]) == 3

    wrong_version = tmp_path / "v9.json"
    wrong_version.write_text(json.dumps({"schema_version": 9}), encoding="utf-8")
    assert main(["simulate", str(wrong_version), "--out", str(tmp_path / "x2")]) == 3

    assert main(["design", str(CONFIGS / "sedan.json"), "--out", str(tmp_path / "x3"),
                 "--grid", "0.1,5"]) == 4

    lost = dict(cfg)
    lost["path"] = {"kind": "circle", "radius": 50.0, "arc_deg": 300.0, "spacing": 0.1}
    lost["t_end"] = 30.0
    lost["actuator"] = {"lag_tau": 0.1, "delay_steps": 0, "rate_limit": 1e-9}
    lost.pop("sensors")
    lfile = tmp_path / "lost.json"
    lfile.write_text(json.dumps(lost), encoding="utf-8")
    assert main(["simulate", str(lfile), "--out", str(tmp_path / "x4")]) == 2

    missing = tmp_path / "missing.csv"
    missing.write_text("t,X,Y,psi\n0,0,0,0\n1,1,0,0\n", encoding="utf-8")
    assert main(["curvature", str(missing), "--out", str(tmp_path / "x5")]) == 3
    report(9, "byte-identical logs, bit-exact gain round trip, exit codes 0/2/3/4 honored")
