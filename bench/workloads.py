"""Workload inputs, command lists and output checks for the steerkit benchmark.

Inputs are generated from the workload seed with this file's own numpy
code, never with steerkit's, so they stay fixed when the program changes.
The `track` workload runs the shipped configs unchanged and ignores the
seed; its expected values come from `reference.json`.  The `desk`
workload is a design-and-analysis session followed by speed-scheduled
simulations, all from seeded inputs.  The two simulation configs are one
of `SCHEDULED_VARIANTS` seeded variants, picked by the seed, so that
`reference.json` can pin their expected metrics for every seed.

Every check returns a list of failure messages; an empty list means the
command passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("track", "desk")

# mid-size sedan, the same numbers as the shipped sedan.json
VEHICLE = {"m": 1500.0, "iz": 3000.0, "lf": 1.2, "lr": 1.5,
           "caf": 60000.0, "car": 60000.0, "max_steer": 0.6}
WHEELBASE = VEHICLE["lf"] + VEHICLE["lr"]
STEER_QUANTUM = math.radians(0.1) / 16.0   # CAN steering resolution at the road wheel

SIM_DT = 0.001
SCHEDULED_T_END = 12.0
CURVATURE_SAMPLES = 25_000
CURVATURE_DT = 0.02
CURVATURE_RMS_TOL = 1.5e-3   # 1/m, fused estimate against the generator's truth
DESIGN_WEIGHT_SETS = 2
MARGIN_SPEEDS = 4
SCHEDULED_VARIANTS = 8
GAIN_REL_TOL = 1e-6   # gains against the benchmark's own Riccati solution
METRIC_REL_TOL = 1e-6   # stored metrics against reference.json

# one pass on the seed commit (2-vCPU host, fast phase); sets the number
# of passes a run makes, so that it does not depend on the program's speed
PASS_SECONDS = {"track": 12.5, "desk": 6.5}

CONFIGS = Path("src") / "steerkit" / "configs"

# criterion 3 and 4 bounds of the acceptance suite
CRIT3 = {"c10": {"max_abs_e_y": 0.10}, "c3": {"max_abs_e_y": 0.05,
                                               "max_abs_e_psi": math.radians(1.0)}}
CRIT4_SETTLE_M = 15.0
# criterion 7: ideal kinematic loop margins
CRIT7_GM, CRIT7_PM = 2.0, 30.0


def _rng(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _speed_table(rng, t_end: float, lo: float, hi: float) -> list[list[float]]:
    """Four knots alternating low/high so that the speed crosses several grid points."""
    knots = []
    for i, t in enumerate(np.linspace(0.0, t_end, 4)):
        v = rng.uniform(lo, lo + 2.0) if i % 2 == 0 else rng.uniform(hi - 2.0, hi)
        knots.append([float(t), round(float(v), 6)])
    return knots


def _distance(table: list[list[float]]) -> float:
    t = [k[0] for k in table]
    v = [k[1] for k in table]
    return float(np.trapezoid(v, t))


def _weights(rng, n: int) -> tuple[list[float], float]:
    """Weights within a factor 1.4 of the unit weights.

    A narrow band keeps the Riccati iteration count, and so the work of a
    pass, nearly the same for every seed; wide bands also produce gains
    that the default actuator delay makes poorly damped at 12 m/s.
    """
    q = [round(float(10.0 ** rng.uniform(-0.15, 0.15)), 6) for _ in range(n)]
    r = round(float(10.0 ** rng.uniform(-0.15, 0.15)), 6)
    return q, r


# ------------------------------------------------------------------ inputs

def generate(workload: str, seed: int, root: Path, work: Path) -> dict:
    """Write the workload's inputs under `work` and return its plan.

    The plan holds the commands (argv lists for `steerkit.cli.main`, each
    with an output directory under `work/out`) and what each one's checks
    need to know.
    """
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    if workload == "track":
        return _plan_track(root, out)
    if workload == "desk":
        analysis = _plan_analysis(_rng(workload, seed), work, out)
        variant = seed % SCHEDULED_VARIANTS
        scheduled = _plan_scheduled(_rng(workload, variant, stream=1), variant, work, out)
        return {"commands": analysis["commands"] + scheduled["commands"],
                "expect": analysis["expect"] | scheduled["expect"]}
    raise ValueError(f"unknown workload {workload!r}")


def _plan_track(root: Path, out: Path) -> dict:
    cfg = root / CONFIGS
    cmds = [
        {"kind": "simulate", "name": "c10",
         "argv": ["simulate", str(cfg / "circle_10ms.json"), "--out", str(out / "c10")]},
        {"kind": "simulate", "name": "c3",
         "argv": ["simulate", str(cfg / "circle_3ms.json"), "--out", str(out / "c3")]},
        {"kind": "simulate", "name": "park",
         "argv": ["simulate", str(cfg / "parking.json"), "--out", str(out / "park"),
                  "--sweep", "initial_offset.0=-1,-0.5,0.5,1"]},
        {"kind": "smooth", "name": "smooth",
         "argv": ["smooth", str(cfg / "parking_path.csv"), "--out", str(out / "smooth")]},
    ]
    return {"commands": cmds}


def _plan_scheduled(rng, variant: int, work: Path, out: Path) -> dict:
    cmds = []
    runs = [
        # dynamic model: noisy speed makes nearly every control tick look up
        # an off-grid gain, so GainSchedule.lookup certifies on the hot path
        ("dyn", "dynamic", "dynamic_lqr", {
            "lateral": {"noise_std": 0.02},
            "heading": {"noise_std": 0.002},
            "speed": {"noise_std": 0.05},
            "yaw_rate": {"noise_std": 0.005, "rate_hz": 200.0},
        }, {"lag_tau": 0.1, "delay_steps": 2, "rate_limit": 0.5}),
        # kinematic model: noise-free, the speed table alone moves the gain off-grid
        ("kin", "kinematic", "kinematic_ff_fb", {}, {}),
    ]
    expect = {}
    for name, model, controller, sensors, actuator in runs:
        table = _speed_table(rng, SCHEDULED_T_END, 4.0, 12.0)
        kind = str(rng.choice(["s_curve", "lane_change"]))
        length = round(_distance(table) + 40.0, 3)
        n = 2 if model == "kinematic" else 4
        q, r = _weights(rng, n)
        cfg = {
            "schema_version": 1,
            "seed": int(rng.integers(0, 2**31)),
            "path": {"kind": kind, "length": length,
                     "offset": round(float(rng.uniform(2.0, 4.0)), 6), "spacing": 0.1},
            "vehicle": VEHICLE,
            "model": model,
            "controller": controller,
            "speed": table,
            "t_end": SCHEDULED_T_END,
            "sim_dt": SIM_DT,
            "control_dt": 0.02,
            "initial_offset": [round(float(rng.uniform(-0.5, 0.5)), 6), 0.0],
            "gains": {"grid": [1.0, 15.0, 15], "weights": {"q": q, "r": r}},
            "sensors": sensors,
            "actuator": actuator,
        }
        path = work / f"{name}.json"
        _write_json(path, cfg)
        cmds.append({"kind": "simulate", "name": name,
                     "argv": ["simulate", str(path), "--out", str(out / name)]})
        expect[name] = {"model": model, "variant": variant, "weights": (q, r)}
    return {"commands": cmds, "expect": expect}


def _recorded_log(rng, n: int, dt: float):
    """A drive with known curvature: quantized steer and a noisy yaw-rate gyro."""
    t = np.arange(n) * dt
    span = t[-1]
    v = 6.0 + 3.0 * np.sin(2.0 * np.pi * t / span * rng.uniform(3.0, 6.0) + rng.uniform(0, 6.3))
    kappa = np.zeros(n)
    for _ in range(3):
        period = rng.uniform(20.0, 90.0)
        kappa += rng.uniform(0.005, 0.02) * np.sin(2.0 * np.pi * t / period + rng.uniform(0, 6.3))
    yaw_true = v * kappa
    psi = np.concatenate(([0.0], np.cumsum(0.5 * (yaw_true[1:] + yaw_true[:-1]) * dt)))
    x = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] * np.cos(psi[1:]) + v[:-1] * np.cos(psi[:-1])) * dt)))
    y = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] * np.sin(psi[1:]) + v[:-1] * np.sin(psi[:-1])) * dt)))
    psi_wrapped = np.arctan2(np.sin(psi), np.cos(psi))
    yaw = yaw_true + 0.01 * rng.standard_normal(n)
    steer = np.round(np.arctan(kappa * WHEELBASE) / STEER_QUANTUM) * STEER_QUANTUM
    cols = {"t": t, "X": x, "Y": y, "psi": psi_wrapped, "yaw_rate": yaw, "speed": v, "steer": steer}
    return cols, kappa


def _plan_analysis(rng, work: Path, out: Path) -> dict:
    params = work / "vehicle.json"
    _write_json(params, {"schema_version": 1, "vehicle": VEHICLE})
    cmds = []
    expect = {}
    for model, n in (("kinematic", 2), ("dynamic", 4)):
        for i in range(DESIGN_WEIGHT_SETS):
            q, r = _weights(rng, n)
            name = f"design_{model}_{i}"
            cmds.append({"kind": "design", "name": name,
                         "argv": ["design", str(params), "--model", model, "--grid", "1:15:15",
                                  "--weights", ",".join(repr(v) for v in q) + f":{r!r}",
                                  "--out", str(out / name)]})
            expect[name] = {"model": model, "gains": 15, "weights": (q, r)}
    for model in ("kinematic", "dynamic"):
        for i, speed in enumerate(np.sort(rng.uniform(2.0, 15.0, MARGIN_SPEEDS))):
            name = f"margins_{model}_{i}"
            cmds.append({"kind": "margins", "name": name,
                         "argv": ["margins", str(params), "--model", model,
                                  "--speed", repr(round(float(speed), 4)),
                                  "--out", str(out / name)]})
            expect[name] = {"model": model}
    cols, kappa = _recorded_log(rng, CURVATURE_SAMPLES, CURVATURE_DT)
    log = work / "recorded.csv"
    with open(log, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        for row in zip(*cols.values()):
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    np.save(work / "kappa_truth.npy", kappa)
    cmds.append({"kind": "curvature", "name": "curvature",
                 "argv": ["curvature", str(log), "--params", str(params),
                          "--out", str(out / "curvature")]})
    expect["curvature"] = {"samples": CURVATURE_SAMPLES, "truth": str(work / "kappa_truth.npy")}
    return {"commands": cmds, "expect": expect}


# ------------------------------------------------------------------ checks

def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential: Taylor series after scaling, then squaring."""
    norm = np.abs(m).sum(axis=1).max()
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = m / 2.0**squarings
    out = term = np.eye(len(m))
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _discrete_model(model: str, v: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold error model: (e_y, e_psi) kinematic, or
    (e_y, e_y_dot, e_psi, e_psi_dot) dynamic single track."""
    p = VEHICLE
    if model == "kinematic":
        a = np.array([[0.0, v], [0.0, 0.0]])
        b = np.array([[0.0], [v / WHEELBASE]])
    else:
        cy = 2.0 * (p["caf"] + p["car"])
        cm = 2.0 * (p["lf"] * p["caf"] - p["lr"] * p["car"])
        cj = 2.0 * (p["lf"] ** 2 * p["caf"] + p["lr"] ** 2 * p["car"])
        a = np.array([[0.0, 1.0, 0.0, 0.0],
                      [0.0, -cy / (p["m"] * v), cy / p["m"], -cm / (p["m"] * v)],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, -cm / (p["iz"] * v), cm / p["iz"], -cj / (p["iz"] * v)]])
        b = np.array([[0.0], [2.0 * p["caf"] / p["m"]], [0.0], [2.0 * p["lf"] * p["caf"] / p["iz"]]])
    n = len(a)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    aug[:n, n:] = b
    phi = _expm(aug * dt)
    return phi[:n, :n], phi[:n, n:]


def _dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stabilizing solution of the discrete Riccati equation by doubling."""
    eye = np.eye(len(a))
    g = b @ np.linalg.solve(r, b.T)
    h = q
    for _ in range(64):
        w = eye + g @ h
        wa = np.linalg.solve(w, a)
        h_next = h + a.T @ h @ wa
        g = g + a @ np.linalg.solve(w, g) @ a.T
        a = a @ wa
        if np.linalg.norm(h_next - h) <= 1e-15 * np.linalg.norm(h_next):
            return h_next
        h = h_next
    raise ArithmeticError("doubling did not converge")


def lqr_gain(model: str, v: float, dt: float, q: list[float], r: float) -> np.ndarray:
    """The benchmark's own LQR gain row, delta = -k @ e."""
    a, b = _discrete_model(model, v, dt)
    x = _dare(a, b, np.diag(q), np.array([[r]]))
    return np.linalg.solve(r + b.T @ x @ b, b.T @ x @ a)[0]


def _rows(path: Path, header_lines: int) -> int:
    with open(path, "rb") as f:
        return f.read().count(b"\n") - header_lines


def _columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    arr = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if arr.shape[1] != len(names):
        raise ValueError(f"{path}: header has {len(names)} columns, rows have {arr.shape[1]}")
    return {n: arr[:, i] for i, n in enumerate(names)}


def _close(a, b, rel: float = 1e-6, abs_tol: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return abs(a - b) <= rel * abs(b) + abs_tol


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in d.items():
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{prefix}{k}."))
        else:
            flat[f"{prefix}{k}"] = v
    return flat


def run_dirs(cmd: dict) -> list[Path]:
    """The directories holding one simulate command's run artifacts."""
    out = Path(cmd["argv"][cmd["argv"].index("--out") + 1])
    if "--sweep" in cmd["argv"]:
        return sorted(p for p in out.iterdir() if p.is_dir())
    return [out]


class Checker:
    """Output checks; results for identical gain tables are computed once."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._gain_memo: dict[tuple[str, bool], list[str]] = {}
        self._steerkit = None

    def _lib(self):
        if self._steerkit is None:
            from steerkit import lqr, margins
            from steerkit.models import VehicleParams
            self._steerkit = (lqr, margins, VehicleParams(**VEHICLE))
        return self._steerkit

    def gains(self, path: Path, expect_rows: int | None, ideal_margins: bool,
              weights: tuple | None = None) -> list[str]:
        """Reload a gain table through lqr.load_gain_csv; optionally gate
        criterion 7 and compare every row with `lqr_gain` at `weights`."""
        if not path.is_file():
            return [f"{path.name} missing"]
        key = (hashlib.sha256(path.read_bytes()).hexdigest(), ideal_margins, repr(weights))
        if key not in self._gain_memo:
            self._gain_memo[key] = self._check_gains(path, expect_rows, ideal_margins, weights)
        return self._gain_memo[key]

    def _check_gains(self, path: Path, expect_rows, ideal_margins: bool, weights) -> list[str]:
        lqr, margins, p = self._lib()
        try:
            with open(path, encoding="utf-8") as f:
                sched = lqr.load_gain_csv(f, p)
        except (ValueError, ArithmeticError) as e:
            return [f"{path}: reload failed: {e}"]
        errors = []
        if expect_rows is not None and len(sched.gains) != expect_rows:
            errors.append(f"{path}: {len(sched.gains)} gain sets, expected {expect_rows}")
        if ideal_margins and sched.model == "kinematic":
            for gs in sched.gains:
                sysd = lqr.discrete_error_model("kinematic", gs.v, p, gs.dt)
                rep = margins.compute_margins(
                    margins.loop_response(sysd, gs, margins.default_grid(gs.dt)))
                if not (rep.gm > CRIT7_GM and rep.pm is not None and rep.pm > CRIT7_PM):
                    errors.append(f"{path}: criterion 7 fails at v={gs.v} "
                                  f"(gm={rep.gm}, pm={rep.pm})")
        if weights is not None:
            for gs in sched.gains:
                want = lqr_gain(sched.model, gs.v, gs.dt, *weights)
                if not np.all(np.abs(gs.k - want) <= GAIN_REL_TOL * np.abs(want)):
                    errors.append(f"{path}: gains at v={gs.v} are {gs.k.tolist()}, "
                                  f"the Riccati solution gives {want.tolist()}")
        return errors

    # -- per workload --------------------------------------------------

    def check(self, workload: str, plan: dict, cmd: dict) -> list[str]:
        if workload == "track":
            fn = self._track
        else:
            fn = self._scheduled if cmd["kind"] == "simulate" else self._analysis
        try:
            return fn(plan, cmd)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            return [f"{cmd['name']}: artifacts unreadable: {e}"]

    def _sim_run(self, run: Path, ref: dict, settle_tol: float,
                 weights: tuple | None = None) -> list[str]:
        errors = []
        rows = _rows(run / "log.csv", 2)
        if rows != ref["rows"]:
            errors.append(f"{run}: {rows} log rows, expected {ref['rows']}")
        metrics = json.loads((run / "metrics.json").read_text(encoding="utf-8"))
        if metrics.get("stop_reason") != ref["stop_reason"]:
            errors.append(f"{run}: stop_reason {metrics.get('stop_reason')!r}, "
                          f"expected {ref['stop_reason']!r}")
        got = _flatten(metrics)
        for key, want in ref["metrics"].items():
            tol = settle_tol if key == "settle_distance" else 1e-9
            if not _close(got.get(key), want, rel=METRIC_REL_TOL, abs_tol=tol):
                errors.append(f"{run}: metrics.json {key}={got.get(key)!r}, expected {want!r}")
        errors += self.gains(run / "gains.csv", 15, ideal_margins=True, weights=weights)
        return errors

    def _track(self, plan: dict, cmd: dict) -> list[str]:
        ref = self.reference["track"][cmd["name"]]
        if cmd["kind"] == "smooth":
            out = run_dirs(cmd)[0]
            rows = _rows(out / "smoothed.csv", 1)
            return [] if rows == ref["rows"] else [f"smoothed.csv has {rows} rows, expected {ref['rows']}"]
        errors = []
        runs = run_dirs(cmd)
        if [r.name for r in runs] != sorted(ref["runs"]):
            return [f"{cmd['name']}: run directories {[r.name for r in runs]}"]
        for run in runs:
            rref = ref["runs"][run.name]
            errors += self._sim_run(run, rref, ref["settle_tol"])
            metrics = json.loads((run / "metrics.json").read_text(encoding="utf-8"))
            for key, bound in CRIT3.get(cmd["name"], {}).items():
                if not metrics[key] <= bound:
                    errors.append(f"{run}: criterion 3 {key}={metrics[key]} > {bound}")
            if cmd["name"] == "park":
                settle = metrics.get("settle_distance")
                if not (metrics.get("settled") and settle is not None and settle <= CRIT4_SETTLE_M):
                    errors.append(f"{run}: criterion 4 settle {settle!r}")
        return errors

    def _scheduled(self, plan: dict, cmd: dict) -> list[str]:
        want = plan["expect"][cmd["name"]]
        desk = self.reference["desk"]
        ref = desk["variants"][str(want["variant"])][cmd["name"]]
        run = run_dirs(cmd)[0]
        errors = self._sim_run(run, ref, desk["settle_tol"], want["weights"])
        # the stored metrics must describe the stored log
        cols = _columns(run / "log.csv")
        metrics = json.loads((run / "metrics.json").read_text(encoding="utf-8"))
        derived = {"max_abs_e_y": float(np.max(np.abs(cols["e_y"]))),
                   "rms_e_y": float(np.sqrt(np.mean(cols["e_y"] ** 2))),
                   "max_abs_e_psi": float(np.max(np.abs(cols["e_psi"])))}
        for key, val in derived.items():
            if not _close(metrics.get(key), val, rel=1e-9, abs_tol=0.0):
                errors.append(f"{run}: metrics.json {key}={metrics.get(key)!r}, log gives {val!r}")
        return errors

    def _analysis(self, plan: dict, cmd: dict) -> list[str]:
        want = plan["expect"][cmd["name"]]
        out = run_dirs(cmd)[0]
        if cmd["kind"] == "design":
            return self.gains(out / "gains.csv", want["gains"], ideal_margins=True,
                              weights=want["weights"])
        if cmd["kind"] == "margins":
            rep = json.loads((out / "margins.json").read_text(encoding="utf-8"))
            rows = _rows(out / "bode.csv", 1)
            errors = [] if rows == 400 else [f"{out}: bode.csv has {rows} rows"]
            gm = math.inf if rep.get("gm") is None else rep["gm"]
            if want["model"] == "kinematic" and not (gm > CRIT7_GM and (rep.get("pm") or 0) > CRIT7_PM):
                errors.append(f"{out}: criterion 7 fails (gm={rep.get('gm')}, pm={rep.get('pm')})")
            return errors
        cols = _columns(out / "curvature.csv")
        truth = np.load(want["truth"])
        if len(cols["t"]) != want["samples"]:
            return [f"{out}: {len(cols['t'])} curvature rows, expected {want['samples']}"]
        skip = want["samples"] // 20
        rms = float(np.sqrt(np.mean((cols["kappa_fused"][skip:] - truth[skip:]) ** 2)))
        if not rms <= CURVATURE_RMS_TOL:
            return [f"{out}: fused curvature RMS error {rms:.3e} > {CURVATURE_RMS_TOL:.1e}"]
        return []


def fingerprint(cmd: dict) -> str:
    """Hash of a command's data artifacts, compared across passes for determinism."""
    out = Path(cmd["argv"][cmd["argv"].index("--out") + 1])
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.suffix in (".csv", ".json") and p.name != "manifest.json":
            h.update(str(p.relative_to(out)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def simulated_seconds(cmd: dict) -> float:
    """Simulated time behind one simulate or smooth command's artifacts.

    For simulate: the log's time span.  For smooth: the smoothed path's
    duration at the smoothing speed, the closest visible measure of the
    tracking run it comes from.
    """
    total = 0.0
    if cmd["kind"] == "smooth":
        out = run_dirs(cmd)[0]
        with open(out / "smoothed.csv", "rb") as f:
            last = f.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
        return float(last.split(b",", 1)[0])
    for run in run_dirs(cmd):
        total += (_rows(run / "log.csv", 2) - 1) * SIM_DT
    return total


def gain_sets_written(cmd: dict) -> int:
    return _rows(run_dirs(cmd)[0] / "gains.csv", 1)
