"""steerkit command line: simulate | design | curvature | margins | smooth.

Exit codes are a stable contract: 0 success, 2 simulation-domain failure
(vehicle lost, divergence), 3 input error (files, schema, flags),
4 design failure (Riccati non-convergence, rejected grid point).

Every successful command writes a manifest.json recording the tool
version, the sha256 of its primary input, and the artifact list.
Re-running with --verify checks the stored hash against the input and
flags drift.  STEERKIT_OUT overrides the default output root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import NumericalError, SimulationError, __version__
from . import curvkit, lqr, margins, pathkit, simkit, svgplot
from .models import MIN_DYNAMIC_SPEED, VehicleParams
from .svgplot import Panel, Series

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SIM = 2
EXIT_INPUT = 3
EXIT_DESIGN = 4


class ConfigError(ValueError):
    """Invalid input file or flag value; maps to exit code 3."""


def _fail(code: int, message: str) -> int:
    print(f"steerkit: {message}", file=sys.stderr)
    return code


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_json(path: Path) -> dict:
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON ({e})") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return data


def _vehicle_from(data: dict, path: Path) -> VehicleParams:
    entry = data.get("vehicle", {})
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: 'vehicle' must be an object")
    allowed = {"m", "iz", "lf", "lr", "caf", "car", "max_steer"}
    unknown = set(entry) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown vehicle keys {sorted(unknown)}")
    try:
        return VehicleParams(**{k: float(v) for k, v in entry.items()})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: bad vehicle parameters: {e}") from e


def _out_dir(args, command: str) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get("STEERKIT_OUT", "steerkit_out")
    return Path(root) / command


def _write_manifest(out: Path, command: str, input_path: Path, seed, artifacts: list[str]) -> None:
    manifest = {
        "tool": "steerkit",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_path": str(input_path),
        "input_sha256": _sha256(input_path),
        "seed": seed,
        "out_dir": str(out),
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _verify_manifest(out: Path, input_path: Path) -> int:
    mpath = out / "manifest.json"
    if not mpath.exists():
        return _fail(EXIT_INPUT, f"no manifest to verify at {mpath}")
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    current = _sha256(input_path)
    if manifest.get("input_sha256") != current:
        return _fail(EXIT_INPUT, f"config drift detected: {input_path} no longer matches manifest")
    missing = [a for a in manifest.get("artifacts", []) if not (out / a).exists()]
    if missing:
        return _fail(EXIT_INPUT, f"manifest artifacts missing: {missing}")
    print(f"manifest verified: {mpath}")
    return EXIT_OK


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# ---------------------------------------------------------------- simulate

_SIM_KEYS = {"schema_version", "seed", "path", "vehicle", "model", "controller", "speed",
             "t_end", "sim_dt", "control_dt", "initial_offset", "gains", "sensors", "actuator"}


def _build_path(entry, base: Path) -> pathkit.RefPath:
    _require(isinstance(entry, dict), "'path' must be an object")
    kind = entry.get("kind")
    _require(isinstance(kind, str), "'path.kind' is required")
    params = {k: v for k, v in entry.items() if k != "kind"}
    spacing = float(params.pop("spacing", 0.1))
    if kind == "recorded":
        csv = params.pop("csv", None)
        _require(isinstance(csv, str), "'path.csv' is required for recorded paths")
        _require(not params, f"unknown recorded-path keys {sorted(params)}")
        cols = pathkit.read_recorded_csv(base / csv)
        return pathkit.load_recorded(
            cols["t"], cols["X"], cols["Y"], cols["psi"],
            yaw_rate=cols.get("yaw_rate"), speed=cols.get("speed"), spacing=spacing)
    try:
        return pathkit.gen_path(kind, spacing=spacing, **params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad path definition: {e}") from e


def _build_schedule_from_config(cfg: dict, p: VehicleParams, model: str,
                                control_dt: float, base: Path) -> lqr.GainSchedule:
    entry = cfg.get("gains", {"grid": [1.0, 15.0, 15], "weights": None})
    _require(isinstance(entry, dict), "'gains' must be an object")
    if "csv" in entry:
        path = base / entry["csv"]
        _require(path.exists(), f"gain table {path} not found")
        with open(path, encoding="utf-8") as f:
            return lqr.load_gain_csv(f, p)
    grid_spec = entry.get("grid", [1.0, 15.0, 15])
    if isinstance(grid_spec, list) and len(grid_spec) == 3 and isinstance(grid_spec[2], int):
        grid = np.linspace(float(grid_spec[0]), float(grid_spec[1]), grid_spec[2])
    else:
        _require(isinstance(grid_spec, list), "'gains.grid' must be a list")
        grid = np.asarray([float(v) for v in grid_spec])
    weights = _parse_weights(entry.get("weights"), model)
    return lqr.build_schedule(grid, model, p, weights, dt=control_dt)


def _parse_weights(entry, model: str, source: str = "'weights.q'") -> lqr.LqrWeights:
    """Weights from a config object {"q": [...], "r": r}; None gives unit weights."""
    n = 2 if model == "kinematic" else 4
    if entry is None:
        return lqr.LqrWeights(q_diag=(1.0,) * n, r=1.0)
    _require(isinstance(entry, dict), "'weights' must be an object with q and r")
    q, r = entry.get("q"), entry.get("r", 1.0)
    _require(isinstance(q, list) and len(q) == n,
             f"{source} needs {n} state weights for the {model} model")
    try:
        return lqr.LqrWeights(q_diag=tuple(float(v) for v in q), r=float(r))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad weights: {e}") from e


def _parse_weights_flag(flag: str | None, model: str) -> lqr.LqrWeights:
    """The --weights flag 'q1,q2[,q3,q4][:r]', checked as a config weights object."""
    if flag is None:
        return _parse_weights(None, model)
    try:
        qpart, _, rpart = flag.partition(":")
        entry = {"q": [float(v) for v in qpart.split(",")], "r": float(rpart) if rpart else 1.0}
    except ValueError as e:
        raise ConfigError(f"--weights must look like 'q1,q2[,q3,q4][:r]': {e}") from e
    return _parse_weights(entry, model, "--weights")


def _sensors_from(cfg: dict) -> dict:
    table = cfg.get("sensors", {})
    _require(isinstance(table, dict), "'sensors' must be an object")
    out = simkit.default_sensors()
    for name, entry in table.items():
        _require(name in out, f"unknown sensor channel {name!r}")
        _require(isinstance(entry, dict), f"sensor {name!r} must be an object")
        allowed = {"noise_std", "quantization_step", "rate_hz", "delay_steps"}
        unknown = set(entry) - allowed
        _require(not unknown, f"unknown sensor keys {sorted(unknown)} on {name!r}")
        try:
            out[name] = simkit.SensorConfig(**entry)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad sensor {name!r}: {e}") from e
    return out


def _actuator_from(cfg: dict) -> simkit.ActuatorConfig:
    entry = cfg.get("actuator", {})
    _require(isinstance(entry, dict), "'actuator' must be an object")
    allowed = {"lag_tau", "delay_steps", "rate_limit"}
    unknown = set(entry) - allowed
    _require(not unknown, f"unknown actuator keys {sorted(unknown)}")
    try:
        return simkit.ActuatorConfig(**entry)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad actuator config: {e}") from e


def _scenario_from_config(cfg: dict, config_path: Path):
    unknown = set(cfg) - _SIM_KEYS
    _require(not unknown, f"unknown config keys {sorted(unknown)}")
    base = config_path.parent
    p = _vehicle_from(cfg, config_path)
    model = cfg.get("model", "kinematic")
    controller = cfg.get("controller",
                         "kinematic_ff_fb" if model == "kinematic" else "dynamic_lqr")
    path = _build_path(cfg.get("path"), base)
    speed = cfg.get("speed", 10.0)
    if isinstance(speed, list):
        _require(all(isinstance(k, list) and len(k) == 2 for k in speed),
                 "'speed' table must be [[t, v], ...]")
        speed = [(float(a), float(b)) for a, b in speed]
    else:
        speed = float(speed)
    offset = cfg.get("initial_offset", [0.0, 0.0])
    _require(isinstance(offset, list) and len(offset) == 2, "'initial_offset' must be [e_y, e_psi]")
    control_dt = float(cfg.get("control_dt", 0.02))
    try:
        scenario = simkit.ScenarioConfig(
            path=path,
            model=model,
            controller=controller,
            speed=speed,
            t_end=float(cfg.get("t_end", 60.0)),
            sim_dt=float(cfg.get("sim_dt", 0.001)),
            control_dt=control_dt,
            initial_offset=(float(offset[0]), float(offset[1])),
            sensors=_sensors_from(cfg),
            actuator=_actuator_from(cfg),
            seed=int(cfg.get("seed", 0)),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    schedule = _build_schedule_from_config(cfg, p, model, control_dt, base)
    return scenario, schedule, p


def _render_curvature(file: Path, t, ka, kd, fused, *extra: Series) -> None:
    """Curvature plot: the three sources (plus extra series), then a zoom near zero."""
    sources = (("ackermann", ka), ("differential", kd), ("fused", fused))
    svgplot.render([
        Panel(series=[Series(t, k, label=name) for name, k in sources] + list(extra),
              title="Curvature sources", xlabel="t [s]", ylabel="kappa [1/m]"),
        Panel(series=[Series(t, np.clip(k, -5e-3, 5e-3), label=name) for name, k in sources],
              title="Near zero (clipped +-0.005)", xlabel="t [s]", ylabel="kappa [1/m]"),
    ], file)


def _plot_simulation(out: Path, log: simkit.SimLog, path: pathkit.RefPath) -> list[str]:
    plots = out / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    svgplot.render([Panel(
        series=[
            Series(path.x, path.y, label="reference"),
            Series(log.x, log.y, label="vehicle", dash="5,3"),
        ],
        title="Trajectory", xlabel="X [m]", ylabel="Y [m]",
    )], plots / "trajectory.svg")
    svgplot.render([
        Panel(series=[Series(log.s, log.e_y)], title="Lateral error",
              xlabel="s [m]", ylabel="e_y [m]", hlines=[(0.0, "")]),
        Panel(series=[Series(log.s, np.degrees(log.e_psi))], title="Heading error",
              xlabel="s [m]", ylabel="e_psi [deg]", hlines=[(0.0, "")]),
    ], plots / "error_vs_s.svg")
    _render_curvature(plots / "curvature.svg", log.t, log.kappa_ack, log.kappa_diff,
                      log.kappa_fused, Series(log.t, log.kappa_path, label="path", dash="2,2"))
    return ["plots/trajectory.svg", "plots/error_vs_s.svg", "plots/curvature.svg"]


def _run_one_simulation(cfg: dict, config_path: Path, out: Path) -> None:
    scenario, schedule, p = _scenario_from_config(cfg, config_path)
    log = simkit.run_scenario(scenario, schedule, params=p)
    metrics = simkit.compute_metrics(log)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "log.csv", "w", encoding="utf-8", newline="\n") as f:
        log.to_csv(f)
    payload = metrics.to_dict()
    payload.update({"stop_reason": log.stop_reason, "seed": scenario.seed,
                    "schema_version": SCHEMA_VERSION})
    (out / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    with open(out / "gains.csv", "w", encoding="utf-8", newline="\n") as f:
        lqr.save_gain_csv(schedule, f)
    artifacts = ["log.csv", "metrics.json", "gains.csv"]
    artifacts += _plot_simulation(out, log, scenario.path)
    _write_manifest(out, "simulate", config_path, scenario.seed, artifacts)


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    out = _out_dir(args, "simulate")
    try:
        cfg = _read_json(config_path)
        if args.verify:
            return _verify_manifest(out, config_path)
        if args.sweep:
            key, _, values = args.sweep.partition("=")
            _require(bool(values), "--sweep needs key=v1,v2,...")
            subruns = []
            for i, raw in enumerate(values.split(",")):
                try:
                    val = json.loads(raw)
                except json.JSONDecodeError as e:
                    raise ConfigError(f"--sweep value {raw!r} is not valid JSON") from e
                sub = json.loads(json.dumps(cfg))
                node = sub
                parts = key.split(".")
                for part in parts[:-1]:
                    node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
                leaf = parts[-1]
                if isinstance(node, list):
                    node[int(leaf)] = val
                else:
                    node[leaf] = val
                name = f"{i:02d}_{key.replace('.', '_')}_{raw}".replace("/", "_").replace(" ", "")
                _run_one_simulation(sub, config_path, out / name)
                subruns.append(name)
            out.mkdir(parents=True, exist_ok=True)
            _write_manifest(out, "simulate-sweep", config_path, cfg.get("seed", 0),
                            [f"{n}/manifest.json" for n in subruns])
            print(f"sweep complete: {len(subruns)} runs in {out}")
            return EXIT_OK
        _run_one_simulation(cfg, config_path, out)
        print(f"simulation complete: artifacts in {out}")
        return EXIT_OK
    except ConfigError as e:
        return _fail(EXIT_INPUT, str(e))
    except SimulationError as e:
        return _fail(EXIT_SIM, str(e))
    except NumericalError as e:
        return _fail(EXIT_DESIGN, str(e))
    except (KeyError, IndexError, ValueError) as e:
        return _fail(EXIT_INPUT, f"invalid configuration: {e}")


# ------------------------------------------------------------------ design

def _parse_grid(flag: str) -> np.ndarray:
    try:
        if ":" in flag:
            a, b, c = flag.split(":")
            return np.linspace(float(a), float(b), int(c))
        return np.asarray([float(v) for v in flag.split(",")])
    except ValueError as e:
        raise ConfigError(f"--grid must be 'lo:hi:n' or 'v1,v2,...': {e}") from e


def cmd_design(args) -> int:
    params_path = Path(args.params)
    out = _out_dir(args, "design")
    try:
        data = _read_json(params_path)
        p = _vehicle_from(data, params_path)
        if args.verify:
            return _verify_manifest(out, params_path)
        grid = _parse_grid(args.grid)
        weights = _parse_weights_flag(args.weights, args.model)
        dt = float(args.dt)
    except ConfigError as e:
        return _fail(EXIT_INPUT, str(e))
    try:
        schedule = lqr.build_schedule(grid, args.model, p, weights, dt=dt)
    except (NumericalError, ValueError) as e:
        return _fail(EXIT_DESIGN, f"design failed: {e}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "gains.csv", "w", encoding="utf-8", newline="\n") as f:
        lqr.save_gain_csv(schedule, f)
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    karr = np.array([g.k for g in schedule.gains])
    svgplot.render([Panel(
        series=[Series(schedule.speeds, karr[:, i], label=f"k{i + 1}")
                for i in range(karr.shape[1])],
        title=f"Feedback gains vs speed ({args.model})",
        xlabel="v [m/s]", ylabel="gain",
    )], plots / "gains_vs_speed.svg")
    _write_manifest(out, "design", params_path, None, ["gains.csv", "plots/gains_vs_speed.svg"])
    print(f"designed {len(schedule.gains)} gain sets: {out / 'gains.csv'}")
    return EXIT_OK


# --------------------------------------------------------------- curvature

def cmd_curvature(args) -> int:
    log_path = Path(args.log)
    out = _out_dir(args, "curvature")
    try:
        cols = pathkit.read_recorded_csv(log_path)
        for chan in ("steer", "yaw_rate", "speed"):
            if chan not in cols:
                raise ConfigError(f"{log_path}: missing required channel '{chan}'")
        p = _vehicle_from(_read_json(Path(args.params)), Path(args.params)) if args.params \
            else VehicleParams()
        if args.verify:
            return _verify_manifest(out, log_path)
        t = cols["t"]
        ka, kd, fused = curvkit.curvature_series(t, cols["steer"], cols["psi"], cols["yaw_rate"],
                                                 cols["speed"], p.wheelbase)
    except ValueError as e:
        return _fail(EXIT_INPUT, str(e))

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "curvature.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("t,kappa_ack,kappa_diff,kappa_fused\n")
        for row in zip(t, ka, kd, fused):
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    _render_curvature(plots / "curvature.svg", t, ka, kd, fused)
    _write_manifest(out, "curvature", log_path, None, ["curvature.csv", "plots/curvature.svg"])
    print(f"curvature analysis complete: {out / 'curvature.csv'}")
    return EXIT_OK


# ----------------------------------------------------------------- margins

def cmd_margins(args) -> int:
    params_path = Path(args.params)
    out = _out_dir(args, "margins")
    try:
        data = _read_json(params_path)
        p = _vehicle_from(data, params_path)
        if args.verify:
            return _verify_manifest(out, params_path)
        speed = float(args.speed)
        if not (0.0 < speed <= 30.0) or \
                (args.model == "dynamic" and speed <= MIN_DYNAMIC_SPEED):
            raise ConfigError(f"--speed {args.speed} outside the valid design range")
        weights = _parse_weights_flag(args.weights, args.model)
        dt = float(args.dt)
        if not (0.001 < dt <= 0.1):
            raise ConfigError("--dt must be in (0.001, 0.1]")
    except ConfigError as e:
        return _fail(EXIT_INPUT, str(e))
    try:
        design = lqr.design_kinematic if args.model == "kinematic" else lqr.design_dynamic
        gains = design(speed, p, weights, dt)
    except (NumericalError, ValueError) as e:
        return _fail(EXIT_DESIGN, f"design failed: {e}")
    sysd = lqr.discrete_error_model(args.model, speed, p, dt)
    grid = margins.default_grid(dt, points=int(args.points))
    fr = margins.loop_response(sysd, gains, grid)
    report = margins.compute_margins(fr)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "bode.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("omega,mag_db,phase_deg\n")
        for row in zip(fr.omegas, fr.mag_db, fr.phase_deg):
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    payload = report.to_dict()
    payload.update({"speed": speed, "model": args.model, "dt": dt,
                    "gains": [float(g) for g in gains.k], "schema_version": SCHEMA_VERSION})
    (out / "margins.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    vmag = [(report.gm_freq, "gm")] if report.gm_freq else []
    vph = [(report.pm_freq, "pm")] if report.pm_freq else []
    svgplot.render([
        Panel(series=[Series(fr.omegas, fr.mag_db)], title=f"Loop magnitude (v={speed} m/s)",
              xlabel="omega [rad/s]", ylabel="|L| [dB]", logx=True,
              hlines=[(0.0, "0 dB")], vlines=vmag + vph),
        Panel(series=[Series(fr.omegas, fr.phase_deg)], title="Loop phase",
              xlabel="omega [rad/s]", ylabel="phase [deg]", logx=True,
              hlines=[(-180.0, "-180")], vlines=vmag + vph),
    ], plots / "bode.svg")
    _write_manifest(out, "margins", params_path, None,
                    ["bode.csv", "margins.json", "plots/bode.svg"])
    gm_txt = "inf" if math.isinf(report.gm) else f"{report.gm:.2f}"
    pm_txt = "undefined" if report.pm is None else f"{report.pm:.1f} deg"
    print(f"margins at v={speed}: gm={gm_txt}, pm={pm_txt}")
    return EXIT_OK


# ------------------------------------------------------------------ smooth

def cmd_smooth(args) -> int:
    path_csv = Path(args.path_csv)
    out = _out_dir(args, "smooth")
    try:
        cols = pathkit.read_recorded_csv(path_csv)
        p = _vehicle_from(_read_json(Path(args.params)), Path(args.params)) if args.params \
            else VehicleParams()
        if args.verify:
            return _verify_manifest(out, path_csv)
        speed = float(args.speed)
        if speed <= 0:
            raise ConfigError("--speed must be positive")
        raw = pathkit.load_recorded(cols["t"], cols["X"], cols["Y"], cols["psi"],
                                    yaw_rate=cols.get("yaw_rate"), speed=cols.get("speed"))
    except ValueError as e:
        return _fail(EXIT_INPUT, str(e))
    try:
        smooth = pathkit.smooth_recorded(raw, p, v=speed)
    except SimulationError as e:
        return _fail(EXIT_SIM, f"smoothing diverged: {e}")
    out.mkdir(parents=True, exist_ok=True)
    pathkit.write_recorded_csv(out / "smoothed.csv", smooth.s / speed, smooth.x, smooth.y,
                               smooth.psi, speed=np.full(len(smooth), speed))
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    svgplot.render([
        Panel(series=[Series(raw.x, raw.y, label="raw"),
                      Series(smooth.x, smooth.y, label="smoothed")],
              title="Path", xlabel="X [m]", ylabel="Y [m]"),
        Panel(series=[Series(raw.s, raw.kappa, label="raw"),
                      Series(smooth.s, smooth.kappa, label="smoothed")],
              title="Curvature before/after", xlabel="s [m]", ylabel="kappa [1/m]"),
    ], plots / "smooth.svg")
    _write_manifest(out, "smooth", path_csv, None, ["smoothed.csv", "plots/smooth.svg"])
    print(f"smoothed path written: {out / 'smoothed.csv'}")
    return EXIT_OK


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="steerkit",
                                 description="Lateral steering control toolkit")
    ap.add_argument("--version", action="version", version=f"steerkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a closed-loop scenario from a JSON config")
    sim.add_argument("config", help="scenario config JSON")
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--sweep", help="key=v1,v2,... run one scenario per value")
    sim.add_argument("--verify", action="store_true", help="check manifest hash, do not run")
    sim.set_defaults(func=cmd_simulate)

    des = sub.add_parser("design", help="design a speed-scheduled gain table")
    des.add_argument("params", help="vehicle params JSON")
    des.add_argument("--grid", default="1:15:15", help="lo:hi:n or comma list [1:15:15]")
    des.add_argument("--weights", help="q1,q2[,q3,q4][:r]  (default all-ones : 1)")
    des.add_argument("--dt", default="0.02", help="control period [0.02 s]")
    des.add_argument("--model", choices=("kinematic", "dynamic"), default="kinematic")
    des.add_argument("--out", help="output directory")
    des.add_argument("--verify", action="store_true")
    des.set_defaults(func=cmd_design)

    cur = sub.add_parser("curvature", help="three-source curvature analysis of a recorded log")
    cur.add_argument("log", help="recorded CSV (needs steer, yaw_rate, speed, psi)")
    cur.add_argument("--params", help="vehicle params JSON (default mid-size sedan)")
    cur.add_argument("--out", help="output directory")
    cur.add_argument("--verify", action="store_true")
    cur.set_defaults(func=cmd_curvature)

    mar = sub.add_parser("margins", help="Bode data and gain/phase margins of a designed loop")
    mar.add_argument("params", help="vehicle params JSON")
    mar.add_argument("--speed", required=True, help="design speed m/s")
    mar.add_argument("--weights", help="q1,q2[,q3,q4][:r]")
    mar.add_argument("--dt", default="0.02")
    mar.add_argument("--model", choices=("kinematic", "dynamic"), default="kinematic")
    mar.add_argument("--points", default="400", help="frequency grid size [400]")
    mar.add_argument("--out", help="output directory")
    mar.add_argument("--verify", action="store_true")
    mar.set_defaults(func=cmd_margins)

    smo = sub.add_parser("smooth", help="smooth a recorded path by closed-loop tracking")
    smo.add_argument("path_csv", help="recorded path CSV")
    smo.add_argument("--params", help="vehicle params JSON")
    smo.add_argument("--speed", default="3.0", help="tracking speed m/s [3.0]")
    smo.add_argument("--out", help="output directory")
    smo.add_argument("--verify", action="store_true")
    smo.set_defaults(func=cmd_smooth)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
