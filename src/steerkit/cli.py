"""steerkit command line: simulate | design | curvature | margins | smooth.

Exit codes are a stable contract: 0 success, 2 simulation-domain failure
(vehicle lost, divergence), 3 input error (files, schema, flags, usage),
4 design failure (Riccati non-convergence, failed certificate, or a grid
the designer rejects, from `design` and a `simulate` config alike).
`main` is the one place where an exception becomes an exit code.

Flags are typed when parsed: `--dt` must lie in lqr.CONTROL_DT_RANGE
(0.001 < dt <= 0.1 s; a config that designs its gains is held to it too),
speeds must be positive and finite, `--points` an integer >= 2 and
`--grid` speeds finite.  Every number in a config file is a JSON number
(never a bool, null or string), an integer where one is meant (seed,
grid count, delay_steps); anything else is exit 3 naming the key.

`simulate --sweep` runs its members in forked worker processes where there
are several usable CPUs (`_run_sweep`); the artifacts are those of a serial run.
Outside a sweep worker, `simulate` formats log.csv in a forked child while
the run goes on (`logfork.ForkedLog`, chosen by `_log_writer`) where there
are two usable CPUs, `fork`, no other thread and at least one CSV block of
rows; the child writes an unnamed temporary file, which is copied to
log.csv only after the run has returned, and a child that fails leaves the
log to be formatted serially, with the same bytes.

Every successful command writes its artifacts through one OutputDir, whose
manifest.json records the tool version, the sha256 of the primary input
and exactly the artifacts written.  Re-running with --verify checks the
stored hash against the input and flags drift.  STEERKIT_OUT overrides
the default output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

from . import NumericalError, SimulationError, __version__
from . import curvkit, lqr, margins, pathkit, simkit, svgplot
from .models import VehicleParams, check_dynamic_speed
from .numkit import CSV_BLOCK_ROWS, write_float_csv
from .svgplot import Panel, Series

SCHEMA_VERSION = 1
MAX_GRID_SPEEDS = 1000   # speeds of one design grid, all designed at once

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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


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


def _number(value, key: str, integer: bool = False, optional: bool = False):
    """The one reader of config numbers: a JSON number, never a bool, null or
    string; an int where `integer`; null only where `optional`.  Finiteness is
    left to the domain checks of the object built from it."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "integer" if integer else "number"
        raise ConfigError(f"{key} must be a JSON {kind}, got {json.dumps(value)}")
    return value if integer else float(value)


def _build(cls, entry, what: str):
    """cls(**entry) from a config object whose keys are cls's dataclass fields."""
    _require(isinstance(entry, dict), f"'{what}' must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(entry) - set(fields)
    _require(not unknown, f"unknown {what} keys {sorted(unknown)}")
    values = {k: _number(v, f"{what}.{k}", integer=fields[k].type in (int, "int"),
                         optional=fields[k].default is None) for k, v in entry.items()}
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(f"bad {what}: {e}") from e


def _vehicle_file(path: str | None) -> VehicleParams:
    """Vehicle from a params JSON file; the mid-size sedan defaults without one."""
    if path is None:
        return VehicleParams()
    return _build(VehicleParams, _read_json(Path(path)).get("vehicle", {}), "vehicle")


def _speed_grid(spec, source: str) -> np.ndarray:
    """The one grid rule: [lo, hi, n] with an integer n spaces n speeds, any
    other list lists them; every speed must be finite, and there are at most
    MAX_GRID_SPEEDS of them."""
    _require(isinstance(spec, list), f"'{source}' must be a list")
    spaced = len(spec) == 3 and isinstance(spec[2], int) and not isinstance(spec[2], bool)
    count = spec[2] if spaced else len(spec)
    _require(count <= MAX_GRID_SPEEDS,
             f"{source} has {count} speeds, more than the {MAX_GRID_SPEEDS} a grid may have")
    if spaced:
        grid = np.linspace(_number(spec[0], f"{source}[0]"), _number(spec[1], f"{source}[1]"),
                           spec[2])
    else:
        grid = np.asarray([_number(v, f"{source}[{i}]") for i, v in enumerate(spec)])
    _require(bool(np.all(np.isfinite(grid))), f"{source} speeds must be finite, got {spec}")
    return grid


def _weights(entry, model: str, source: str = "'weights.q'") -> lqr.LqrWeights:
    """Weights from {"q": [...], "r": r} (a config object or --weights); None gives unit weights."""
    n = 2 if model == "kinematic" else 4
    if entry is None:
        return lqr.LqrWeights(q_diag=(1.0,) * n, r=1.0)
    _require(isinstance(entry, dict), "'weights' must be an object with q and r")
    q, r = entry.get("q"), entry.get("r", 1.0)
    _require(isinstance(q, list) and len(q) == n,
             f"{source} needs {n} state weights for the {model} model")
    q_diag = tuple(_number(v, f"weights.q[{i}]") for i, v in enumerate(q))
    try:
        return lqr.LqrWeights(q_diag=q_diag, r=_number(r, "weights.r"))
    except ValueError as e:
        raise ConfigError(f"bad weights ({source}): {e}") from e


def _designed(designer, *args, **kwargs):
    """Call a designer (lqr.build_schedule, lqr.design_*); a grid, speed or
    period it rejects with ValueError is a design failure (exit 4)."""
    try:
        return designer(*args, **kwargs)
    except ValueError as e:
        raise NumericalError(f"design failed: {e}") from e


class OutputDir:
    """One command's output directory.  Every artifact is written through it
    and recorded, and manifest.json lists exactly the recorded artifacts."""

    def __init__(self, root: Path):
        self.root = root
        self.artifacts: list[str] = []

    def path(self, name: str) -> Path:
        """Record artifact `name` (relative to the root) and return its path, parent made."""
        file = self.root / name
        file.parent.mkdir(parents=True, exist_ok=True)
        self.artifacts.append(name)
        return file

    def open(self, name: str):
        return _text_file(self.path(name))

    def json(self, name: str, payload: dict) -> None:
        with self.open(name) as f:
            f.write(json.dumps(payload, indent=2) + "\n")

    def manifest(self, command: str, input_path: Path, seed) -> None:
        manifest = {
            "tool": "steerkit",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "input_path": str(input_path),
            "input_sha256": _sha256(input_path),
            "seed": seed,
            "out_dir": str(self.root),
            "artifacts": self.artifacts,
        }
        with _text_file(self.root / "manifest.json") as f:
            f.write(json.dumps(manifest, indent=2) + "\n")

    def verify(self, input_path: Path) -> str:
        mpath = self.root / "manifest.json"
        _require(mpath.exists(), f"no manifest to verify at {mpath}")
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
        _require(manifest.get("input_sha256") == _sha256(input_path),
                 f"config drift detected: {input_path} no longer matches manifest")
        missing = [a for a in manifest.get("artifacts", []) if not (self.root / a).exists()]
        _require(not missing, f"manifest artifacts missing: {missing}")
        return f"manifest verified: {mpath}"


def _text_file(path: Path):
    return open(path, "w", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------- simulate

_SIM_KEYS = {"schema_version", "seed", "path", "vehicle", "model", "controller", "speed",
             "t_end", "sim_dt", "control_dt", "initial_offset", "gains", "sensors", "actuator"}


def _build_path(entry, base: Path) -> pathkit.RefPath:
    _require(isinstance(entry, dict), "'path' must be an object")
    _require(isinstance(entry.get("kind"), str), "'path.kind' is required")
    params = {k: v if k in ("kind", "csv", "direction") else _number(v, f"path.{k}")
              for k, v in entry.items()}
    kind = params.pop("kind")
    spacing = params.pop("spacing", 0.1)
    if kind != "recorded":
        return pathkit.gen_path(kind, spacing=spacing, **params)
    csv = params.pop("csv", None)
    _require(isinstance(csv, str), "'path.csv' is required for recorded paths")
    _require(not params, f"unknown recorded-path keys {sorted(params)}")
    cols = pathkit.read_recorded_csv(base / csv)
    return pathkit.load_recorded(cols["t"], cols["X"], cols["Y"], cols["psi"],
                                 yaw_rate=cols.get("yaw_rate"), speed=cols.get("speed"),
                                 spacing=spacing)


def _schedule_from_config(cfg: dict, p: VehicleParams, model: str, control_dt: float,
                          base: Path) -> lqr.GainSchedule:
    entry = cfg.get("gains", {})
    _require(isinstance(entry, dict), "'gains' must be an object")
    if "csv" in entry:
        path = base / entry["csv"]
        _require(path.exists(), f"gain table {path} not found")
        with open(path, encoding="utf-8") as f:
            schedule = lqr.load_gain_csv(f, p)
        _require(schedule.dt == control_dt, f"gain table {path} has dt {schedule.dt} s, "
                 f"the config's control_dt is {control_dt} s")
        return schedule
    grid = _speed_grid(entry.get("grid", [1.0, 15.0, 15]), "gains.grid")
    weights = _weights(entry.get("weights"), model)
    lqr.check_control_dt(control_dt, " (control_dt)")
    return _designed(lqr.build_schedule, grid, model, p, weights, dt=control_dt)


def _scenario_from_config(cfg: dict, config_path: Path):
    unknown = set(cfg) - _SIM_KEYS
    _require(not unknown, f"unknown config keys {sorted(unknown)}")
    base = config_path.parent
    p = _build(VehicleParams, cfg.get("vehicle", {}), "vehicle")
    model = cfg.get("model", "kinematic")
    controller = cfg.get("controller",
                         "kinematic_ff_fb" if model == "kinematic" else "dynamic_lqr")
    path = _build_path(cfg.get("path"), base)
    speed = cfg.get("speed", 10.0)
    if isinstance(speed, list):
        _require(all(isinstance(k, list) and len(k) == 2 for k in speed),
                 "'speed' table must be [[t, v], ...]")
        speed = [(_number(t, f"speed[{i}][0]"), _number(v, f"speed[{i}][1]"))
                 for i, (t, v) in enumerate(speed)]
    else:
        speed = _number(speed, "speed")
    offset = cfg.get("initial_offset", [0.0, 0.0])
    _require(isinstance(offset, list) and len(offset) == 2, "'initial_offset' must be [e_y, e_psi]")
    control_dt = _number(cfg.get("control_dt", lqr.DEFAULT_CONTROL_DT), "control_dt")
    sensors = simkit.default_sensors()
    table = cfg.get("sensors", {})
    _require(isinstance(table, dict), "'sensors' must be an object")
    for name, entry in table.items():
        _require(name in sensors, f"unknown sensor channel {name!r}")
        sensors[name] = _build(simkit.SensorConfig, entry, f"sensors.{name}")
    try:
        scenario = simkit.ScenarioConfig(
            path=path, model=model, controller=controller, speed=speed,
            t_end=_number(cfg.get("t_end", 60.0), "t_end"),
            sim_dt=_number(cfg.get("sim_dt", 0.001), "sim_dt"),
            control_dt=control_dt,
            initial_offset=tuple(_number(v, f"initial_offset[{i}]")
                                 for i, v in enumerate(offset)),
            sensors=sensors,
            actuator=_build(simkit.ActuatorConfig, cfg.get("actuator", {}), "actuator"),
            seed=_number(cfg.get("seed", 0), "seed", integer=True),
        )
    except ValueError as e:  # ConfigError included: every message names the file
        raise ConfigError(f"{config_path}: {e}") from e
    schedule = _schedule_from_config(cfg, p, model, control_dt, base)
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


_in_sweep_worker = False   # set in the --sweep worker processes


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else \
        os.cpu_count() or 1


def _log_writer(scenario: simkit.ScenarioConfig):
    """A `logfork.ForkedLog` where log.csv can be formatted on a second CPU
    while the run goes on: outside a --sweep worker, with two usable CPUs,
    `fork` and no other thread to fork with, and a log of at least one CSV
    block; else None, and the log is formatted after the run."""
    if _in_sweep_worker or scenario.log_rows < CSV_BLOCK_ROWS or _usable_cpus() < 2 \
            or not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    from .logfork import ForkedLog
    return ForkedLog()


def _run_one_simulation(cfg: dict, config_path: Path, out: OutputDir) -> None:
    scenario, schedule, p = _scenario_from_config(cfg, config_path)
    writer = _log_writer(scenario)
    try:
        log = simkit.run_scenario(scenario, schedule, params=p, writer=writer)
        log_file = out.path("log.csv")   # first in the manifest, written last
        metrics = simkit.compute_metrics(log)
        out.json("metrics.json", {**metrics, "stop_reason": log.stop_reason,
                                  "seed": scenario.seed, "schema_version": SCHEMA_VERSION})
        with out.open("gains.csv") as f:
            lqr.save_gain_csv(schedule, f)
        path = scenario.path
        svgplot.render([Panel(series=[Series(path.x, path.y, label="reference"),
                                      Series(log.x, log.y, label="vehicle", dash="5,3")],
                              title="Trajectory", xlabel="X [m]", ylabel="Y [m]")],
                       out.path("plots/trajectory.svg"))
        svgplot.render([
            Panel(series=[Series(log.s, log.e_y)], title="Lateral error",
                  xlabel="s [m]", ylabel="e_y [m]", hlines=[(0.0, "")]),
            Panel(series=[Series(log.s, np.degrees(log.e_psi))], title="Heading error",
                  xlabel="s [m]", ylabel="e_psi [deg]", hlines=[(0.0, "")]),
        ], out.path("plots/error_vs_s.svg"))
        _render_curvature(out.path("plots/curvature.svg"), log.t, log.kappa_ack,
                          log.kappa_diff, log.kappa_fused,
                          Series(log.t, log.kappa_path, label="path", dash="2,2"))
        if writer is None or not writer.commit(log_file):
            with _text_file(log_file) as f:
                log.to_csv(f)
    finally:
        if writer is not None:
            writer.abort()
    out.manifest("simulate", config_path, scenario.seed)


def _sweep_flag(text: str):
    """--sweep key=v1,v2,...: the dotted key and the (text, JSON value) pairs."""
    key, _, values = text.partition("=")
    if not values:
        raise ValueError("no values")
    return key, [(raw, json.loads(raw)) for raw in values.split(",")]


def _set_dotted(cfg: dict, key: str, value) -> None:
    """Set a dotted config key (object keys and list indices) to value; a
    missing object key is created, any other step that does not resolve is
    an input error naming the key."""
    parts = key.split(".")
    node = cfg
    for depth, part in enumerate(parts):
        where = ".".join(parts[:depth]) or "the config"
        if isinstance(node, list):
            index = int(part) if part.lstrip("-").isdigit() else len(node)
            _require(-len(node) <= index < len(node),
                     f"--sweep {key}: {where} is a list of {len(node)}, "
                     f"so {part!r} is not an index of it")
            part = index
        else:
            _require(isinstance(node, dict),
                     f"--sweep {key}: {where} is {json.dumps(node)}, not an object or a list")
        if depth == len(parts) - 1:
            node[part] = value
        else:
            node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]


def _sweep_member(member: tuple) -> None:
    _run_one_simulation(*member)


def _sweep_worker() -> None:
    """Initializer of the --sweep workers: their logs are formatted in-process,
    since the workers already hold the CPUs."""
    global _in_sweep_worker
    _in_sweep_worker = True


def _run_sweep(members: list[tuple]) -> None:
    """Run the sweep members, in forked worker processes (one per usable CPU, at
    most one per member) where there are several of each and the platform can
    fork, else one after another.  Each member runs the same deterministic
    kernel, so its artifacts do not depend on the choice.  A failure raises the
    exception of the first failing member in sweep order; members not yet
    started are cancelled, running ones finish, and no worker outlives the call."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(members), _usable_cpus())
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        list(map(_sweep_member, members))
        return
    # fork: the workers inherit the imported modules instead of importing them
    # again, and a fork pool starts all its workers before its manager thread
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_sweep_worker)
    try:
        list(pool.map(_sweep_member, members))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cmd_simulate(args, out: OutputDir) -> str:
    config_path = Path(args.config)
    cfg = _read_json(config_path)
    if args.verify:
        return out.verify(config_path)
    if not args.sweep:
        _run_one_simulation(cfg, config_path, out)
        return f"simulation complete: artifacts in {out.root}"
    key, values = args.sweep
    members = []
    for i, (raw, val) in enumerate(values):
        sub = json.loads(json.dumps(cfg))
        _set_dotted(sub, key, val)
        name = f"{i:02d}_{key.replace('.', '_')}_{raw}".replace("/", "_").replace(" ", "")
        members.append((sub, config_path, OutputDir(out.root / name)))
    _run_sweep(members)
    for _, _, member_out in members:
        out.path(f"{member_out.root.name}/manifest.json")
    out.manifest("simulate-sweep", config_path,
                 _number(cfg.get("seed", 0), "seed", integer=True))
    return f"sweep complete: {len(values)} runs in {out.root}"


# ------------------------------------------------------------------ design

def _grid_flag(text: str) -> np.ndarray:
    """--grid lo:hi:n or v1,v2,..., read by the config grid rule."""
    if ":" in text:
        lo, hi, n = text.split(":")
        return _speed_grid([float(lo), float(hi), int(n)], "--grid")
    return _speed_grid([float(v) for v in text.split(",")], "--grid")


def _weights_flag(text: str) -> dict:
    """--weights q1,q2[,q3,q4][:r] as a config weights object."""
    qpart, _, rpart = text.partition(":")
    return {"q": [float(v) for v in qpart.split(",")], "r": float(rpart) if rpart else 1.0}


def cmd_design(args, out: OutputDir) -> str:
    p = _vehicle_file(args.params)
    if args.verify:
        return out.verify(Path(args.params))
    weights = _weights(args.weights, args.model, "--weights")
    schedule = _designed(lqr.build_schedule, args.grid, args.model, p, weights, dt=args.dt)
    with out.open("gains.csv") as f:
        lqr.save_gain_csv(schedule, f)
    karr = np.array([g.k for g in schedule.gains])
    svgplot.render([Panel(
        series=[Series(schedule.speeds, karr[:, i], label=f"k{i + 1}")
                for i in range(karr.shape[1])],
        title=f"Feedback gains vs speed ({args.model})",
        xlabel="v [m/s]", ylabel="gain",
    )], out.path("plots/gains_vs_speed.svg"))
    out.manifest("design", Path(args.params), None)
    return f"designed {len(schedule.gains)} gain sets: {out.root / 'gains.csv'}"


# --------------------------------------------------------------- curvature

def cmd_curvature(args, out: OutputDir) -> str:
    log_path = Path(args.log)
    cols = pathkit.read_recorded_csv(log_path)
    for chan in ("steer", "yaw_rate", "speed"):
        _require(chan in cols, f"{log_path}: missing required channel '{chan}'")
    p = _vehicle_file(args.params)
    if args.verify:
        return out.verify(log_path)
    t = cols["t"]
    ka, kd, fused = curvkit.curvature_series(t, cols["steer"], cols["psi"], cols["yaw_rate"],
                                             cols["speed"], p.wheelbase)
    with out.open("curvature.csv") as f:
        write_float_csv(f, ("t", "kappa_ack", "kappa_diff", "kappa_fused"), (t, ka, kd, fused))
    _render_curvature(out.path("plots/curvature.svg"), t, ka, kd, fused)
    out.manifest("curvature", log_path, None)
    return f"curvature analysis complete: {out.root / 'curvature.csv'}"


# ----------------------------------------------------------------- margins

def cmd_margins(args, out: OutputDir) -> str:
    p = _vehicle_file(args.params)
    if args.verify:
        return out.verify(Path(args.params))
    speed, dt = args.speed, args.dt
    _require(speed <= 30.0, f"--speed {speed} outside the valid design range")
    try:
        if args.model == "dynamic":
            check_dynamic_speed(speed, " (--speed)")
    except ValueError as e:
        raise ConfigError(f"--speed {speed} outside the valid design range: {e}") from e
    weights = _weights(args.weights, args.model, "--weights")
    design = lqr.design_kinematic if args.model == "kinematic" else lqr.design_dynamic
    gains = _designed(design, speed, p, weights, dt)
    sysd = lqr.discrete_error_model(args.model, speed, p, dt)
    fr = margins.loop_response(sysd, gains, margins.default_grid(dt, points=args.points))
    report = margins.compute_margins(fr)

    with out.open("bode.csv") as f:
        write_float_csv(f, ("omega", "mag_db", "phase_deg"), (fr.omegas, fr.mag_db, fr.phase_deg))
    out.json("margins.json", {**report.to_dict(), "speed": speed, "model": args.model, "dt": dt,
                              "gains": [float(g) for g in gains.k],
                              "schema_version": SCHEMA_VERSION})
    vlines = [(report.gm_freq, "gm")] if report.gm_freq else []
    vlines += [(report.pm_freq, "pm")] if report.pm_freq else []
    svgplot.render([
        Panel(series=[Series(fr.omegas, fr.mag_db)], title=f"Loop magnitude (v={speed} m/s)",
              xlabel="omega [rad/s]", ylabel="|L| [dB]", logx=True,
              hlines=[(0.0, "0 dB")], vlines=vlines),
        Panel(series=[Series(fr.omegas, fr.phase_deg)], title="Loop phase",
              xlabel="omega [rad/s]", ylabel="phase [deg]", logx=True,
              hlines=[(-180.0, "-180")], vlines=vlines),
    ], out.path("plots/bode.svg"))
    out.manifest("margins", Path(args.params), None)
    gm_txt = "inf" if math.isinf(report.gm) else f"{report.gm:.2f}"
    pm_txt = "undefined" if report.pm is None else f"{report.pm:.1f} deg"
    return f"margins at v={speed}: gm={gm_txt}, pm={pm_txt}"


# ------------------------------------------------------------------ smooth

def cmd_smooth(args, out: OutputDir) -> str:
    path_csv = Path(args.path_csv)
    cols = pathkit.read_recorded_csv(path_csv)
    p = _vehicle_file(args.params)
    if args.verify:
        return out.verify(path_csv)
    speed = args.speed
    raw = pathkit.load_recorded(cols["t"], cols["X"], cols["Y"], cols["psi"],
                                yaw_rate=cols.get("yaw_rate"), speed=cols.get("speed"))
    smooth = pathkit.smooth_recorded(raw, p, v=speed)
    pathkit.write_recorded_csv(out.path("smoothed.csv"), smooth.s / speed, smooth.x, smooth.y,
                               smooth.psi, speed=np.full(len(smooth), speed))
    svgplot.render([
        Panel(series=[Series(raw.x, raw.y, label="raw"),
                      Series(smooth.x, smooth.y, label="smoothed")],
              title="Path", xlabel="X [m]", ylabel="Y [m]"),
        Panel(series=[Series(raw.s, raw.kappa, label="raw"),
                      Series(smooth.s, smooth.kappa, label="smoothed")],
              title="Curvature before/after", xlabel="s [m]", ylabel="kappa [1/m]"),
    ], out.path("plots/smooth.svg"))
    out.manifest("smooth", path_csv, None)
    return f"smoothed path written: {out.root / 'smoothed.csv'}"


# -------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise ConfigError, so they exit 3 like any bad input."""

    def error(self, message):
        raise ConfigError(f"{message} (see '{self.prog} --help')")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse parses '--dt=--' to [] without calling the flag's type
        for name, value in vars(parsed).items():
            if isinstance(value, list):
                self.error(f"argument --{name}: expected one value, got '--'")
        return parsed


def _flag(convert, rule: str, ok=lambda value: True):
    """An argparse type: convert(text), accepted where ok(value); otherwise a
    usage error quoting the text and the rule."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return parse


_DT = _flag(lambda text: lqr.check_control_dt(float(text)),
            "a control period in ({}, {}] s".format(*lqr.CONTROL_DT_RANGE))
_SPEED = _flag(float, "a positive finite speed in m/s", lambda v: 0.0 < v < math.inf)
_SMOOTH_SPEED = _flag(float, f"a smoothing speed in (0, {pathkit.SMOOTH_SPEED_LIMIT:g}) m/s",
                      lambda v: 0.0 < v < pathkit.SMOOTH_SPEED_LIMIT)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="steerkit", description="Lateral steering control toolkit")
    ap.add_argument("--version", action="version", version=f"steerkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    files = _Parser(add_help=False)
    files.add_argument("--out", help="output directory")
    files.add_argument("--verify", action="store_true", help="check manifest hash, do not run")
    lqr_flags = _Parser(add_help=False)
    lqr_flags.add_argument("--weights", type=_flag(_weights_flag, "q1,q2[,q3,q4][:r]"),
                           help="q1,q2[,q3,q4][:r]  (default all-ones : 1)")
    lqr_flags.add_argument("--dt", type=_DT, default=lqr.DEFAULT_CONTROL_DT,
                           help=f"control period [{lqr.DEFAULT_CONTROL_DT} s]")
    lqr_flags.add_argument("--model", choices=("kinematic", "dynamic"), default="kinematic")

    def command(name, func, help, *parents):
        parser = sub.add_parser(name, help=help, parents=[files, *parents])
        parser.set_defaults(func=func)
        return parser

    sim = command("simulate", cmd_simulate, "run a closed-loop scenario from a JSON config")
    sim.add_argument("config", help="scenario config JSON")
    sim.add_argument("--sweep", type=_flag(_sweep_flag, "key=v1,v2,... with JSON values"),
                     help="key=v1,v2,... run one scenario per value")

    des = command("design", cmd_design, "design a speed-scheduled gain table", lqr_flags)
    des.add_argument("params", help="vehicle params JSON")
    des.add_argument("--grid", type=_flag(_grid_flag, f"lo:hi:n or v1,v2,... of at most "
                                                      f"{MAX_GRID_SPEEDS} finite speeds"),
                     default="1:15:15", help="lo:hi:n or comma list [1:15:15]")

    cur = command("curvature", cmd_curvature, "three-source curvature analysis of a recorded log")
    cur.add_argument("log", help="recorded CSV (needs steer, yaw_rate, speed, psi)")
    cur.add_argument("--params", help="vehicle params JSON (default mid-size sedan)")

    mar = command("margins", cmd_margins, "Bode data and gain/phase margins of a designed loop",
                  lqr_flags)
    mar.add_argument("params", help="vehicle params JSON")
    mar.add_argument("--speed", type=_SPEED, required=True, help="design speed m/s")
    mar.add_argument("--points", type=_flag(int, f"an integer in [2, {margins.MAX_GRID_POINTS}]",
                                            lambda n: 2 <= n <= margins.MAX_GRID_POINTS),
                     default=margins.DEFAULT_GRID_POINTS,
                     help=f"frequency grid size [{margins.DEFAULT_GRID_POINTS}]")

    smo = command("smooth", cmd_smooth, "smooth a recorded path by closed-loop tracking")
    smo.add_argument("path_csv", help="recorded path CSV")
    smo.add_argument("--params", help="vehicle params JSON")
    smo.add_argument("--speed", type=_SMOOTH_SPEED, default=3.0,
                     help=f"tracking speed m/s, below {pathkit.SMOOTH_SPEED_LIMIT:g} [3.0]")
    return ap


def main(argv=None) -> int:
    """Run one command; the only place where an exception becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        root = Path(args.out) if args.out else \
            Path(os.environ.get("STEERKIT_OUT", "steerkit_out")) / args.command
        print(args.func(args, OutputDir(root)))
        return EXIT_OK
    except SimulationError as e:
        return _fail(EXIT_SIM, str(e))
    except NumericalError as e:
        return _fail(EXIT_DESIGN, str(e))
    except (ValueError, KeyError, IndexError) as e:  # ConfigError is a ValueError
        return _fail(EXIT_INPUT, str(e))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
