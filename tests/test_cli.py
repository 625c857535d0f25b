import errno
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steerkit import SimulationError, cli, logfork, numkit, simkit
from steerkit.cli import ConfigError, main
from steerkit.pathkit import project, read_recorded_csv

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "steerkit" / "configs"


def write_circle_config(dirpath: Path, **overrides) -> Path:
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "path": {"kind": "circle", "radius": 50.0, "arc_deg": 90.0, "spacing": 0.1},
        "model": "kinematic",
        "controller": "kinematic_ff_fb",
        "speed": 10.0,
        "t_end": 10.0,
        "sim_dt": 0.001,
        "control_dt": 0.02,
        "initial_offset": [0.0, 0.0],
        "gains": {"grid": [1.0, 15.0, 8], "weights": {"q": [1.0, 1.0], "r": 1.0}},
    }
    cfg.update(overrides)
    file = dirpath / "scenario.json"
    file.write_text(json.dumps(cfg), encoding="utf-8")
    return file


def write_drive_log(path: Path, n=600, yaw_noise=0.0, seed=0) -> Path:
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.05
    radius, v = 50.0, 8.0
    theta = v * t / radius
    psi = np.arctan2(np.sin(theta), np.cos(theta))
    yaw = v / radius + yaw_noise * rng.standard_normal(n)
    steer = np.full(n, math.atan(2.7 / radius))
    file = path / "drive.csv"
    with open(file, "w", encoding="utf-8") as f:
        f.write("t,X,Y,psi,yaw_rate,speed,steer\n")
        for row in zip(t, radius * np.sin(theta), radius * (1 - np.cos(theta)),
                       psi, yaw, np.full(n, v), steer):
            f.write(",".join(repr(float(c)) for c in row) + "\n")
    return file


def assert_valid_svg(path: Path):
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


class TestSimulate:
    def test_shipped_circle_10ms(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", str(CONFIGS / "circle_10ms.json"), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["max_abs_e_y"] <= 0.10
        for artifact in json.loads((out / "manifest.json").read_text())["artifacts"]:
            assert (out / artifact).exists()
        assert_valid_svg(out / "plots" / "trajectory.svg")
        assert_valid_svg(out / "plots" / "error_vs_s.svg")
        assert_valid_svg(out / "plots" / "curvature.svg")

    def test_malformed_json_exit_3_no_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", str(bad), "--out", str(out)]) == 3
        assert not out.exists()
        assert "malformed JSON" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_circle_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["schema_version"] = 99
        cfg.write_text(json.dumps(data))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_circle_config(tmp_path, typo_key=1)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_unsorted_speed_table_exit_3(self, tmp_path, capsys):
        cfg = write_circle_config(tmp_path, speed=[[5.0, 8.0], [0.0, 10.0]])
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "knot 1 [0.0, 10.0]" in capsys.readouterr().err

    def test_nan_speed_exit_3(self, tmp_path, capsys):
        cfg = write_circle_config(tmp_path, speed=float("nan"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "speed nan" in capsys.readouterr().err

    @pytest.mark.parametrize("key, entry, field", [
        ("actuator", {"lag_tau": math.nan}, "lag_tau"),
        ("sensors", {"lateral": {"noise_std": math.nan}}, "noise_std"),
        ("actuator", {"delay_steps": 1.5}, "delay_steps"),
        ("sensors", {"heading": {"delay_steps": 1.5}}, "delay_steps"),
    ])
    def test_nan_or_fractional_delay_exit_3(self, tmp_path, capsys, key, entry, field):
        cfg = write_circle_config(tmp_path, **{key: entry})
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_config_weights_count_exit_3(self, tmp_path, capsys):
        cfg = write_circle_config(tmp_path, gains={"grid": [1.0, 15.0, 8],
                                                   "weights": {"q": [1.0, 1.0, 1.0]}})
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "'weights.q' needs 2 state weights" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_circle_config(tmp_path, t_end=4.0)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "log.csv").read_bytes()
        b = (tmp_path / "b" / "log.csv").read_bytes()
        assert a == b

    def test_vehicle_lost_exit_2(self, tmp_path, capsys):
        # frozen steering on a curving path walks past the horizon
        cfg = write_circle_config(
            tmp_path, t_end=30.0,
            path={"kind": "circle", "radius": 50.0, "arc_deg": 300.0, "spacing": 0.1},
            actuator={"lag_tau": 0.1, "delay_steps": 0, "rate_limit": 1e-9})
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "lost" in capsys.readouterr().err

    def test_gains_csv_roundtrip_bit_exact(self, tmp_path):
        cfg = write_circle_config(tmp_path, t_end=4.0)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "a")]) == 0
        reload_cfg = json.loads(cfg.read_text())
        reload_cfg["gains"] = {"csv": str(tmp_path / "a" / "gains.csv")}
        cfg2 = tmp_path / "scenario2.json"
        cfg2.write_text(json.dumps(reload_cfg))
        assert main(["simulate", str(cfg2), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "log.csv").read_bytes() == \
            (tmp_path / "b" / "log.csv").read_bytes()
        assert (tmp_path / "a" / "gains.csv").read_bytes() == \
            (tmp_path / "b" / "gains.csv").read_bytes()

    def test_dynamic_speed_dip_exit_3_before_any_artifact(self, tmp_path, capsys):
        cfg = write_circle_config(tmp_path, model="dynamic", controller="dynamic_lqr",
                                  speed=[[0, 5], [4, 0.3]], t_end=8.0,
                                  gains={"grid": [1.0, 15.0, 8],
                                         "weights": {"q": [1.0] * 4, "r": 1.0}})
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "vx=0.3 m/s (speed command at t=4 s)" in err
        assert not out.exists()

    def test_gain_table_dt_must_be_control_dt(self, tmp_path, capsys):
        designed = tmp_path / "d"
        assert main(["design", str(CONFIGS / "sedan.json"), "--out", str(designed),
                     "--dt", "0.05"]) == 0
        cfg = write_circle_config(tmp_path, gains={"csv": str(designed / "gains.csv")})
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "dt 0.05 s" in err and "control_dt is 0.02 s" in err
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("6.0,nan,2.2,0.02", "gain table line 3 ('6.0,nan,2.2,0.02') has a non-finite cell"),
        ("6.0,0.8,2.2,0.5", "control period 0.5 s on gain table line 3"),
    ])
    def test_gain_table_cell_exit_3_before_any_artifact(self, tmp_path, capsys, row, message):
        table = tmp_path / "gains.csv"
        table.write_text(f"v,k1,k2,dt\n5.0,0.9,2.4,0.02\n{row}\n", encoding="utf-8")
        cfg = write_circle_config(tmp_path, gains={"csv": str(table)})
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_gain_table_cell_exit_3_before_any_artifact(self, tmp_path, capsys):
        table = tmp_path / "gains.csv"
        table.write_text("v,k1,k2,dt\n5.0,0.9,2.4,0.02\n6.0,abc,2.2,0.02\n", encoding="utf-8")
        cfg = write_circle_config(tmp_path, gains={"csv": str(table)})
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "gain table line 3 ('6.0,abc,2.2,0.02') has a non-numeric cell" in err
        assert not out.exists()

    def test_noisy_speed_reading_at_dynamic_guard_names_channel_and_time(self, tmp_path,
                                                                         capsys):
        # the command stays at 1 m/s; the noisy reading dips below the 0.5 m/s guard
        cfg = write_circle_config(tmp_path, model="dynamic", controller="dynamic_lqr",
                                  path={"kind": "line", "length": 60.0, "spacing": 0.1},
                                  speed=1.0, t_end=20.0,
                                  sensors={"speed": {"noise_std": 0.3}},
                                  gains={"grid": [1.0, 15.0, 8],
                                         "weights": {"q": [1.0] * 4, "r": 1.0}})
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "m/s (sensors.speed reading at t=0.24 s) is at/below the 0.5 m/s guard" in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"sim_dt": 5e-324}, "sim_dt"),
        ({"t_end": 1e308}, "t_end 1e+308 s at sim_dt 0.001 s"),
    ])
    def test_step_count_overflow_exit_3(self, tmp_path, capsys, overrides, message):
        cfg = write_circle_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_huge_speed_is_a_lost_vehicle_not_an_overflow(self, tmp_path, capsys):
        # v**2 in the differential variance used to raise OverflowError
        out = tmp_path / "o"
        assert main(["simulate", str(write_circle_config(tmp_path, speed=1e155)),
                     "--out", str(out)]) == 2
        assert "vehicle lost" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("speed", [1e155, 1e200, 1e300])
    def test_speed_past_the_float_range_squared_is_a_lost_vehicle(self, tmp_path, capsys,
                                                                  speed):
        # the batch projection's pow(v, 2) used to raise OverflowError
        out = tmp_path / "o"
        assert main(["simulate", str(write_circle_config(tmp_path, speed=speed)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "vehicle lost" in err and "Traceback" not in err
        assert not out.exists()

    def test_noisy_speed_reading_past_the_float_range_runs(self, tmp_path):
        # readings of about 1e200 m/s square past the float range: variance 0
        out = tmp_path / "o"
        cfg = write_circle_config(tmp_path, t_end=3.0, sensors={"speed": {"noise_std": 1e200}})
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert (out / "log.csv").exists()

    def test_sweep_offsets(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["simulate", str(CONFIGS / "parking.json"), "--out", str(out),
                     "--sweep", "initial_offset.0=-1,-0.5,0.5,1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["artifacts"]) == 4
        for sub in manifest["artifacts"]:
            metrics = json.loads((out / Path(sub).parent / "metrics.json").read_text())
            assert metrics["settled"]

    @pytest.mark.parametrize("key", ["speed.x", "path.kind.z", "initial_offset.2",
                                     "initial_offset.a"])
    def test_sweep_key_that_does_not_resolve_exit_3(self, tmp_path, capsys, key):
        out = tmp_path / "sweep"
        assert main(["simulate", str(CONFIGS / "circle_10ms.json"), "--out", str(out),
                     "--sweep", f"{key}=1"]) == 3
        assert f"--sweep {key}:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_names_seed_and_file_exit_3(self, tmp_path, capsys):
        cfg = write_circle_config(tmp_path, seed=-1)
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "seed" in err and str(cfg) in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"path": {"kind": "line", "bogus": 1}}, "unknown line-path keys ['bogus']"),
        ({"path": {"kind": "circle", "radius": 3.0}}, "radius 3.0 below drivable minimum"),
        ({"vehicle": {"bogus": 1}}, "unknown vehicle keys ['bogus']"),
        ({"sensors": {"lateral": {"bogus": 1}}}, "unknown sensors.lateral keys ['bogus']"),
    ])
    def test_every_config_error_names_the_file(self, tmp_path, capsys, overrides, message):
        cfg = write_circle_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        assert f"steerkit: {cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("channel, rate, message", [
        ("yaw_rate", 300.0, "whole number of sim_dt"),
        ("speed", 5000.0, "above the sim rate"),
    ])
    def test_sensor_rate_off_the_sim_grid_exit_3(self, tmp_path, capsys, channel, rate,
                                                  message):
        cfg = write_circle_config(tmp_path, sensors={channel: {"rate_hz": rate}})
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"sensors.{channel}" in err and message in err
        assert not out.exists()

    def test_verify_manifest(self, tmp_path):
        cfg = write_circle_config(tmp_path, t_end=3.0)
        out = tmp_path / "v"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out), "--verify"]) == 0
        data = json.loads(cfg.read_text())
        data["seed"] = 7
        cfg.write_text(json.dumps(data))
        assert main(["simulate", str(cfg), "--out", str(out), "--verify"]) == 3
        assert not _stages(out)

    def test_env_output_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STEERKIT_OUT", str(tmp_path / "envroot"))
        cfg = write_circle_config(tmp_path, t_end=3.0)
        assert main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "envroot" / "simulate" / "log.csv").exists()


def _artifacts(out: Path) -> dict[str, bytes]:
    """Every file under out but manifest.json (which records the paths), by relative path."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def _tree(root: Path) -> dict[str, str | None]:
    """Every entry under root by relative path: a file's sha256, None for a directory."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else
            hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.rglob("*"))}


def _stages(root: Path) -> list[Path]:
    """The staging directories left in root or in its parent."""
    return sorted(root.glob(".steerkit-*")) + sorted(root.parent.glob(".steerkit-*"))


def _usable_cpus(monkeypatch, cpus: int) -> None:
    """Make the sweep see `cpus` usable CPUs: 1 selects the serial path, more the workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestSweepWorkers:
    def test_members_equal_solo_runs(self, tmp_path, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        cfg = write_circle_config(tmp_path, t_end=3.0)
        values = ["0.2", "-0.1", "0.3"]
        out = tmp_path / "sweep"
        assert main(["simulate", str(cfg), "--out", str(out),
                     "--sweep", "initial_offset.0=" + ",".join(values)]) == 0
        assert not multiprocessing.active_children()
        for i, raw in enumerate(values):
            solo_dir = tmp_path / f"solo{i}"
            solo_dir.mkdir()
            solo_cfg = write_circle_config(solo_dir, t_end=3.0, initial_offset=[float(raw), 0.0])
            assert main(["simulate", str(solo_cfg), "--out", str(solo_dir / "out")]) == 0
            member = _artifacts(out / f"{i:02d}_initial_offset_0_{raw}")
            assert "log.csv" in member
            assert member == _artifacts(solo_dir / "out")

    @pytest.mark.parametrize("key, values, code, message", [
        ("initial_offset.0", "0.1,100,0.2", 2, "beyond the 50.0 m horizon"),
        ("seed", "0,-1,1", 3, "seed must be a nonnegative integer"),
    ])
    def test_first_failing_member_reported_as_serial(self, tmp_path, capsys, monkeypatch,
                                                     key, values, code, message):
        # the first member succeeds, yet the failed sweep leaves no directory
        cfg = write_circle_config(tmp_path, t_end=2.0)
        results = []
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            rc = main(["simulate", str(cfg), "--out", str(out), "--sweep", f"{key}={values}"])
            assert not multiprocessing.active_children()
            assert not out.exists()
            results.append((rc, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == code and message in results[0][1]

    def test_first_failing_member_in_order_not_first_to_fail(self, tmp_path, capsys,
                                                             monkeypatch):
        def run(cfg, config_path, out):  # inherited by the forked workers
            if cfg["seed"] == 0:
                time.sleep(0.5)
                raise SimulationError("member 0 failed late")
            raise ConfigError("member 1 failed at once")

        monkeypatch.setattr(cli, "_run_one_simulation", run)
        _usable_cpus(monkeypatch, 2)
        cfg = write_circle_config(tmp_path)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o"),
                     "--sweep", "seed=0,1"]) == 2
        assert "member 0 failed late" in capsys.readouterr().err
        assert not multiprocessing.active_children()

    def test_a_failed_sweep_keeps_what_was_there_before(self, tmp_path, monkeypatch):
        # into an existing output directory: the members that ran are not moved
        # into place, so an older member directory and the other content stay as they were
        def run(cfg, config_path, out):
            out.write("log.csv", "new")
            if cfg["seed"] == 2:
                raise ConfigError("member 2 failed")

        monkeypatch.setattr(cli, "_run_one_simulation", run)
        _usable_cpus(monkeypatch, 1)
        out = tmp_path / "o"
        (out / "01_seed_1").mkdir(parents=True)
        (out / "01_seed_1" / "log.csv").write_text("old")
        (out / "keep.txt").write_text("old")
        before = _tree(out)
        assert main(["simulate", str(write_circle_config(tmp_path)), "--out", str(out),
                     "--sweep", "seed=0,1,2"]) == 3
        assert _tree(out) == before

    @pytest.mark.parametrize("cpus, members, in_workers", [(1, 3, False), (2, 1, False),
                                                          (2, 3, True)])
    def test_members_run_in_workers_where_there_are_several_cpus_and_members(
            self, tmp_path, monkeypatch, cpus, members, in_workers):
        def run(cfg, config_path, out):  # inherited by the forked workers
            out.write("pid", str(os.getpid()))

        monkeypatch.setattr(cli, "_run_one_simulation", run)
        _usable_cpus(monkeypatch, cpus)
        out = tmp_path / "o"
        assert main(["simulate", str(write_circle_config(tmp_path)), "--out", str(out),
                     "--sweep", "seed=" + ",".join(map(str, range(members)))]) == 0
        pids = [int(p.read_text()) for p in out.glob("*/pid")]
        assert len(pids) == members
        assert (os.getpid() not in pids) == in_workers

    def test_cli_import_loads_no_process_modules(self):
        code = ("import sys, steerkit.cli; "
                "print([m for m in ('multiprocessing', 'concurrent.futures', 'mmap', "
                "'steerkit.logfork') if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"


def _record_pids(monkeypatch, file: Path) -> None:
    """Append "run PID" for each run_scenario call and "fmt PID" for each
    block of log.csv rows formatted, to `file`, from whichever process
    makes them."""
    def recorded(kind, fn):
        def wrapped(*args, **kwargs):
            with open(file, "a", encoding="utf-8") as f:
                f.write(f"{kind} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(simkit, "run_scenario", recorded("run", simkit.run_scenario))
    for owner in (simkit, logfork):   # SimLog.to_csv, and the forked child
        monkeypatch.setattr(owner, "write_csv_rows", recorded("fmt", numkit.write_csv_rows))


class TestForkedLog:
    """simulate formats log.csv in a forked child where that pays."""

    @pytest.mark.parametrize("cpus, t_end, forked", [
        (2, 3.0, True), (1, 3.0, False),
        (2, 2.047, True), (2, 2.046, False),   # 2,048 and 2,047 rows
    ])
    def test_child_only_with_two_cpus_and_a_csv_block(self, tmp_path, monkeypatch, forks,
                                                       cpus, t_end, forked):
        _usable_cpus(monkeypatch, cpus)
        _record_pids(monkeypatch, tmp_path / "pids")
        out = tmp_path / "o"
        assert main(["simulate", str(write_circle_config(tmp_path, t_end=t_end)),
                     "--out", str(out)]) == 0
        fmt = {line.split()[1] for line in (tmp_path / "pids").read_text().splitlines()
               if line.startswith("fmt")}
        assert fmt and (str(os.getpid()) not in fmt) == forked
        assert len(forks) == forked and forks.all_reaped()
        assert (out / "log.csv").read_bytes().startswith(b"# steerkit simulation log")

    def test_no_child_while_another_thread_runs(self, tmp_path, monkeypatch, forks):
        _usable_cpus(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30.0,))
        other.start()
        try:
            assert main(["simulate", str(write_circle_config(tmp_path, t_end=3.0)),
                         "--out", str(tmp_path / "o")]) == 0
        finally:
            release.set()
            other.join(30.0)
        assert not other.is_alive() and not forks

    def test_no_child_inside_sweep_workers(self, tmp_path, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        _record_pids(monkeypatch, tmp_path / "pids")
        assert main(["simulate", str(write_circle_config(tmp_path, t_end=3.0)),
                     "--out", str(tmp_path / "o"), "--sweep", "seed=0,1,2"]) == 0
        pids = [line.split() for line in (tmp_path / "pids").read_text().splitlines()]
        runs = {pid for kind, pid in pids if kind == "run"}
        fmt = {pid for kind, pid in pids if kind == "fmt"}
        assert str(os.getpid()) not in runs and fmt and fmt <= runs
        assert not multiprocessing.active_children()

    def test_forked_log_equals_the_serial_one(self, tmp_path, monkeypatch):
        cfg = write_circle_config(tmp_path, t_end=5.0, initial_offset=[0.4, 0.0])
        logs = []
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            assert main(["simulate", str(cfg), "--out", str(tmp_path / f"c{cpus}")]) == 0
            logs.append(_artifacts(tmp_path / f"c{cpus}"))
        assert logs[0] == logs[1]
        manifest = json.loads((tmp_path / "c2" / "manifest.json").read_text())
        assert manifest["artifacts"][0] == "log.csv"

    @pytest.mark.parametrize("failure", ["killed", "exit 1"])
    def test_a_failed_child_leaves_the_log_to_the_parent(self, tmp_path, monkeypatch, forks,
                                                         failure):
        cfg = write_circle_config(tmp_path, t_end=5.0)
        _usable_cpus(monkeypatch, 1)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "serial")]) == 0
        _usable_cpus(monkeypatch, 2)
        table = logfork.ForkedLog.table

        def failing(writer, shape):
            rows = table(writer, shape)
            os.kill(writer.pid, signal.SIGKILL)
            return rows

        if failure == "killed":
            monkeypatch.setattr(logfork.ForkedLog, "table", failing)
        else:
            monkeypatch.setattr(logfork, "_format", lambda *args: 1)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(forks) == 1 and forks.all_reaped()
        assert _artifacts(tmp_path / "o") == _artifacts(tmp_path / "serial")

    @pytest.mark.parametrize("overrides, code, message, children", [
        # steering rate-limited to nothing: the vehicle leaves the horizon mid-run
        ({"path": {"kind": "line", "length": 300.0, "spacing": 0.1},
          "initial_offset": [0.0, 1.2], "actuator": {"rate_limit": 0.001}, "t_end": 20.0},
         2, "vehicle lost", 1),
        # a noisy speed reading dips below the dynamic guard mid-run
        ({"model": "dynamic", "controller": "dynamic_lqr", "speed": 1.0, "t_end": 20.0,
          "sensors": {"speed": {"noise_std": 0.3}},
          "gains": {"grid": [1.0, 15.0, 8], "weights": {"q": [1.0] * 4, "r": 1.0}}},
         3, "sensors.speed reading", 1),
        # rejected while the config is read, before any run
        ({"seed": -1}, 3, "seed must be a nonnegative integer", 0),
    ])
    def test_a_failed_run_writes_nothing_and_reaps_the_child(self, tmp_path, monkeypatch,
                                                             capsys, forks, overrides, code,
                                                             message, children):
        _usable_cpus(monkeypatch, 2)
        out = tmp_path / "o"
        assert main(["simulate", str(write_circle_config(tmp_path, **overrides)),
                     "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert len(forks) == children and forks.all_reaped()
        assert not out.exists()

    @pytest.mark.parametrize("cpus, children", [(2, 1), (1, 0)])
    def test_a_gain_failing_its_certificate_writes_nothing_and_reaps_the_child(
            self, tmp_path, monkeypatch, capsys, forks, cpus, children):
        # certified at 2 and 14 m/s, the gain interpolated from about 2.52 m/s
        # up fails (at 2.52 s, row 2520): the queued gains are certified after the
        # child started
        (tmp_path / "gains.csv").write_text("v,k1,k2,k3,k4,dt\n"
                                            "2.0,5.361,1.639,0.392,-0.409,0.02\n"
                                            "14.0,2.704,0.789,3.078,0.73,0.02\n")
        cfg = write_circle_config(tmp_path, model="dynamic", controller="dynamic_lqr",
                                  speed=[[0.0, 2.0], [2.5, 2.0], [3.0, 3.0]], t_end=5.0,
                                  gains={"csv": "gains.csv"})
        _usable_cpus(monkeypatch, cpus)
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 4
        assert "dynamic gain at v=2.5200000000000005 fails certification" in \
            capsys.readouterr().err
        assert len(forks) == children and forks.all_reaped()
        assert not out.exists()

    def test_an_interrupt_reaps_the_child(self, tmp_path, monkeypatch, forks):
        _usable_cpus(monkeypatch, 2)
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 40:
                raise KeyboardInterrupt
            return project(*args, **kwargs)

        monkeypatch.setattr(simkit, "project", interrupted)
        out = tmp_path / "o"
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", str(write_circle_config(tmp_path, t_end=5.0)), "--out", str(out)])
        assert len(forks) == 1 and forks.all_reaped()
        assert not out.exists() and not _stages(out)


class TestDesign:
    def test_default_grid(self, tmp_path):
        out = tmp_path / "d"
        assert main(["design", str(CONFIGS / "sedan.json"), "--out", str(out)]) == 0
        rows = [ln for ln in (out / "gains.csv").read_text().splitlines()[1:] if ln]
        assert len(rows) == 15
        k1 = [float(r.split(",")[1]) for r in rows]
        k2 = [float(r.split(",")[2]) for r in rows]
        assert all(a > b for a, b in zip(k1, k1[1:]))
        assert all(a > b for a, b in zip(k2, k2[1:]))
        assert_valid_svg(out / "plots" / "gains_vs_speed.svg")

    def test_grid_below_guard_exit_4(self, tmp_path, capsys):
        assert main(["design", str(CONFIGS / "sedan.json"), "--out", str(tmp_path / "o"),
                     "--grid", "0.1,5"]) == 4
        assert "0.1" in capsys.readouterr().err

    def test_dynamic_model(self, tmp_path):
        out = tmp_path / "dd"
        assert main(["design", str(CONFIGS / "sedan.json"), "--out", str(out),
                     "--model", "dynamic", "--weights", "1,1,1,1:1"]) == 0
        header = (out / "gains.csv").read_text().splitlines()[0]
        assert header == "v,k1,k2,k3,k4,dt"

    def test_bad_weights_exit_3(self, tmp_path):
        assert main(["design", str(CONFIGS / "sedan.json"), "--out", str(tmp_path / "o"),
                     "--weights", "1,1,1:1"]) == 3

    def test_missing_params_file(self, tmp_path):
        assert main(["design", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]) == 3


def test_run_above_the_row_budget_exit_3_naming_t_end_and_sim_dt(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", str(write_circle_config(tmp_path, t_end=5000.0)),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "t_end 5000 s at sim_dt 0.001 s" in err and "budget of 5,000,000 rows" in err
    assert not out.exists()


class TestInfiniteVehicleParameter:
    """A vehicle number written 1e999 reads as inf: exit 3 naming the key, no output."""

    @pytest.mark.parametrize("key", ["m", "caf"])
    @pytest.mark.parametrize("command", [["design"], ["design", "--model", "dynamic"],
                                         ["simulate"]])
    def test_exit_3_names_the_key(self, tmp_path, capsys, key, command):
        out = tmp_path / "o"
        if command[0] == "simulate":
            file = write_circle_config(tmp_path, vehicle={key: "INF"})
        else:
            file = tmp_path / "vehicle.json"
            file.write_text(json.dumps({"schema_version": 1, "vehicle": {key: "INF"}}),
                            encoding="utf-8")
        file.write_text(file.read_text(encoding="utf-8").replace('"INF"', "1e999"),
                        encoding="utf-8")
        argv = [command[0], str(file), "--out", str(out)] + command[1:]
        assert main(argv) == 3
        assert f"{key} must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()


class TestCurvature:
    def test_noiseless_circle_all_sources_agree(self, tmp_path):
        log = write_drive_log(tmp_path)
        out = tmp_path / "c"
        assert main(["curvature", str(log), "--out", str(out)]) == 0
        rows = np.genfromtxt(out / "curvature.csv", delimiter=",", names=True)
        assert len(rows) == 600
        tail = slice(200, None)
        assert np.max(np.abs(rows["kappa_ack"][tail] - 0.02)) < 1e-6
        assert np.max(np.abs(rows["kappa_diff"][tail] - 0.02)) < 1e-9
        assert np.max(np.abs(rows["kappa_fused"][tail] - 0.02)) < 1e-4
        assert_valid_svg(out / "plots" / "curvature.svg")

    def test_fused_variance_below_differential(self, tmp_path):
        log = write_drive_log(tmp_path, yaw_noise=0.05, seed=5)
        out = tmp_path / "c"
        assert main(["curvature", str(log), "--out", str(out)]) == 0
        rows = np.genfromtxt(out / "curvature.csv", delimiter=",", names=True)
        tail = slice(150, None)
        assert np.var(rows["kappa_fused"][tail]) < np.var(rows["kappa_diff"][tail])

    def test_missing_channel_named(self, tmp_path, capsys):
        file = tmp_path / "partial.csv"
        file.write_text("t,X,Y,psi\n" + "".join(
            f"{i * 0.1},{i * 0.5},0.0,0.0\n" for i in range(20)), encoding="utf-8")
        assert main(["curvature", str(file), "--out", str(tmp_path / "o")]) == 3
        assert "steer" in capsys.readouterr().err

    @pytest.mark.parametrize("col, cell, message", [
        (4, "nan", r"drive\.csv line 6 \('[^']*,nan,[^']*'\) has a non-finite cell \(yaw_rate\)"),
        (6, "1.6", "pi/2 tangent singularity"),
    ])
    def test_bad_cell_exit_3(self, tmp_path, capsys, col, cell, message):
        log = write_drive_log(tmp_path, n=30)
        lines = log.read_text().splitlines()
        cells = lines[5].split(",")
        cells[col] = cell
        lines[5] = ",".join(cells)
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["curvature", str(log), "--out", str(tmp_path / "o")]) == 3
        assert re.search(message, capsys.readouterr().err)

    def test_empty_log_exit_3(self, tmp_path):
        file = tmp_path / "empty.csv"
        file.write_text("t,X,Y,psi,yaw_rate,speed,steer\n", encoding="utf-8")
        assert main(["curvature", str(file), "--out", str(tmp_path / "o")]) == 3

    def test_unknown_column_exit_3(self, tmp_path):
        file = tmp_path / "weird.csv"
        file.write_text("t,X,Y,psi,altitude\n0,0,0,0,1\n", encoding="utf-8")
        assert main(["curvature", str(file), "--out", str(tmp_path / "o")]) == 3


class TestMargins:
    def test_default_kinematic_gate(self, tmp_path):
        out = tmp_path / "m"
        assert main(["margins", str(CONFIGS / "sedan.json"), "--speed", "10",
                     "--out", str(out)]) == 0
        report = json.loads((out / "margins.json").read_text())
        assert report["gm_infinite"] or report["gm"] > 2.0
        assert report["pm"] > 30.0
        assert_valid_svg(out / "plots" / "bode.svg")

    def test_speed_zero_exit_3(self, tmp_path):
        assert main(["margins", str(CONFIGS / "sedan.json"), "--speed", "0",
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("speed", ["0.01", "0.49", "30.5"])
    def test_speed_outside_the_design_range_exit_3(self, tmp_path, capsys, speed):
        out = tmp_path / "o"
        assert main(["margins", str(CONFIGS / "sedan.json"), "--speed", speed,
                     "--out", str(out)]) == 3
        assert f"--speed {float(speed)} outside the valid design range [0.5, 30] m/s" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_speed_at_the_design_range_ends_runs(self, tmp_path):
        for speed in ("0.5", "30"):
            assert main(["margins", str(CONFIGS / "sedan.json"), "--speed", speed,
                         "--out", str(tmp_path / speed)]) == 0

    def test_dynamic_speed_at_guard_exit_3(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["margins", str(CONFIGS / "sedan.json"), "--model", "dynamic",
                     "--speed", "0.5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "--speed 0.5 outside the valid design range" in err and "guard" in err
        assert not out.exists()

    def test_bode_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "m"
        assert main(["margins", str(CONFIGS / "sedan.json"), "--speed", "5",
                     "--points", "123", "--out", str(out)]) == 0
        rows = (out / "bode.csv").read_text().splitlines()
        assert len(rows) == 1 + 123


class TestSmooth:
    def test_noisy_straight(self, tmp_path):
        rng = np.random.default_rng(1)
        t = np.arange(0.0, 40.0, 0.2)
        file = tmp_path / "noisy.csv"
        with open(file, "w", encoding="utf-8") as f:
            f.write("t,X,Y,psi\n")
            for row in zip(t, 3.0 * t, 0.3 * rng.standard_normal(len(t)), np.zeros_like(t)):
                f.write(",".join(repr(float(c)) for c in row) + "\n")
        out = tmp_path / "s"
        assert main(["smooth", str(file), "--out", str(out), "--speed", "3"]) == 0
        cols = read_recorded_csv(out / "smoothed.csv")
        from steerkit.pathkit import load_recorded
        smoothed = load_recorded(cols["t"], cols["X"], cols["Y"], cols["psi"])
        assert np.max(np.abs(smoothed.kappa)) < 0.01
        assert_valid_svg(out / "plots" / "smooth.svg")

    def test_five_samples_exit_3(self, tmp_path):
        file = tmp_path / "tiny.csv"
        file.write_text("t,X,Y,psi\n" + "".join(
            f"{i * 1.0},{i * 2.0},0.0,0.0\n" for i in range(5)), encoding="utf-8")
        assert main(["smooth", str(file), "--out", str(tmp_path / "o")]) == 3

    def test_smooth_circle_roundtrip(self, tmp_path):
        from steerkit.pathkit import gen_path
        circ = gen_path("circle", spacing=0.25, radius=50.0, arc_deg=180.0)
        file = tmp_path / "circle.csv"
        with open(file, "w", encoding="utf-8") as f:
            f.write("t,X,Y,psi,yaw_rate,speed\n")
            for row in zip(circ.s / 3.0, circ.x, circ.y, circ.psi,
                           np.full(len(circ), 0.06), np.full(len(circ), 3.0)):
                f.write(",".join(repr(float(c)) for c in row) + "\n")
        out = tmp_path / "s"
        assert main(["smooth", str(file), "--out", str(out), "--speed", "3"]) == 0
        cols = read_recorded_csv(out / "smoothed.csv")
        from steerkit.pathkit import load_recorded
        smoothed = load_recorded(cols["t"], cols["X"], cols["Y"], cols["psi"])
        mid = slice(len(smoothed) // 10, -len(smoothed) // 10)
        assert np.all(np.abs(smoothed.kappa[mid] - 0.02) <= 0.05 * 0.02 + 1e-4)


SEDAN = str(CONFIGS / "sedan.json")
PARKING_PATH = str(CONFIGS / "parking_path.csv")


class TestExitCodes:
    """Usage and flag errors are input errors (exit 3) named on stderr; a grid the
    designer rejects is a design failure (exit 4) from `simulate` as from `design`."""

    @pytest.mark.parametrize("argv, named", [
        (["design", SEDAN, "--dt", "abc"], "--dt"),
        (["design", SEDAN, "--dt", "0"], "--dt"),
        (["design", SEDAN, "--dt", "nan"], "--dt"),
        (["design", SEDAN, "--dt=--"], "--dt"),
        (["design", SEDAN, "--grid", "nan,3"], "--grid"),
        (["design", SEDAN, "--grid", "1:15:100000000000"], "--grid"),
        (["design", SEDAN, "--grid", "1:15:1001"], "at most 1000 finite speeds"),
        (["design", SEDAN, "--weights", "1,1:0"], "--weights"),
        (["design", SEDAN, "--bogus"], "--bogus"),
        (["design", SEDAN, "--model", "foo"], "--model"),
        (["margins", SEDAN], "--speed"),
        (["margins", SEDAN, "--speed", "abc"], "--speed"),
        (["margins", SEDAN, "--speed", "10", "--points", "abc"], "--points"),
        (["margins", SEDAN, "--speed", "10", "--points", "0"], "--points"),
        (["margins", SEDAN, "--speed", "10", "--points", "1"], "--points"),
        (["margins", SEDAN, "--speed", "10", "--points", "100000000000"], "--points"),
        (["smooth", PARKING_PATH, "--speed", "nan"], "--speed"),
        (["smooth", PARKING_PATH, "--speed", "inf"], "--speed"),
        # the smoothing run lasts 1.2 L / v + 30 s: the speed is the cause, not t_end
        (["smooth", PARKING_PATH, "--speed", "0.001"], "smoothing speed 0.001 m/s is too slow "
         "for the 28.9 m path it tracks: the run would log more than the budget of 5,000,000 "
         "rows; the slowest speed it allows is 0.006974 m/s"),
        (["smooth", PARKING_PATH, "--speed", "1e-300"], "smoothing speed 1e-300 m/s is too slow"),
    ])
    def test_bad_flag_exit_3(self, tmp_path, capsys, argv, named):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("speed", ["58", "100"])
    def test_smooth_speed_beyond_grid_rule_exit_3(self, tmp_path, capsys, speed):
        out = tmp_path / "o"
        assert main(["smooth", PARKING_PATH, "--speed", speed, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "--speed" in err and "(0, 58) m/s" in err
        assert not out.exists()

    def test_smooth_speed_just_below_limit_parses(self):
        from steerkit.cli import build_parser
        assert build_parser().parse_args(["smooth", PARKING_PATH, "--speed", "57.9"]).speed == 57.9

    def test_config_grid_rejected_by_designer_exit_4(self, tmp_path, capsys):
        cfg = write_circle_config(tmp_path, gains={"grid": [0.1, 5.0, 2]})
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 4
        assert "grid speed 0.1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_control_dt_out_of_range_exit_3(self, tmp_path, capsys):
        cfg = write_circle_config(tmp_path, control_dt=0.2)
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        assert "control period 0.2 s (control_dt)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"gains": {"grid": [1.0, 15.0, 10**11]}}, "gains.grid has 100000000000 speeds"),
        ({"gains": {"grid": [1.0 + 0.01 * i for i in range(1001)]}}, "gains.grid has 1001"),
        ({"path": {"kind": "circle", "radius": 1e308}}, "more than 200,000 samples"),
        ({"path": {"kind": "circle", "radius": math.nan}}, "more than 200,000 samples"),
        ({"path": {"kind": "line", "length": 1e5}}, "more than 200,000 samples"),
        ({"initial_offset": [math.nan, 0.0]}, "initial_offset must be finite"),
        ({"sensors": {"heading": {"rate_hz": 5e-324}}}, "sensors.heading"),
        ({"t_end": 1.0, "sensors": {"steer": {"noise_std": 1e308}}}, "sensors.steer reading"),
    ])
    def test_hostile_config_value_exit_3_naming_it(self, tmp_path, capsys, overrides,
                                                   message):
        out = tmp_path / "o"
        assert main(["simulate", str(write_circle_config(tmp_path, **overrides)),
                     "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sensors", [{"speed": {"quantization_step": 5e-324}},
                                         {"heading": {"noise_std": 1e308}}])
    def test_extreme_sensor_values_run(self, tmp_path, sensors):
        # a quantization step below a reading's float resolution leaves it as it is;
        # a heading reading past the float range saturates the steer
        cfg = write_circle_config(tmp_path, t_end=1.0, sensors=sensors)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) in (0, 2)

    def test_recorded_path_too_long_to_sample_exit_3(self, tmp_path, capsys):
        log = write_drive_log(tmp_path, n=40)
        lines = log.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "1e10"
        lines[5] = ",".join(cells)
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["smooth", str(log), "--out", str(out)]) == 3
        assert "recorded path of 2e+10 m" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["simulate", "{config}"], 2),
        (["design", SEDAN, "--weights", "1e308,1e308"], 4),
    ])
    def test_overflow_leaves_one_stderr_line(self, tmp_path, argv, code):
        # numpy's RuntimeWarnings would print before the steerkit: line; run in a
        # fresh process, since pytest's capture keeps warnings off stderr
        config = write_circle_config(tmp_path, speed=1e200)
        argv = [a.format(config=config) for a in argv]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "steerkit.cli", *argv,
                               "--out", str(tmp_path / "o")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == code
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("steerkit: "), done.stderr


class TestConfigNumbers:
    """Every config number is a JSON number, an integer where one is meant;
    anything else is exit 3 naming the key, never coerced."""

    @pytest.mark.parametrize("override, key", [
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"t_end": True}, "t_end"),
        ({"speed": True}, "speed"),
        ({"vehicle": {"m": True}}, "vehicle.m"),
        ({"sim_dt": "0.001"}, "sim_dt"),
        ({"seed": None}, "seed"),
        ({"t_end": None}, "t_end"),
        ({"speed": None}, "speed"),
        ({"initial_offset": [None, 0.0]}, "initial_offset[0]"),
        ({"path": {"kind": "circle", "radius": 50.0, "arc_deg": 90.0, "spacing": None}},
         "path.spacing"),
        ({"gains": {"grid": [1.0, None, 8]}}, "gains.grid[1]"),
        ({"actuator": {"delay_steps": True}}, "actuator.delay_steps"),
        ({"sensors": {"speed": {"noise_std": "0.1"}}}, "sensors.speed.noise_std"),
    ])
    def test_not_a_number_exit_3(self, tmp_path, capsys, override, key):
        cfg = write_circle_config(tmp_path, t_end=1.0)
        data = json.loads(cfg.read_text())
        data.update(override)
        cfg.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_optional_null_and_integral_numbers_accepted(self, tmp_path):
        cfg = write_circle_config(tmp_path, t_end=1, speed=10, initial_offset=[0, 0],
                                  actuator={"rate_limit": None},
                                  sensors={"yaw_rate": {"rate_hz": None}})
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 0


def _listed(out: Path) -> set[str]:
    """Files a manifest accounts for: its artifacts, and those of listed sub-manifests."""
    names = set()
    for name in json.loads((out / "manifest.json").read_text())["artifacts"]:
        names.add(name)
        if Path(name).name == "manifest.json":
            sub = Path(name).parent
            names |= {str(sub / n) for n in _listed(out / sub)}
    return names


class TestManifest:
    @pytest.mark.parametrize("command", ["simulate", "sweep", "design", "margins",
                                         "curvature", "smooth"])
    def test_artifacts_are_exactly_the_files_written(self, tmp_path, command):
        cfg = write_circle_config(tmp_path, t_end=2.0)
        argv = {
            "simulate": ["simulate", str(cfg)],
            "sweep": ["simulate", str(cfg), "--sweep", "initial_offset.0=0.1,-0.1"],
            "design": ["design", SEDAN],
            "margins": ["margins", SEDAN, "--speed", "10", "--points", "50"],
            "curvature": ["curvature", str(write_drive_log(tmp_path, n=100))],
            "smooth": ["smooth", PARKING_PATH],
        }[command]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert _listed(out) == written - {"manifest.json"}
        if command == "sweep":
            assert json.loads((out / "manifest.json").read_text())["artifacts"] == [
                "00_initial_offset_0_0.1/manifest.json", "01_initial_offset_0_-0.1/manifest.json"]


_TOKENS = [*"0123456789", ".", "-", "e", ":", ",", "nan", "inf", "a", "x"]


def _flag_text(max_tokens: int = 6):
    return st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=max_tokens).map("".join)


def _int_or_none(text: str):
    try:
        return int(text)
    except ValueError:
        return None


def _small_grid(text: str) -> bool:
    """A lo:hi:n grid of at most 20 points, or anything that is not one."""
    n = _int_or_none(text.rsplit(":", 1)[-1]) if text.count(":") == 2 else None
    return n is None or n <= 20


class TestFlagProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(command=st.sampled_from(["design", "margins"]),
           dt=st.none() | _flag_text(),
           speed=st.none() | _flag_text(),
           points=st.none() | _flag_text(4).filter(lambda t: (_int_or_none(t) or 0) <= 1000),
           grid=st.none() | _flag_text(8).filter(_small_grid),
           weights=st.none() | _flag_text(10),
           model=st.sampled_from(["kinematic", "dynamic"]))
    def test_flags_never_crash(self, command, dt, speed, points, grid, weights, model):
        flags = {"--dt": dt, "--weights": weights, "--model": model}
        if command == "design":
            flags["--grid"] = grid
        else:
            flags.update({"--speed": speed, "--points": points})
        argv = [command, SEDAN]
        for flag, value in flags.items():
            if value is not None:
                argv.append(f"{flag}={value}")
        with tempfile.TemporaryDirectory() as d:
            assert main(argv + ["--out", str(Path(d) / "o")]) in (0, 3, 4)


def _bad_byte(file: Path) -> None:
    """Put one 0xff byte, never valid UTF-8, in the middle of the file."""
    data = file.read_bytes()
    file.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])


class TestInputFiles:
    """Every input file is opened and decoded in numkit.read_input, every CSV
    read by numkit.read_csv_table and every JSON file by cli._read_json: a
    fault is exit 3 naming the file, and for a CSV row also the line."""

    def test_gain_table_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "tables").mkdir()
        cfg = write_circle_config(tmp_path, gains={"csv": "tables"})
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"cannot read {tmp_path / 'tables'}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_gain_table_name_must_be_a_string(self, tmp_path, capsys):
        cfg = write_circle_config(tmp_path, gains={"csv": 5})
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "gains.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[]", "top level must be a JSON object"),
        ("not json", "malformed JSON"),
        ('{"schema_version": 1, "artifacts": [], "artifacts": []}', "repeated key 'artifacts'"),
    ])
    def test_bad_manifest_under_verify(self, tmp_path, capsys, text, message):
        cfg = write_circle_config(tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        (out / "manifest.json").write_text(text, encoding="utf-8")
        assert main(["simulate", str(cfg), "--out", str(out), "--verify"]) == 3
        err = capsys.readouterr().err
        assert str(out / "manifest.json") in err and message in err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_non_utf8_inputs(self, tmp_path, capsys):
        designed = tmp_path / "d"
        assert main(["design", SEDAN, "--out", str(designed)]) == 0
        log, car, table = tmp_path / "drive.csv", tmp_path / "car.json", designed / "gains.csv"
        write_drive_log(tmp_path, n=100)
        car.write_text(Path(SEDAN).read_text(encoding="utf-8"), encoding="utf-8")
        for file in (log, car, table):
            _bad_byte(file)
        cfg = write_circle_config(tmp_path, gains={"csv": str(table)})
        for argv, file in ((["smooth", str(log)], log), (["design", str(car)], car),
                           (["simulate", str(cfg)], table)):
            assert main(argv + ["--out", str(tmp_path / "o")]) == 3
            err = capsys.readouterr().err
            assert f"cannot read {file}: 'utf-8' codec can't decode byte 0xff" in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, column", [("curvature", "t"), ("smooth", "speed")])
    def test_repeated_csv_column(self, tmp_path, capsys, command, column):
        log = write_drive_log(tmp_path, n=100)
        lines = log.read_text(encoding="utf-8").splitlines()
        log.write_text("\n".join([lines[0] + f",{column}"] + [ln + ",77.0" for ln in lines[1:]])
                       + "\n", encoding="utf-8")
        assert main([command, str(log), "--out", str(tmp_path / "o")]) == 3
        assert f"{log} line 1 ('{lines[0]},{column}') has the column '{column}' twice" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("row, fault", [
        ("1.0,2.0,3.0", "has 3 cells, the header has 4"),
        ("1.0,2.0,x,0.0", "has a non-numeric cell"),
        ("1.0,2.0,inf,0.0", "has a non-finite cell (Y)"),
    ])
    def test_recorded_row_faults_name_the_file_line(self, tmp_path, capsys, row, fault):
        log = tmp_path / "short.csv"
        rows = [f"{0.1 * i!r},{0.5 * i!r},0.0,0.0" for i in range(20)]
        rows[7] = row
        log.write_text("# a drive\nt,X,Y,psi\n\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["smooth", str(log), "--out", str(tmp_path / "o")]) == 3
        assert f"{log} line 11 ('{row}') {fault}" in capsys.readouterr().err

    def test_comments_blank_lines_and_crlf_read_as_plain_lines(self, tmp_path):
        plain = write_drive_log(tmp_path, n=200)
        lines = plain.read_text(encoding="utf-8").splitlines()
        odd = tmp_path / "odd.csv"
        odd.write_bytes("\r\n".join(["# recorded on a test track", "", lines[0], "  # x,1"]
                                    + lines[1:100] + ["", "\t"] + lines[100:]).encode())
        for log, out in ((plain, "a"), (odd, "b")):
            assert main(["curvature", str(log), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "a" / "curvature.csv").read_bytes() == \
            (tmp_path / "b" / "curvature.csv").read_bytes()

    @pytest.mark.parametrize("vehicle", ['{"m": -5.0, "m": 1500.0}', '{"m": 1500.0, "m": -5.0}'])
    def test_repeated_json_key(self, tmp_path, capsys, vehicle):
        car = tmp_path / "car.json"
        car.write_text(f'{{"schema_version": 1, "vehicle": {vehicle}}}', encoding="utf-8")
        assert main(["design", str(car), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"{car}: malformed JSON (repeated key 'm')" in err
        assert not (tmp_path / "o").exists()

    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"schema_version": 1, "path": ' + "[" * 100_000 + "]" * 100_000 + "}",
                       encoding="utf-8")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert f"{cfg}: malformed JSON" in capsys.readouterr().err


def _directories(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_dir())


class TestOutputDirs:
    """An output directory or artifact that cannot be made or written is exit 3
    naming the path: no traceback, no forked child left, and nothing that was
    there before changed, nothing made and no stage left."""

    @pytest.mark.parametrize("argv, env, written", [
        (["margins", SEDAN, "--speed", "10", "--out", "afile"], None, "afile/bode.csv"),
        (["design", SEDAN], "afile", "afile/design/gains.csv"),
        (["simulate", str(CONFIGS / "circle_10ms.json"), "--out", "afile/y"], None,
         "afile/y/log.csv"),
    ])
    def test_a_file_in_the_way(self, tmp_path, monkeypatch, capsys, forks, argv, env, written):
        runs, run_scenario = [], simkit.run_scenario

        def recorded(*args, **kwargs):   # simulate must find out before it runs
            runs.append(args)
            return run_scenario(*args, **kwargs)

        monkeypatch.setattr(simkit, "run_scenario", recorded)
        monkeypatch.chdir(tmp_path)
        if env is not None:
            monkeypatch.setenv("STEERKIT_OUT", env)
        _usable_cpus(monkeypatch, 2)
        Path("afile").write_text("kept", encoding="utf-8")
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"cannot write {written}: " in err and "Traceback" not in err
        assert not runs and not forks
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert Path("afile").read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("command, artifact, cpus, children", [
        ("design", "gains.csv", 2, 0),
        ("design", "plots/gains_vs_speed.svg", 2, 0),
        ("design", "manifest.json", 2, 0),
        ("margins", "bode.csv", 2, 0),
        ("margins", "margins.json", 2, 0),
        ("margins", "plots/bode.svg", 2, 0),
        ("curvature", "curvature.csv", 2, 0),
        ("smooth", "smoothed.csv", 2, 0),
        ("simulate", "metrics.json", 2, 1),
        ("simulate", "plots/error_vs_s.svg", 2, 1),
        ("simulate", "log.csv", 1, 0),   # formatted after the run
        ("simulate", "log.csv", 2, 0),   # refused before the forked writer starts
        ("sweep", "00_seed_1/log.csv", 2, 2),
    ])
    def test_a_directory_in_the_way(self, tmp_path, monkeypatch, capsys, forks, command,
                                    artifact, cpus, children):
        cfg = str(write_circle_config(tmp_path, t_end=3.0))
        argv = {"design": ["design", SEDAN], "margins": ["margins", SEDAN, "--speed", "10"],
                "curvature": ["curvature", str(write_drive_log(tmp_path))],
                "smooth": ["smooth", str(CONFIGS / "parking_path.csv")],
                "simulate": ["simulate", cfg],
                "sweep": ["simulate", cfg, "--sweep", "seed=1,2"]}[command]
        _usable_cpus(monkeypatch, cpus)
        out = tmp_path / "o"
        (out / artifact).mkdir(parents=True)
        before = _directories(tmp_path)
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"cannot write {out / artifact}: " in err and "Traceback" not in err
        assert len(forks) == children and forks.all_reaped()
        assert _directories(tmp_path) == before

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_sweep_member_name_too_long(self, tmp_path, capsys, forks, monkeypatch, existing):
        _usable_cpus(monkeypatch, 2)
        zeros = "0." + "0" * 300
        out = tmp_path / "o"
        if existing:
            out.mkdir()
        assert main(["simulate", str(CONFIGS / "parking.json"), "--out", str(out),
                     "--sweep", f"initial_offset.0={zeros}"]) == 3
        err = capsys.readouterr().err
        member = out / f"00_initial_offset_0_{zeros}"
        assert err.startswith(f"steerkit: --sweep initial_offset.0={zeros}: cannot write {member}")
        assert "Traceback" not in err
        assert forks.all_reaped()
        assert _directories(tmp_path) == ([out] if existing else [])

    @pytest.mark.parametrize("case", ["design directory", "simulate directory", "margins file",
                                      "sweep member name too long", "sweep member failing"])
    def test_a_failed_rerun_changes_nothing(self, tmp_path, monkeypatch, capsys, forks, case):
        # each failing command runs over an earlier successful run whose
        # artifacts it would change: it has other flags or a changed config
        _usable_cpus(monkeypatch, 2)
        cfg = str(write_circle_config(tmp_path, t_end=2.5))
        zeros = "0." + "0" * 300
        out = tmp_path / "o"
        first, again, in_the_way, message = {
            "design directory": (["design", SEDAN], ["design", SEDAN, "--grid", "2:10:5"],
                                 "manifest.json", f"cannot write {out / 'manifest.json'}: "),
            "simulate directory": (["simulate", cfg], ["simulate", cfg], "plots/error_vs_s.svg",
                                   f"cannot write {out / 'plots/error_vs_s.svg'}: "),
            "margins file": (["margins", SEDAN, "--speed", "10"],
                             ["margins", SEDAN, "--speed", "12"], "plots",
                             f"cannot write {out / 'plots/bode.svg'}: "),
            "sweep member name too long": (
                ["simulate", cfg, "--sweep", "initial_offset.0=0.1"],
                ["simulate", cfg, "--sweep", f"initial_offset.0=0.1,{zeros}"], None,
                f"cannot write {out / f'01_initial_offset_0_{zeros}'}/manifest.json: "),
            "sweep member failing": (["simulate", cfg, "--sweep", "seed=0,1"],
                                     ["simulate", cfg, "--sweep", "seed=0,1,-1"], None,
                                     "--sweep seed=-1: "),
        }[case]
        assert main(first + ["--out", str(out)]) == 0
        write_circle_config(tmp_path, t_end=3.0)
        if in_the_way == "plots":   # a file where a directory of artifacts was
            for svg in (out / "plots").iterdir():
                svg.unlink()
            (out / "plots").rmdir()
            (out / "plots").write_text("in the way", encoding="utf-8")
        elif in_the_way is not None:   # a directory where an artifact was
            (out / in_the_way).unlink()
            (out / in_the_way).mkdir()
        before, siblings = _tree(out), sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(again + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert forks.all_reaped()
        assert _tree(out) == before
        assert sorted(tmp_path.iterdir()) == siblings and not _stages(out)

    def test_a_move_that_fails_is_exit_3_with_nothing_on_stdout(self, tmp_path, monkeypatch,
                                                                capsys):
        replace = os.replace

        def failing(src, dst):
            if Path(dst).name == "manifest.json":
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        out = tmp_path / "o"
        assert main(["design", SEDAN, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {out / 'manifest.json'}: " in captured.err
        assert "Traceback" not in captured.err
        assert not (out / "manifest.json").exists() and not _stages(out)
