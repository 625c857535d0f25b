import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from steerkit.cli import main
from steerkit.pathkit import read_recorded_csv

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

    def test_sweep_offsets(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["simulate", str(CONFIGS / "parking.json"), "--out", str(out),
                     "--sweep", "initial_offset.0=-1,-0.5,0.5,1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["artifacts"]) == 4
        for sub in manifest["artifacts"]:
            metrics = json.loads((out / Path(sub).parent / "metrics.json").read_text())
            assert metrics["settled"]

    def test_verify_manifest(self, tmp_path):
        cfg = write_circle_config(tmp_path, t_end=3.0)
        out = tmp_path / "v"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out), "--verify"]) == 0
        data = json.loads(cfg.read_text())
        data["seed"] = 7
        cfg.write_text(json.dumps(data))
        assert main(["simulate", str(cfg), "--out", str(out), "--verify"]) == 3

    def test_env_output_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STEERKIT_OUT", str(tmp_path / "envroot"))
        cfg = write_circle_config(tmp_path, t_end=3.0)
        assert main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "envroot" / "simulate" / "log.csv").exists()


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
        (4, "nan", "non-finite yaw_rate in data row 5"),
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
        assert message in capsys.readouterr().err

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
