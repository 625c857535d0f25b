"""A fuzzer of the exit-code contract on every command's inputs.

Each example changes one thing in a valid input (a gain-table cell, row or
dt, one of `design`'s --grid, --weights and --dt, one vehicle key, one
key of a kinematic or dynamic `simulate` config, one `--sweep` of such a
config, one of `margins`' --speed, --points and --dt, or a cell, row or
column of a small recorded log for `curvature` and `smooth`) to a hostile
value, runs `cli.main` on
it and checks the contract: the exit code is 0, 2, 3 or 4, nothing
escapes as a traceback, a failed command (exit 3 or 4) leaves no output
directory, an exit-3 message names what was changed, and steerkit's code
raises no numpy RuntimeWarning.  File-level changes go through the same
contract, the message naming the file: a gain table that is a directory,
missing or not UTF-8; a recorded log with a repeated column, a byte that is
not UTF-8, CRLF line ends or comment and blank lines (the last two read as
the plain log); a vehicle file with a repeated key or a byte that is not
UTF-8; and a manifest under --verify that is not a JSON object or whose
artifacts are not a list of file names.  `simulate` runs last at most 2 s
of simulated time.  A delay of 10**9 steps also runs in a process whose
address space is capped at 1.5 GB.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steerkit.cli import main
from steerkit.lqr import LqrWeights, build_schedule, save_gain_csv
from steerkit.models import VehicleParams
from test_cli import _artifacts

SEDAN = {"m": 1500.0, "iz": 3000.0, "lf": 1.2, "lr": 1.5, "caf": 60000.0, "car": 60000.0,
         "max_steer": 0.6}
# texts for gain-table cells and flags, and values for vehicle keys
TEXTS = ["0", "-0.0", "5e-324", "1e-300", "-1", "0.5", "0.02", "0.1000001", "30.5", "1e308",
         "1e999", "-1e999", "nan", "inf", "x", "", " ", "1,2", "1:2", "0x10", "1e", "--"]
VALUES = [0.0, -0.0, 5e-324, 1e-300, -1.0, 0.01, 1.5, 1e308, float("inf"), float("-inf"),
          float("nan"), "1.0", True, None, [1.0], {}]
FLAG_TEXTS = TEXTS + ["1:15:15", "1:15:1", "15:1:5", "0.5:30:4", "1,2,3", "3,2,1", "1,1",
                      "0.4,2", "1:15:-3", "1.5:2:0", "1,1,1,1", "1,1:0", "1,1:1e-300",
                      "1e308,1e308", "0,1", "1,2,3,4,5:1", "1:15:100000000000"]


def _gain_table(model: str) -> list[str]:
    n = 2 if model == "kinematic" else 4
    schedule = build_schedule(np.linspace(1.0, 15.0, 6), model, VehicleParams(),
                              LqrWeights((1.0,) * n, 1.0), 0.02)
    with tempfile.TemporaryFile("w+") as f:
        save_gain_csv(schedule, f)
        f.seek(0)
        return f.read().splitlines()


TABLES = {model: _gain_table(model) for model in ("kinematic", "dynamic")}


@st.composite
def gain_table_edits(draw):
    """One changed cell, row or dt column of a valid gain table: the lines,
    and what an exit-3 message must name."""
    model = draw(st.sampled_from(sorted(TABLES)))
    lines = list(TABLES[model])
    kind = draw(st.sampled_from(["cell", "drop", "duplicate", "swap", "short", "long", "dt"]))
    i = draw(st.integers(0 if kind == "cell" else 1, len(lines) - 1))
    cells = lines[i].split(",")
    if kind == "cell":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(TEXTS))
        lines[i] = ",".join(cells)
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(1, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "short":
        lines[i] = ",".join(cells[:-1])
    elif kind == "long":
        lines[i] += ",1.0"
    else:
        dt = draw(st.sampled_from(TEXTS))
        lines[1:] = [",".join(row.split(",")[:-1] + [dt]) for row in lines[1:]]
    names = ["header"] if i == 0 and kind == "cell" else [r"line \d+", r"\bdt\b", "empty"]
    return model, lines, names


SIM_BASE = {"schema_version": 1, "path": {"kind": "circle", "radius": 30.0, "arc_deg": 60.0},
            "speed": 8.0, "t_end": 0.5}
SIM_BASES = [SIM_BASE, SIM_BASE | {"model": "dynamic", "controller": "dynamic_lqr"}]
SIM_KEYS = ["path.kind", "path.radius", "path.arc_deg", "path.spacing", "path.direction",
            "path.bogus", "model", "controller", "seed", "speed", "speed table", "sensors",
            "actuator", "initial_offset", "initial_offset.i", "t_end", "sim_dt", "control_dt"]
CHANNELS = ["lateral", "heading", "yaw_rate", "steer", "speed"]
SENSOR_FIELDS = ["noise_std", "quantization_step", "rate_hz", "delay_steps"]
ACTUATOR_FIELDS = ["lag_tau", "delay_steps", "rate_limit"]


@st.composite
def sim_config_edits(draw):
    """One changed `simulate` config key: the config, and what an exit-3
    message must name."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(SIM_BASES))))
    key = draw(st.sampled_from(SIM_KEYS))
    value = draw(st.sampled_from(VALUES + [0.002, 2, -3, 10**9, "line", "s_curve", "right",
                                           "up", "kinematic", "dynamic", "dynamic_lqr"]))
    names = [re.escape(key.split(".")[0])]
    if key.startswith("path."):
        cfg["path"][key[5:]] = value
        names = [key[5:], "path", "arc"]
    elif key == "speed table":
        cfg["speed"] = [[0.0, 6.0], draw(st.sampled_from([[0.5, value], [value, 7.0], value]))]
        names = ["speed"]
    elif key == "sensors":
        channel, field = draw(st.sampled_from(CHANNELS)), draw(st.sampled_from(SENSOR_FIELDS))
        cfg["sensors"] = {channel: {field: value}}
        names = [field, rf"sensors\.{channel}"]
    elif key == "actuator":
        field = draw(st.sampled_from(ACTUATOR_FIELDS))
        cfg["actuator"] = {field: value}
        names = [field]
    elif key == "initial_offset.i":
        cfg["initial_offset"] = [0.0, 0.0]
        cfg["initial_offset"][draw(st.integers(0, 1))] = value
    else:
        cfg[key] = value
    if key in ("t_end", "sim_dt", "control_dt"):
        names = ["t_end", "sim_dt", "control_dt"]
    if key in ("model", "controller"):   # a mismatch of the two may name either
        names = ["model", "controller"]
    return cfg, names


# dotted --sweep keys: config keys, keys through a scalar, through the
# initial_offset list (an index, past its end, not an index), and missing
SWEEP_KEYS = ["speed", "t_end", "seed", "schema_version", "model", "path.radius", "path.kind",
              "sensors.lateral.noise_std", "actuator.delay_steps", "speed.x", "path.radius.x",
              "seed.0", "initial_offset.1", "initial_offset.-2", "initial_offset.5",
              "initial_offset.x", "initial_offset.0.x", "bogus", "gains.grid.1", "vehicle.m.x"]
# --sweep value lists: JSON values of every type, past the float range, NaN,
# repeated values, and texts that are no JSON
SWEEP_VALUES = ["1e999", "-1e999", "NaN", "Infinity", "true", "null", '"x"', '"kinematic"',
                "[1]", "{}", "0", "-1", "2", "0.25", "8", "1e308", "8,8", "1,1e999", "NaN,NaN",
                "2,true", "nan", "", "1,", "[1,2]"]


def _recorded_log() -> list[str]:
    """A 6 s drive on a 50 m left arc at 3 m/s, in the recorded-log schema."""
    t = np.arange(60) * 0.1
    psi = 3.0 * t / 50.0
    cols = {"t": t, "X": 50.0 * np.sin(psi), "Y": 50.0 * (1.0 - np.cos(psi)), "psi": psi,
            "yaw_rate": np.full(60, 0.06), "speed": np.full(60, 3.0),
            "steer": np.full(60, np.arctan(2.7 / 50.0))}
    return [",".join(cols)] + [",".join(map(repr, row)) for row in zip(*(
        c.tolist() for c in cols.values()))]


RECORDED = _recorded_log()


@st.composite
def recorded_log_edits(draw):
    """One changed cell, row or column of a small recorded log: the lines,
    and what an exit-3 message must name besides the file."""
    lines = list(RECORDED)
    header = lines[0].split(",")
    kind = draw(st.sampled_from(["cell", "drop", "duplicate", "swap", "short", "long",
                                 "column", "truncate"]))
    i = draw(st.integers(0 if kind == "cell" else 1, len(lines) - 1))
    j = draw(st.integers(0, len(header) - 1))
    if kind == "cell":
        cells = lines[i].split(",")
        cells[j] = draw(st.sampled_from(TEXTS))
        lines[i] = ",".join(cells)
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        k = draw(st.integers(1, len(lines) - 1))
        lines[i], lines[k] = lines[k], lines[i]
    elif kind == "short":
        lines[i] = lines[i].rsplit(",", 1)[0]
    elif kind == "long":
        lines[i] += ",1.0"
    elif kind == "column":
        lines = [",".join(c for n, c in enumerate(line.split(",")) if n != j) for line in lines]
    else:
        lines = lines[:i]
    return lines, [header[j], "timestamps", "samples", "displacement", "channel"]


FILE_EDITS = ["gains directory", "gains missing", "gains 0xff", "log repeated column",
              "log 0xff", "log crlf", "log comments", "json repeated key", "json 0xff"]


def _with_ff(text: str, at: int) -> bytes:
    """The UTF-8 text with one 0xff byte, never valid UTF-8, inserted at the
    at/59 fraction of it."""
    data = text.encode()
    k = 1 + at * (len(data) - 2) // 59
    return data[:k] + b"\xff" + data[k:]


def _file_case(d: Path, edit: str, model: str, command: str, at: int):
    """Write the inputs of one file-level edit into d: the argv, the input file
    an exit-3 message must name, and the exit code the edit must give."""
    subject, _, change = edit.partition(" ")
    if subject == "gains":
        table = "\n".join(TABLES[model]) + "\n"
        if change == "directory":
            (d / "gains.csv").mkdir()
        elif change == "0xff":
            (d / "gains.csv").write_bytes(_with_ff(table, at))
        cfg = {"schema_version": 1, "model": model,
               "controller": "kinematic_ff_fb" if model == "kinematic" else "dynamic_lqr",
               "path": {"kind": "circle", "radius": 50.0, "arc_deg": 90.0},
               "speed": 6.0, "t_end": 0.5, "gains": {"csv": "gains.csv"}}
        (d / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
        return ["simulate", str(d / "run.json")], d / "gains.csv", 3
    if subject == "log":
        lines = list(RECORDED)
        if change == "repeated column":
            name = lines[0].split(",")[at % 7]
            lines = [lines[0] + f",{name}"] + [line + ",1.0" for line in lines[1:]]
        elif change == "comments":
            for i in sorted({at, (7 * at) % 60, 59 - at}, reverse=True):
                lines.insert(i, ["# note", "", "  #x,1", "\t"][i % 4])
        text = ("\r\n" if change == "crlf" else "\n").join(lines) + "\n"
        data = _with_ff(text, at) if change == "0xff" else text.encode()
        (d / "drive.csv").write_bytes(data)
        return [command, str(d / "drive.csv")], d / "drive.csv", \
            0 if change in ("crlf", "comments") else 3
    text = json.dumps({"schema_version": 1, "vehicle": SEDAN})
    if change == "repeated key":
        key = sorted(SEDAN)[at % len(SEDAN)]
        text = text[:-2] + f', "{key}": {SEDAN[key]}}}}}'
    (d / "car.json").write_bytes(_with_ff(text, at) if change == "0xff" else text.encode())
    argv = ["design", str(d / "car.json"), "--model", model, "--grid", "2:14:4"] \
        if command == "curvature" else ["margins", str(d / "car.json"), "--speed", "8.5"]
    return argv, d / "car.json", 3


def _run(argv, out: Path):
    """main's exit code and stderr; an exception escaping main, or a numpy
    RuntimeWarning raised in steerkit's code, fails the test."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(out)])
    except BaseException:  # noqa: BLE001 - any escape breaks the contract
        raise AssertionError(f"{argv} escaped main:\n{traceback.format_exc()}") from None
    ours = [w for w in caught if issubclass(w.category, RuntimeWarning)
            and "steerkit" in Path(w.filename).parts]
    assert not ours, f"{argv} warned: {[str(w.message) for w in ours]}"
    return code, err.getvalue()


def _check(code: int, err: str, out: Path, names: list[str]) -> None:
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err, err
    if code in (3, 4):
        assert not out.exists(), err
    if code == 3:
        assert any(re.search(name, err) for name in names), err


class TestHostileInputs:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(edit=gain_table_edits())
    def test_gain_tables(self, edit):
        model, lines, names = edit
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "gains.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            cfg = {"schema_version": 1, "model": model,
                   "controller": "kinematic_ff_fb" if model == "kinematic" else "dynamic_lqr",
                   "path": {"kind": "circle", "radius": 50.0, "arc_deg": 90.0},
                   "speed": [[0.0, 6.0], [0.5, 9.5]], "t_end": 0.5,
                   "gains": {"csv": "gains.csv"}}
            (d / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
            code, err = _run(["simulate", str(d / "run.json")], d / "o")
            _check(code, err, d / "o", names)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(flag=st.sampled_from(["--grid", "--weights", "--dt"]),
           text=st.sampled_from(FLAG_TEXTS), model=st.sampled_from(["kinematic", "dynamic"]))
    def test_design_flags(self, flag, text, model):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "car.json").write_text(json.dumps({"schema_version": 1, "vehicle": SEDAN}))
            code, err = _run(["design", str(d / "car.json"), "--model", model,
                              f"{flag}={text}"], d / "o")
            _check(code, err, d / "o", [re.escape(flag)])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(key=st.sampled_from(sorted(SEDAN)), value=st.sampled_from(VALUES),
           command=st.sampled_from(["design", "simulate"]),
           model=st.sampled_from(["kinematic", "dynamic"]))
    def test_vehicle_keys(self, key, value, command, model):
        vehicle = SEDAN | {key: value}
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            if command == "design":
                (d / "car.json").write_text(json.dumps({"schema_version": 1, "vehicle": vehicle}))
                argv = ["design", str(d / "car.json"), "--model", model, "--grid", "2:14:4"]
            else:
                cfg = {"schema_version": 1, "model": model, "vehicle": vehicle,
                       "controller": "kinematic_ff_fb" if model == "kinematic" else
                       "dynamic_lqr", "path": {"kind": "line", "length": 40.0},
                       "speed": 8.5, "t_end": 0.5,
                       "gains": {"grid": [2.0, 14.0, 4], "weights": {"q": [1.0] * (
                           2 if model == "kinematic" else 4), "r": 1.0}}}
                (d / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
                argv = ["simulate", str(d / "run.json")]
            code, err = _run(argv, d / "o")
            _check(code, err, d / "o", [rf"\b{key}\b"])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(edit=sim_config_edits())
    def test_simulate_config_keys(self, edit):
        cfg, names = edit
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
            code, err = _run(["simulate", str(d / "run.json")], d / "o")
            _check(code, err, d / "o", names)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(base=st.sampled_from(SIM_BASES), key=st.sampled_from(SWEEP_KEYS),
           values=st.sampled_from(SWEEP_VALUES))
    def test_simulate_sweeps(self, base, key, values):
        cfg = base | {"initial_offset": [0.1, 0.0]}
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
            code, err = _run(["simulate", str(d / "run.json"), f"--sweep={key}={values}"],
                             d / "o")
            _check(code, err, d / "o", [rf"--sweep\b.*{re.escape(key)}"])
            if code == 0:   # one member per value, repeated ones too
                assert len(list((d / "o").iterdir())) == len(values.split(",")) + 1

    @pytest.mark.parametrize("values, named", [("8,1e999", "--sweep speed=1e999: "),
                                               ("NaN,8", "--sweep speed=NaN: ")])
    def test_a_failing_sweep_member_names_its_value(self, tmp_path, values, named):
        # the first member may have run: the failed sweep still leaves nothing
        (tmp_path / "run.json").write_text(json.dumps(SIM_BASE), encoding="utf-8")
        code, err = _run(["simulate", str(tmp_path / "run.json"), "--sweep", f"speed={values}"],
                         tmp_path / "o")
        assert code == 3 and err.startswith(f"steerkit: {named}"), err
        assert str(tmp_path / "run.json") in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["2", "0", "true", '"1"', "1.5"])
    def test_a_sweep_is_schema_checked(self, tmp_path, value):
        (tmp_path / "run.json").write_text(json.dumps(SIM_BASE), encoding="utf-8")
        code, err = _run(["simulate", str(tmp_path / "run.json"), "--sweep",
                          f"schema_version=1,{value}"], tmp_path / "o")
        assert code == 3 and f"--sweep schema_version={value}: schema_version must be 1" in err
        assert not (tmp_path / "o").exists()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(flag=st.sampled_from(["--speed", "--points", "--dt"]),
           text=st.sampled_from(FLAG_TEXTS + ["2", "3", "100000000000"]),
           model=st.sampled_from(["kinematic", "dynamic"]))
    def test_margins_flags(self, flag, text, model):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "car.json").write_text(json.dumps({"schema_version": 1, "vehicle": SEDAN}))
            argv = ["margins", str(d / "car.json"), "--model", model, "--speed", "8.5",
                    f"{flag}={text}"]
            code, err = _run(argv, d / "o")
            _check(code, err, d / "o", [re.escape(flag)])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(edit=recorded_log_edits(), command=st.sampled_from(["curvature", "smooth"]))
    def test_recorded_logs(self, edit, command):
        lines, names = edit
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            (d / "drive.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            code, err = _run([command, str(d / "drive.csv")], d / "o")
            _check(code, err, d / "o", names + ["drive.csv"])


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edit=st.sampled_from(FILE_EDITS), model=st.sampled_from(sorted(TABLES)),
           command=st.sampled_from(["curvature", "smooth"]), at=st.integers(0, 59))
    def test_input_files(self, edit, model, command, at):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            argv, file, expected = _file_case(d, edit, model, command, at)
            code, err = _run(argv, d / "o")
            _check(code, err, d / "o", [re.escape(str(file))])
            assert code == expected, err
            if edit in ("log crlf", "log comments"):   # read as the plain log is
                (d / "drive.csv").write_text("\n".join(RECORDED) + "\n", encoding="utf-8")
                assert _run(argv, d / "plain") == (0, "")
                assert _artifacts(d / "o") == _artifacts(d / "plain")

    @pytest.mark.parametrize("text", ["[]", "not json", "{", '{"schema_version": 1} x',
                                      '{"schema_version": 1, "seed": 1, "seed": 1}', "\xff",
                                      # fresh but for artifacts: <sha> is the input's
                                      '{"schema_version": 1, "input_sha256": "<sha>", '
                                      '"artifacts": 5}',
                                      '{"schema_version": 1, "input_sha256": "<sha>", '
                                      '"artifacts": ["log.csv", 5]}'])
    @pytest.mark.parametrize("command", ["simulate", "design"])
    def test_manifests_under_verify(self, tmp_path, text, command):
        (tmp_path / "car.json").write_text(json.dumps({"schema_version": 1, "vehicle": SEDAN}))
        (tmp_path / "run.json").write_text(json.dumps(SIM_BASE), encoding="utf-8")
        out = tmp_path / "o"
        out.mkdir()
        given = tmp_path / ("run.json" if command == "simulate" else "car.json")
        text = text.replace("<sha>", hashlib.sha256(given.read_bytes()).hexdigest())
        (out / "manifest.json").write_bytes(text.encode("latin-1"))
        argv = [command, str(given), "--verify"]
        code, err = _run(argv, out)
        assert code == 3 and "Traceback" not in err, err
        assert str(out / "manifest.json") in err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_curvature_of_yaw_rates_at_the_float_range(tmp_path):
    # yaw rates of +-1.7e308 rad/s at 1 m/s: the plotted curvature spans more
    # than the float range, which the plot's axis must still draw
    t = np.arange(40) * 0.1
    cols = {"t": t, "X": t, "Y": np.zeros(40), "psi": np.zeros(40),
            "yaw_rate": np.where(np.arange(40) % 2, 1.7e308, -1.7e308),
            "speed": np.ones(40), "steer": np.full(40, 0.1)}
    lines = [",".join(cols)] + [",".join(map(repr, row)) for row in zip(*(
        c.tolist() for c in cols.values()))]
    (tmp_path / "drive.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = _run(["curvature", str(tmp_path / "drive.csv")], tmp_path / "o")
    _check(code, err, tmp_path / "o", ["drive.csv"])
    assert code == 0, err
    svg = (tmp_path / "o" / "plots" / "curvature.svg").read_text(encoding="utf-8")
    assert not re.search(r"\b(nan|inf)\b", svg)


def test_a_huge_delay_runs_in_a_capped_address_space(tmp_path):
    # a delay buffer sized by delay_steps up front would need 8 GB here
    cfg = SIM_BASE | {"actuator": {"delay_steps": 10**9},
                      "sensors": {"lateral": {"delay_steps": 10**9}}}
    (tmp_path / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20)); "
            "from steerkit.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code, "simulate", str(tmp_path / "run.json"),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode in (0, 2), done.stderr
    assert "Traceback" not in done.stderr, done.stderr
