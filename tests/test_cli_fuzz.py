"""A fuzzer of the exit-code contract on the inputs the stacked gain
numerics read: gain tables, the design flags and vehicle files.

Each example changes one thing in a valid input (a gain-table cell, row or
dt, one of `design`'s --grid, --weights and --dt, or one vehicle key) to a
hostile value, runs `cli.main` on it and checks the contract: the exit
code is 0, 2, 3 or 4, nothing escapes as a traceback, a failed command
(exit 3 or 4) leaves no output directory, and an exit-3 message names what
was changed.  `simulate` runs last 0.5 s of simulated time.
"""

import contextlib
import io
import json
import re
import tempfile
import traceback
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from steerkit.cli import main
from steerkit.lqr import LqrWeights, build_schedule, save_gain_csv
from steerkit.models import VehicleParams

SEDAN = {"m": 1500.0, "iz": 3000.0, "lf": 1.2, "lr": 1.5, "caf": 60000.0, "car": 60000.0,
         "max_steer": 0.6}
# texts for gain-table cells and flags, and values for vehicle keys
TEXTS = ["0", "-0.0", "5e-324", "1e-300", "-1", "0.5", "0.02", "0.1000001", "30.5", "1e308",
         "1e999", "-1e999", "nan", "inf", "x", "", " ", "1,2", "1:2", "0x10", "1e", "--"]
VALUES = [0.0, -0.0, 5e-324, 1e-300, -1.0, 0.01, 1.5, 1e308, float("inf"), float("-inf"),
          float("nan"), "1.0", True, None, [1.0], {}]
FLAG_TEXTS = TEXTS + ["1:15:15", "1:15:1", "15:1:5", "0.5:30:4", "1,2,3", "3,2,1", "1,1",
                      "0.4,2", "1:15:-3", "1.5:2:0", "1,1,1,1", "1,1:0", "1,1:1e-300",
                      "1e308,1e308", "0,1", "1,2,3,4,5:1"]


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


def _run(argv, out: Path):
    """main's exit code and stderr; an exception escaping main fails the test."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
    except BaseException:  # noqa: BLE001 - any escape breaks the contract
        raise AssertionError(f"{argv} escaped main:\n{traceback.format_exc()}") from None
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
