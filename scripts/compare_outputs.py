"""Byte-compare steerkit's command outputs between two checkouts.

    python3 scripts/compare_outputs.py OLD_ROOT NEW_ROOT [--work DIR] [--desk-seeds 0-7]

Each root is a repository checkout (the directory holding `src/` and
`bench/`).  Both sides run the benchmark's `track` plan and its `desk` plan
for every listed seed (design, margins, curvature and the `dyn`/`kin`
simulations), then this script's `seam`, `long` and `inputs` plans, each
plan in one fresh process that imports steerkit from that side's `src/`.
The `seam` plan simulates what no benchmark plan covers: closed circles
that pass their seam (`circle_10ms` at 360 degrees, `circle_3ms` at 720
degrees run past its second lap), a noisy dynamic run with a speed table
and a rate-limited actuator that ends at its path end, and a noisy lap of
the closed circle with delayed sensor channels and a delayed actuator.  The
`long` plan is one large run: `circle_3ms` on the closed 360-degree circle
for 500 s, 500,001 rows; for it the script also prints each side's peak
resident set (of its plan process) and the memory the command took beyond
the row table, as (peak - peak after import) / (rows x 160 B).  The
`inputs` plan reads every kind of input file (`_inputs_plan`).
The inputs come from NEW_ROOT (its `bench/workloads.py` and its shipped
configs) for both sides, so only the program differs.

The summary line also gives each root's `src/steerkit/*.py` line count
(as `wc -l` counts it).  The script reports, and exits 1 on, any
difference in:
  - the exit code or the stdout line of a command (with the side's work
    directory replaced by a placeholder);
  - the set of artifacts a command wrote, or the sha256 of any artifact
    except `manifest.json`, which records per-run paths.
For each artifact whose sha256 differs, the DIFF line also gives the
largest absolute and relative difference over its numeric cells (a CSV,
cell by cell) or numeric leaves (a JSON file, leaf by leaf), and for a CSV
the first and last data row (0 for the first row after the header) with a
differing cell; the summary line gives the largest differences over every
differing artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _peak_rss_kb() -> int:
    """This process's peak resident set in kB: VmHWM where /proc has it,
    since RUSAGE_SELF's ru_maxrss also keeps the peak of the process that
    spawned it (exec carries it over); else ru_maxrss."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_plan(src: str, plan_file: str) -> None:
    """Child mode: run a plan's commands through cli.main, print one JSON
    object: their results, and the peak RSS after import and at the end."""
    sys.path.insert(0, src)
    from steerkit import cli

    imported_kb = _peak_rss_kb()
    results = []
    for cmd in json.loads(Path(plan_file).read_text(encoding="utf-8"))["commands"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(cmd["argv"])
        results.append({"name": cmd["name"], "rc": rc, "stdout": buf.getvalue()})
    print(json.dumps({"runs": results, "rss_kb": [imported_kb, _peak_rss_kb()]}))


def _digests(out: Path) -> dict[str, str]:
    return {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*")) if f.is_file() and f.name != "manifest.json"}


def _numbers(path: Path) -> dict | None:
    """Numeric cells of a CSV keyed by (row, column), or numeric leaves of a
    JSON file keyed by their key path; None for any other file."""
    if path.suffix == ".csv":
        out = {}
        rows = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                if not ln.startswith("#")]
        for i, row in enumerate(rows):
            for j, cell in enumerate(row.split(",")):
                with contextlib.suppress(ValueError):
                    out[i, j] = float(cell)
        return out
    if path.suffix == ".json":
        out = {}

        def walk(node, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, key + (k,))
            elif isinstance(node, list):
                for k, v in enumerate(node):
                    walk(v, key + (k,))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                out[key] = float(node)

        walk(json.loads(path.read_text(encoding="utf-8")), ())
        return out
    return None


def _numeric_diff(old: Path, new: Path) -> tuple[float, float, str] | None:
    """(largest absolute, largest relative) difference over the numeric
    entries both files hold at the same place, and for a CSV the data rows
    from the first to the last that differ ("" for a JSON file); None when a
    file is neither CSV nor JSON or the two hold numbers at different places."""
    a, b = _numbers(old), _numbers(new)
    if a is None or b is None or a.keys() != b.keys() or not a:
        return None
    x, y = np.array(list(a.values())), np.array([b[k] for k in a])
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(x - y))
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.where(same, 0.0, diff / np.where(scale > 0, scale, 1.0))
    diff[np.isnan(diff)] = np.inf
    rel[np.isnan(rel)] = np.inf
    rows = ""
    if old.suffix == ".csv" and not same.all():
        differ = [i - 1 for (i, _), s in zip(a, same.tolist()) if not s]   # row 0: the header
        rows = f"; data rows {min(differ)} to {max(differ)} differ"
    return float(diff.max()), float(rel.max()), rows


def _src_lines(root: Path) -> int:
    return sum(f.read_bytes().count(b"\n") for f in (root / "src" / "steerkit").glob("*.py"))


def _seam_plan(new_root: Path, work: Path) -> dict:
    """The closed-circle, path-end and delay simulations, written from the shipped configs."""
    configs = new_root / "src" / "steerkit" / "configs"
    work.mkdir(parents=True, exist_ok=True)
    c10, c3 = (json.loads((configs / f"{name}.json").read_text(encoding="utf-8"))
               for name in ("circle_10ms", "circle_3ms"))
    c10["path"]["arc_deg"] = 360.0   # 40 s at 10 m/s: 1.27 laps
    c3["path"]["arc_deg"] = 720.0    # 215 s at 3 m/s: past the seam after two laps
    c3["t_end"] = 215.0
    end = dict(c10, model="dynamic", controller="dynamic_lqr", t_end=15.0, seed=3,
               path={"kind": "lane_change", "length": 80.0, "offset": 3.0, "spacing": 0.1},
               speed=[[0.0, 8.0], [4.0, 12.0], [8.0, 6.0]],
               sensors={"lateral": {"noise_std": 0.02}, "heading": {"noise_std": 0.002},
                        "speed": {"noise_std": 0.05}},
               actuator={"rate_limit": 0.5},
               gains={"grid": [1.0, 15.0, 15], "weights": {"q": [1, 1, 1, 1], "r": 1.0}})
    delayed = dict(c10, seed=5, actuator={"delay_steps": 5},
                   sensors={"lateral": {"noise_std": 0.02, "delay_steps": 3},
                            "heading": {"noise_std": 0.002, "delay_steps": 1},
                            "yaw_rate": {"noise_std": 0.005, "rate_hz": 200.0,
                                         "delay_steps": 2}})
    commands = []
    for name, cfg in (("c10_360", c10), ("c3_720", c3), ("path_end", end),
                      ("delayed", delayed)):
        (work / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        commands.append({"name": name, "argv": ["simulate", str(work / f"{name}.json"),
                                                "--out", str(work / "out" / name)]})
    return {"commands": commands}


def _long_plan(new_root: Path, work: Path) -> dict:
    """circle_3ms on the closed circle for 500 s: one 500,001-row simulate."""
    work.mkdir(parents=True, exist_ok=True)
    cfg = json.loads((new_root / "src" / "steerkit" / "configs" / "circle_3ms.json")
                     .read_text(encoding="utf-8"))
    cfg["path"]["arc_deg"] = 360.0
    cfg["t_end"] = 500.0
    (work / "long.json").write_text(json.dumps(cfg), encoding="utf-8")
    return {"commands": [{"name": "long", "argv": ["simulate", str(work / "long.json"),
                                                   "--out", str(work / "out" / "long")]}]}


def _drive_log() -> list[str]:
    """A 30 s drive on a 50 m left arc at 8 m/s, 600 rows, in the recorded-log schema."""
    t = np.arange(600) * 0.05
    theta = 8.0 * t / 50.0
    cols = (t, 50.0 * np.sin(theta), 50.0 * (1.0 - np.cos(theta)),
            np.arctan2(np.sin(theta), np.cos(theta)), np.full(600, 8.0 / 50.0),
            np.full(600, 8.0), np.full(600, float(np.arctan(2.7 / 50.0))))
    return ["t,X,Y,psi,yaw_rate,speed,steer"] + [",".join(map(repr, row)) for row in
                                                 zip(*(c.tolist() for c in cols))]


def _inputs_plan(new_root: Path, work: Path) -> dict:
    """Every input file kind through the input layer: `design` writes both gain
    tables, which `simulate` loads into `circle_10ms` (5 s) through
    `"gains": {"csv": ...}`, each under its own model and under the other
    one (the `controller` key naming the table's law); `curvature` and
    `smooth` read a recorded log with comment and blank lines and CRLF line
    ends; and malformed recorded logs and gain tables (a short row, a
    non-numeric cell, a NaN, an unknown column, a mixed dt) and `controller`
    keys that are not the gain table's law (named or by default) or no law
    at all fail, compared by exit code and stdout."""
    configs = new_root / "src" / "steerkit" / "configs"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    commands = []

    def simulate(name: str, **changes) -> None:
        cfg = json.loads((configs / "circle_10ms.json").read_text(encoding="utf-8"))
        cfg.update(changes)
        cfg = {k: v for k, v in cfg.items() if v is not ...}   # ... drops a key
        (work / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        commands.append({"name": name, "argv": ["simulate", str(work / f"{name}.json"),
                                                "--out", str(out / name)]})

    laws = {"kinematic": "kinematic_ff_fb", "dynamic": "dynamic_lqr"}
    tables = {model: str(out / f"design_{model}" / "gains.csv") for model in laws}
    for model, q in (("kinematic", "1,1"), ("dynamic", "1,1,1,1")):
        commands.append({"name": f"design_{model}",
                         "argv": ["design", str(configs / "sedan.json"), "--model", model,
                                  "--weights", q, "--out", str(out / f"design_{model}")]})
    for model, law in (("kinematic", "kinematic"), ("dynamic", "dynamic"),
                       ("dynamic", "kinematic"), ("kinematic", "dynamic")):
        simulate(f"table_{model}" if model == law else f"cross_{model}_{law}", model=model,
                 controller=laws[law], t_end=5.0, gains={"csv": tables[law]})
    simulate("law_mismatch", controller="dynamic_lqr", t_end=1.0)
    simulate("law_default", model="dynamic", controller=..., t_end=1.0,
             gains={"csv": tables["kinematic"]})
    simulate("law_unknown", controller="pure_pursuit", t_end=1.0)
    simulate("law_number", controller=2, t_end=1.0)
    lines = _drive_log()
    odd = ["# recorded on a test track", ""] + lines[:300] + ["  # lap marker", "\t"] + \
        lines[300:]
    (work / "crlf.csv").write_bytes("\r\n".join(odd + [""]).encode())
    for command in ("curvature", "smooth"):
        commands.append({"name": f"crlf_{command}",
                         "argv": [command, str(work / "crlf.csv"),
                                  "--out", str(out / f"crlf_{command}")]})
    faults = {"short": lambda row: row.rsplit(",", 1)[0], "text": lambda row: "x" + row,
              "nan": lambda row: "nan" + row[row.index(","):]}
    logs = {name: lines[:100] + [fault(lines[100])] + lines[101:]
            for name, fault in faults.items()}
    logs["column"] = [lines[0] + ",altitude"] + [row + ",0.0" for row in lines[1:]]
    bad_tables = {name: ["v,k1,k2,dt", "2.0,0.9,2.4,0.02", fault("4.0,0.9,2.4,0.02")]
                  for name, fault in faults.items()}
    bad_tables["mixed"] = ["v,k1,k2,dt", "2.0,0.9,2.4,0.02", "4.0,0.9,2.4,0.05"]
    for name, rows in logs.items():
        (work / f"log_{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        commands.append({"name": f"log_{name}",
                         "argv": ["curvature", str(work / f"log_{name}.csv"),
                                  "--out", str(out / f"log_{name}")]})
    for name, rows in bad_tables.items():
        (work / f"gains_{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        simulate(f"gains_{name}", t_end=1.0, gains={"csv": str(work / f"gains_{name}.csv")})
    return {"commands": commands}


def _memory(plan_dir: Path, rss_kb: list[int]) -> str:
    """The long plan's peak RSS and its memory beyond the row table."""
    with open(plan_dir / "out" / "long" / "log.csv", "rb") as f:
        rows = sum(1 for _ in f) - 2   # the comment and header lines
    imported, peak = (kb / 1024.0 for kb in rss_kb)
    return (f"peak RSS {peak:.1f} MB, {imported:.1f} MB after import, "
            f"(peak - import) / table = {(peak - imported) / (rows * 160 / 2**20):.2f} "
            f"({rows:,} rows x 160 B)")


def _side(root: Path, new_root: Path, work: Path, plans: list[tuple[str, int]]) -> dict:
    """Run every plan on one side; key -> {stdout lines, exit codes, digests}."""
    sys.path.insert(0, str(new_root / "bench"))
    import workloads

    record = {}
    for workload, seed in plans:
        key = f"{workload}-{seed}"
        plan_dir = work / key
        own = {"seam": _seam_plan, "long": _long_plan, "inputs": _inputs_plan}.get(workload)
        plan = own(new_root, plan_dir) if own else \
            workloads.generate(workload, seed, new_root, plan_dir)
        plan_file = plan_dir / "plan.json"
        plan_file.write_text(json.dumps({"commands": plan["commands"]}), encoding="utf-8")
        proc = subprocess.run([sys.executable, __file__, "--child", str(root / "src"),
                               str(plan_file)], capture_output=True, text=True, check=True)
        child = json.loads(proc.stdout.splitlines()[-1])
        record[key] = {
            "runs": [(r["name"], r["rc"], r["stdout"].replace(str(work), "<work>"))
                     for r in child["runs"]],
            "digests": _digests(plan_dir / "out"),
            "out": plan_dir / "out",
        }
        if workload == "long":
            record[key]["memory"] = _memory(plan_dir, child["rss_kb"])
        print(f"  {root.name}: {key} done, {len(record[key]['digests'])} artifacts",
              file=sys.stderr)
    return record


def main(argv=None) -> int:
    if argv is None and len(sys.argv) > 1 and sys.argv[1] == "--child":
        _run_plan(sys.argv[2], sys.argv[3])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--work", type=Path, default=Path(".compare_work"))
    ap.add_argument("--desk-seeds", type=_seeds, default=_seeds("0-7"))
    args = ap.parse_args(argv)

    plans = [("track", 0)] + [("desk", s) for s in args.desk_seeds] + \
        [("seam", 0), ("long", 0), ("inputs", 0)]
    new_root = args.new_root.resolve()
    old = _side(args.old_root.resolve(), new_root, (args.work / "old").resolve(), plans)
    new = _side(new_root, new_root, (args.work / "new").resolve(), plans)

    failures = []
    artifacts = 0
    largest = [0.0, 0.0]
    for key in old:
        if old[key]["runs"] != new[key]["runs"]:
            failures.append(f"{key}: exit codes or stdout differ: {old[key]['runs']} "
                            f"vs {new[key]['runs']}")
        a, b = old[key]["digests"], new[key]["digests"]
        if set(a) != set(b):
            failures.append(f"{key}: artifact sets differ: {sorted(set(a) ^ set(b))}")
        for name in sorted(set(a) & set(b)):
            if a[name] == b[name]:
                continue
            nums = _numeric_diff(old[key]["out"] / name, new[key]["out"] / name)
            if nums is None:
                failures.append(f"{key}: {name} differs")
                continue
            largest = [max(largest[0], nums[0]), max(largest[1], nums[1])]
            failures.append(f"{key}: {name} differs (largest difference {nums[0]:.3g} "
                            f"absolute, {nums[1]:.3g} relative{nums[2]})")
        artifacts += len(a)
    for line in failures:
        print(f"DIFF {line}")
    for side, record in (("old", old), ("new", new)):
        print(f"long plan, {side}: {record['long-0']['memory']}")
    print(f"{len(plans)} plans, {artifacts} artifacts compared, {len(failures)} differences "
          f"(largest numeric: {largest[0]:.3g} absolute, {largest[1]:.3g} relative); "
          f"src/steerkit/*.py lines: {_src_lines(args.old_root)} old, "
          f"{_src_lines(args.new_root)} new")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
