"""Time steerkit's simulation step on two checkouts, side by side.

    python3 scripts/step_cost.py OLD_ROOT NEW_ROOT [--rounds 3] [--desk-seed 1] [--work DIR]

Each root is a repository checkout (the directory holding `src/` and
`bench/`).  The cases are the shipped `circle_10ms`, `circle_3ms` and
`parking` configs, `circle_10ms` on the closed 360-degree circle (1.27
laps, across the seam), and the `desk` benchmark's `dyn`/`kin` configs of
one seed.  All inputs come from NEW_ROOT (its `configs/` and its
`bench/workloads.py`), so only the program differs.

Every round starts one fresh process per side, the side that goes first
alternating from round to round.  The process imports steerkit from that
side's `src/`, builds each case's scenario and gain schedule, then times
one `run_scenario` call per case.  A case's cost is that wall time over
the log's rows (one row per sim step), in microseconds; the script prints
the best over the rounds for each side, then one JSON line with every
round's values.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SHIPPED = ("circle_10ms", "circle_3ms", "parking")


def _time_cases(src: str, cases: list[list[str]]) -> None:
    """Child mode: print {case: [us per step, rows]} for one side, one run each."""
    sys.path.insert(0, src)
    from steerkit import cli, simkit

    out = {}
    for name, config in cases:
        path = Path(config)
        scenario, schedule, p = cli._scenario_from_config(json.loads(path.read_text()), path)
        t0 = time.perf_counter()
        log = simkit.run_scenario(scenario, schedule, params=p)
        elapsed = time.perf_counter() - t0
        out[name] = [elapsed / len(log) * 1e6, len(log)]
    print(json.dumps(out))


def _cases(new_root: Path, desk_seed: int, work: Path) -> list[list[str]]:
    configs = new_root / "src" / "steerkit" / "configs"
    cases = [[name, str(configs / f"{name}.json")] for name in SHIPPED]
    sys.path.insert(0, str(new_root / "bench"))
    import workloads

    workloads.generate("desk", desk_seed, new_root, work)
    closed = json.loads((configs / "circle_10ms.json").read_text(encoding="utf-8"))
    closed["path"]["arc_deg"] = 360.0
    (work / "circle_10ms_360.json").write_text(json.dumps(closed), encoding="utf-8")
    return cases + [["c10_closed", str(work / "circle_10ms_360.json")]] + \
        [[f"desk_{name}", str(work / f"{name}.json")] for name in ("dyn", "kin")]


def main(argv=None) -> int:
    if argv is None and len(sys.argv) > 1 and sys.argv[1] == "--child":
        _time_cases(sys.argv[2], json.loads(sys.argv[3]))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--desk-seed", type=int, default=1)
    ap.add_argument("--work", type=Path, default=Path(".compare_work") / "step_cost")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    cases = _cases(args.new_root.resolve(), args.desk_seed, args.work.resolve())
    sides = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    rounds: dict[str, list[dict]] = {"old": [], "new": []}
    for i in range(args.rounds):
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            proc = subprocess.run([sys.executable, __file__, "--child",
                                   str(sides[side] / "src"), json.dumps(cases)],
                                  capture_output=True, text=True, check=True)
            rounds[side].append(json.loads(proc.stdout.splitlines()[-1]))
        print(f"  round {i + 1}/{args.rounds} done", file=sys.stderr)

    best = {side: {name: min(r[name][0] for r in runs) for name, _ in cases}
            for side, runs in rounds.items()}
    print(f"{'case':<14}{'rows':>8}{'old us/step':>14}{'new us/step':>14}{'new/old':>9}")
    for name, _ in cases:
        old, new = best["old"][name], best["new"][name]
        print(f"{name:<14}{rounds['new'][0][name][1]:>8}{old:>14.2f}{new:>14.2f}"
              f"{new / old:>9.3f}")
    print(json.dumps({"unit": "us per sim step", "best_of": args.rounds, "best": best,
                      "rounds": {side: [{k: round(v[0], 3) for k, v in r.items()} for r in runs]
                                 for side, runs in rounds.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
