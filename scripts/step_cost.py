"""Time steerkit's simulation step, or whole simulate commands, on two
checkouts, side by side.

    python3 scripts/step_cost.py OLD_ROOT NEW_ROOT [--rounds 3] [--desk-seed 1] [--work DIR]
                                 [--commands]

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
the best and the median over the rounds for each side with their new/old
ratios (one fast round decides a best, so compare medians), then one JSON
line with the bests, the medians and every round's values.

With --commands each round starts one fresh process per side and case,
which times one whole command through `cli.main` (into a scratch directory
under --work): a `simulate` command per case above (set-up, run, log.csv,
metrics and plots), then the `desk` plan's four `design` commands of the
same seed (both models, two weight sets each; gain design, gains.csv and
the plot).  It reports the command's wall time in seconds and its peak
resident set in MB, both of its own (RUSAGE_SELF) and of the children it
waited for (RUSAGE_CHILDREN, such as a forked log.csv formatter).  The
script prints the best and the median time per side and the largest peak
RSS of each kind.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
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


def _time_command(src: str, argv: str, out: str) -> None:
    """Child mode: print [seconds, self peak RSS MB, children peak RSS MB]
    of one command, argv a JSON list without --out."""
    sys.path.insert(0, src)
    from steerkit import cli

    argv = json.loads(argv)
    t0 = time.perf_counter()
    rc = cli.main(argv + ["--out", out])
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    print(json.dumps([elapsed] + [resource.getrusage(who).ru_maxrss / 1024.0
                                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]))


def _run_commands(sides: dict, cases: list, rounds: int, work: Path) -> None:
    runs = {side: {name: [] for name, _ in cases} for side in sides}
    for i in range(rounds):
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            for name, argv in cases:
                proc = subprocess.run([sys.executable, __file__, "--command",
                                       str(sides[side] / "src"), json.dumps(argv),
                                       str(work / f"out_{side}_{name}")],
                                      capture_output=True, text=True, check=True)
                runs[side][name].append(json.loads(proc.stdout.splitlines()[-1]))
        print(f"  round {i + 1}/{rounds} done", file=sys.stderr)

    summary = {side: {name: {"best_s": min(r[0] for r in rs),
                             "median_s": statistics.median(r[0] for r in rs),
                             "self_rss_mb": max(r[1] for r in rs),
                             "children_rss_mb": max(r[2] for r in rs)}
                      for name, rs in by_case.items()} for side, by_case in runs.items()}
    print(f"{'case':<20}{'old best s':>11}{'new best s':>11}{'old med s':>10}{'new med s':>10}"
          f"{'new/old':>8}{'self MB old/new':>18}{'child MB old/new':>18}")
    for name, _ in cases:
        o, n = summary["old"][name], summary["new"][name]
        print(f"{name:<20}{o['best_s']:>11.3f}{n['best_s']:>11.3f}{o['median_s']:>10.3f}"
              f"{n['median_s']:>10.3f}{n['median_s'] / o['median_s']:>8.3f}"
              f"{o['self_rss_mb']:>9.1f}/{n['self_rss_mb']:<8.1f}"
              f"{o['children_rss_mb']:>9.1f}/{n['children_rss_mb']:<8.1f}")
    print(json.dumps({"unit": "s per command; MB", "rounds": rounds,
                      "summary": summary, "runs": runs}))


def _cases(new_root: Path, desk_seed: int, work: Path) -> tuple[list[list[str]], list]:
    """The simulate cases ([name, config]) and the desk plan's design
    commands ([name, argv without --out])."""
    configs = new_root / "src" / "steerkit" / "configs"
    cases = [[name, str(configs / f"{name}.json")] for name in SHIPPED]
    sys.path.insert(0, str(new_root / "bench"))
    import workloads

    plan = workloads.generate("desk", desk_seed, new_root, work)
    designs = [[cmd["name"], cmd["argv"][:cmd["argv"].index("--out")]]
               for cmd in plan["commands"] if cmd["kind"] == "design"]
    closed = json.loads((configs / "circle_10ms.json").read_text(encoding="utf-8"))
    closed["path"]["arc_deg"] = 360.0
    (work / "circle_10ms_360.json").write_text(json.dumps(closed), encoding="utf-8")
    return cases + [["c10_closed", str(work / "circle_10ms_360.json")]] + \
        [[f"desk_{name}", str(work / f"{name}.json")] for name in ("dyn", "kin")], designs


def main(argv=None) -> int:
    if argv is None and len(sys.argv) > 1 and sys.argv[1] == "--child":
        _time_cases(sys.argv[2], json.loads(sys.argv[3]))
        return 0
    if argv is None and len(sys.argv) > 1 and sys.argv[1] == "--command":
        _time_command(*sys.argv[2:5])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--desk-seed", type=int, default=1)
    ap.add_argument("--work", type=Path, default=Path(".compare_work") / "step_cost")
    ap.add_argument("--commands", action="store_true",
                    help="time whole simulate and desk design commands, with peak RSS")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    cases, designs = _cases(args.new_root.resolve(), args.desk_seed, args.work.resolve())
    sides = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    if args.commands:
        commands = [[name, ["simulate", config]] for name, config in cases] + designs
        _run_commands(sides, commands, args.rounds, args.work.resolve())
        return 0
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
    median = {side: {name: statistics.median(r[name][0] for r in runs) for name, _ in cases}
              for side, runs in rounds.items()}
    print(f"{'case':<14}{'rows':>8}{'old best':>10}{'new best':>10}{'new/old':>9}"
          f"{'old med':>10}{'new med':>10}{'new/old':>9}   (us per step)")
    for name, _ in cases:
        ob, nb, om, nm = best["old"][name], best["new"][name], median["old"][name], \
            median["new"][name]
        print(f"{name:<14}{rounds['new'][0][name][1]:>8}{ob:>10.2f}{nb:>10.2f}{nb / ob:>9.3f}"
              f"{om:>10.2f}{nm:>10.2f}{nm / om:>9.3f}")
    print(json.dumps({"unit": "us per sim step", "best_of": args.rounds, "best": best,
                      "median": median,
                      "rounds": {side: [{k: round(v[0], 3) for k, v in r.items()} for r in runs]
                                 for side, runs in rounds.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
