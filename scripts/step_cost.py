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
the log's rows (one row per sim step), in microseconds.

With --commands each round starts one fresh process per side and case,
which times one whole command through `cli.main` (into a scratch directory
under --work): a `simulate` command per case above (set-up, run, log.csv,
metrics and plots), the `track` plan's `parking` sweep (four initial
offsets, one member per forked worker), then the `desk` plan's `design`
and `margins` commands of the same seed (both models; gain design,
gains.csv and the plot; the frequency response, bode.csv and the plot).
It reports the command's wall time in seconds and its peak resident set
in MB, both of its own (VmHWM where /proc has it:
RUSAGE_SELF also keeps the peak of the process that spawned it) and of the
children it waited for (RUSAGE_CHILDREN, such as the forked log.csv
formatter).  It also reports, per command, the seconds spent in its
phases (`PHASES`): set-up (`cli._scenario_from_config`), the run
(`simkit.run_scenario`), the blocks the run process formats for the
forked formatter (`logfork.ForkedLog._take`, inside the run and the
wait), the CSV text the command's own process makes
(`numkit.write_csv_rows`: the serial log.csv, gains.csv and the takes, not
what a forked formatter or sweep worker makes), the plots
(`svgplot.render`) and the final wait for the formatter
(`logfork.ForkedLog.done`); and the run process's slowest token write to
the formatter (`logfork.ForkedLog._send`), in microseconds.

For each case the script prints each side's quartiles over the rounds
(q1, median, q3), the new/old ratio of the medians, how many rounds the new
side wins (its value below the old side's of the same round), and whether
the claim rule holds: at least 9 rounds in 10 won, and the old median
above the new one by more than the old side's interquartile range; with
--commands also the largest peak RSS of each kind, then each side's median
of each phase per case.  Then one JSON line with the summary and every
round's values.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SHIPPED = ("circle_10ms", "circle_3ms", "parking")
PHASES = ("setup", "run", "takes", "csv", "plots", "wait")   # a command's timed phases (_time_command)


def _pairs(old: list[float], new: list[float]) -> dict:
    """Each side's quartiles (q1, median, q3) over rounds paired by index, the
    rounds the new side wins (lower is better) and whether the claim rule
    holds: wins in at least 9 of 10 rounds, and a median gap wider than the
    old side's interquartile range."""
    q = {side: statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
         for side, v in (("old", old), ("new", new))}
    wins = sum(n < o for o, n in zip(old, new))
    return {"old": q["old"], "new": q["new"], "wins": wins, "rounds": len(old),
            "claim_met": wins >= 0.9 * len(old) and
            q["old"][1] - q["new"][1] > q["old"][2] - q["old"][0]}


def _report(unit: str, rows: list[tuple[str, list[float], list[float], str]]) -> dict:
    """Print one line per (case, old rounds, new rounds, extra text); return
    the _pairs of each case."""
    print(f"{'case':<20}{'old q1':>9}{'old med':>9}{'old q3':>9}{'new q1':>9}{'new med':>9}"
          f"{'new q3':>9}{'new/old':>8}{'wins':>7}  claim   ({unit})")
    out = {}
    for name, old, new, extra in rows:
        pr = out[name] = _pairs(old, new)
        print(f"{name:<20}" + "".join(f"{v:>9.3f}" for v in pr["old"] + pr["new"])
              + f"{pr['new'][1] / pr['old'][1]:>8.3f}{pr['wins']:>4}/{pr['rounds']:<3}"
              f"{'  met' if pr['claim_met'] else '  not met'}{extra}")
    return out


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


def _self_peak_mb() -> float:
    """This process's peak resident set: VmHWM where /proc has it, else ru_maxrss."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(owner, attr: str, spent: dict, key: str, slowest: bool = False) -> None:
    """Replace owner.attr by a wrapper that adds each call's seconds to
    spent[key], or keeps the slowest call's there."""
    real = getattr(owner, attr)

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t
            spent[key] = max(spent[key], dt) if slowest else spent[key] + dt

    setattr(owner, attr, timed)


def _time_command(src: str, argv: str, out: str) -> None:
    """Child mode: print [seconds, self peak RSS MB, children peak RSS MB,
    {phase: seconds, "token": slowest token write in seconds}] of one
    command, argv a JSON list without --out."""
    sys.path.insert(0, src)
    from steerkit import cli, logfork, numkit, simkit, svgplot

    spent = dict.fromkeys(PHASES + ("token",), 0.0)
    for name, (owner, attr) in zip(PHASES, (
            (cli, "_scenario_from_config"), (simkit, "run_scenario"), (logfork.ForkedLog, "_take"),
            (numkit, "write_csv_rows"), (svgplot, "render"), (logfork.ForkedLog, "done"))):
        _timed(owner, attr, spent, name)
    for owner in (simkit, logfork):   # modules that import write_csv_rows by name
        _timed(owner, "write_csv_rows", spent, "csv")
    _timed(logfork.ForkedLog, "_send", spent, "token", slowest=True)
    argv = json.loads(argv)
    t0 = time.perf_counter()
    rc = cli.main(argv + ["--out", out])
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    print(json.dumps([elapsed, _self_peak_mb(),
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, spent]))


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

    peak = {side: {name: {"self_rss_mb": max(r[1] for r in rs),
                          "children_rss_mb": max(r[2] for r in rs)}
                   for name, rs in by_case.items()} for side, by_case in runs.items()}
    summary = _report("s per command; peak MB self, children old/new", [
        (name, [r[0] for r in runs["old"][name]], [r[0] for r in runs["new"][name]],
         f"  self {peak['old'][name]['self_rss_mb']:.1f}/{peak['new'][name]['self_rss_mb']:.1f}"
         f"  children {peak['old'][name]['children_rss_mb']:.1f}/"
         f"{peak['new'][name]['children_rss_mb']:.1f}") for name, _ in cases])
    keys = PHASES + ("token",)
    phases = {side: {name: {k: statistics.median(r[3][k] for r in rs) for k in keys}
                     for name, rs in by_case.items()} for side, by_case in runs.items()}
    print(f"{'case':<20}" + "".join(f"{k:>16}" for k in keys)
          + "  (median s old/new; token: slowest write, us)")
    for name, _ in cases:
        pairs = ["/".join(f"{phases[side][name][k] * (1e6 if k == 'token' else 1.0):.3f}"
                          for side in ("old", "new")) for k in keys]
        print(f"{name:<20}" + "".join(f"{pair:>16}" for pair in pairs))
    print(json.dumps({"unit": "s per command; MB", "rounds": rounds, "summary": summary,
                      "peak_rss": peak, "phases": phases, "runs": runs}))


def _cases(new_root: Path, desk_seed: int, work: Path) -> tuple[list[list[str]], list]:
    """The simulate cases ([name, config]), and the track plan's sweep and
    the desk plan's design and margins commands ([name, argv without --out])."""
    configs = new_root / "src" / "steerkit" / "configs"
    cases = [[name, str(configs / f"{name}.json")] for name in SHIPPED]
    sys.path.insert(0, str(new_root / "bench"))
    import workloads

    def without_out(argv: list[str]) -> list[str]:
        at = argv.index("--out")
        return argv[:at] + argv[at + 2:]

    track = workloads.generate("track", 0, new_root, work)
    desk = workloads.generate("desk", desk_seed, new_root, work)
    commands = [[f"{cmd['name']}_sweep", without_out(cmd["argv"])]
                for cmd in track["commands"] if "--sweep" in cmd["argv"]]
    commands += [[cmd["name"], without_out(cmd["argv"])]
                 for cmd in desk["commands"] if cmd["kind"] in ("design", "margins")]
    closed = json.loads((configs / "circle_10ms.json").read_text(encoding="utf-8"))
    closed["path"]["arc_deg"] = 360.0
    (work / "circle_10ms_360.json").write_text(json.dumps(closed), encoding="utf-8")
    return cases + [["c10_closed", str(work / "circle_10ms_360.json")]] + \
        [[f"desk_{name}", str(work / f"{name}.json")] for name in ("dyn", "kin")], commands


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
                    help="time whole simulate, design and margins commands, with peak RSS")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    cases, commands = _cases(args.new_root.resolve(), args.desk_seed, args.work.resolve())
    sides = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    if args.commands:
        commands = [[name, ["simulate", config]] for name, config in cases] + commands
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

    summary = _report("us per sim step", [
        (name, [r[name][0] for r in rounds["old"]], [r[name][0] for r in rounds["new"]],
         f"  {rounds['new'][0][name][1]} rows") for name, _ in cases])
    print(json.dumps({"unit": "us per sim step", "rounds": args.rounds, "summary": summary,
                      "runs": {side: [{k: round(v[0], 3) for k, v in r.items()} for r in runs]
                               for side, runs in rounds.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
