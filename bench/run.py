"""Benchmark of the steerkit command line.

    python3 bench/run.py --workload track|desk --seed N --seconds S --trace 0|1

The repository root is the parent of this file's directory; steerkit is
imported from its `src/`, nothing is installed.  Scratch files go to
`.bench_work/` under the root.

One user, closed loop: each pass is one fresh single-threaded process
(`passrun.py`) that runs the workload's commands through
`steerkit.cli.main(argv)`, each starting after the previous one ends.
A run makes a fixed number of untraced passes: --seconds divided by the
workload's pass time on the seed commit (`workloads.PASS_SECONDS`), at
least three.  The count does not depend on the program's speed, so every
commit's fastest-of-N statistics use the same N.  Every command's exit
code and artifacts are checked after its pass (`workloads.Checker`); a
command that exits nonzero or fails a check counts as failed.

Workloads (inputs from --seed, see workloads.py):
  track  simulate the shipped circle_10ms, circle_3ms and parking
         (4-offset sweep) configs, then smooth parking_path.csv.
         Constant on-grid speed, noise-free: the per-step kernel and
         the log writer dominate; gain design runs only at set-up and
         runtime certification is bypassed.
  desk   design (both models, seeded weights), margins at seeded
         speeds and curvature on a generated 25k-sample log; then a
         dynamic-model run with a speed table, sensor noise and a
         rate-limited actuator, and a kinematic run with a speed table.
         Off-grid speeds make the gain lookup certify on the hot path.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s (a
fresh interpreter to steerkit.cli imported and its parser built: the
fastest of three imports, taken before the first pass and after every
untraced pass; the median of those), wall_s (one pass over the commands:
each command's fastest time over the run's passes, summed),
realtime_factor (simulated seconds over the same fastest times of the
simulate and smooth commands) and peak_rss_mb (peak resident set of a
pass process, median).
--trace 1 alternates untraced and traced passes, half as many of each
but at least two, and reports the per-layer metrics of BENCHMARK.json
from the traced ones (tracing.py).

Output: readable lines with every metric, its unit and sample count,
then one JSON line {"correct", "attempted", "failed", "metrics"}.  A
record with the environment and every pass is written to
.bench_work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3    # imports per sampling point; the fastest one counts
DEADLINE_S = 165.0   # the whole run, set-up included, stays well inside 180 s
MIN_PASSES = 3       # untraced passes per run, even when fewer fit in --seconds

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import steerkit.cli as cli; cli.build_parser()")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(env: dict, repeats: int = SETUP_REPEATS) -> float:
    """The fastest of `repeats` fresh-interpreter import times.

    The child is waited for without a timeout: subprocess's timed wait
    polls with sleeps of up to 50 ms, which would quantize the result.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).wait()
        if rc != 0:
            raise RuntimeError(f"importing steerkit.cli failed with exit code {rc}")
        times.append(time.perf_counter() - t0)
    return min(times)


def git_commit() -> str | None:
    """HEAD of the repository at ROOT; None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "steerkit").glob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_commit": git_commit(), "src_lines": src_lines}


class Bench:
    def __init__(self, workload: str, seed: int, reference: dict):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.plan = workloads.generate(workload, seed, ROOT, self.work)
        self.checker = workloads.Checker(reference)
        self.env = child_env()
        self.verdicts: dict[str, tuple[str, list[str]]] = {}   # name -> (fingerprint, errors)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, trace: bool, timeout: float) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        spec = {"src": str(SRC), "commands": self.plan["commands"], "trace": trace,
                "result": str(self.work / "pass_result.json"),
                "spans": str(self.work / "spans.npz")}
        spec_path = self.work / "pass_spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path = Path(spec["result"])
        result_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with open(self.work / "pass.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run([sys.executable, str(BENCH / "passrun.py"), str(spec_path)],
                                      env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(timeout, 1.0))
                ok = proc.returncode == 0 and result_path.is_file()
            except subprocess.TimeoutExpired:
                ok = False
        elapsed = time.perf_counter() - t0
        n = len(self.plan["commands"])
        self.attempted += n
        if not ok:
            self.failed += n
            self.failures.append(f"pass process failed; see {self.work / 'pass.log'}")
            return {"ok": False, "trace": trace, "elapsed_s": elapsed}
        res = json.loads(result_path.read_text(encoding="utf-8"))
        res.update({"ok": True, "trace": trace, "elapsed_s": elapsed})
        self._check(res)
        res["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        return res

    def _check(self, res: dict) -> None:
        """Exit codes, artifact checks, and byte-equal artifacts across passes.

        Artifacts byte-equal to the first pass's get the first pass's
        verdict; the checks run again only on artifacts that differ.
        """
        for cmd, r in zip(self.plan["commands"], res["commands"]):
            if r["rc"] != 0:
                errors = [f"{cmd['name']}: exit code {r['rc']}"
                          + (f"\n{r['error']}" if r["error"] else "")]
            else:
                fp = self.wl.fingerprint(cmd)
                first = self.verdicts.get(cmd["name"])
                if first is not None and first[0] == fp:
                    errors = list(first[1])
                else:
                    errors = self.checker.check(self.workload, self.plan, cmd)
                    if first is None:
                        self.verdicts[cmd["name"]] = (fp, errors)
                    else:
                        errors.append(f"{cmd['name']}: artifacts differ from the first pass")
            r["errors"] = errors
            if errors:
                self.failed += 1
                self.failures.extend(errors)
                continue
            if cmd["kind"] in ("simulate", "smooth"):
                r["work"] = self.wl.simulated_seconds(cmd)
            elif cmd["kind"] == "design":
                r["work"] = self.wl.gain_sets_written(cmd)
            elif cmd["kind"] == "curvature":
                r["work"] = self.wl.CURVATURE_SAMPLES
        res["wall_s"] = sum(r["wall_s"] for r in res["commands"])


RATES = {  # name: (unit, command kinds)
    "realtime_factor": ("sim_s/s", ("simulate", "smooth")),
    "gains_per_s": ("1/s", ("design",)),
    "curv_samples_per_s": ("1/s", ("curvature",)),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_run = time.perf_counter()

    if not (SRC / "steerkit" / "cli.py").is_file():
        print(f"bench: no steerkit sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"bench: unknown workload {args.workload!r}; one of {workload_names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))

    bench = Bench(args.workload, args.seed, reference)
    measure_setup(bench.env, 1)   # untimed: fills the bytecode cache
    # set-up samples spread over the run see the same CPU speed as the passes
    setup = [measure_setup(bench.env)]

    n_passes = max(MIN_PASSES, round(args.seconds / bench.wl.PASS_SECONDS[args.workload]))
    kinds = [False] * n_passes if not args.trace else [False, True] * max(2, n_passes // 2)
    passes = []
    t0 = time.perf_counter()
    for trace in kinds:
        remaining = DEADLINE_S - (time.perf_counter() - t_run)
        passes.append(bench.run_pass(trace, remaining))
        if not passes[-1]["ok"]:
            break
        if not trace:
            setup.append(measure_setup(bench.env))
        step = (time.perf_counter() - t0) / len(passes)
        if time.perf_counter() - t_run + 1.5 * step > DEADLINE_S:
            break   # the header line shows the passes made against those planned

    good = [p for p in passes if p["ok"]]
    plain = [p for p in good if not p["trace"]]
    traced = [p for p in good if p["trace"]]

    # ---------------------------------------------------------- metrics
    table: dict[str, tuple[float, str, int]] = {}   # name -> (value, unit, samples)
    med = statistics.median

    def put(name, values, unit):
        if values:
            table[name] = (med(values), unit, len(values))

    put("setup_s", setup, "s")
    # each command's fastest time over the run's passes: on a shared host
    # the CPU can run a third slower for episodes of seconds, and such an
    # episode only ever lengthens the command it falls into
    if plain:
        fastest = [min(times) for times in zip(*([c["wall_s"] for c in p["commands"]]
                                                 for p in plain))]
        table["wall_s"] = (sum(fastest), "s", len(plain))
        for name, (unit, rate_kinds) in RATES.items():
            picked = [i for i, c in enumerate(bench.plan["commands"]) if c["kind"] in rate_kinds]
            if picked:
                table[name] = (sum(plain[0]["commands"][i].get("work", 0.0) for i in picked)
                               / sum(fastest[i] for i in picked), unit, len(plain))
    put("peak_rss_mb", [p["peak_rss_mb"] for p in plain], "MB")
    table["error_rate"] = (bench.failed / bench.attempted if bench.attempted else 1.0,
                           "ratio", bench.attempted)

    consistent = True
    layer = {}
    if traced:
        import tracing

        per_pass = [tracing.layer_metrics(p["summary"]) for p in traced]
        for name, (_, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            if unit == "count" and len(set(values)) > 1:
                consistent = False
                bench.failures.append(f"count {name} differs between traced passes: {values}")
            put(name, values, unit)
        put("io.bytes_written", [p["bytes_written"] for p in traced], "bytes")
        put("traced_wall_s", [p["wall_s"] for p in traced], "s")
        if plain:
            base = med([p["wall_s"] for p in plain])
            table["trace_overhead_pct"] = (
                (med([p["wall_s"] for p in traced]) - base) / base * 100.0, "%", len(traced))
        layer = {n: table[f"{n}.self_s"][0] for n in tracing.LAYERS}

    correct = bench.failed == 0 and consistent and bool(good)

    # ---------------------------------------------------------- report
    print(f"steerkit bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} untraced, {len(traced)} traced, {len(kinds)} planned  "
          f"commands attempted={bench.attempted} failed={bench.failed}")
    for name, (value, unit, n) in table.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<8} n={n}")
    env = environment()
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    dominant = max(layer, key=layer.get) if layer else None
    if layer:
        traced_wall = table["traced_wall_s"][0]
        print(f"  self time by layer, share of traced wall_s ({traced_wall:.3f} s): "
              + ", ".join(f"{k} {v / traced_wall:.1%}" for k, v in layer.items())
              + f"; together {sum(layer.values()) / traced_wall:.1%}; dominant: {dominant}")
    for f in bench.failures[:20]:
        print(f"  FAILED {f}")

    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in want:
        if m["name"] in table:
            metrics[m["name"]] = {"value": table[m["name"]][0], "unit": m["unit"]}
        else:
            correct = False
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "setup_s": setup, "metrics": {k: {"value": v, "unit": u, "samples": n}
                                            for k, (v, u, n) in table.items()},
              "layer_self_s": layer, "dominant_layer": dominant, "failures": bench.failures,
              "passes": passes,
              "commands": bench.plan["commands"]}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
