"""One benchmark pass: run a list of steerkit commands in this process.

Usage: python3 bench/passrun.py SPEC.json

SPEC names the `src/` directory to import steerkit from, the commands
(argv lists for `steerkit.cli.main`), whether to trace, and where to write
the result.  Commands run one after another, each timed alone.  The
result holds each command's exit code and wall time, the peak resident
set of this process once the commands are done, and with tracing the
per-span summary (the raw spans go to SPEC's `spans` file).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import steerkit.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"steerkit imported from {cli.__file__}, not from {src}")

    tracer = None
    run = cli.main
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        run = tracer.wrap(cli.main, "cli.main")

    results = []
    for cmd in spec["commands"]:
        error = None
        t0 = time.perf_counter()
        try:
            rc = run(cmd["argv"])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crashing command is a failed command, the pass goes on
            rc = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        results.append({"name": cmd["name"], "rc": rc, "wall_s": wall, "error": error})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"commands": results, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        out["summary"] = tracer.summary()
        tracer.dump(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
