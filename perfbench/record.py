"""Record one point of the bench trajectory: all four workloads, untraced and traced.

Run from the root of a checkout:

    python3 perfbench/record.py --label seed --seed 1

It runs run.py once per workload with tracing off and once with it on, each
for BENCHMARK.json's ``run_seconds``, and writes
perfbench/trajectory/BENCH_<label>.json with the run context (Python version,
processor count and model, commit, seed), every workload's case list and
reason, the map from layer metrics to the end-to-end metrics they should
move, and the results of both runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import BUILD, ROOT, SRC, WORKLOADS
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _case_lists(seed: int) -> dict[str, list[str]]:
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = BUILD / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    return {
        name: [" ".join(case.argv).replace(f"{workdir}{os.sep}", "")
               for case in workloads.build(name, seed, workdir)]
        for name in WORKLOADS
    }


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"log": lines[:-1], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    cases = _case_lists(args.seed)
    results = {}
    for w in bench["workloads"]:
        name = w["name"]
        results[name] = {
            "why": w["why"],
            "cases": cases[name],
            "untraced": _run(name, args.seed, seconds, 0),
            "traced": _run(name, args.seed, seconds, 1),
        }
        print(f"{name}: {json.dumps(results[name]['untraced']['result']['metrics'])}")
    point = {
        "label": args.label,
        "context": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "commit": _commit(),
            "seed": args.seed,
            "seconds": seconds,
            "jobs": 1,
        },
        "interactions": [
            {"metric": name, "unit": unit, "moves": moves, "on": on}
            for name, unit, moves, on in LAYER_METRICS
        ],
        "workloads": results,
    }
    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
