"""askzeta benchmark: one workload, end to end or layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ask-wild --seed 1 --seconds 26 --trace 0

With ``--trace 0`` it reports the end-to-end metrics with tracing off:
``wall_s`` and ``cpu_s`` (mean wall and CPU time of one pass over the
workload's cases), ``peak_rss_mb`` and ``setup_s``.  With ``--trace 1`` it
reports the per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A wrong answer, a non-zero exit or a crash of a case counts as
failed; ``failed_frac`` is ``failed / attempted``.

``wall_s``, ``cpu_s`` and ``setup_s`` are seconds at a nominal machine speed:
each measured time is multiplied by ``REFERENCE_NOMINAL_S`` over the time of
a fixed reference job (``child.reference``) run in the same process next to
it.  The reference job does not use askzeta, so a change to askzeta moves
these times as it moves the raw ones, while a machine that runs everything a
third slower for a few minutes does not.  The raw times are printed above
the result line.

Every process here is a fresh interpreter that imports askzeta from ``src``:
SETUP_SAMPLES processes that only set the workload up (their median is
``setup_s``), then one process that sets up and times passes for
``--seconds``.  Case reports, byte-compiled files and the trace's spans go
to ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import REFERENCE_NOMINAL_S
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("ask-wild", "ask-deep", "groups", "catalog")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # the whole run must end within 180 s


def _child(mode: str, workload: str, seed: int, seconds: float, workdir: Path,
           deadline: float) -> dict:
    # byte-code is cached under .bench_build, so set-up times a cached import
    # whatever the caller's environment says
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
            str(seconds), str(workdir)]
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scaled_mean(times, reference_times) -> float:
    """Mean of the times, each scaled to the reference job's nominal speed."""
    return statistics.mean(t * REFERENCE_NOMINAL_S / r for t, r in zip(times, reference_times))


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = BUILD / "perfbench" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if traced:
        out = _child("trace", workload, seed, seconds, workdir, deadline)
        metrics = {name: _metric(out["layers"][name], unit) for name, unit, _, _ in LAYER_METRICS}
        correct = out["failed"] == 0 and out["identical_outputs"] and out["counts_repeat"]
        print(f"untraced wall_s per pass: {out['untraced_wall_s']}")
        print(f"traced wall_s per pass: {out['traced_wall_s']}")
        print(f"traced outputs byte-identical: {out['identical_outputs']}; "
              f"counts repeat: {out['counts_repeat']}")
        print(f"trace.overhead_s: {out['spans']} spans x {out['span_cost_us']} us; "
              f"median CPU time traced minus untraced: {out['cpu_overhead_s']} s")
    else:
        setups = [_child("setup", workload, seed, 0, workdir, deadline)
                  for _ in range(SETUP_SAMPLES)]
        out = _child("measure", workload, seed, seconds, workdir, deadline)
        setups.append({"setup_s": out["setup_s"], "reference_wall_s": out["reference_wall_s"][0]})
        # The mean, not the median, of the passes: the machine's speed drifts
        # over tens of seconds, and the median of a run that spans a slow and
        # a fast phase jumps from one to the other.
        metrics = {
            "wall_s": _metric(_scaled_mean(out["wall_s"], out["reference_wall_s"]), "s"),
            "cpu_s": _metric(_scaled_mean(out["cpu_s"], out["reference_cpu_s"]), "s"),
            "peak_rss_mb": _metric(out["peak_rss_mb"], "MB"),
            "setup_s": _metric(statistics.median(
                s["setup_s"] * REFERENCE_NOMINAL_S / s["reference_wall_s"] for s in setups), "s"),
        }
        correct = out["failed"] == 0
        print(f"wall_s per pass, unscaled: {out['wall_s']}")
        print(f"cpu_s per pass, unscaled: {out['cpu_s']}")
        print(f"reference job wall_s next to each pass: {out['reference_wall_s']}")
        print(f"setup_s samples, unscaled: {[s['setup_s'] for s in setups]}")
        print(f"reference job wall_s after each set-up: {[s['reference_wall_s'] for s in setups]}")
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_frac {out['failed'] / out['attempted']} "
          f"({out['failed']} of {out['attempted']} cases)")
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "askzeta" / "cli.py").is_file():
        print(f"askzeta sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
