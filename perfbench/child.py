"""One benchmark process: set a workload up, then time passes over its cases.

run.py starts this in a fresh interpreter with askzeta's sources on the path:

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (set up, run the reference job once and stop), ``measure``
(passes with tracing off, between runs of the reference job) or ``trace``
(untraced and traced passes in turn, then the zpn kernel probes).
A pass runs every case once, one after another, through ``askzeta.cli.main``
with ``--jobs 1`` (the CLI default); each case writes its report to a file in
WORKDIR.  New passes start until SECONDS would be exceeded, and at least one
runs.  The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

from tracer import COUNT_METRICS, Tracer, span_cost_s

# zpn.lambdas_mod probe shapes: name, rows, columns, p, cap
PROBE_SHAPES = (
    ("3x3_p5_c1", 3, 3, 5, 1),
    ("5x5_p5_c2", 5, 5, 5, 2),
    ("6x6_p5_c2", 6, 6, 5, 2),
    ("8x8_p3_c3", 8, 8, 3, 3),
)
PROBE_MATRICES = 200
PROBE_REPEATS = 9
FAILURES_SHOWN = 5

# The reference job: modular elimination on fixed 6x6 matrices mod 5^3, in
# plain Python and without askzeta, so that no change to askzeta moves it.
# On a shared 2-vCPU Xeon VM the same pass ran a third slower for minutes at
# a time, so every time the benchmark reports is scaled by
# REFERENCE_NOMINAL_S / the reference job's time, measured in the same
# process next to it.
REFERENCE_MATRICES = 400
REFERENCE_ROUNDS = 22
REFERENCE_NOMINAL_S = 0.2


def _eliminate(a, p: int, pm: int) -> int:
    a = [row[:] for row in a]
    rows, cols = list(range(len(a))), list(range(len(a[0])))
    rank = 0
    while rows and cols:
        pivot = next(((i, j) for i in rows for j in cols if a[i][j] % p), None)
        if pivot is None:
            break
        i0, j0 = pivot
        u, r0 = a[i0][j0], a[i0]
        for i in rows:
            if i != i0 and a[i][j0]:
                f, ai = a[i][j0], a[i]
                for j in cols:
                    ai[j] = (u * ai[j] - f * r0[j]) % pm
        rows.remove(i0)
        cols.remove(j0)
        rank += 1
    return rank


_rng = random.Random(0)
_REFERENCE_INPUT = [
    [[_rng.randrange(125) for _ in range(6)] for _ in range(6)]
    for _ in range(REFERENCE_MATRICES)
]


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference job."""
    wall0, cpu0 = perf_counter(), process_time()
    seen = set()
    for _ in range(REFERENCE_ROUNDS):
        for a in _REFERENCE_INPUT:
            seen.add((_eliminate(a, 5, 125), tuple(a[0])))
    return perf_counter() - wall0, process_time() - cpu0


def run_pass(cases, workdir: Path):
    """Run every case once; return wall and CPU time, exit codes and reports."""
    from askzeta import cli

    outputs = [workdir / f"case{i:03d}.json" for i in range(len(cases))]
    for out in outputs:
        out.unlink(missing_ok=True)
    argvs = [[*case.argv, "--output", str(out)] for case, out in zip(cases, outputs)]
    main = cli.main  # looked up per pass: a traced pass wraps it
    codes = []
    wall0, cpu0 = perf_counter(), process_time()
    for argv in argvs:
        try:
            codes.append(main(argv))
        except Exception:  # a crash is a failed case, not a failed run
            traceback.print_exc()
            codes.append(None)
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    texts = [out.read_bytes() if out.exists() else None for out in outputs]
    return wall, cpu, codes, texts


def check_pass(cases, codes, texts) -> list[str]:
    """One message per case whose exit status or answer is wrong."""
    reports: dict[str, dict] = {}
    failures = []
    for case, code, text in zip(cases, codes, texts):
        try:
            report = json.loads(text) if text is not None else None
            reports[case.name] = report
            if code is None:
                error = "raised an exception"
            elif code != 0:
                error = f"exit code {code}"
            elif report is None:
                error = "wrote no report"
            else:
                error = case.check(report, reports) if case.check else None
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"malformed report: {exc!r}"
        if error:
            failures.append(f"{case.name}: {error}")
    return failures


def probe_lambdas_mod(seed: int) -> dict[str, float]:
    """Median microseconds per lambdas_mod call on seeded random matrices."""
    from askzeta.zpn import lambdas_mod

    rng = random.Random(seed)
    out = {}
    for name, rows, cols, p, cap in PROBE_SHAPES:
        pm = p**cap
        mats = [
            [[rng.randrange(pm) for _ in range(cols)] for _ in range(rows)]
            for _ in range(PROBE_MATRICES)
        ]
        samples = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            for a in mats:
                lambdas_mod(a, p, cap)
            samples.append((perf_counter() - t0) / PROBE_MATRICES * 1e6)
        out[f"zpn.probe_us.{name}"] = statistics.median(samples)
    return out


class Tally:
    def __init__(self, cases):
        self.cases = cases
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, codes, texts):
        self.attempted += len(self.cases)
        self.failures += check_pass(self.cases, codes, texts)

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:FAILURES_SHOWN],
        }


def measure(cases, workdir: Path, seconds: float) -> dict:
    """Passes with the reference job before the first and after each one.

    A pass's reference time is the mean of the two runs of the job around it.
    Peak memory is read after the first pass: the process grows by about
    0.1 MB a pass, and the number of passes depends on the machine's speed.
    """
    tally = Tally(cases)
    walls, cpus, ref_walls, ref_cpus = [], [], [], []
    start = perf_counter()
    before = reference()
    while True:
        wall, cpu, codes, texts = run_pass(cases, workdir)
        if not walls:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after = reference()
        tally.add(codes, texts)
        walls.append(wall)
        cpus.append(cpu)
        ref_walls.append((before[0] + after[0]) / 2)
        ref_cpus.append((before[1] + after[1]) / 2)
        before = after
        if perf_counter() - start + wall + after[0] > seconds:
            break
    return {
        **tally.result(),
        "wall_s": walls,
        "cpu_s": cpus,
        "reference_wall_s": ref_walls,
        "reference_cpu_s": ref_cpus,
        "peak_rss_mb": peak_rss_mb,
    }


def trace(cases, workdir: Path, seconds: float, seed: int) -> dict:
    """Untraced and traced passes in turn, then the kernel probes.

    ``trace.overhead_s`` is what tracing adds to one pass: the spans of a
    traced pass times the measured cost of one span (``span_cost_s``).  It is
    an estimate, not a difference of pass times, because the machine's noise
    from pass to pass is larger than the overhead on workloads with few spans.
    The median difference in CPU time between each traced pass and the
    untraced pass before it is returned alongside, as a check.
    """
    tracer = Tracer()
    tally = Tally(cases)
    untraced, traced, layers, spans, cpu_diffs = [], [], [], [], []
    reference = None
    identical = True
    start = perf_counter()
    while True:
        wall, cpu, codes, texts = run_pass(cases, workdir)
        tally.add(codes, texts)
        untraced.append(wall)
        if reference is None:
            reference = texts
        identical = identical and texts == reference

        tracer.clear()
        tracer.install()
        try:
            wall_t, cpu_t, codes, texts = run_pass(cases, workdir)
        finally:
            tracer.uninstall()
        tally.add(codes, texts)
        traced.append(wall_t)
        cpu_diffs.append(cpu_t - cpu)
        layers.append(tracer.layer_metrics())
        spans.append(len(tracer.site))
        identical = identical and texts == reference
        if perf_counter() - start + wall + wall_t > seconds:
            break
    tracer.write_spans(workdir.parent / f"spans-{workdir.name}.tsv")
    counts_repeat = all(run[k] == layers[0][k] for run in layers for k in COUNT_METRICS)
    counts_repeat = counts_repeat and len(set(spans)) == 1
    metrics = {
        k: layers[0][k] if k in COUNT_METRICS else statistics.median(run[k] for run in layers)
        for k in layers[0]
    }
    metrics.update(probe_lambdas_mod(seed))
    cost = span_cost_s()
    metrics["trace.overhead_s"] = spans[0] * cost
    return {
        **tally.result(),
        "identical_outputs": identical,
        "counts_repeat": counts_repeat,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": spans[0],
        "span_cost_us": cost * 1e6,
        "cpu_overhead_s": statistics.median(cpu_diffs),
        "layers": metrics,
    }


def main(argv) -> int:
    mode, workload, seed, seconds, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    t0 = perf_counter()
    import workloads  # imports askzeta: part of set-up

    cases = workloads.build(workload, seed, workdir)
    setup_s = perf_counter() - t0
    # the program's own prints must not mix with the result line
    with redirect_stdout(sys.stderr):
        if mode == "setup":
            result = {"reference_wall_s": reference()[0]}
        else:
            workloads.write_inputs(cases)
            if mode == "measure":
                result = measure(cases, workdir, seconds)
            else:
                result = trace(cases, workdir, seconds, seed)
    print(json.dumps({"setup_s": setup_s, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
