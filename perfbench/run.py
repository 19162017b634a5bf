#!/usr/bin/env python3
"""Benchmark of the twoclosure package: one workload per run.

    python3 perfbench/run.py --workload closure-j1 --seed 0 --seconds 20 \\
        --trace 0

Run it from the root of a checkout; it imports the package from that
checkout's src/.  Set-up (import the package, build the inputs from the
seed, verify them) is repeated SETUP_REPS times and timed.  Then whole
passes over the workload's inputs run back to back, one input at a time
in this one thread, while the next pass still fits in --seconds; at
least one pass runs.  Every answer is checked against the expected one.

With --trace 0 the end-to-end metrics are reported: medians over the
set-ups and over the passes, and the peak resident memory of the process.
Times are process CPU seconds.  The package is single-threaded and does
no I/O while solving, so wall time adds only the time the host takes the
CPU away.  Over ten runs on a shared 2-vCPU virtual machine the quartile
spread of wall time was 7-18% of its median, that of CPU time 2-3%.  The median wall time of a pass is printed
as well.  With --trace 1 one more pass runs under the tracer; its
per-layer metrics are reported, its spans are written to perfbench/out/,
and its CPU time minus the untraced median is the tracing overhead.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
answer was right.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "twoclosure"
SETUP_REPS = 9
SETUP_BUDGET_S = 10.0

END_TO_END = [("setup_s", "s"), ("solve_cpu_s", "s"), ("peak_rss_mb", "MiB")]


def import_package():
    """Import the package afresh from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    where = Path(pkg.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"{PACKAGE} was imported from {where}, not {SRC}")
    return pkg


def set_up(make_cases, seed):
    """Import, build and verify SETUP_REPS times (fewer once the set-ups
    have taken SETUP_BUDGET_S, three at least).  Returns the cases of the
    last set-up and every set-up's CPU time."""
    times = []
    while True:
        start = time.process_time()
        import_package()
        cases = make_cases(seed)
        times.append(time.process_time() - start)
        if len(times) >= SETUP_REPS or (len(times) >= 3
                                        and sum(times) > SETUP_BUDGET_S):
            return cases, times


def run_pass(cases, solve, tracer=None):
    """Solve every case once.  Returns (wall s, cpu s, outcomes), each
    outcome a (label, ok, detail, counters or None) tuple."""
    outcomes = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for case in cases:
        scope = tracer.case(case.label) if tracer else None
        try:
            if scope:
                with scope:
                    ok, detail = solve(case)
            else:
                ok, detail = solve(case)
        except Exception as exc:  # a crash is a failed input
            ok, detail = False, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        outcomes.append((case.label, ok, detail,
                         scope.counters if scope else None))
    return (time.perf_counter() - wall0, time.process_time() - cpu0,
            outcomes)


def measure(cases, solve, seconds):
    """Untraced passes while the next one still fits in seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cases, solve))
        last_wall = passes[-1][0]
        failed = any(not ok for _, ok, _, _ in passes[-1][2])
        if failed or time.perf_counter() - start + last_wall > seconds:
            return passes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cases, setup_times = set_up(workloads.WORKLOADS[args.workload],
                                args.seed)
    passes = measure(cases, workloads.solve, args.seconds)
    solve_wall = statistics.median(p[0] for p in passes)
    solve_cpu = statistics.median(p[1] for p in passes)
    outcomes = [o for p in passes for o in p[2]]
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} "
          f"inputs, {len(passes)} passes, {len(setup_times)} set-ups; "
          f"median wall time of a pass {solve_wall:.4f} s")
    for label, ok, detail, _ in passes[-1][2]:
        print(f"  {label}: {'ok' if ok else 'FAILED'} ({detail})")

    if args.trace:
        with Tracer() as tracer:
            wall, cpu, traced = run_pass(cases, workloads.solve, tracer)
        outcomes += traced
        if tracer.missing:
            print(f"not traced, absent from the package: "
                  f"{', '.join(tracer.missing)}")
        values = tracer.metrics(cpu - solve_cpu)
        units = dict(PER_LAYER)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {
            "workload": args.workload, "seed": args.seed,
            "untraced_wall_s": solve_wall, "traced_wall_s": wall,
            "untraced_cpu_s": solve_cpu, "traced_cpu_s": cpu,
            "not_traced": tracer.missing,
            "inputs": [{"label": label, "ok": ok, "detail": detail,
                        "counters": counters}
                       for label, ok, detail, counters in traced],
        })
        print(f"traced pass {cpu:.4f} s CPU ({wall:.4f} s wall), untraced "
              f"median {solve_cpu:.4f} s CPU ({solve_wall:.4f} s wall); "
              f"tracing overhead {cpu - solve_cpu:.4f} s CPU; spans in {path}")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "solve_cpu_s": solve_cpu,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    failed = sum(1 for _, ok, _, _ in outcomes if not ok)
    attempted = len(outcomes)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} inputs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
