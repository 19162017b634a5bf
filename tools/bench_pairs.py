#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, one process at a time.

    python3 tools/bench_pairs.py PARENT --workload totality-nilpotent \\
        --seeds 901-910 --seconds 20

PARENT is a checkout of the parent commit (made with ``git clone`` or
``git archive``); the change is the checkout holding this tool.  Each
seed of the inclusive range gives one pair: ``perfbench/run.py`` runs the
workload with that seed and ``--trace 0`` in both checkouts, the parent
first on even pairs (counting from 0) and the change first on odd ones.
Runs never overlap, and each is a plain run in the inherited
environment: redirecting the bytecode cache (``PYTHONPYCACHEPREFIX``)
raised closure-j1's peak memory by 1.4 MiB, and not writing it makes
every set-up recompile a changed module.  The tool itself imports
nothing from the benchmark and writes no file.

For each end-to-end metric that the runs print, the tool prints every
pair, each side's median and quartiles, the distance between the
medians against the parent's quartile spread, and in how many pairs the
change read lower; ties count for neither side.  A metric that the
change checkout's ``BENCHMARK.json`` declares under ``end_to_end`` also
gets the relative move of the medians beside the declared bound, marked
WORSE when the change median is worse than the parent's by more than the
bound.  A run that exits nonzero or reports a wrong answer stops the
tool with its output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
RUNNER = Path("perfbench") / "run.py"


def seed_range(text):
    """The seeds of "FIRST-LAST", both included; at least two."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a seed range FIRST-LAST") from None
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            "quartiles need a range of at least two seeds")
    return seeds


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in checkout; its metrics as {name: (value,
    unit)}."""
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    # run.py exits 0 only when every answer was right
    if proc.returncode != 0:
        sys.exit(f"{checkout} seed {seed} failed (exit {proc.returncode}):"
                 f"\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: (metric["value"], metric["unit"])
            for name, metric in result["metrics"].items()}


def end_to_end_bounds(checkout):
    """{metric: (bound, better)} for each end-to-end metric that the
    BENCHMARK.json of checkout declares."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: (metric["bound"], metric["better"])
            for metric in declared["end_to_end"]}


def summary(values):
    """(first quartile, median, third quartile) of the values."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def report(name, unit, seeds, parent, change, bound=None):
    """The lines printed for one metric, given its values per pair and,
    when declared, its (bound, better) pair."""
    lines = [f"{name} ({unit})",
             f"  {'pair':>4} {'seed':>6} {'first':>6} {'parent':>10} "
             f"{'change':>10}"]
    for i, (seed, old, new) in enumerate(zip(seeds, parent, change)):
        first = "parent" if i % 2 == 0 else "change"
        lines.append(f"  {i:>4} {seed:>6} {first:>6} {old:>10.4f} "
                     f"{new:>10.4f}")
    stats = {"parent": summary(parent), "change": summary(change)}
    for side, (q1, median, q3) in stats.items():
        lines.append(f"  {side} median {median:.4f}, quartiles "
                     f"{q1:.4f}-{q3:.4f}")
    q1, old_median, q3 = stats["parent"]
    new_median = stats["change"][1]
    lower = sum(new < old for old, new in zip(parent, change))
    move = (new_median - old_median) / old_median
    lines.append(f"  medians differ by {new_median - old_median:+.4f} "
                 f"({move:+.1%}); "
                 f"parent quartile spread {q3 - q1:.4f}")
    lines.append(f"  change lower in {lower} of {len(parent)} pairs")
    if bound is not None:
        limit, better = bound
        worse = move > limit if better == "lower" else -move > limit
        verdict = "WORSE by more than the bound" if worse else "within"
        lines.append(f"  move {move:+.1%} against bound {limit:.0%}, "
                     f"{better} is better: {verdict}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        metavar="FIRST-LAST")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if not (args.parent / RUNNER).is_file():
        parser.error(f"{args.parent} holds no {RUNNER}")
    bounds = end_to_end_bounds(CHANGE)
    parent, change = [], []
    for i, seed in enumerate(args.seeds):
        order = [(args.parent, parent), (CHANGE, change)]
        for checkout, runs in order if i % 2 == 0 else order[::-1]:
            runs.append(run_once(checkout.resolve(), args.workload, seed,
                                 args.seconds))
        print(f"pair {i} (seed {seed}) done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, {len(args.seeds)} pairs, "
          f"--seconds {args.seconds:g}")
    for name, (_, unit) in parent[0].items():
        print("\n".join(report(name, unit, args.seeds,
                               [run[name][0] for run in parent],
                               [run[name][0] for run in change],
                               bounds.get(name))))


if __name__ == "__main__":
    main()
