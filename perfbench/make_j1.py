#!/usr/bin/env python3
"""Regenerate perfbench/j1_266.json, the J1 generators the benchmark reads.

The generators come from the functions of tools/generate_j1.py: an
L2(11) subgroup of J1 < GL(7, 11) found with the tool's fixed RNG seed,
then the orbit of its fixed vector (or, when there is none, the right
cosets of the subgroup).  The result is two image lists on 266 points.
The benchmark checks the order and the subdegrees at set-up, so this
script never runs during a benchmark.  It takes about a minute:

    python3 perfbench/make_j1.py
"""

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

import generate_j1 as tool  # noqa: E402

OUT = Path(__file__).resolve().parent / "j1_266.json"


def main():
    start = time.perf_counter()
    l_elems = tool.find_l211(random.Random(tool.SEED))
    vec = tool.fixed_vector(l_elems)
    if vec is not None:
        route = "orbit_action(fixed_vector(find_l211(Random(SEED))))"
        n, py, pz = tool.orbit_action(vec)
    else:
        route = "coset_action(find_l211(Random(SEED)))"
        n, py, pz = tool.coset_action(l_elems)
    if n != 266:
        raise SystemExit(f"orbit has size {n}, expected 266")
    data = {
        "name": "J1 on 266 points",
        "degree": n,
        "order": 175560,
        "subdegrees": [1, 11, 12, 110, 132],
        "generators": [py, pz],
        "made_by": "perfbench/make_j1.py from tools/generate_j1.py: "
                   + route + f", SEED={tool.SEED}; 0-indexed image lists",
        "orbit_vector": list(vec) if vec is not None else None,
    }
    OUT.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {OUT} in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
