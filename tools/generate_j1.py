#!/usr/bin/env python3
"""Generate the bundled J1 data file.

Builds J1 inside GL(7, 11) from the classical pair of generator
matrices, recovers the degree-266 permutation action on the right cosets
of an L2(11) subgroup, and enumerates the conjugacy class data that the
test suite and the Q-hat checks consume.  The cosets are keyed by their
least member (``coset_action``): the L2(11) found with the fixed seed
fixes no vector, so the run prints "no fixed vector; falling back to
coset keys".  The fixed-vector route (``fixed_vector``, ``orbit_action``)
is tried first and kept for a subgroup that does fix one.  The
output lands in src/twoclosure/data/j1_degree266.json.

Everything is rederived on every run and checked against structural
certificates (group order, class equation, orbit sizes, subgroup
lattice depths) before anything is written.  The RNG seed is fixed, so
reruns reproduce the file byte for byte.

Run from the repository root:

    python3 tools/generate_j1.py
"""

import json
import random
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twoclosure.basesize import two_point_stabilizer_gcd
from twoclosure.group import PermGroup
from twoclosure.perm import Permutation
from twoclosure.subgroups import small_generating_set, subgroup_classes

P = 11
DIM = 7
SEED = 175560
OUT = ROOT / "src" / "twoclosure" / "data" / "j1_degree266.json"

# Janko's two generator matrices for J1 over GF(11): the cyclic shift Y
# and the matrix Z with entries in {-3..3}.  Row-major tuples; the group
# acts on row vectors by right multiplication.
MATRIX_Y = tuple(1 if j == (i + 1) % DIM else 0
                 for i in range(DIM) for j in range(DIM))
_Z_ROWS = (
    (-3, 2, -1, -1, -3, -1, -3),
    (-2, 1, 1, 3, 1, 3, 3),
    (-1, -1, -3, -1, -3, -3, 2),
    (-1, -3, -1, -3, -3, 2, -1),
    (-3, -1, -3, -3, 2, -1, -1),
    (1, 3, 3, -2, 1, 1, 3),
    (3, 3, -2, 1, 1, 3, 1),
)
MATRIX_Z = tuple(e % P for row in _Z_ROWS for e in row)
MAT_ID = tuple(1 if i == j else 0 for i in range(DIM) for j in range(DIM))


def mat_mul(a, b):
    out = [0] * (DIM * DIM)
    for i in range(DIM):
        ai = i * DIM
        for k in range(DIM):
            v = a[ai + k]
            if v:
                bk = k * DIM
                for j in range(DIM):
                    out[ai + j] = (out[ai + j] + v * b[bk + j]) % P
    return tuple(out)


def mat_order(m, cap=120):
    acc = m
    for k in range(1, cap + 1):
        if acc == MAT_ID:
            return k
        acc = mat_mul(acc, m)
    raise RuntimeError(f"element order exceeds {cap}; wrong matrices?")


def mat_pow(m, k):
    acc = MAT_ID
    base = m
    while k:
        if k & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        k >>= 1
    return acc


def vec_mul(v, m):
    return tuple(sum(v[i] * m[i * DIM + j] for i in range(DIM)) % P
                 for j in range(DIM))


def closure_capped(gens, cap):
    """All products of gens, or None once more than cap appear."""
    seen = {MAT_ID}
    frontier = [MAT_ID]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def make_rattle(gens, rng, slots=10, burn=60):
    state = [gens[i % len(gens)] for i in range(slots)]
    acc = [gens[0]]

    def step():
        i = rng.randrange(slots)
        j = rng.randrange(slots - 1)
        if j >= i:
            j += 1
        state[i] = mat_mul(state[i], state[j])
        acc[0] = mat_mul(acc[0], state[i])

    for _ in range(burn):
        step()

    def draw():
        step()
        step()
        return acc[0]

    return draw


def find_l211(rng):
    """An L2(11) subgroup of <Y, Z> as a set of matrices.

    Hunts for an involution a and an order-3 element b with ab of order
    11; inside J1 such a pair generates a subgroup with elements of
    orders 2, 3 and 11, and the only such subgroups are the L2(11)
    conjugates and J1 itself, so a capped closure of 660 settles it.
    """
    draw = make_rattle([MATRIX_Y, MATRIX_Z], rng)
    invs, thirds = [], []
    tried = set()
    for _ in range(4000):
        g = draw()
        m = mat_order(g)
        if m % 2 == 0:
            a = mat_pow(g, m // 2)
            if a not in invs:
                invs.append(a)
        if m % 3 == 0:
            b = mat_pow(g, m // 3)
            if b not in thirds:
                thirds.append(b)
        for a in invs[-4:]:
            for b in thirds[-4:]:
                if (a, b) in tried:
                    continue
                tried.add((a, b))
                if mat_order(mat_mul(a, b)) != 11:
                    continue
                got = closure_capped([a, b], 661)
                if got is not None and len(got) == 660:
                    return got
    raise RuntimeError("no L2(11) subgroup found; wrong matrices?")


def fixed_vector(sub):
    """A nonzero row vector fixed by every matrix in sub, or None.

    Solves v (g - 1) = 0 for two generators at once by eliminating on
    the transposed stacked system.
    """
    gens = small_matrix_gens(sub)
    rows = []
    for g in gens:
        for j in range(DIM):
            rows.append(tuple((g[i * DIM + j] - (1 if i == j else 0)) % P
                              for i in range(DIM)))
    # Gaussian elimination on the rows; kernel of the column space.
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(DIM):
        sel = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                sel = k
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], P - 2, P)
        rows[r] = [(x * inv) % P for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(rows[k][i] - f * rows[r][i]) % P
                           for i in range(DIM)]
        pivots.append(c)
        r += 1
    free = [c for c in range(DIM) if c not in pivots]
    if not free:
        return None
    if len(free) > 1:
        raise RuntimeError("fixed space has dimension > 1; wrong subgroup?")
    c0 = free[0]
    v = [0] * DIM
    v[c0] = 1
    for k, c in enumerate(pivots):
        v[c] = (-rows[k][c0]) % P
    lead = next(x for x in v if x)
    inv = pow(lead, P - 2, P)
    return tuple((x * inv) % P for x in v)


def small_matrix_gens(sub):
    """Two or three matrices generating the given matrix group."""
    elems = sorted(sub)
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        got = closure_capped([a, b], len(sub) + 1)
        if got is not None and len(got) == len(sub):
            return [a, b]
    raise RuntimeError("no small generating pair found")


def orbit_action(seed_vec):
    """BFS orbit of seed_vec under Y and Z, with the two permutations."""
    idx = {seed_vec: 0}
    reps = [seed_vec]
    head = 0
    while head < len(reps):
        vec = reps[head]
        for m in (MATRIX_Y, MATRIX_Z):
            w = vec_mul(vec, m)
            if w not in idx:
                idx[w] = len(reps)
                reps.append(w)
        head += 1
    n = len(reps)
    py = [idx[vec_mul(reps[a], MATRIX_Y)] for a in range(n)]
    pz = [idx[vec_mul(reps[a], MATRIX_Z)] for a in range(n)]
    return n, py, pz


def coset_action(l_elems):
    """Fallback when no fixed vector exists: act on right cosets keyed
    by their lexicographically least member."""
    ordered = sorted(l_elems)

    def key(g):
        return min(mat_mul(x, g) for x in ordered)

    start = key(MAT_ID)
    idx = {start: 0}
    reps = [MAT_ID]
    head = 0
    while head < len(reps):
        g = reps[head]
        for m in (MATRIX_Y, MATRIX_Z):
            h = mat_mul(g, m)
            kh = key(h)
            if kh not in idx:
                idx[kh] = len(reps)
                reps.append(h)
        head += 1
    n = len(reps)
    py = [idx[key(mat_mul(reps[a], MATRIX_Y))] for a in range(n)]
    pz = [idx[key(mat_mul(reps[a], MATRIX_Z))] for a in range(n)]
    return n, py, pz


def enc(images):
    return array("H", images).tobytes()


def conjugate_tuple(x, s):
    out = [0] * len(x)
    for a in range(len(x)):
        out[s[a]] = s[x[a]]
    return tuple(out)


def class_orbit(rep_images, gen_images, track):
    """The conjugacy class of rep as a set of encoded tuples.

    With track=True also returns {encoded element: conjugator images t}
    where rep^t is that element (apply-t-after-rep convention matching
    Permutation composition).
    """
    start = tuple(rep_images)
    seen = {enc(start)}
    certs = {}
    ident = tuple(range(len(start)))
    frontier = [(start, ident)] if track else [start]
    while frontier:
        nxt = []
        for node in frontier:
            x, t = node if track else (node, None)
            for s in gen_images:
                y = conjugate_tuple(x, s)
                yb = enc(y)
                if yb in seen:
                    continue
                seen.add(yb)
                if track:
                    t2 = tuple(s[t[a]] for a in range(len(t)))
                    certs[yb] = t2
                    nxt.append((y, t2))
                else:
                    nxt.append(y)
        frontier = nxt
    return seen, certs


def main():
    t0 = time.time()
    say = lambda msg: print(f"[{time.time() - t0:7.1f}s] {msg}", flush=True)

    assert mat_order(MATRIX_Y) == 7
    order_z = mat_order(MATRIX_Z)
    if order_z != 5:
        raise RuntimeError(f"Z has order {order_z}, expected 5; "
                           "matrix entries are wrong")
    say("matrix generators pass the order checks (7 and 5)")

    rng = random.Random(SEED)
    l_elems = find_l211(rng)
    say(f"found an L2(11) subgroup ({len(l_elems)} matrices)")

    v = fixed_vector(l_elems)
    if v is not None:
        say(f"L2(11) fixes the vector {v}; taking its orbit")
        n, py, pz = orbit_action(v)
    else:
        say("no fixed vector; falling back to coset keys")
        n, py, pz = coset_action(l_elems)
    if n != 266:
        raise RuntimeError(f"orbit has size {n}, expected 266")
    say("orbit of size 266 enumerated")

    group = PermGroup(266, [Permutation(py), Permutation(pz)], name="J1-266")
    order = group.order()
    if order != 175560:
        raise RuntimeError(f"group order {order}, expected 175560")
    say("stabilizer chain confirms order 175560")

    stab = group.point_stabilizer(0)
    assert stab.order() == 660
    suborbits = sorted(len(o) for o in stab.orbits())
    assert suborbits == [1, 11, 12, 110, 132], suborbits
    gcd_value = two_point_stabilizer_gcd(group)
    assert gcd_value == 1, gcd_value
    say("point stabilizer has order 660; subdegrees 1,11,12,110,132; "
        "two-point stabilizer gcd 1")

    # Maximal subgroups of the point stabilizer, via its faithful
    # degree-11 restriction.
    orb11 = sorted(o for o in stab.orbits() if len(o) == 11)[0]
    orb11 = sorted(orb11)
    pos11 = {p: i for i, p in enumerate(orb11)}
    stab11 = stab.restriction(orb11)
    assert stab11.order() == 660
    stab_elems = list(stab.elements(budget=700))
    assert len(stab_elems) == 660
    lift = {}
    for m in stab_elems:
        key = tuple(pos11[m.images[p]] for p in orb11)
        lift[key] = m
    assert len(lift) == 660
    say("restricted the point stabilizer faithfully to 11 points")

    table = subgroup_classes(stab11, order_bound=660)
    say(f"subgroup lattice of L2(11): {len(table)} classes")
    maximal_sets = [frozenset(x.images
                              for x in table.representatives[i].elements(
                                  budget=661))
                    for i in range(len(table)) if table.depths[i] == 1]
    maximal_sets.sort(key=lambda s: (-len(s), sorted(s)))
    orders = [len(s) for s in maximal_sets]
    if orders != [60, 60, 55, 12]:
        raise RuntimeError(f"maximal subgroup orders {orders}, "
                           "expected [60, 60, 55, 12]")
    labels = ["a5a", "a5b", "f55", "d12"]
    names = ["A5 (first class)", "A5 (second class)", "11:5", "D12"]
    say("maximal subgroup classes have orders 60, 60, 55, 12")

    maximals = []
    for label, name, sub in zip(labels, names, maximal_sets):
        elems = [lift[t] for t in sorted(sub)]
        gens11 = small_generating_set(sorted(sub), 11)
        gens = [lift[t] for t in gens11]
        hgroup = PermGroup(266, gens, name=name)
        assert hgroup.order() == len(sub)
        assert hgroup.is_subgroup_of(group)
        maximals.append({
            "label": label,
            "name": name,
            "order": len(sub),
            "gens": [list(g.images) for g in gens],
            "elem_bytes": {enc(e.images) for e in elems},
            "fives": {enc(e.images): e for e in elems if e.order() == 5},
        })
    say("lifted the four maximal subgroups back to 266 points")

    # Conjugacy classes of the whole group, by conjugation orbits.
    crng = random.Random(SEED + 1)
    pool = [Permutation.identity(266)]
    pool += [group.random_element(crng) for _ in range(2500)]
    done = [False] * len(pool)
    gen_images = [tuple(g.images) for g in group.generators]
    classes = []
    total = 0
    for i, cand in enumerate(pool):
        if total == 175560:
            break
        if done[i]:
            continue
        rep = cand
        track = rep.order() == 5
        seen, certs = class_orbit(rep.images, gen_images, track)
        size = len(seen)
        for j in range(i, len(pool)):
            if not done[j] and enc(pool[j].images) in seen:
                done[j] = True
        counts = {}
        five_transporters = {}
        for m in maximals:
            counts[m["label"]] = sum(1 for b in m["elem_bytes"] if b in seen)
            if track:
                hits = sorted(b for b in m["fives"] if b in seen)
                five_transporters[m["label"]] = [list(certs[b]) if b in certs
                                                 else list(range(266))
                                                 for b in hits]
        classes.append({
            "order": rep.order(),
            "size": size,
            "rep": list(rep.images),
            "counts": counts,
            "five_transporters": five_transporters if track else None,
        })
        total += size
        say(f"class of element order {rep.order()}: size {size} "
            f"(running total {total})")
    if total != 175560:
        raise RuntimeError(f"class sizes sum to {total}; enlarge the pool")
    say(f"class equation closes: {len(classes)} classes, sum 175560")

    classes.sort(key=lambda c: (c["order"], c["size"], c["rep"]))
    letters = {}
    for c in classes:
        k = c["order"]
        c["label"] = f"{k}{'abcdefgh'[letters.get(k, 0)]}"
        letters[k] = letters.get(k, 0) + 1

    profile = {}
    for c in classes:
        profile[c["order"]] = profile.get(c["order"], 0) + 1
    say(f"class profile (element order: class count): {profile}")
    for k, want in ((2, 1), (3, 1), (5, 2), (7, 1), (11, 1), (19, 3)):
        if profile.get(k) != want:
            raise RuntimeError(f"expected {want} classes of order {k}, "
                               f"found {profile.get(k)}")

    prime_classes = [c for c in classes
                     if c["order"] in (2, 3, 5, 7, 11, 19)]
    for c in prime_classes:
        if 175560 % c["size"]:
            raise RuntimeError("class size does not divide the order")
    for c in classes:
        if c["order"] == 19:
            assert all(v == 0 for v in c["counts"].values())

    # The Q-hat(J1, H, 2) values straight from the counts, as a final
    # gate before writing: every one of them must be below 1.
    for m in maximals:
        value = Fraction(0)
        for c in prime_classes:
            value += Fraction(c["counts"][m["label"]] ** 2, c["size"])
        say(f"Q-hat(J1, {m['name']}, 2) = {value} ~ {float(value):.4f}")
        assert value < 1

    data = {
        "format": 1,
        "name": "J1 on 266 points",
        "degree": 266,
        "order": 175560,
        "generators": [py, pz],
        "point_stabilizer_order": 660,
        "subdegrees": [1, 11, 12, 110, 132],
        "two_point_stabilizer_gcd": 1,
        "construction": {
            "field": P,
            "dimension": DIM,
            "matrix_y": list(MATRIX_Y),
            "matrix_z": list(MATRIX_Z),
            "orbit_vector": list(v) if v is not None else None,
            "note": "right multiplication action of the two matrices on "
                    "the orbit of orbit_vector, points in BFS order",
            "seed": SEED,
        },
        "classes": [{
            "label": c["label"],
            "order": c["order"],
            "size": c["size"],
            "centralizer_order": 175560 // c["size"],
            "rep": c["rep"] if c["order"] in (2, 3, 5, 7, 11, 19) else None,
        } for c in classes],
        "point_stabilizer_maximals": [{
            "label": m["label"],
            "name": m["name"],
            "order": m["order"],
            "generators": m["gens"],
            "class_counts": {c["label"]: c["counts"][m["label"]]
                             for c in prime_classes},
        } for m in maximals],
        "five_transporters": {
            c["label"]: {m["label"]: c["five_transporters"][m["label"]]
                         for m in maximals}
            for c in classes if c["order"] == 5
        },
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    say(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
