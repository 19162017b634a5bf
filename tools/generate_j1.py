"""J1 inside GL(7, 11) and its action on 266 points.

Functions that build J1 from Janko's two generator matrices over GF(11)
and recover the degree-266 permutation action on the right cosets of an
L2(11) subgroup.  ``perfbench/make_j1.py`` calls them to write
``perfbench/j1_266.json``:

- ``find_l211(random.Random(SEED))`` finds the L2(11) subgroup;
- ``fixed_vector`` looks for a vector it fixes, and ``orbit_action``
  acts on that vector's orbit;
- ``coset_action`` acts on the right cosets, keyed by their least
  member, when no vector is fixed, as for the subgroup that SEED finds.

The RNG seed is fixed, so every call reproduces the same generators.
"""

import random

P = 11
DIM = 7
SEED = 175560

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
