"""Brute-force oracles used only by the test suite.

Everything here works on raw image tuples and exhaustive element sets,
never through the package's stabilizer chains or backtrack searches, so
oracle results are independent of the code under test.
"""

import itertools
from fractions import Fraction


def compose(p, q):
    """Apply p then q, both image tuples."""
    return tuple(q[v] for v in p)


def inverse(p):
    out = [0] * len(p)
    for a, v in enumerate(p):
        out[v] = a
    return tuple(out)


def identity(n):
    return tuple(range(n))


def mulclose(gens, limit=None):
    """The set of all products of the generators, as image tuples."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return {()}
    n = len(gens[0])
    elements = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if limit is not None and len(elements) > limit:
                        raise RuntimeError("mulclose limit exceeded")
        frontier = new
    return elements


def oracle_order(gens):
    return len(mulclose(gens))


def oracle_contains(gens, p):
    return tuple(p) in mulclose(gens)


def oracle_normal_closure(gens, seeds):
    elements = mulclose(gens)
    conj = {compose(compose(inverse(g), tuple(s)), g)
            for s in seeds for g in elements}
    return mulclose(conj)


def oracle_conjugacy_classes(gens):
    """List of frozensets partitioning the group."""
    elements = mulclose(gens)
    left = set(elements)
    classes = []
    while left:
        x = left.pop()
        cls = {compose(compose(inverse(g), x), g) for g in elements}
        left -= cls
        classes.append(frozenset(cls))
    return classes


def oracle_core(g_elements, h_elements):
    """Largest normal subgroup of G contained in H, as a set."""
    core = set(h_elements)
    for g in g_elements:
        gi = inverse(g)
        core &= {compose(compose(gi, h), g) for h in h_elements}
    return core


def oracle_subconjugate(g_elements, h_elements, k_elements):
    """Whether H lies in some conjugate K^g of K, all three as element
    sets."""
    h_set = set(h_elements)
    return any(h_set <= {compose(compose(inverse(g), k), g)
                         for k in k_elements} for g in g_elements)


def block_partition(gens, n, a, b):
    """The finest partition of 0..n-1 that the generators preserve and
    that puts a and b in one cell, as sorted tuples in order of their
    least points (union-find closing the pair under the generators)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pairs = [(a, b)]
    while pairs:
        x, y = (find(p) for p in pairs.pop())
        if x != y:
            parent[max(x, y)] = min(x, y)
            pairs += [(g[x], g[y]) for g in gens]
    cells = {}
    for p in range(n):
        cells.setdefault(find(p), []).append(p)
    return [tuple(cell) for cell in cells.values()]


def oracle_pair_orbits(gens, n):
    """Partition of all ordered pairs into orbits; dict pair -> orbit id."""
    gens = [tuple(g) for g in gens]
    color = {}
    next_color = 0
    for a in range(n):
        for b in range(n):
            if (a, b) in color:
                continue
            frontier = [(a, b)]
            color[(a, b)] = next_color
            while frontier:
                new = []
                for (x, y) in frontier:
                    for g in gens:
                        pair = (g[x], g[y])
                        if pair not in color:
                            color[pair] = next_color
                            new.append(pair)
                frontier = new
            next_color += 1
    return color


def _equitable(color, n, cells):
    """The coarsest equitable partition finer than cells, as a list of
    sorted lists in no fixed order.

    Equitable: any two points x, y of one cell see every cell with the
    same multiset of colors of (w, x) over w in it.  Each round gives
    every point the signature (its cell, the multiset of (cell of w,
    color of (w, x)) over all points w) and splits the cells by it; a
    round that splits nothing ends the refinement.
    """
    while True:
        cell_of = {x: i for i, cell in enumerate(cells) for x in cell}
        groups = {}
        for x in range(n):
            seen = sorted((cell_of[w], color[(w, x)]) for w in range(n))
            groups.setdefault((cell_of[x], tuple(seen)), []).append(x)
        if len(groups) == len(cells):
            return [sorted(cell) for cell in cells]
        cells = list(groups.values())


def oracle_refinement_bound(color, n, base):
    """Individualize the base points in turn from the orbits, refining to
    equitable after each, as (product of the sizes of the cells the base
    points were split from, whether the last partition is discrete).

    color is a pair-orbit coloring such as oracle_pair_orbits gives; the
    orbits are the classes of its diagonal colors.  A closure element
    fixing the first base points fixes the partition they refine to, so
    the product bounds the order of the 2-closure when the last
    partition is discrete.
    """
    orbits = {}
    for a in range(n):
        orbits.setdefault(color[(a, a)], []).append(a)
    cells = _equitable(color, n, list(orbits.values()))
    product = 1
    for b in base:
        cell = next(cell for cell in cells if b in cell)
        product *= len(cell)
        cells = [c for c in cells if c is not cell]
        cells += [[b], [x for x in cell if x != b]]
        cells = _equitable(color, n, [c for c in cells if c])
    return product, all(len(cell) == 1 for cell in cells)


def oracle_two_closure(gens, n):
    """The literal definition: all of Sym(n) filtered by pair-orbit
    preservation.  Usable up to n = 8 or so."""
    color = oracle_pair_orbits(gens, n)
    out = set()
    for images in itertools.permutations(range(n)):
        if all(color[(images[a], images[b])] == color[(a, b)]
               for a in range(n) for b in range(n)):
            out.add(images)
    return out


def oracle_subgroups(gens):
    """All subgroups of the generated group, as frozensets of tuples."""
    elements = mulclose(gens)
    n = len(next(iter(elements)))
    trivial = frozenset({identity(n)})
    known = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            for x in elements:
                if x in sub:
                    continue
                bigger = frozenset(mulclose(list(sub) + [x]))
                if bigger not in known:
                    known.add(bigger)
                    new.append(bigger)
        frontier = new
    return known


def oracle_base_size(gens, n):
    """Smallest k such that some k-tuple of points has trivial stabilizer."""
    elements = mulclose(gens)
    if len(elements) == 1:
        return 0
    for k in range(1, n + 1):
        for points in itertools.combinations(range(n), k):
            stab = [x for x in elements if all(x[p] == p for p in points)]
            if len(stab) == 1:
                return k
    raise RuntimeError("no base found")


def oracle_qhat(g_gens, h_elements, c):
    """Exact Q-hat sum over prime-order classes, as a Fraction."""
    classes = oracle_conjugacy_classes(g_gens)
    h_set = {tuple(x) for x in h_elements}
    total = Fraction(0)
    for cls in classes:
        rep = next(iter(cls))
        k = _tuple_order(rep)
        if k < 2 or any(k % p == 0 and k != p for p in range(2, k)):
            continue
        inter = len(cls & h_set)
        total += Fraction(inter ** c, len(cls) ** (c - 1))
    return total


def _tuple_order(p):
    n = len(p)
    x = p
    k = 1
    while x != identity(n):
        x = compose(x, p)
        k += 1
    return k
