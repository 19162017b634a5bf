"""Orbits on ordered pairs: the orbital partition and what hangs off it.

Colors are integers assigned in order of first discovery scanning pairs
(0,0), (0,1), ... lexicographically, so the numbering is deterministic.
A color's pairs project onto one G-orbit, so its least pair starts at
that orbit's least point r: the base row of r, the colors of (r, b) for
all b, opens every color of its orbit, and scanning the base rows in
order of least point meets the colors in order.

The partition holds the base row of each G-orbit and a Schreier tree of
the orbit rooted at its least point, built by a breadth-first search over
G's generators (Seress, Permutation Group Algorithms, 2003, ch. 4).
Every other row is built from its parent's along that tree: if a = p^g,
the color of (a, b) is that of (p, b^(g^-1)), so row(a) is row(p)
relabelled by the inverse images of g.  A row is built by walking up the
tree to the nearest row held and relabelling back down.

Base rows come from one of three sources.  Built from G alone, the base
row of r is colored by the orbits of the point stabilizer G_r.  The
totality sweep instead passes the base rows in, put together from the
first rows of cached class-pair blocks (see ``block_row``).  The closure
of a group that does not know its order passes rows colored by the
orbits of a subgroup K_r of G_r, from chains built without a proof of
the order, and has ``_edges_agree`` check them.

The check rests on Schreier's lemma (Seress, Permutation Group
Algorithms, 2003, ch. 4).  Let u_a be the product of the generators
along the tree from r to a, so that row(a)[b] is the color of
b^(u_a^-1) in the base row.  A tree edge p -> q = p^s has u_q = u_p s,
so row(q) is row(p) relabelled by s's inverse images.  On a non-tree
edge the same relabelling gives row(q) exactly when the Schreier
generator h = u_p s u_q^-1, which fixes r, keeps every color class of
the base row, that is every K_r-orbit.  The Schreier generators of the
non-tree edges, with the identity for the tree edges, generate G_r.  So
the check holds on every non-tree edge exactly when G_r keeps every
K_r-orbit, that is, since K_r lies in G_r, when the K_r-orbits are the
G_r-orbits and the coloring is G's own.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from functools import cached_property
from operator import itemgetter

from .errors import DegreeMismatchError, NotTransitiveError
from .group import orbits_of
from .perm import gather

ROW_CACHE = 128


def _suborbit_rows(degree, stabilizers):
    """The base rows colored by the orbits of each stabilizer, given by
    its generators, one per G-orbit in order of least point.

    orbits_of orders the suborbits by least point, the order in which the
    scan of the row meets them, and each row numbers its colors on from
    those of the rows before it."""
    rows = []
    rank = 0
    for gens in stabilizers:
        suborbits = orbits_of(gens, degree)
        row = [0] * degree
        for c, sub in enumerate(suborbits, rank):
            for b in sub:
                row[b] = c
        rank += len(suborbits)
        rows.append(row)
    return rows


def block_row(first, second):
    """Row 0 of the G-orbits on D x E for two actions of G, transitive on D.

    first and second list the images of the same nonempty list of
    generators of G on D and on E.  Entry b is the local color of the pair
    (0, b); colors are numbered by first discovery along row 0, which
    every G-orbit meets because G is transitive on D.  The scan colors
    every pair of D x E, so it holds |D| |E| entries while it runs.
    """
    m, n = first[0].degree, second[0].degree
    pairs = [(f.images, s.images) for f, s in zip(first, second)]
    rows = [[-1] * n for _ in range(m)]
    color = -1
    for b in range(n):
        if rows[0][b] >= 0:
            continue
        color += 1
        rows[0][b] = color
        frontier = [(0, b)]
        while frontier:
            new = []
            for x, y in frontier:
                for f, s in pairs:
                    p, q = f[x], s[y]
                    if rows[p][q] < 0:
                        rows[p][q] = color
                        new.append((p, q))
            frontier = new
    if any(-1 in row for row in rows):
        raise NotTransitiveError(
            "an orbital block needs a transitive first action")
    return rows[0]


class OrbitalPartition:
    """The partition of Omega x Omega into G-orbits.

    Attributes: degree, rank, orbits (the G-orbits, each sorted, in order
    of least point, which is the order of their diagonal colors),
    pair_reps (the least pair of each color, in color order), paired
    (color -> color of the transpose) and subdegrees (sorted suborbit
    lengths when G is transitive, else None).
    color_of(a, b), row(a) and row_ranks() read them.

    base_rows, when given, lists the base row of each G-orbit in order of
    least point, in global scan colors; the caller vouches that they
    belong to G.  Otherwise each is colored by the orbits of its point's
    stabilizer.  rank, row_ranks, pair_reps and paired are all read off
    the base rows: the first two when the partition is built, the others
    when first read.  subdegrees is counted from row 0 each time it is
    read.
    """

    def __init__(self, G, base_rows=None):
        self.group = G
        self.degree = n = G.degree
        self._rows = OrderedDict()
        gens = list(enumerate(g.images for g in G.generators))
        # tree[a] = (p, i) with a = p^(generator i); None at each root
        self._tree = tree = [None] * n
        seen = [False] * n
        self.orbits = []
        for r in range(n):
            if not seen[r]:
                seen[r] = True
                orbit = [r]
                for p in orbit:
                    for i, g in gens:
                        a = g[p]
                        if not seen[a]:
                            seen[a] = True
                            tree[a] = (p, i)
                            orbit.append(a)
                self.orbits.append(sorted(orbit))
        reps = [orbit[0] for orbit in self.orbits]
        if base_rows is None:
            base_rows = _suborbit_rows(
                n, [G.point_stabilizer(r).generators for r in reps])
        elif len(base_rows) != len(reps) or \
                any(len(row) != n for row in base_rows):
            raise DegreeMismatchError(
                f"need {len(reps)} base rows of {n} colors, one per G-orbit")
        self._base_rows = dict(zip(reps, base_rows))
        # each base row opens its orbit's colors, numbered on from those
        # of the rows before it
        tops = [max(row) + 1 for row in base_rows]
        self._row_ranks = [hi - lo for lo, hi in zip([0] + tops, tops)]
        self.rank = tops[-1] if tops else 0

    @cached_property
    def _gen_invs(self):
        """The inverse images of each generator, for the tree steps of
        ``row``; a partition that reads no row beyond its base rows, as
        for ``rank`` or ``row_ranks()``, inverts none."""
        return [g.inverse().images for g in self.group.generators]

    @property
    def subdegrees(self):
        """The sorted suborbit lengths when G is transitive, else None."""
        if not self.group.is_transitive():
            return None
        return sorted(Counter(self.row(0)).values())

    @cached_property
    def pair_reps(self):
        """The least pair of each color, in color order: the scan of each
        base row meets its colors in increasing order."""
        reps = []
        for r, row in self._base_rows.items():
            b = 0
            for c in range(len(reps), max(row) + 1):
                b = row.index(c, b)
                reps.append((r, b))
        return reps

    @cached_property
    def paired(self):
        """The color of the transpose of each color's pairs."""
        return [self.color_of(b, a) for a, b in self.pair_reps]

    def row_ranks(self):
        """The number of colors in a row of each G-orbit, orbits in order
        of least point.  A row of a holds one color per G_a-orbit, so a
        count of degree means G_a = 1: a's orbit is regular."""
        return list(self._row_ranks)

    def row(self, a):
        """Colors of the pairs (a, b) for all b, as an indexable row.

        A row other than a base row is built from the nearest row held up
        a's Schreier tree, where a step down to a = p^g relabels row(p) by
        g's inverse images.  The rows built on the way are kept among the
        ROW_CACHE most recent ones."""
        rows, tree = self._rows, self._tree
        got = rows.get(a)
        if got is not None:
            rows.move_to_end(a)
            return got
        path = []
        while tree[a] is not None and a not in rows:
            path.append(a)
            a = tree[a][0]
        got = self._base_rows[a] if tree[a] is None else self.row(a)
        for a in reversed(path):
            got = gather(got, self._gen_invs[tree[a][1]])
            rows[a] = got
            if len(rows) > ROW_CACHE:
                rows.popitem(last=False)
        return got

    def color_of(self, a, b):
        return self.row(a)[b]

    def _edges_agree(self):
        """Whether, on every non-tree edge p -> q = p^s of each orbit's
        Schreier tree, row(q) is row(p) relabelled by s's inverse images:
        that is, whether the base rows color by G's point stabilizers
        (see the module docstring).  It builds each orbit's rows down the
        tree itself, holding one orbit's rows at a time, so that ``row``
        and its cache see none of them."""
        # a generator moves at least two points, so itemgetter takes at
        # least two indices and returns a tuple
        steps = [(g.images, itemgetter(*inv))
                 for g, inv in zip(self.group.generators, self._gen_invs)]
        tree = self._tree
        for orbit in self.orbits:
            r = orbit[0]
            rows = {r: tuple(self._base_rows[r])}
            reached = [r]
            for p in reached:
                for i, (g, relabel) in enumerate(steps):
                    a = g[p]
                    if tree[a] == (p, i):
                        rows[a] = relabel(rows[p])
                        reached.append(a)
            for p in reached:
                for i, (g, relabel) in enumerate(steps):
                    q = g[p]
                    if tree[q] != (p, i) and rows[q] != relabel(rows[p]):
                        return False
        return True
