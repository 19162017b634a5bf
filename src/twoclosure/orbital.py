"""Orbits on ordered pairs: the orbital partition and what hangs off it.

Colors are integers assigned in order of first discovery scanning pairs
(0,0), (0,1), ... lexicographically, so the numbering is deterministic and
identical between the dense table (degree <= 2048) and the row-compressed
representation used above that.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict

from .errors import NotTransitiveError
from .group import orbits_of

DENSE_LIMIT = 2048
ROW_CACHE = 128


class OrbitalPartition:
    """The partition of Omega x Omega into G-orbits.

    Attributes: degree, rank, paired (color -> color of the transpose),
    subdegrees (sorted suborbit lengths when G is transitive, else None),
    and pair representatives per color.  color_of(a, b) and row(a) work in
    both storage modes.
    """

    def __init__(self, G):
        self.group = G
        self.degree = G.degree
        self.dense = self.degree <= DENSE_LIMIT
        self._rows = OrderedDict()
        self._transversals = OrderedDict()
        self.reps = []
        self.pair_reps = []
        self._orbit_of = [0] * self.degree
        for orb in G.orbits():
            for a in orb:
                self._orbit_of[a] = orb[0]
        if self.dense:
            self._build_dense()
        else:
            self._build_compressed()
        self.rank = len(self.pair_reps)
        self.paired = [self.color_of(b, a) for a, b in self.pair_reps]
        if G.is_transitive():
            sizes = {}
            base_row = self.row(0)
            for b in range(self.degree):
                c = base_row[b]
                sizes[c] = sizes.get(c, 0) + 1
            self.subdegrees = sorted(sizes.values())
        else:
            self.subdegrees = None

    def _build_dense(self):
        n = self.degree
        gens = [g.images for g in self.group.generators]
        colors = array("l", [-1] * (n * n))
        next_color = 0
        for a in range(n):
            base = a * n
            for b in range(n):
                if colors[base + b] >= 0:
                    continue
                color = next_color
                next_color += 1
                self.pair_reps.append((a, b))
                colors[base + b] = color
                frontier = [(a, b)]
                while frontier:
                    new = []
                    for x, y in frontier:
                        for img in gens:
                            p, q = img[x], img[y]
                            slot = p * n + q
                            if colors[slot] < 0:
                                colors[slot] = color
                                new.append((p, q))
                    frontier = new
        self.colors = colors

    def _build_compressed(self):
        n = self.degree
        self.colors = None
        self._trees = {}
        self._base_rows = {}
        gens = self.group.generators
        images = [g.images for g in gens]
        for orb in self.group.orbits():
            rep = orb[0]
            tree = {rep: None}
            frontier = [rep]
            while frontier:
                new = []
                for x in frontier:
                    for gi, img in enumerate(images):
                        y = img[x]
                        if y not in tree:
                            tree[y] = (x, gi)
                            new.append(y)
                frontier = new
            self._trees[rep] = tree
            self.reps.append(rep)
        next_color = 0
        for rep in self.reps:
            stab = self.group.point_stabilizer(rep)
            suborbits = orbits_of(stab.generators, n)
            suborbit_of = [-1] * n
            for k, sub in enumerate(suborbits):
                for p in sub:
                    suborbit_of[p] = k
            assigned = {}
            row = [-1] * n
            for b in range(n):
                k = suborbit_of[b]
                c = assigned.get(k)
                if c is None:
                    c = next_color
                    next_color += 1
                    assigned[k] = c
                    self.pair_reps.append((rep, b))
                row[b] = c
            self._base_rows[rep] = row

    def transversal(self, a):
        """A pair (u, u_inv_images) with rep^u = a for a's orbit rep."""
        got = self._transversals.get(a)
        if got is not None:
            self._transversals.move_to_end(a)
            return got
        rep = self._orbit_of[a]
        tree = self._trees[rep]
        word = []
        cur = a
        while tree[cur] is not None:
            prev, gi = tree[cur]
            word.append(gi)
            cur = prev
        gens = self.group.generators
        u = None
        for gi in reversed(word):
            u = gens[gi] if u is None else u * gens[gi]
        u_inv = list(range(self.degree)) if u is None else u.inverse().images
        got = (u, u_inv)
        self._transversals[a] = got
        if len(self._transversals) > ROW_CACHE:
            self._transversals.popitem(last=False)
        return got

    def row(self, a):
        """Colors of the pairs (a, b) for all b, as an indexable row."""
        if self.dense:
            n = self.degree
            return self.colors[a * n:(a + 1) * n]
        got = self._rows.get(a)
        if got is not None:
            self._rows.move_to_end(a)
            return got
        rep = self._orbit_of[a]
        base = self._base_rows[rep]
        _, u_inv = self.transversal(a)
        got = [base[u_inv[b]] for b in range(self.degree)]
        self._rows[a] = got
        if len(self._rows) > ROW_CACHE:
            self._rows.popitem(last=False)
        return got

    def color_of(self, a, b):
        if self.dense:
            return self.colors[a * self.degree + b]
        rep = self._orbit_of[a]
        _, u_inv = self.transversal(a)
        return self._base_rows[rep][u_inv[b]]

    def is_diagonal(self, color):
        a, b = self.pair_reps[color]
        return a == b

    def is_self_paired(self, color):
        if not 0 <= color < self.rank:
            raise ValueError(f"no orbital with id {color}")
        return self.paired[color] == color

    def diagonal_color(self, a):
        """The color of the pair (a, a); constant on each G-orbit."""
        if self.dense:
            return self.colors[a * self.degree + a]
        rep = self._orbit_of[a]
        return self._base_rows[rep][rep]

    def neighbors(self, a, color):
        """Points b with (a, b) of the given color."""
        if self.dense:
            row = self.row(a)
            return [b for b in range(self.degree) if row[b] == color]
        rep = self._orbit_of[a]
        base = self._base_rows[rep]
        sub = [b for b in range(self.degree) if base[b] == color]
        u, _ = self.transversal(a)
        if u is None:
            return sub
        return sorted(u.images[b] for b in sub)


def higman_primitive(G, partition=None):
    """Whether every nondiagonal orbital digraph of G is connected.

    By Higman's criterion this holds iff the transitive group G is
    primitive.  Connectivity is checked on the union of each orbital with
    its transpose, which for a vertex-transitive digraph agrees with
    strong connectivity.
    """
    if not G.is_transitive():
        raise NotTransitiveError("Higman's criterion needs a transitive group")
    part = partition if partition is not None else OrbitalPartition(G)
    n = G.degree
    for color in range(part.rank):
        if part.is_diagonal(color):
            continue
        twin = part.paired[color]
        seen = [False] * n
        seen[0] = True
        frontier = [0]
        count = 1
        while frontier:
            new = []
            for a in frontier:
                nbs = part.neighbors(a, color)
                if twin != color:
                    nbs = nbs + part.neighbors(a, twin)
                for b in nbs:
                    if not seen[b]:
                        seen[b] = True
                        count += 1
                        new.append(b)
            frontier = new
        if count < n:
            return False
    return True
