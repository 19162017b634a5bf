"""Orbits on ordered pairs: the orbital partition and what hangs off it.

Colors are integers assigned in order of first discovery scanning pairs
(0,0), (0,1), ... lexicographically, so the numbering is deterministic and
identical in both storage modes: compressed rows, which every partition
built from a group alone uses, and blocks, which a partition built from
the totality sweep's cached OrbitalBlocks keeps.

The compressed mode stores one row per G-orbit, that of its least point
r, colored by the orbits of the point stabilizer G_r.  Level 0 of the
stabilizer chain that G_r comes from holds a Schreier tree of r's orbit
(Seress, Permutation Group Algorithms, 2003, ch. 4), and every other row
is built from its parent's along that tree: if a = p^g, the color of
(a, b) is that of (p, b^(g^-1)), so row(a) is row(p) relabelled by the
inverse images of g.  A row is built by walking up the tree to the
nearest row held and relabelling back down.

The block mode serves a direct sum of transitive actions whose orbits
D_0, D_1, ... are contiguous, as the totality sweep assembles them.  The
pairs in D_i x D_j form one block, a union of G-orbits.  G is transitive
on D_i, so every G-orbit in the block meets the block's first row: the
lexicographic scan meets all of the block's colors in the first row of
D_i, in the order the block's own scan numbers them, and meets the
blocks of D_i in the order j = 0, 1, ... along that row.  The global
color of a pair is therefore offset(i, j) + its local color, where
offset(i, j) adds up the ranks of the blocks before (i, j) in row-major
order, and pair representatives shift the same way.  A block depends only
on the two actions, so the sweep computes each one once per pair of
subgroup classes and reuses it in every direct sum that holds both.
Blocks hold a color for every pair, n^2 entries in all, so the sweep
builds them only up to a degree cap and leaves larger actions to the
compressed mode.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, OrderedDict

from .errors import DegreeMismatchError, NotTransitiveError
from .group import orbits_of

ROW_CACHE = 128


class OrbitalBlock:
    """The G-orbits on D x E for two actions of G, transitive on D.

    first and second list the images of the same nonempty list of
    generators of G on D and on E.  rows[a][b] is the local color of the
    pair (a, b); colors are numbered by first discovery along row 0, which
    every G-orbit meets, and reps[c] is the least b with (0, b) of color c.
    """

    __slots__ = ("rows", "reps")

    def __init__(self, first, second):
        m, n = first[0].degree, second[0].degree
        pairs = [(f.images, s.images) for f, s in zip(first, second)]
        rows = [[-1] * n for _ in range(m)]
        reps = []
        filled = 0
        for b in range(n):
            if rows[0][b] >= 0:
                continue
            color = len(reps)
            reps.append(b)
            rows[0][b] = color
            filled += 1
            frontier = [(0, b)]
            while frontier:
                new = []
                for x, y in frontier:
                    for f, s in pairs:
                        p, q = f[x], s[y]
                        if rows[p][q] < 0:
                            rows[p][q] = color
                            filled += 1
                            new.append((p, q))
                frontier = new
        if filled != m * n:
            raise NotTransitiveError(
                "an orbital block needs a transitive first action")
        self.rows = rows
        self.reps = reps


class OrbitalPartition:
    """The partition of Omega x Omega into G-orbits.

    Attributes: degree, rank, paired (color -> color of the transpose),
    subdegrees (sorted suborbit lengths when G is transitive, else None),
    and pair representatives per color.  color_of(a, b), row(a) and
    row_ranks() work in both storage modes.

    Built from G alone, the partition is compressed: it holds the row of
    each orbit's least point and builds the others from it along the
    Schreier tree of the chain that point_stabilizer builds.

    blocks, when given, is the square table of the OrbitalBlocks of G's
    orbits, each transitive, contiguous and in order: blocks[i][j] holds
    the pairs of orbit i by orbit j.  The caller vouches that they belong
    to G, and the partition keeps them with the color offsets of each;
    its pair_reps are put together from the blocks when first read, which
    the totality sweep never does.  paired is computed when first read in
    both modes, and subdegrees, from row 0, each time it is read.
    """

    def __init__(self, G, blocks=None):
        self.group = G
        self.degree = G.degree
        self._blocks = None
        self._rows = OrderedDict()
        self._pair_reps = None
        self._paired = None
        if blocks is None:
            self._build_compressed()
        else:
            self._build_from_blocks(blocks)

    def _build_from_blocks(self, blocks):
        sizes = [len(row[0].rows) for row in blocks]
        if sum(sizes) != self.degree:
            raise DegreeMismatchError(
                f"blocks cover {sum(sizes)} points, not {self.degree}")
        self._blocks = blocks
        self._starts = [sum(sizes[:i]) for i in range(len(sizes))]
        self._offsets = []
        rank = 0
        for row in blocks:
            offsets = []
            for block in row:
                offsets.append(rank)
                rank += len(block.reps)
            self._offsets.append(offsets)
        self.rank = rank

    @property
    def subdegrees(self):
        """The sorted suborbit lengths when G is transitive, else None."""
        if not self.group.is_transitive():
            return None
        return sorted(Counter(self.row(0)).values())

    @property
    def pair_reps(self):
        """The least pair (a, b) of each color, in color order."""
        if self._pair_reps is None:
            # block (i, j) numbers its colors along the first row of D_i
            self._pair_reps = [
                (self._starts[i], self._starts[j] + b)
                for i, row in enumerate(self._blocks)
                for j, block in enumerate(row) for b in block.reps]
        return self._pair_reps

    @property
    def paired(self):
        """The color of the transpose of each color's pairs."""
        if self._paired is None:
            self._paired = [self.color_of(b, a) for a, b in self.pair_reps]
        return self._paired

    def row_ranks(self):
        """The number of colors in a row of each G-orbit, orbits in order
        of least point.  A row of a holds one color per G_a-orbit, so a
        count of degree means G_a = 1: a's orbit is regular."""
        if self._blocks is not None:
            return [sum(len(block.reps) for block in row)
                    for row in self._blocks]
        # a color's least pair starts at the least point of its orbit
        counts = {}
        for a, _ in self._pair_reps:
            counts[a] = counts.get(a, 0) + 1
        return list(counts.values())

    def _block_row(self, a):
        i = bisect_right(self._starts, a) - 1
        local = a - self._starts[i]
        row = []
        for offset, block in zip(self._offsets[i], self._blocks[i]):
            row += [offset + c for c in block.rows[local]]
        return row

    def _build_compressed(self):
        n = self.degree
        G = self.group
        # level 0 of every chain of G holds G's generators, in order
        self._gen_invs = [g.inverse().images for g in G.generators]
        self._level_of = [None] * n
        self._base_rows = {}
        pair_reps = []
        next_color = 0
        for rep in range(n):
            if self._level_of[rep] is not None:
                continue
            stab = G.point_stabilizer(rep)
            # the chain G_rep came from, built once: level 0 is rep's orbit
            level = G.chain_with_base((rep,)).levels[0]
            for a in level.orbit:
                self._level_of[a] = level
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
                    pair_reps.append((rep, b))
                row[b] = c
            self._base_rows[rep] = row
        self._pair_reps = pair_reps
        self.rank = len(pair_reps)

    def _tree_row(self, a):
        """Row a from the nearest row held up a's Schreier tree: a step
        down to a = p^g relabels row(p) by g's inverse images.  The rows
        built on the way are kept."""
        tree = self._level_of[a].tree
        path = []
        while tree[a] is not None and a not in self._rows:
            path.append(a)
            a = tree[a][0]
        row = self._base_rows[a] if tree[a] is None else self.row(a)
        for a in reversed(path):
            row = list(map(row.__getitem__, self._gen_invs[tree[a][1]]))
            self._keep(a, row)
        return row

    def _keep(self, a, row):
        self._rows[a] = row
        if len(self._rows) > ROW_CACHE:
            self._rows.popitem(last=False)

    def row(self, a):
        """Colors of the pairs (a, b) for all b, as an indexable row.

        A block or compressed row is built when asked for and kept among
        the ROW_CACHE most recent ones."""
        got = self._rows.get(a)
        if got is not None:
            self._rows.move_to_end(a)
            return got
        if self._blocks is None:
            return self._tree_row(a)
        got = self._block_row(a)
        self._keep(a, got)
        return got

    def color_of(self, a, b):
        if self._blocks is None:
            return self.row(a)[b]
        i = bisect_right(self._starts, a) - 1
        j = bisect_right(self._starts, b) - 1
        block = self._blocks[i][j]
        return self._offsets[i][j] + \
            block.rows[a - self._starts[i]][b - self._starts[j]]

    def is_diagonal(self, color):
        a, b = self.pair_reps[color]
        return a == b

    def diagonal_color(self, a):
        """The color of the pair (a, a); constant on each G-orbit."""
        if self._blocks is not None:
            # (0, 0) opens the scan of a diagonal block: local color 0
            i = bisect_right(self._starts, a) - 1
            return self._offsets[i][i]
        rep = self._level_of[a].point
        return self._base_rows[rep][rep]

    def neighbors(self, a, color):
        """Points b with (a, b) of the given color, in increasing order."""
        row = self.row(a)
        return [b for b in range(self.degree) if row[b] == color]


def higman_primitive(G):
    """Whether every nondiagonal orbital digraph of G is connected.

    By Higman's criterion this holds iff the transitive group G is
    primitive.  Connectivity is checked on the union of each orbital with
    its transpose, which for a vertex-transitive digraph agrees with
    strong connectivity.
    """
    if not G.is_transitive():
        raise NotTransitiveError("Higman's criterion needs a transitive group")
    part = OrbitalPartition(G)
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
