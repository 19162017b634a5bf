"""Exact 2-closures by partition backtrack on the orbital coloring.

The closure of G is the group of all permutations preserving every cell
of G's orbital partition.  Apart from three identities that need no
search (trivial inputs, inputs with a regular orbit, and 2-transitive
inputs), every input, whether transitive or not, goes through one
search: the collect mode of the walk in ``backtrack``, whose known
subgroup starts as G itself.

The search is individualization-refinement (McKay & Piperno, Practical
graph isomorphism II, 2014; Leon, Permutation group algorithms based on
partitions I, 1991).  A node holds an ordered partition of the points,
refined to equitable: any two points of a cell see every cell with the
same multiset of colors.  The root is the G-orbits, which is equitable
already.  A child individualizes one point of the cell being branched on
and refines again.  Refinement is equivariant under relabelling, so a
closure element maps the principal branch's partitions onto those of its
image branch; a node whose cell sizes differ from the principal branch's
at its depth is pruned.  A leaf pairs two discrete partitions into a
permutation, and every accepted leaf is checked against the full
coloring, so a completed walk is a proof.

Refinement stops early where it knows a group H of color automorphisms
fixing every point individualized so far.  H preserves the coloring and
fixes those points, and refinement is equivariant, so every cell is a
union of H-orbits at every step, and once the cell count is the number
of H-orbits the cells are the H-orbits.  The orbit partition of a group
of color automorphisms is equitable, so every splitter still queued
would neither split nor reorder a cell: the ordered partitions, the
bases, the node counts and the verdicts are those of the full
refinement.  Two kinds of node know such an H.  A child of the root,
which individualizes b from the G-orbits, has H = G_b, with one orbit
per color of row(b); the first splitter {b} reaches them by splitting
every cell by row(b).  Below those, the principal branch's node at
depth k has H = G_(b_1..b_k), and counts its orbits while the cell sizes
branched on so far multiply to a bound below |G|: then
|H| >= |G| / bound > 1, so the partition is not discrete yet and the
stop saves work.  It reaches H
by descending through point stabilizers from G_(b_1), which the orbital
partition already built.  Every other node refines in full.

The principal branch alone often settles the search.  The closure's
stabilizer of the first i base points fixes the level-i partition, so
its orbit of the next base point lies in the cell branched on, and the
product of those cell sizes bounds the closure's order.  When the bound
equals |G| the closure is G, with the principal base as its certificate,
and no walk runs; only a loose bound leaves work for the walk.

The same bound proves the order of a group that does not know it, given
by generators alone, in place of the deterministic Schreier-Sims pass.
A chain grown by the random phase alone, on the principal branch's first
base point b_1, has orbits multiplying to some N <= |G|.  A copy of G
told the order N gives the point stabilizers: they are subgroups of G's,
since their generators are elements of G fixing the points.  They color
the partition's base rows, one per G-orbit, and the coloring is checked
on every non-tree edge of the orbits' Schreier trees, which holds
exactly when it is G's own (see ``orbital``).  The principal branch then
runs on the copy.  Any group of color automorphisms fixing the points
individualized so far gives a sound stop, since the cells are unions of
its orbits too and stop splitting once they are its orbits, so the
partitions and the bound are those of G.  If the bound equals N, then
N <= |G| <= |closure| <= bound = N: |G| = N, the closure is G, and the
grown chain, whose orbits multiply to |G|, is complete, so G adopts it
and the copy's chains as verified.  Otherwise (the check fails, the
bound is not N, or a chain of the copy passes its told order) the
deterministic pass completes the grown chain, and the search goes on
from what is proven: a failed check recolors the partition, and a
checked one keeps it and the principal branch.  Methods, node counts,
bases and closures are those of a group that knew its order.
"""

from __future__ import annotations

from .backtrack import PRUNE, _walk
from .constructions import symmetric
from .errors import DegreeMismatchError, GroupError
from .orbital import OrbitalPartition, _suborbit_rows
from .perm import Permutation


class ClosureResult:
    """A 2-closure computation outcome.

    method is one of
    - "certified-equal": the answer follows from a closure identity with
      no search: the trivial group and every group with a regular orbit
      are their own closure, and 2-transitive groups close to the full
      symmetric group;
    - "refinement-bound": the principal branch's cell sizes multiply to
      |G|, so the closure is G and no walk ran;
    - "backtrack": the bound was loose and the walk ran.
    certified is False only when the node budget stopped the search, in
    which case closure is a lower bound containing the input.  nodes
    counts the nodes of that one search, and node_budget bounds it.
    base is the principal branch's base points when a search ran, and
    empty otherwise.  For "refinement-bound" it is the certificate: with
    the orbital coloring, individualizing and refining along it branches
    on cells whose sizes multiply to |G| and ends discrete.
    """

    def __init__(self, input_group, closure, method, certified=True,
                 nodes=0, base=()):
        self.input = input_group
        self.closure = closure
        self.method = method
        self.certified = certified
        self.nodes = nodes
        self.base = tuple(base)

    @property
    def index(self):
        return self.closure.order() // self.input.order()

    def __repr__(self):
        tag = "certified" if self.certified else "partial"
        return (f"ClosureResult(order={self.closure.order()}, "
                f"index={self.index}, method={self.method!r}, {tag})")


def _check_partition(G, partition):
    """Raise unless partition is None or was built for G itself."""
    if partition is None:
        return
    if partition.degree != G.degree:
        raise DegreeMismatchError(
            f"partition degree {partition.degree} != group degree {G.degree}")
    if partition.group is not G:
        raise GroupError("the partition was built for another group")


def closure_membership(G, x, partition=None):
    """Whether x preserves every G-orbit on ordered pairs.

    By the orbit criterion this decides membership in the 2-closure
    without computing it.  partition, when given, must have been built
    for G itself.
    """
    if x.degree != G.degree:
        raise DegreeMismatchError(
            f"element degree {x.degree} != group degree {G.degree}")
    _check_partition(G, partition)
    part = partition if partition is not None else OrbitalPartition(G)
    n = G.degree
    xi = x.images
    for a in range(n):
        row_a = part.row(a)
        row_xa = part.row(xi[a])
        for b in range(n):
            if row_xa[xi[b]] != row_a[b]:
                return False
    return True


def two_closure(G, node_budget=None, partition=None):
    """The exact 2-closure of G, with method and certification data.

    partition, when given, is G's orbital partition built beforehand, as
    the totality sweep builds it from base rows it has cached; it must
    have been built for G itself.

    A group with a regular orbit is its own closure (Wielandt,
    Permutation groups through invariant relations and invariant
    functions, 1969), and a point a whose row holds degree colors has
    one: G_a has a singleton orbit per point, so G_a = 1.  Proof: let
    x lie in the closure and D be a's orbit.  G is regular on D, and
    regular groups are 2-closed, so x agrees on D with some g in G.
    Then y = x g^-1 lies in the closure and fixes D pointwise, and y
    keeps the orbital of each (a, b), so b^y lies in b^(G_a) = {b}.
    Hence y = 1 and x = g.
    """
    n = G.degree
    _check_partition(G, partition)
    if G.is_trivial:
        return ClosureResult(G, G, "certified-equal")
    part = partition
    told = None
    if partition is None and not G._order_known:
        # base rows from the stabilizers of a copy of G told a grown order,
        # checked (see the module docstring); the copy's chain is grown on
        # the principal branch's first base point, the least point of the
        # first largest G-orbit
        orbits = G.orbits()
        told = G._told_copy((max(orbits, key=len)[0],))
        try:
            part = OrbitalPartition(G, _suborbit_rows(n, [
                told.point_stabilizer(orbit[0]).generators
                for orbit in orbits]))
        except GroupError:
            part = None
        if part is None or not part._edges_agree():
            part = told = None
    if part is None:
        part = OrbitalPartition(G)
    if part.rank == 2 and G.is_transitive():
        return ClosureResult(G, symmetric(n, seed=G.seed), "certified-equal")
    if n in part.row_ranks():
        return ClosureResult(G, G, "certified-equal")
    branch = None
    if told is not None:
        try:
            branch = _principal_branch(told, part)
        except GroupError:
            pass
        else:
            # a bound of N proves |G| = N (see the module docstring)
            if branch[-1] == told.order():
                G._adopt(told)
    if branch is None:
        branch = _principal_branch(G, part)
    return _closure_search(G, part, node_budget, branch)


def root_partition(part):
    """The G-orbits as an ordered partition, in order of least point.

    Each orbit is one diagonal orbital, so the partition is equitable
    already.  The order is that of the diagonal colors: an orbit's
    colors, its diagonal one among them, are numbered on from those of
    the orbits of lesser least point.
    """
    return [list(orbit) for orbit in part.orbits]


def _refine(part, cells, queue, stop=None):
    """Refine the ordered partition cells in place until it is equitable.

    queue lists the positions of the splitter cells.  A splitter W splits
    every non-singleton cell by the multiset of colors of (w, x) over w in
    W.  The first fragment keeps the cell's position and the others are
    appended in signature order, so the result is equivariant: it depends
    on colors and cell positions, never on point labels.  A cell that was
    not waiting as a splitter queues all its fragments but the first
    largest one.  Returns cells.

    stop, when given, is a cell count at which the partition is known to
    be equitable already, and refinement ends there: the number of
    orbits of a group H of color automorphisms that fixes every point
    individualized so far.  Every cell is a union of H-orbits, since
    refinement is equivariant and H fixes the coloring and those points.
    So at that many cells the cells are the H-orbits, and the orbit
    partition of a group of color automorphisms is equitable: no
    splitter still queued would split or reorder a cell.
    ``individualize`` passes the stop with H = G_b when it splits b off
    the G-orbits, and ``_principal_branch`` passes it with H =
    G_(b_1..b_k) wherever that group is nontrivial, or with a subgroup
    of it on a copy of G told a lower bound on |G|.
    """
    pending = set(queue)
    queue = list(queue)
    open_cells = [pos for pos, cell in enumerate(cells) if len(cell) > 1]
    for w in queue:
        if not open_cells or len(cells) == stop:
            break
        pending.discard(w)
        splitter = cells[w]
        if len(splitter) == 1:
            signature = part.row(splitter[0])
        else:
            # one row at a time: a large splitter's rows are never all held
            counts = {x: {} for pos in open_cells for x in cells[pos]}
            for v in splitter:
                row = part.row(v)
                for x, seen in counts.items():
                    color = row[x]
                    seen[color] = seen.get(color, 0) + 1
            signature = {x: tuple(sorted(seen.items()))
                         for x, seen in counts.items()}
        still_open = []
        for pos in open_cells:
            cell = cells[pos]
            groups = {}
            for x in cell:
                groups.setdefault(signature[x], []).append(x)
            if len(groups) == 1:
                still_open.append(pos)
                continue
            frags = [groups[key] for key in sorted(groups)]
            spots = [pos] + list(range(len(cells),
                                       len(cells) + len(frags) - 1))
            cells[pos] = frags[0]
            cells.extend(frags[1:])
            still_open += [spot for spot, frag in zip(spots, frags)
                           if len(frag) > 1]
            if pos not in pending:
                sizes = [len(frag) for frag in frags]
                del spots[sizes.index(max(sizes))]
            for spot in spots:
                if spot not in pending:
                    pending.add(spot)
                    queue.append(spot)
        open_cells = still_open
    return cells


def individualize(part, cells, pos, point, stop=None):
    """A refined copy of cells with point split off the cell at pos.

    The point keeps the position and the rest of its cell is appended.
    cells must refine the G-orbits, as every partition of the search
    does.  stop, when given, is the number of orbits of G's stabilizer
    of every point individualized so far, this one included, and
    refinement stops there (see ``_refine``).  Without it, a partition
    with one cell per G-orbit is the root, and refinement from it stops
    at the orbits of G_point, one per color of row(point); every other
    partition refines in full.
    """
    if stop is None and len(cells) == len(part.row_ranks()):
        stop = len(set(part.row(point)))
    cells = list(cells)
    cells.append([x for x in cells[pos] if x != point])
    cells[pos] = [point]
    return _refine(part, cells, [pos], stop)


def _principal_branch(G, part):
    """The principal branch: its partitions, base, branched cell
    positions and refinement bound, as (path, base, where, bound).

    It individualizes the least point of the first largest cell until the
    partition is discrete; its cell sizes prune every other branch, and
    its discrete partition pairs with theirs.  G may be a copy told a
    lower bound on the order (see the module docstring).

    Proof of the bound: let C be the closure and b_1, ..., b_k the base.
    Refinement is equivariant, so C's stabilizer of b_1, ..., b_i fixes
    the partition that individualizing those points refines to, and its
    orbit of b_(i+1) lies in the cell of that partition that b_(i+1) is
    split from.  The leaf partition is discrete, so only the identity of
    C fixes every base point.  Hence |C| is the product of those orbit
    sizes, at most the product of the cell sizes.  When that product
    equals |G|, C = G, since G lies in C.

    While the bound is below |G|, |G_(b_1..b_k)| >= |G| / bound > 1, so
    the partition is not discrete yet and its refinement stops at the
    G_(b_1..b_k)-orbits (see ``_refine``).  Below the root those groups
    are reached by descending through point stabilizers from G_(b_1),
    which the orbital partition built, since b_1 is an orbit's least
    point; levels whose bound reaches |G| build no group.
    """
    order = G.order()
    path = [root_partition(part)]
    base = []
    where = []
    bound = 1
    stab = None
    while True:
        cells = path[-1]
        sizes = [len(cell) for cell in cells]
        if max(sizes) == 1:
            break
        pos = sizes.index(max(sizes))
        bound *= sizes[pos]
        base.append(min(cells[pos]))
        where.append(pos)
        stop = None
        if len(base) > 1 and bound < order:
            if stab is None:
                stab = G.point_stabilizer(base[0])
            stab = stab.point_stabilizer(base[-1])
            stop = len(stab.orbits())
        path.append(individualize(part, cells, pos, base[-1], stop))
    return path, base, where, bound


def _closure_search(G, part, node_budget, branch):
    """The closure of G by the walk from the principal branch, unless its
    refinement bound already proves the closure is G.

    Every walk starts down the principal branch, so a tight bound is
    charged the len(base) + 1 nodes of that branch, and a node budget
    below that stops it uncertified, with closure G, as the walk would.
    """
    n = G.degree
    path, base, where, bound = branch
    if bound == G.order():
        certified = node_budget is None or node_budget > len(base)
        nodes = len(base) + 1 if certified else node_budget + 1
        return ClosureResult(G, G, "refinement-bound", certified, nodes,
                             base)
    shapes = [[len(cell) for cell in cells] for cells in path]
    lead = [cell[0] for cell in path[-1]]

    def candidates(level, cells):
        cell = sorted(cells[where[level]])
        return zip(cell, cell)

    def descend(level, cells, d):
        if cells is path[level] and d == base[level]:
            return path[level + 1]
        child = individualize(part, cells, where[level], d)
        if [len(cell) for cell in child] != shapes[level + 1]:
            return PRUNE
        return child

    def leaf(cells):
        img = [0] * n
        for a, cell in zip(lead, cells):
            img[a] = cell[0]
        return Permutation(img)

    found = _walk(base, candidates, descend, leaf,
                  lambda g: closure_membership(G, g, part),
                  path[0], node_budget, G)
    return ClosureResult(G, found.group, "backtrack", found.complete,
                         found.nodes, base)
