"""Exact 2-closures by partition backtrack on the orbital coloring.

The closure of G is the group of all permutations preserving every cell
of G's orbital partition.  Apart from three identities that need no
search (trivial, regular and 2-transitive inputs), every input, whether
transitive or not, goes through one search: the collect mode of the walk
in ``backtrack``, with candidate base images taken from color signatures
instead of an ambient chain.  The known subgroup starts as G itself and
prunes along the principal branch, and every accepted leaf is verified
against the full coloring, so a completed walk is a proof.
"""

from __future__ import annotations

from .backtrack import _walk
from .constructions import symmetric
from .errors import DegreeMismatchError
from .orbital import OrbitalPartition
from .perm import Permutation


class ClosureResult:
    """A 2-closure computation outcome.

    method is either "backtrack" (partition search ran) or
    "certified-equal" (the answer follows from a closure identity with no
    search: the trivial group and regular actions are their own closure,
    and 2-transitive groups close to the full symmetric group).
    certified is False only when the node budget stopped the search, in
    which case closure is a lower bound containing the input.  nodes
    counts the nodes of that one search, and node_budget bounds it.
    """

    def __init__(self, input_group, closure, method, certified=True,
                 nodes=0):
        self.input = input_group
        self.closure = closure
        self.method = method
        self.certified = certified
        self.nodes = nodes

    @property
    def index(self):
        return self.closure.order() // self.input.order()

    def __repr__(self):
        tag = "certified" if self.certified else "partial"
        return (f"ClosureResult(order={self.closure.order()}, "
                f"index={self.index}, method={self.method!r}, {tag})")


def closure_membership(G, x, partition=None):
    """Whether x preserves every G-orbit on ordered pairs.

    By the orbit criterion this decides membership in the 2-closure
    without computing it.
    """
    if x.degree != G.degree:
        raise DegreeMismatchError(
            f"element degree {x.degree} != group degree {G.degree}")
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


def two_closure(G, node_budget=None):
    """The exact 2-closure of G, with method and certification data."""
    n = G.degree
    if G.order() == 1:
        return ClosureResult(G, G, "certified-equal")
    part = OrbitalPartition(G)
    if G.is_transitive():
        if part.rank == 2:
            return ClosureResult(G, symmetric(n, seed=G.seed),
                                 "certified-equal")
        if G.order() == n:
            return ClosureResult(G, G, "certified-equal")
    return _closure_search(G, part, node_budget)


def _closure_search(G, part, node_budget):
    n = G.degree
    diag = [part.diagonal_color(a) for a in range(n)]

    class_of = _canonical_ids(diag)
    base = []
    base_rows = []
    while True:
        counts = {}
        for a in range(n):
            counts[class_of[a]] = counts.get(class_of[a], 0) + 1
        big = None
        for cid, size in counts.items():
            if size > 1 and (big is None or size > counts[big]
                             or (size == counts[big] and cid < big)):
                big = cid
        if big is None:
            break
        b = min(a for a in range(n) if class_of[a] == big)
        base.append(b)
        row_b = part.row(b)
        base_rows.append(row_b)
        class_of = _canonical_ids(list(zip(class_of, row_b)))

    key_of = [tuple([diag[a]] + [row[a] for row in base_rows])
              for a in range(n)]
    diag_class = {}
    for a in range(n):
        diag_class.setdefault(diag[a], []).append(a)

    def candidates(level, chosen):
        b = base[level]
        cands = diag_class[diag[b]]
        for j in range(level):
            target = base_rows[j][b]
            row_d = part.row(chosen[j])
            cands = [c for c in cands if row_d[c] == target]
            if not cands:
                break
        return zip(cands, cands)

    def descend(level, chosen, d):
        return chosen + [d]

    def leaf(chosen):
        chosen_rows = [part.row(d) for d in chosen]
        lookup = {}
        for c in range(n):
            key = tuple([diag[c]] + [row[c] for row in chosen_rows])
            if key in lookup:
                return None
            lookup[key] = c
        img = [0] * n
        for a in range(n):
            c = lookup.get(key_of[a])
            if c is None:
                return None
            img[a] = c
        return Permutation(img)

    def preserves_coloring(g):
        img = g.images
        for a in range(n):
            row_a = part.row(a)
            row_ga = part.row(img[a])
            for b in range(n):
                if row_ga[img[b]] != row_a[b]:
                    return False
        return True

    found = _walk(base, candidates, descend, leaf, preserves_coloring, [],
                  node_budget, G)
    return ClosureResult(G, found.group, "backtrack", found.complete,
                         found.nodes)


def _canonical_ids(values):
    ids = {}
    out = []
    for v in values:
        got = ids.get(v)
        if got is None:
            got = len(ids)
            ids[v] = got
        out.append(got)
    return out
