"""Backtrack searches: one depth-first walk and its callers.

``_walk`` descends one level per base point.  A caller supplies the
candidate images at a node, the child state of a kept candidate, and the
permutation and test at a leaf; the walk owns the node budget and the
leaf step.  It runs in two modes:

- collect: every passing leaf outside the known subgroup K joins K.
  While each image so far equals its base point (the principal branch),
  a candidate image is kept only when it is the least point of its orbit
  under the stabilizer in K of the earlier base points.  A subtree that
  leaves the principal branch at level l holds one coset of the
  solutions' stabilizer of the first l + 1 base points, so the walk
  returns to level l as soon as one of its leaves passes or already lies
  in K; the principal subtree below, walked in full, puts that
  stabilizer into K.  Pruned branches and skipped leaves are recovered
  as products with K elements, so a completed walk returns the whole
  solution subgroup, provided the test is closed under products and
  inverses.
- first hit: the walk returns the first passing leaf, or None.

The 2-closure search in ``closure`` walks equitable partitions of the
orbital colouring in collect mode, with K seeded by the input group; it
is the walk's only caller in the decision pipeline.  It walks only when
its principal branch's refinement bound is loose: when the branched
cells' sizes multiply to |G|, the closure is G and no walk runs.
``find_element`` (first hit) walks an ambient stabilizer chain for
``conjugating_element``, which ``basesize.qhat`` reaches.

``subgroup_search`` (collect over a chain) and
``conjugating_element_for_subgroup`` have no caller in the pipeline.
The benchmark tracer names them as span targets, so they stay until the
benchmark's target list drops them.
"""

from __future__ import annotations

from .errors import BudgetExceededError
from .group import PermGroup, orbits_of
from .perm import Permutation

PRUNE = object()
_FOUND = object()


def orbit_minima(gens, n):
    """For each point, the least point of its orbit under the generators."""
    out = list(range(n))
    for orb in orbits_of(gens, n):
        for p in orb:
            out[p] = orb[0]
    return out


class SearchResult:
    """A subgroup search outcome: the group found and the node count."""

    def __init__(self, group, nodes, complete):
        self.group = group
        self.nodes = nodes
        self.complete = complete


def _walk(base, candidates, descend, leaf, test, root, node_budget, K):
    """Walk len(base) levels from the root state.

    candidates(level, state) yields (image, token) pairs in search order,
    descend(level, state, token) gives the child state of a kept
    candidate, or PRUNE to cut it, and leaf(state) gives the leaf
    permutation; test(g) decides it.
    With K a group, the walk collects and returns a SearchResult whose
    group is the grown K and whose complete flag is False when the node
    budget ran out.  The leaf membership tests and the orbit minima read
    one chain of K, the one on the search base.  A passing leaf outside K
    replaces K by the group it generates with K's generators, whose chain
    is built afresh when next needed; K's old chain is not extended.
    With K None, it returns the first passing leaf or None, and raises
    BudgetExceededError when the node budget runs out first.
    """
    depth = len(base)
    nodes = 0
    minima = {}

    def least(level):
        got = minima.get(level)
        if got is None:
            gens = K.chain_with_base(base).level_generators(level)
            got = minima[level] = orbit_minima(gens, K.degree)
        return got

    def dfs(level, state, principal):
        nonlocal nodes, K
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(
                f"search node budget {node_budget} exhausted")
        if level == depth:
            g = leaf(state)
            if K is not None and K.chain_with_base(base).contains(g):
                return _FOUND
            if not test(g):
                return None
            if K is None:
                return g
            K = PermGroup(K.degree, K.generators + [g], seed=K.seed)
            minima.clear()
            return _FOUND
        b = base[level]
        for d, token in candidates(level, state):
            if principal and d != b and least(level)[d] != d:
                continue
            child = descend(level, state, token)
            if child is PRUNE:
                continue
            got = dfs(level + 1, child, principal and d == b)
            if got is not None and not principal:
                # a first hit, or one coset found off the principal branch
                return got
        return None

    try:
        if K is None:
            return dfs(0, root, False)
        try:
            dfs(0, root, True)
        except BudgetExceededError:
            return SearchResult(K, nodes, False)
        return SearchResult(K, nodes, True)
    finally:
        # dfs refers to itself and, through the caller's functions, to the
        # whole search state; unbinding it frees that state at once
        # instead of at the next full garbage collection.
        del dfs


def _chain_walk(ambient, leaf_test, base_hint, hooks, node_budget, K):
    """The walk over ambient's chain, whose base starts with base_hint.

    A state is the pair (t, hook state), t being the product of the chosen
    coset representatives (None for the identity).
    """
    levels = ambient.chain_with_base(base_hint).levels
    init_state, extend = hooks if hooks is not None else (None, None)

    def candidates(level, state):
        t, hooked = state
        lvl = levels[level]
        for d, delta in sorted((delta if t is None else t.images[delta],
                                delta) for delta in lvl.orbit):
            child = hooked if extend is None else \
                extend(level, lvl.point, d, hooked)
            if child is not PRUNE:
                yield d, (delta, child)

    def descend(level, state, token):
        t = state[0]
        delta, hooked = token
        u = levels[level].rep(delta)
        if u is not None:
            t = u if t is None else u * t
        return t, hooked

    def leaf(state):
        t = state[0]
        return Permutation.identity(ambient.degree) if t is None else t

    return _walk([lvl.point for lvl in levels], candidates, descend, leaf,
                 leaf_test, (None, init_state), node_budget, K)


def subgroup_search(ambient, leaf_test, base_hint=(), hooks=None, seeds=(),
                    node_budget=None):
    """Largest subgroup of ambient whose elements pass leaf_test.

    hooks, when given, is a pair (initial_state, extend) where
    extend(level, base_point, image, state) returns a new state, or the
    module sentinel PRUNE to cut the branch; it must never prune a genuine
    solution's prefix.  seeds are
    known solutions used to prune from the start.
    """
    return _chain_walk(ambient, leaf_test, base_hint, hooks, node_budget,
                       PermGroup(ambient.degree, seeds, seed=ambient.seed))


def find_element(ambient, leaf_test, base_hint=(), hooks=None,
                 node_budget=None):
    """First ambient element passing leaf_test, in the deterministic
    search order; None when none exists.  Raises BudgetExceededError when
    the node budget runs out first."""
    return _chain_walk(ambient, leaf_test, base_hint, hooks, node_budget,
                       None)


def conjugating_element(G, x, y, node_budget=None):
    """Some g in G with g^-1 x g == y, or None.  Raises on budget."""
    if x.cycle_type() != y.cycle_type():
        return None
    # Mapping a point a to c forces x(a) to y(c), so each choice propagates
    # along the cycles of x and y; base points taken cycle by cycle,
    # longest first, fix the rest of a cycle after its first point.
    xi, yi = x.images, y.images

    def extend(level, base_point, image, state):
        forced = {} if state is None else state
        new = dict(forced)
        used = set(new.values())
        stack = [(base_point, image)]
        while stack:
            a, c = stack.pop()
            have = new.get(a)
            if have is not None:
                if have != c:
                    return PRUNE
                continue
            if c in used:
                return PRUNE
            new[a] = c
            used.add(c)
            stack.append((xi[a], yi[c]))
        return new

    def leaf(g):
        gi = g.images
        return all(gi[xi[a]] == yi[gi[a]] for a in range(len(xi)))

    base_hint = [a for cycle in sorted(x.cycles(), key=len, reverse=True)
                 for a in cycle]
    return find_element(G, leaf, base_hint=base_hint, hooks=(None, extend),
                        node_budget=node_budget)


def conjugating_element_for_subgroup(G, H1, H2, node_budget=None):
    """Some g in G with H1^g == H2, or None.  Raises on budget."""
    if H1.order() != H2.order():
        return None
    sizes1 = _orbit_size_colors(H1)
    sizes2 = _orbit_size_colors(H2)
    if sorted(sizes1) != sorted(sizes2):
        return None

    def extend(level, base_point, image, state):
        if sizes1[base_point] != sizes2[image]:
            return PRUNE
        return state

    def leaf(g):
        gi = g.inverse()
        return all(H2.contains(gi * h * g) for h in H1.generators)

    reps = [orb[0] for orb in H1.orbits()]
    base_hint = reps + [a for a in range(G.degree) if a not in reps]
    return find_element(G, leaf, base_hint=base_hint, hooks=(None, extend),
                        node_budget=node_budget)


def _orbit_size_colors(H):
    colors = [0] * H.degree
    for orb in H.orbits():
        for a in orb:
            colors[a] = len(orb)
    return colors
