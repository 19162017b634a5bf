"""Backtrack searches over stabilizer chains.

Two modes share the walk: ``subgroup_search`` collects the subgroup of all
ambient elements satisfying a property (the property must be closed under
products and inverses), and ``find_element`` returns one element passing
the property, or None.

The subgroup mode prunes with the growing known subgroup K: while the
chosen prefix equals the base prefix, a candidate image is skipped unless
it is the least point of its orbit under the stabilizer in K of the
earlier base points (or the base point itself).  Skipped branches are
recovered as products with K elements, so the returned group is the full
solution subgroup whenever the search completes within budget.
"""

from __future__ import annotations

from .errors import BudgetExceededError
from .group import PermGroup, orbit_of
from .perm import Permutation

PRUNE = object()


def orbit_minima(gens, n):
    """For each point, the least point of its orbit under the generators."""
    out = list(range(n))
    seen = [False] * n
    for a in range(n):
        if seen[a]:
            continue
        orb = orbit_of(gens, a)
        least = min(orb)
        for p in orb:
            seen[p] = True
            out[p] = least
    return out


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def tick(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError(
                f"search node budget {self.limit} exhausted")


class SearchResult:
    """A subgroup search outcome: the group found and the node count."""

    def __init__(self, group, nodes, complete):
        self.group = group
        self.nodes = nodes
        self.complete = complete


def subgroup_search(ambient, leaf_test, base_hint=(), hooks=None, seeds=(),
                    node_budget=None):
    """Largest subgroup of ambient whose elements pass leaf_test.

    hooks, when given, is a pair (initial_state, extend) where
    extend(level, base_point, image, state) returns a new state, or the
    module sentinel PRUNE to cut the branch; it must never prune a genuine
    solution's prefix.  seeds are
    known solutions used to prune from the start.
    """
    chain = ambient.chain_with_base(base_hint)
    levels = chain.levels
    depth = len(levels)
    base = [lvl.point for lvl in levels]
    n = ambient.degree
    budget = _Budget(node_budget)
    known = [g for g in seeds if not g.is_identity]
    current = {"K": PermGroup(n, known, seed=ambient.seed), "minima": {}}

    def minima_at(level):
        got = current["minima"].get(level)
        if got is None:
            kchain = current["K"].chain_with_base(base)
            gens = kchain.level_generators(level)
            got = orbit_minima(gens, n)
            current["minima"][level] = got
        return got

    init_state, extend = hooks if hooks is not None else (None, None)

    def dfs(level, t, state, principal):
        budget.tick()
        if level == depth:
            g = Permutation.identity(n) if t is None else t
            if leaf_test(g) and not current["K"].contains(g):
                known.append(g)
                current["K"] = PermGroup(n, known, seed=ambient.seed)
                current["minima"] = {}
            return
        lvl = levels[level]
        cands = sorted((delta if t is None else t.images[delta], delta)
                       for delta in lvl.orbit)
        for d, delta in cands:
            if extend is not None:
                state2 = extend(level, base[level], d, state)
                if state2 is PRUNE:
                    continue
            else:
                state2 = state
            if principal and d != base[level] and minima_at(level)[d] != d:
                continue
            u = lvl.rep(delta)
            if u is None:
                t2 = t
            else:
                t2 = u if t is None else u * t
            dfs(level + 1, t2, state2, principal and d == base[level])

    complete = True
    try:
        dfs(0, None, init_state, True)
    except BudgetExceededError:
        complete = False
    group = PermGroup(n, known, seed=ambient.seed)
    return SearchResult(group, budget.used, complete)


def find_element(ambient, leaf_test, base_hint=(), hooks=None,
                 node_budget=None):
    """First ambient element passing leaf_test, in the deterministic
    search order; None when none exists.  Raises BudgetExceededError when
    the node budget runs out first."""
    chain = ambient.chain_with_base(base_hint)
    levels = chain.levels
    depth = len(levels)
    base = [lvl.point for lvl in levels]
    n = ambient.degree
    budget = _Budget(node_budget)
    init_state, extend = hooks if hooks is not None else (None, None)

    def dfs(level, t, state):
        budget.tick()
        if level == depth:
            g = Permutation.identity(n) if t is None else t
            return g if leaf_test(g) else None
        lvl = levels[level]
        cands = sorted((delta if t is None else t.images[delta], delta)
                       for delta in lvl.orbit)
        for d, delta in cands:
            if extend is not None:
                state2 = extend(level, base[level], d, state)
                if state2 is PRUNE:
                    continue
            else:
                state2 = state
            u = lvl.rep(delta)
            if u is None:
                t2 = t
            else:
                t2 = u if t is None else u * t
            got = dfs(level + 1, t2, state2)
            if got is not None:
                return got
        return None

    return dfs(0, None, init_state)


def setwise_stabilizer(G, points, node_budget=None):
    """The stabilizer in G of the given point set (as a set)."""
    target = frozenset(points)
    inside = [a in target for a in range(G.degree)]

    def extend(level, base_point, image, state):
        if inside[base_point] != inside[image]:
            return PRUNE
        return state

    def leaf(g):
        return all(inside[g.images[a]] for a in target)

    result = subgroup_search(G, leaf, base_hint=sorted(target),
                             hooks=(None, extend), node_budget=node_budget)
    if not result.complete:
        raise BudgetExceededError(
            f"setwise stabilizer search exceeded {node_budget} nodes")
    return result.group


def intersection(G, H, node_budget=None):
    """The subgroup of elements lying in both G and H (same degree)."""
    chain = G.chain
    base = chain.base()
    hchain = H.chain_with_base(base)

    def extend(level, base_point, image, state):
        if level >= len(hchain.levels):
            return state
        t_b, t_b_inv = state if state is not None else (None, None)
        p = image if t_b_inv is None else t_b_inv.images[image]
        lvl = hchain.levels[level]
        if lvl.point != base_point:
            return state
        if p not in lvl.tree:
            return PRUNE
        u = lvl.rep(p)
        if u is None:
            t_b2 = t_b
        else:
            t_b2 = u if t_b is None else u * t_b
        return (t_b2, None if t_b2 is None else t_b2.inverse())

    def leaf(g):
        return H.contains(g)

    result = subgroup_search(G, leaf, hooks=((None, None), extend),
                             node_budget=node_budget)
    if not result.complete:
        raise BudgetExceededError(
            f"intersection search exceeded {node_budget} nodes")
    return result.group


def _forcing_search(x, y):
    """Hooks, leaf test and base hint for elements g with x^g == y.

    Mapping a point a to c forces x(a) to y(c), so each choice propagates
    along the cycles of x and y; base points taken cycle by cycle, longest
    first, fix the rest of a cycle after its first point.
    """
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
    return (None, extend), leaf, base_hint


def centralizer(G, x, node_budget=None):
    """The centralizer in G of the permutation x."""
    hooks, leaf, base_hint = _forcing_search(x, x)
    result = subgroup_search(G, leaf, base_hint=base_hint, hooks=hooks,
                             node_budget=node_budget)
    if not result.complete:
        raise BudgetExceededError(
            f"centralizer search exceeded {node_budget} nodes")
    return result.group


def conjugating_element(G, x, y, node_budget=None):
    """Some g in G with g^-1 x g == y, or None.  Raises on budget."""
    if x.cycle_type() != y.cycle_type():
        return None
    hooks, leaf, base_hint = _forcing_search(x, y)
    return find_element(G, leaf, base_hint=base_hint, hooks=hooks,
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
