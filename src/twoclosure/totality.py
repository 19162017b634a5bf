"""Deciding whether every faithful action of a finite group is 2-closed.

A permutation group is 2-closed when it already contains every permutation
that preserves each of its orbits on ordered pairs.  A finite group is
totally 2-closed when every faithful permutation representation of it is
2-closed.  This module decides that property for groups small enough to
enumerate, running cheap disproofs before full sweeps:

1.  A factorization G = HK with both factors proper, the cores of H and K
    meeting trivially, and G not the direct product of the two cores gives
    a faithful two-orbit action (cosets of H next to cosets of K) whose
    2-closure is strictly larger.  Verdict No, or Inconclusive when the
    node budget stops the closure search of that action.
2.  A faithful 2-transitive action on n points with |G| < n! closes to the
    full symmetric group.  Verdict No.
3.  In general the group is totally 2-closed exactly when every faithful
    action with pairwise non-equivalent orbits is 2-closed.  Such actions
    correspond to subsets of subgroup conjugacy classes whose cores
    intersect trivially, and the sweep tests them in degree order.

The paper also reduces a direct product of nonabelian simple groups, none
a section of the others: it is totally 2-closed exactly when no factor
factorizes nontrivially and every transitive action on more than one
point, faithful or not, is 2-closed.  The pipeline no longer runs this
reduction (``transitive_reduction_check`` does): within the enumeration
bound the two disproofs settle every such group first.

Verdicts are "Yes", "No" with a replayable witness action, or
"Inconclusive" with a frontier recording what was and was not tested.
Budgets count work units (actions, search nodes, subgroup orders), never
wall time, so verdicts are reproducible.  Sweep items are independent and
could be tested concurrently; this implementation tests them in
enumeration order, which doubles as the deterministic tie-break for the
first witness.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass, field, replace

from .actions import coset_action
from .basesize import exact_base_size
from .closure import two_closure
from .errors import BudgetExceededError, GroupError, SectionObstructionError
from .group import PermGroup
from .orbital import DENSE_LIMIT, OrbitalBlock, OrbitalPartition
from .perm import Permutation
from .subgroups import (ORDER_BOUND, all_subgroup_sets, has_section,
                        subgroup_classes)

YES = "Yes"
NO = "No"
INCONCLUSIVE = "Inconclusive"

DEFAULT_MAX_ACTIONS = 512
DEFAULT_MAX_DEGREE = 4096
DEFAULT_NODE_BUDGET = 300_000

# Published section data for sporadic factors far beyond any enumeration
# budget.  Among the simple groups known to be totally 2-closed, the only
# sectional containment is the Thompson group inside the Monster; J1 in
# particular is not a section of the Monster.  Pairs are (small, big).
SPORADIC_SECTION_PAIRS = frozenset({("Th", "M")})


@dataclass(frozen=True)
class TotalityBudget:
    """Work-unit limits for the decision procedure.

    max_actions caps how many closure computations a sweep may run,
    max_degree caps the degree of any assembled action, node_budget is
    passed to each backtrack search, and subgroup_order_bound limits the
    group orders whose subgroups are enumerated.
    """

    max_actions: int = DEFAULT_MAX_ACTIONS
    max_degree: int = DEFAULT_MAX_DEGREE
    node_budget: int = DEFAULT_NODE_BUDGET
    subgroup_order_bound: int = ORDER_BOUND

    def __post_init__(self):
        for name in ("max_actions", "max_degree", "node_budget",
                     "subgroup_order_bound"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise GroupError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class ActionWitness:
    """An action of the group whose 2-closure strictly contains the image.

    group is the image of the action on its points; for the witnesses of
    ``transitive_reduction_check`` it may be a proper quotient of the
    group under test, which is exactly what that reduction examines.
    classes lists the point-stabilizer conjugacy classes the action was
    assembled from, when it came from a class table.  closure_order is
    the order of the 2-closure found; when certified is False the search
    hit its node budget and closure_order is only a lower bound, though
    still strictly above the image order.
    """

    kind: str
    description: str
    classes: tuple
    degree: int
    group: PermGroup
    closure_order: int
    certified: bool = True

    @property
    def closure_index(self):
        return self.closure_order // self.group.order()


def replay_witness(witness, node_budget=None):
    """Recompute the 2-closure of a witness action from scratch."""
    return two_closure(witness.group, node_budget=node_budget)


@dataclass(frozen=True)
class TotalityVerdict:
    """The outcome of a total-2-closure decision.

    status is "Yes", "No", or "Inconclusive".  No-verdicts carry a
    witness whose closure strictly exceeds its image.  Inconclusive
    verdicts carry a frontier dict with "completed", "unresolved", and
    "pending" class subsets so a later run can resume.  tested enumerates
    every representation the sweep accounted for, each entry a dict with
    the classes involved, the degree, and how it was settled.  A
    factorization whose witness action the node budget stops is
    Inconclusive, with frontier stage "factorization witness" and
    stopped_by "nodes".
    """

    status: str
    reason: str = ""
    witness: ActionWitness | None = None
    frontier: dict | None = None
    budget_spent: dict = field(default_factory=dict)
    tested: tuple = ()

    def __post_init__(self):
        if self.status not in (YES, NO, INCONCLUSIVE):
            raise GroupError(f"unknown verdict status {self.status!r}")
        if self.status == NO and self.witness is None:
            raise GroupError("a No verdict needs a witness action")
        if self.status == INCONCLUSIVE and self.frontier is None:
            raise GroupError("an Inconclusive verdict needs a frontier")

    @property
    def decided(self):
        return self.status != INCONCLUSIVE


@dataclass(frozen=True)
class FactorizationWitness:
    """A factorization G = HK whose cores meet trivially.

    Together with core_G(H) x core_G(K) being smaller than G this places
    G outside the totally 2-closed groups: the action on the cosets of H
    next to the cosets of K is faithful, every crossing pair orbit is a
    full product, and so the closure contains the product of the two
    constituent closures, which is strictly larger than G.
    """

    H: PermGroup
    K: PermGroup
    h_class: int
    k_class: int
    core_h_order: int
    core_k_order: int


@dataclass(frozen=True)
class AssembledAction:
    """A direct sum of coset actions, as a permutation group.

    classes records the table indices of the point stabilizers, one per
    orbit in order; degree is the total number of points.
    """

    classes: tuple
    degree: int
    group: PermGroup


def _direct_sum(G, actions, order=None):
    """One permutation group acting on the disjoint union of coset spaces.

    The generator lists of the individual actions line up with
    G.generators entry for entry, so concatenating images per generator
    yields the diagonal action.  order, when given, is the image's order.
    """
    total = sum(act.degree for act in actions)
    gens = []
    for gi in range(len(G.generators)):
        images = []
        offset = 0
        for act in actions:
            images.extend(offset + v for v in act.image_gens[gi].images)
            offset += act.degree
        # shifted images of bijections on disjoint ranges: a bijection
        gens.append(Permutation._trusted(tuple(images)))
    return PermGroup(total, gens, seed=G.seed, order=order)


class _ClassData:
    """What the actions of one class table share, each built once.

    Holds the coset action of each class and the orbital block of each
    ordered pair of classes, which is the same in every direct sum
    holding both classes.
    """

    def __init__(self, G, table):
        self.G = G
        self.table = table
        self._actions = {}
        self._blocks = {}

    def action(self, ci):
        act = self._actions.get(ci)
        if act is None:
            act = coset_action(self.G, self.table.representatives[ci])
            self._actions[ci] = act
        return act

    def image_order(self, classes):
        """|G| / |the intersection of the classes' cores|: the order of
        the direct sum of their coset actions."""
        kernel = functools.reduce(
            operator.and_, map(self.table.core_bits.__getitem__, classes))
        return self.G.order() // kernel.bit_count()

    def partition(self, assembled):
        """The orbital partition of an assembled action, from the blocks
        of its class pairs; None above DENSE_LIMIT, where two_closure
        builds the compressed one itself."""
        if assembled.degree > DENSE_LIMIT:
            return None
        rows = []
        for ci in assembled.classes:
            row = []
            for cj in assembled.classes:
                block = self._blocks.get((ci, cj))
                if block is None:
                    block = OrbitalBlock(self.action(ci).image_gens,
                                         self.action(cj).image_gens)
                    self._blocks[ci, cj] = block
                row.append(block)
            rows.append(row)
        return OrbitalPartition(assembled.group, blocks=rows)


def assemble_action(G, table, class_indices, cache=None):
    """The direct sum of the coset actions for the given subgroup classes.

    Repeated indices are allowed; the sweep never assembles them, but
    appending an equivalent copy of an orbit is useful when checking
    that duplicates do not change 2-closedness.  cache, if
    given, is the table's _ClassData, which keeps the coset actions.  The
    group is told its order, |G| over the order of the intersection of
    the classes' cores, so its re-based chains stop there.
    """
    if not class_indices:
        raise GroupError("an action needs at least one orbit")
    full = table.full_class
    for ci in class_indices:
        if not 0 <= ci < len(table.orders):
            raise GroupError(f"no subgroup class with index {ci}")
        if ci == full:
            raise GroupError(
                "the full group as a stabilizer gives a fixed point, "
                "not an orbit")
    if cache is None:
        cache = _ClassData(G, table)
    group = _direct_sum(G, [cache.action(ci) for ci in class_indices],
                        cache.image_order(class_indices))
    return AssembledAction(tuple(class_indices), group.degree, group)


def _faithful_subsets(G, table):
    """Class subsets with trivially intersecting cores, by total degree.

    Yields (degree, classes) pairs in nondecreasing total degree, ties
    broken by the class-index tuple.  Subsets whose cores still intersect
    nontrivially are extended but not yielded, since adding more orbits
    can shrink the kernel.  Extensions only use larger class indices, so
    each subset appears exactly once.  A kernel is the AND of the
    classes' core bitsets.
    """
    order = G.order()
    classes = sorted(table.proper_classes())
    degrees = {i: order // table.orders[i] for i in classes}
    cores = table.core_bits
    heap = [(degrees[i], (i,), cores[i]) for i in classes]
    heapq.heapify(heap)
    while heap:
        degree, subset, kernel = heapq.heappop(heap)
        if kernel.bit_count() == 1:
            yield degree, subset
        last = subset[-1]
        for j in classes:
            if j > last:
                heapq.heappush(heap, (degree + degrees[j], subset + (j,),
                                      kernel & cores[j]))


def factorization_disproof(G, budget=None, table=None):
    """Search for a factorization G = HK that rules out total 2-closure.

    A witness needs both factors proper, the cores of H and K meeting
    trivially, and the core orders not multiplying back to |G|; absence
    of a witness proves nothing.  Conjugating either factor neither
    creates nor destroys a factorization, and no group is the product of
    two conjugates of one proper subgroup, so checking one representative
    pair per pair of distinct classes is exhaustive.  Returns the first
    witness in class-pair order, or None.
    """
    budget = budget if budget is not None else TotalityBudget()
    if table is None:
        table = subgroup_classes(G, budget.subgroup_order_bound)
    if not table.complete:
        raise GroupError(
            "the factorization search needs a complete subgroup class "
            "table")
    order = G.order()
    members = table.member_bits
    cores = table.core_bits
    candidates = [i for i in table.proper_classes() if table.orders[i] > 1]
    for a, i in enumerate(candidates):
        for j in candidates[a + 1:]:
            product = table.orders[i] * table.orders[j]
            if product < order or product % order != 0:
                # |HK| = |H||K| / |H n K| can only reach |G| if |G|
                # divides |H||K|
                continue
            if product != order * (members[i] & members[j]).bit_count():
                continue
            core_h = cores[i].bit_count()
            core_k = cores[j].bit_count()
            if core_h * core_k == order \
                    or (cores[i] & cores[j]).bit_count() > 1:
                continue
            return FactorizationWitness(
                table.representatives[i], table.representatives[j], i, j,
                core_h, core_k)
    return None


def _is_two_transitive(image):
    n = image.degree
    if n < 2 or not image.is_transitive():
        return False
    return len(image.point_stabilizer(0).orbit(1)) == n - 1


def two_transitive_disproof(G, budget=None, table=None, _spent=None):
    """A faithful 2-transitive action strictly below the symmetric group.

    Any such action closes to Sym(n), so finding one with |G| < n! rules
    out total 2-closure.  Scans core-free proper classes in ascending
    coset degree and returns an ActionWitness, or None.  Raises
    BudgetExceededError when the class table is incomplete, that is when
    G is larger than the budget's subgroup_order_bound.
    """
    budget = budget if budget is not None else TotalityBudget()
    if table is None:
        table = subgroup_classes(G, budget.subgroup_order_bound)
    if not table.complete:
        raise BudgetExceededError(
            "the 2-transitive scan needs a complete subgroup class table")
    spent = _spent if _spent is not None else _new_spent()
    order = G.order()
    scan = sorted((order // table.orders[i], i)
                  for i in table.proper_classes() if table.core_free(i))
    cache = _ClassData(G, table)
    for degree, i in scan:
        if degree > budget.max_degree:
            break
        if table.orders[i] == 1 and order > 2:
            # a regular action is 2-transitive only on two points
            continue
        if order >= math.factorial(degree):
            # the image would have to be all of Sym(degree)
            continue
        assembled = assemble_action(G, table, (i,), cache)
        if not _is_two_transitive(assembled.group):
            continue
        res = _run_closure(assembled.group, budget, spent,
                           cache.partition(assembled))
        return ActionWitness(
            "two-transitive",
            f"2-transitive coset action of degree {degree} for stabilizer "
            f"class {i}; the closure is the full symmetric group",
            (i,), degree, assembled.group, res.closure.order(),
            res.certified)
    return None


def _new_spent():
    return {"closure_runs": 0, "closure_nodes": 0, "actions_enumerated": 0,
            "base_size_checks": 0, "pruned_subsets": 0,
            "resumed_subsets": 0}


def _merge_spent(first, second):
    merged = dict(first)
    for key, value in second.items():
        merged[key] = merged.get(key, 0) + value
    return merged


def _run_closure(group, budget, spent, partition=None):
    """two_closure under the shared budget."""
    spent["closure_runs"] += 1
    res = two_closure(group, node_budget=budget.node_budget,
                      partition=partition)
    spent["closure_nodes"] += res.nodes
    return res


def _descendant_classes(table, cls):
    """Classes strictly below cls in the covering relation."""
    children = {}
    for lo, hi in table.edges:
        children.setdefault(hi, set()).add(lo)
    out = set()
    stack = [cls]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in out:
                out.add(child)
                stack.append(child)
    return out


def _maybe_prune(table, cls, assembled, budget, spent, pruned):
    """Record classes below cls as settled when the shortcut applies.

    If the coset action for a core-free class is 2-closed with base size
    at most 2, then the coset action of every subgroup below it is also
    2-closed: the larger cosets form an invariant partition on which the
    induced image is the 2-closed base-2 action, and that pins the
    closure down to the group itself.  Every subgroup of a core-free
    subgroup is core-free, so the skipped actions stay faithful.
    """
    if not table.core_free(cls):
        return
    spent["base_size_checks"] += 1
    report = exact_base_size(assembled.group, node_budget=budget.node_budget)
    if report.exact is not None and report.exact <= 2:
        for below in _descendant_classes(table, cls):
            pruned.setdefault(below, cls)


def representation_sweep(G, budget=None, table=None, completed=()):
    """Test every faithful pairwise-non-equivalent action of G.

    The actions are the direct sums over the class subsets of
    _faithful_subsets, in nondecreasing degree.  Two orbits with
    conjugate stabilizers are equivalent, and dropping such a duplicate
    never changes 2-closedness, so these actions decide total 2-closure.
    Yes when each such action is certified 2-closed; No at the first
    one whose closure strictly exceeds the image; Inconclusive when a
    budget stops the sweep or a search cannot certify, and when the group
    is too large for a complete subgroup class table.  The base-size
    shortcut marks single-orbit actions below a core-free 2-closed base-2
    stabilizer as settled without re-testing them.
    completed lists class subsets already verified 2-closed by an earlier
    run (from a frontier's "completed" list); they are skipped, and the
    caller vouches for them.
    """
    budget = budget if budget is not None else TotalityBudget()
    if table is None:
        table = subgroup_classes(G, budget.subgroup_order_bound)
    if not table.complete:
        return _unenumerated(G, "multi-orbit sweep", budget, _new_spent())
    cache = _ClassData(G, table)
    return _sweep(G, table, cache, _faithful_subsets(G, table),
                  budget, "multi-orbit sweep",
                  {tuple(subset) for subset in completed})


def _sweep(G, table, cache, items, budget, stage, done=()):
    """Test the action of each (degree, class-subset) item in order.

    Items must come in nondecreasing degree; the first one above
    max_degree stops the sweep, as does reaching max_actions closure
    runs.  Subsets in done count as resumed, and the base-size shortcut
    settles single classes below a core-free 2-closed base-2
    stabilizer.  The verdict is No at the first action whose
    closure exceeds its image, Inconclusive on a stop or an uncertified
    search, and Yes otherwise.

    Every action is a direct sum of coset actions of a few classes, so
    cache, the table's _ClassData, builds what the actions share once per
    sweep: each class's coset action and the orbital block of each
    ordered pair of classes.  An action's orbital partition is put
    together from its class pairs' blocks, and its group is told its
    order, so the closure search's chain stops there.  An action holding
    the trivial class has a regular orbit and closes without a search,
    and comparing its closure with its image reads the told order, so it
    builds no chain at all.
    """
    spent = _new_spent()
    tested = []
    unresolved = []
    pruned = {}
    for degree, subset in items:
        spent["actions_enumerated"] += 1
        entry = {"classes": list(subset), "degree": degree}
        if degree > budget.max_degree:
            return _inconclusive(stage, "degree", tested, unresolved,
                                 [entry], spent)
        if subset in done:
            entry["result"] = "resumed"
            spent["resumed_subsets"] += 1
        elif len(subset) == 1 and subset[0] in pruned:
            entry["result"] = "pruned"
            entry["via"] = pruned[subset[0]]
            spent["pruned_subsets"] += 1
        elif spent["closure_runs"] >= budget.max_actions:
            return _inconclusive(stage, "actions", tested, unresolved,
                                 [entry], spent)
        else:
            assembled = assemble_action(G, table, subset, cache)
            res = _run_closure(assembled.group, budget, spent,
                               cache.partition(assembled))
            if res.closure.order() > assembled.group.order():
                entry["result"] = "witness"
                tested.append(entry)
                witness = ActionWitness(
                    "multi-orbit" if len(subset) > 1 else "transitive",
                    f"the action on stabilizer classes {list(subset)} of "
                    f"degree {degree} is not 2-closed",
                    subset, degree, assembled.group, res.closure.order(),
                    res.certified)
                return _no(witness, spent, tested)
            if not res.certified:
                entry["result"] = "unresolved"
                unresolved.append(entry)
            else:
                entry["result"] = "closed"
                if len(subset) == 1:
                    _maybe_prune(table, subset[0], assembled, budget, spent,
                                 pruned)
        tested.append(entry)
    if unresolved:
        return _inconclusive(stage, None, tested, unresolved, [], spent)
    return TotalityVerdict(
        YES, reason=f"every action in the {stage} is 2-closed",
        budget_spent=spent, tested=tuple(tested))


def _no(witness, spent, tested=None):
    """A No verdict; tested defaults to the witness action alone."""
    if tested is None:
        tested = [{"classes": list(witness.classes),
                   "degree": witness.degree, "result": "witness"}]
    return TotalityVerdict(NO, reason=witness.description, witness=witness,
                           budget_spent=spent, tested=tuple(tested))


def _inconclusive(stage, stopped_by, tested, unresolved, pending, spent,
                  note="enumeration continues in nondecreasing total "
                       "degree"):
    """An Inconclusive verdict whose frontier lets a later run resume.

    stopped_by names the exhausted budget, or is None when the stage ran
    to its end but some closure searches could not be certified.
    """
    frontier = {
        "stage": stage,
        "stopped_by": stopped_by,
        "completed": [entry["classes"] for entry in tested
                      if entry["result"] in ("closed", "resumed", "pruned")],
        "unresolved": [entry["classes"] for entry in unresolved],
        "pending": [entry["classes"] for entry in pending],
        "note": note,
    }
    reason = ("a closure search could not be certified"
              if stopped_by is None else
              f"{stage} stopped by the {stopped_by} budget")
    return TotalityVerdict(INCONCLUSIVE, reason=reason, frontier=frontier,
                           budget_spent=spent, tested=tuple(tested))


def _unenumerated(G, stage, budget, spent):
    """Inconclusive because G is too large for a complete class table."""
    return _inconclusive(
        stage, "subgroup enumeration", [], [], [], spent,
        note=f"group order {G.order()} exceeds the enumeration bound "
             f"{budget.subgroup_order_bound}")


def _certified_witness(kind, description, classes, group, budget, spent):
    """The witness for an action known not to be 2-closed, or None when
    the node budget stops its closure search before the closure grows
    past the image."""
    res = _run_closure(group, budget, spent)
    if not res.certified and res.closure.order() == group.order():
        return None
    if res.closure.order() == group.order():
        raise GroupError(
            f"internal inconsistency: a {kind} witness action computed as "
            "2-closed")
    return ActionWitness(kind, description, classes, group.degree, group,
                         res.closure.order(), res.certified)


def _factor_witness(G, factors, idx, fact, budget, spent):
    """A faithful G-action that fails 2-closure, from a factorization of
    one simple factor.

    G acts on the two coset spaces of the factorization through the
    projection onto that factor; one regular orbit per remaining factor
    restores faithfulness.  An element acting as the extra closure of the
    projected part and trivially elsewhere preserves every pair orbit, so
    the closure is strictly larger than G.  Raises BudgetExceededError
    when the node budget stops the closure search.
    """
    def with_all_but(j, gens=()):
        return PermGroup(G.degree, list(gens) + [
            g for k, other in enumerate(factors) if k != j
            for g in other.generators], seed=G.seed)

    stabilizers = [with_all_but(idx, fact.H.generators),
                   with_all_but(idx, fact.K.generators)]
    stabilizers += [with_all_but(j) for j in range(len(factors)) if j != idx]
    actions = [coset_action(G, stab) for stab in stabilizers]
    witness = _certified_witness(
        "factorization",
        f"a direct factor of order {factors[idx].order()} factorizes as a "
        f"product of subgroups of orders {fact.H.order()} and "
        f"{fact.K.order()}; the paired coset action, made faithful with "
        "regular orbits of the remaining factors, is not 2-closed",
        (), _direct_sum(G, actions), budget, spent)
    if witness is None:
        raise BudgetExceededError(
            "could not certify the factorization witness action within "
            "the node budget")
    return witness


def transitive_reduction_check(G, budget=None, assume_no_sections=False,
                               table=None):
    """Total 2-closure for a direct product of nonabelian simple groups.

    The reduction applies when no factor is isomorphic to a section of
    the others; a simple section of a direct product is a section of one
    factor, so pairwise testing suffices.  The test enumerates each
    factor's subgroups, and a factor beyond the enumeration budget raises
    unless assume_no_sections asserts the condition, the route meant for
    the named sporadic pairs recorded in SPORADIC_SECTION_PAIRS.

    Once the precondition holds, the group is totally 2-closed exactly
    when (a) no factor admits a nontrivial factorization and (b) every
    transitive action on more than one point, faithful or not, is
    2-closed.  Condition (b) sweeps the coset action of every proper
    subgroup class in ascending degree.

    The decision pipeline no longer calls this.  The benchmark tracer
    spans it and the ``all_subgroup_sets``, ``has_section`` and
    ``PermGroup.normal_closure`` it reaches, so they stay until the
    benchmark's target list drops them.
    """
    budget = budget if budget is not None else TotalityBudget()
    if not G.is_semisimple_product():
        raise GroupError(
            "the transitive reduction needs a direct product of "
            "nonabelian simple groups")
    factors = G.minimal_normal_subgroups()
    spent = _new_spent()

    if not assume_no_sections and len(factors) > 1:
        factor_subs = []
        for factor in factors:
            if factor.order() > budget.subgroup_order_bound:
                raise BudgetExceededError(
                    f"a factor of order {factor.order()} is too large for "
                    "the section test; pass assume_no_sections=True when "
                    "the condition is known from published data")
            factor_subs.append(all_subgroup_sets(
                factor, budget.subgroup_order_bound))
        for i, small in enumerate(factors):
            for j, big in enumerate(factors):
                if i == j or small.order() > big.order():
                    continue
                if has_section(big, small.order(), factor_subs[j], G.degree):
                    raise SectionObstructionError(
                        f"a factor of order {small.order()} is a section "
                        f"of a factor of order {big.order()}, so the "
                        "transitive-only reduction does not apply")

    # condition (a): no factor factorizes nontrivially
    for idx, factor in enumerate(factors):
        if factor.order() > budget.subgroup_order_bound:
            raise BudgetExceededError(
                f"a factor of order {factor.order()} is too large to "
                "search for factorizations")
        if len(factors) == 1 and table is not None and table.complete:
            ftable = table
        else:
            ftable = subgroup_classes(factor, budget.subgroup_order_bound)
        fact = factorization_disproof(factor, budget, table=ftable)
        if fact is not None:
            return _no(_factor_witness(G, factors, idx, fact, budget, spent),
                       spent)

    # condition (b): every transitive action of G is 2-closed; no closure
    # has run yet, so the sweep's own ledger is the whole spend
    if table is None:
        table = subgroup_classes(G, budget.subgroup_order_bound)
    if not table.complete:
        return _unenumerated(G, "transitive sweep", budget, spent)
    order = G.order()
    return _sweep(G, table, _ClassData(G, table),
                  sorted((order // table.orders[i], (i,))
                         for i in table.proper_classes()),
                  budget, "transitive sweep")


def is_totally_two_closed(G, budget=None, completed=(), table=None):
    """Decide whether every faithful action of G is 2-closed.

    Runs, in order: the factorization disproof, the 2-transitive
    disproof, and the general sweep over faithful actions with pairwise
    non-equivalent orbits.  Stops at the first No witness; answers Yes
    only when the sweep completes; otherwise returns Inconclusive with a
    frontier.  A factorization whose witness action the node budget
    cannot certify also gives Inconclusive.  completed feeds a previous
    frontier's "completed" list back into the general sweep.
    """
    budget = budget if budget is not None else TotalityBudget()
    if G.order() == 1:
        return TotalityVerdict(
            YES, reason="the trivial group is 2-closed in every action")
    spent = _new_spent()
    if table is None:
        table = subgroup_classes(G, budget.subgroup_order_bound)

    if not table.complete:
        # Best effort without a class table: the defining action of G is
        # itself faithful, so its failure to be 2-closed already decides.
        res = _run_closure(G, budget, spent)
        if res.closure.order() > G.order():
            return _no(ActionWitness(
                "input-action",
                "the defining action of the group is not 2-closed",
                (), G.degree, G, res.closure.order(), res.certified), spent)
        return _unenumerated(G, "subgroup enumeration", budget, spent)

    fact = factorization_disproof(G, budget, table=table)
    if fact is not None:
        classes = (fact.h_class, fact.k_class)
        assembled = assemble_action(G, table, classes)
        witness = _certified_witness(
            "factorization",
            f"the group is the product of subgroup classes {fact.h_class} "
            f"and {fact.k_class} with trivially meeting cores; the paired "
            "coset action is not 2-closed",
            classes, assembled.group, budget, spent)
        if witness is None:
            entry = {"classes": list(classes), "degree": assembled.degree,
                     "result": "unresolved"}
            return _inconclusive(
                "factorization witness", "nodes", [entry], [entry], [],
                spent,
                note="the paired coset action of the factorization needs "
                     "a larger node budget")
        return _no(witness, spent)

    wit = two_transitive_disproof(G, budget, table=table, _spent=spent)
    if wit is not None:
        return _no(wit, spent)

    verdict = representation_sweep(G, budget, table=table,
                                   completed=completed)
    return replace(verdict,
                   budget_spent=_merge_spent(spent, verdict.budget_spent))
