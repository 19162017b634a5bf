"""Total 2-closure decisions, checked against brute-force sweeps."""

import itertools
import json

import pytest

import oracles
from twoclosure import totality
from twoclosure.closure import two_closure
from twoclosure.constructions import (alternating, cyclic, dihedral,
                                      direct_product, elementary_abelian,
                                      psl2, quaternion, symmetric)
from twoclosure.errors import (BudgetExceededError, GroupError,
                               SectionObstructionError)
from twoclosure.group import PermGroup
from twoclosure.subgroups import subgroup_classes
from twoclosure.totality import (INCONCLUSIVE, NO, SPORADIC_SECTION_PAIRS,
                                 YES, ActionWitness, TotalityBudget,
                                 TotalityVerdict, _ClassData,
                                 _faithful_subsets, assemble_action,
                                 factorization_disproof,
                                 is_totally_two_closed,
                                 replay_witness, representation_sweep,
                                 transitive_reduction_check,
                                 two_transitive_disproof)


@pytest.fixture(scope="module")
def psl213():
    G = psl2(13)
    return G, subgroup_classes(G)


def faithful_actions(G, table=None):
    """The actions the general sweep tests, in its order: the direct sums
    over the class subsets with trivially meeting cores."""
    if table is None:
        table = subgroup_classes(G)
    cache = _ClassData(G, table)
    return [assemble_action(G, table, subset, cache)
            for _, subset in _faithful_subsets(G, table)]


def oracle_cores(G, table, classes):
    """The core of each class's representative, as an element set, by
    brute force."""
    g_elements = [g.images for g in G.elements()]
    return {i: frozenset(oracles.oracle_core(
        g_elements, [h.images for h in table.representatives[i].elements()]))
        for i in classes}


def brute_faithful_subsets(G, table):
    """All class subsets with trivially meeting cores, by brute force."""
    classes = sorted(table.proper_classes())
    core_sets = oracle_cores(G, table, classes)
    order = G.order()
    out = set()
    for size in range(1, len(classes) + 1):
        for combo in itertools.combinations(classes, size):
            kernel = core_sets[combo[0]]
            for i in combo[1:]:
                kernel = kernel & core_sets[i]
            if len(kernel) == 1:
                out.add((sum(order // table.orders[i] for i in combo),
                         combo))
    return out


def test_budget_defaults_positive():
    b = TotalityBudget()
    assert b.max_actions > 0
    assert b.max_degree > 0
    assert b.node_budget > 0
    assert b.subgroup_order_bound > 0


@pytest.mark.parametrize("kwargs", [
    {"max_actions": 0},
    {"max_degree": -5},
    {"node_budget": True},
    {"subgroup_order_bound": 2.5},
])
def test_budget_rejects_bad_values(kwargs):
    with pytest.raises(GroupError):
        TotalityBudget(**kwargs)


def test_verdict_validation():
    with pytest.raises(GroupError):
        TotalityVerdict("Maybe")
    with pytest.raises(GroupError):
        TotalityVerdict(NO)
    with pytest.raises(GroupError):
        TotalityVerdict(INCONCLUSIVE)
    assert TotalityVerdict(YES).decided
    assert not TotalityVerdict(INCONCLUSIVE, frontier={}).decided


def test_factorization_s3():
    w = factorization_disproof(symmetric(3))
    assert {w.H.order(), w.K.order()} == {2, 3}
    assert {w.core_h_order, w.core_k_order} == {1, 3}


def test_factorization_a5():
    w = factorization_disproof(alternating(5))
    assert {w.H.order(), w.K.order()} == {5, 12}
    assert w.core_h_order == w.core_k_order == 1


@pytest.mark.parametrize("G", [
    cyclic(6),
    cyclic(12),
    elementary_abelian(2, 3),
    elementary_abelian(3, 2),
    direct_product(cyclic(2), cyclic(4)),
    quaternion(),
])
def test_factorization_none_for_these(G):
    # abelian groups only factorize as direct products, which are
    # excluded, and in the quaternion group every pair of order-4
    # subgroups shares the centre
    assert factorization_disproof(G) is None


@pytest.mark.parametrize("G", [
    symmetric(4),
    alternating(4),
    dihedral(4),
    dihedral(5),
])
def test_factorization_witness_is_valid(G):
    table = subgroup_classes(G)
    w = factorization_disproof(G, table=table)
    assert w is not None
    h_set = frozenset(p.images for p in w.H.elements())
    k_set = frozenset(p.images for p in w.K.elements())
    meet = len(h_set & k_set)
    assert w.H.order() * w.K.order() == G.order() * meet
    assert w.core_h_order * w.core_k_order != G.order()
    assembled = assemble_action(G, table, (w.h_class, w.k_class))
    res = two_closure(assembled.group)
    assert res.certified and res.index > 1


def test_factorization_needs_complete_table():
    partial = subgroup_classes(alternating(5), order_bound=10)
    assert not partial.complete
    with pytest.raises(GroupError):
        factorization_disproof(alternating(5), table=partial)


def test_two_transitive_a4():
    w = two_transitive_disproof(alternating(4))
    assert w.kind == "two-transitive"
    assert w.degree == 4
    assert w.closure_order == 24
    assert w.closure_index == 2


@pytest.mark.parametrize("G", [cyclic(6), symmetric(4), quaternion()])
def test_two_transitive_none(G):
    # S4 on 4 points closes to itself, and the abelian examples have no
    # core-free subgroup past the trivial one
    assert two_transitive_disproof(G) is None


def test_two_transitive_psl2_13(psl213):
    G, table = psl213
    w = two_transitive_disproof(G, table=table)
    assert w.degree == 14
    assert w.closure_order > G.order()
    assert replay_witness(w).index == w.closure_index


@pytest.mark.parametrize("G", [
    cyclic(4),
    cyclic(6),
    symmetric(3),
    elementary_abelian(2, 2),
    quaternion(),
    alternating(4),
    dihedral(5),
])
def test_stream_matches_brute_force(G):
    table = subgroup_classes(G)
    acts = faithful_actions(G, table)
    got = {(a.degree, a.classes) for a in acts}
    assert got == brute_faithful_subsets(G, table)
    degrees = [a.degree for a in acts]
    assert degrees == sorted(degrees)
    assert len({a.classes for a in acts}) == len(acts)
    for a in acts[:4]:
        assert a.group.order() == G.order()


def test_stream_c4_exactly():
    acts = faithful_actions(cyclic(4))
    assert [(a.classes, a.degree) for a in acts] == [((0,), 4), ((0, 1), 6)]


def test_stream_q8_counts():
    acts = faithful_actions(quaternion())
    assert len(acts) == 16
    # every nontrivial subgroup contains the centre, so faithful actions
    # all need a regular orbit
    assert all(a.classes[0] == 0 for a in acts)


def test_sweep_over_order_bound_is_inconclusive():
    v = representation_sweep(alternating(5),
                             TotalityBudget(subgroup_order_bound=4))
    assert v.status == INCONCLUSIVE
    assert v.frontier["stopped_by"] == "subgroup enumeration"
    assert v.tested == ()


@pytest.mark.parametrize("G, status", [(alternating(5), NO),
                                       (symmetric(4), INCONCLUSIVE)],
                         ids=["A5", "S4"])
def test_two_transitive_scan_over_order_bound_runs_out_of_budget(G, status):
    # Without a class table the decision only tries the defining action:
    # A5 on 5 points closes to S5, and S4 on 4 points is its own closure.
    budget = TotalityBudget(subgroup_order_bound=4)
    with pytest.raises(BudgetExceededError):
        two_transitive_disproof(G, budget)
    assert is_totally_two_closed(G, budget).status == status


def test_assemble_action_errors():
    G = symmetric(3)
    table = subgroup_classes(G)
    with pytest.raises(GroupError):
        assemble_action(G, table, ())
    with pytest.raises(GroupError):
        assemble_action(G, table, (table.full_class,))
    with pytest.raises(GroupError):
        assemble_action(G, table, (99,))


@pytest.mark.parametrize("G, classes", [
    (quaternion(), (0, 2)),
    (elementary_abelian(2, 2), (1, 2, 3)),
])
def test_duplicate_orbit_keeps_closedness(G, classes):
    table = subgroup_classes(G)
    base = assemble_action(G, table, classes)
    doubled = assemble_action(G, table, classes + classes[-1:])
    r1 = two_closure(base.group)
    r2 = two_closure(doubled.group)
    assert r1.certified and r2.certified
    assert (r1.index == 1) == (r2.index == 1)


def test_sweep_d5_finds_witness():
    v = representation_sweep(dihedral(5))
    assert v.status == NO
    assert v.witness.classes == (1, 2)
    assert v.witness.degree == 7
    assert v.witness.closure_order == 20
    assert v.tested[-1]["result"] == "witness"


def test_sweep_budget_then_resume():
    D5 = dihedral(5)
    first = representation_sweep(D5, TotalityBudget(max_actions=1))
    assert first.status == INCONCLUSIVE
    assert first.frontier["stopped_by"] == "actions"
    assert first.frontier["completed"] == [[1]]
    assert first.frontier["pending"] == [[1, 2]]
    json.dumps(first.frontier)
    json.dumps(first.budget_spent)
    second = representation_sweep(
        D5, completed=[tuple(c) for c in first.frontier["completed"]])
    assert second.status == NO
    assert second.witness.classes == (1, 2)
    assert second.budget_spent["resumed_subsets"] == 1


def test_sweep_base_size_pruning_observable():
    # vouch for the one witness subset so the sweep runs to completion;
    # the pentagon action is 2-closed with a base of two points, which
    # settles the regular action below it without another closure run
    D5 = dihedral(5)
    run = representation_sweep(D5, completed=[(1, 2)])
    entries = [e for e in run.tested if e["result"] == "pruned"]
    assert entries == [{"classes": [0], "degree": 10, "result": "pruned",
                        "via": 1}]
    # six actions: one resumed, one pruned and four closure runs; without
    # the shortcut the regular action would take a fifth run
    spent = run.budget_spent
    assert (spent["actions_enumerated"], spent["resumed_subsets"],
            spent["pruned_subsets"], spent["closure_runs"]) == (6, 1, 1, 4)
    # the shortcut must agree with the direct computation it skipped
    table = subgroup_classes(D5)
    regular = assemble_action(D5, table, (0,))
    assert two_closure(regular.group).index == 1


def test_sweep_is_deterministic():
    G = elementary_abelian(2, 2)
    a = representation_sweep(G)
    b = representation_sweep(G)
    assert a.status == b.status
    assert a.witness.classes == b.witness.classes
    assert a.tested == b.tested
    assert a.budget_spent == b.budget_spent


def test_reduction_a5_fails_factorization():
    v = transitive_reduction_check(alternating(5))
    assert v.status == NO
    assert v.witness.kind == "factorization"
    assert replay_witness(v.witness).index > 1


def test_reduction_psl2_7_fails_factorization():
    v = transitive_reduction_check(psl2(7))
    assert v.status == NO
    assert v.witness.kind == "factorization"


def test_reduction_psl2_13_fails_transitive_sweep(psl213):
    # no factorization exists here, so the failure surfaces in the
    # transitive sweep at the natural degree
    G, table = psl213
    v = transitive_reduction_check(G, table=table)
    assert v.status == NO
    assert v.witness.kind == "transitive"
    assert v.witness.degree == 14


def test_reduction_degree_stop_is_inconclusive(psl213):
    # the smallest transitive action has degree 14, so a degree cap of 13
    # stops the sweep before any closure runs
    G, table = psl213
    v = transitive_reduction_check(G, TotalityBudget(max_degree=13),
                                   table=table)
    assert v.status == INCONCLUSIVE
    assert v.frontier == {
        "stage": "transitive sweep", "stopped_by": "degree",
        "completed": [], "unresolved": [], "pending": [[14]],
        "note": "enumeration continues in nondecreasing total degree"}
    assert v.tested == ()


@pytest.mark.parametrize("build", [
    lambda: direct_product(alternating(5), alternating(6)),
    lambda: direct_product(alternating(5), alternating(5)),
])
def test_reduction_rejects_sections(build):
    with pytest.raises(SectionObstructionError, match="section"):
        transitive_reduction_check(build())


def test_reduction_rejects_non_semisimple():
    with pytest.raises(GroupError):
        transitive_reduction_check(symmetric(4))


def test_reduction_asserted_sections_lifts_witness():
    G = direct_product(alternating(5), alternating(6))
    v = transitive_reduction_check(G, assume_no_sections=True)
    assert v.status == NO
    assert v.witness.kind == "factorization"
    assert v.witness.degree == 377
    replayed = replay_witness(v.witness)
    assert replayed.certified
    assert replayed.closure.order() == v.witness.closure_order
    assert v.witness.closure_index == 240


def test_totality_trivial_group():
    assert is_totally_two_closed(cyclic(1)).status == YES


@pytest.mark.parametrize("G, count", [
    (cyclic(5), 1),
    (cyclic(6), 5),
    (cyclic(8), 4),
    (cyclic(27), 4),
    (quaternion(), 16),
])
def test_totality_yes_enumerates_tested(G, count):
    v = is_totally_two_closed(G)
    assert v.status == YES
    assert len(v.tested) == count
    assert all(e["result"] in ("closed", "pruned", "resumed")
               for e in v.tested)
    assert [e["classes"] for e in v.tested] == \
        [list(a.classes) for a in faithful_actions(G)]


def test_totality_c2c2_witness():
    v = is_totally_two_closed(elementary_abelian(2, 2))
    assert v.status == NO
    assert v.witness.classes == (1, 2, 3)
    assert v.witness.degree == 6
    assert v.witness.closure_index == 2
    assert v.tested[-1]["result"] == "witness"


def test_totality_s3_factorization():
    v = is_totally_two_closed(symmetric(3))
    assert v.status == NO
    assert v.witness.kind == "factorization"
    assert v.witness.degree == 5
    assert v.witness.closure_order == 12


@pytest.mark.parametrize("G", [
    symmetric(4),
    alternating(4),
    alternating(5),
    dihedral(4),
    dihedral(5),
])
def test_totality_no_by_factorization(G):
    v = is_totally_two_closed(G)
    assert v.status == NO
    assert v.witness.kind == "factorization"


def test_totality_psl2_13_two_transitive(psl213):
    G, table = psl213
    v = is_totally_two_closed(G, table=table)
    assert v.status == NO
    assert v.witness.kind == "two-transitive"
    assert v.witness.degree == 14


def test_totality_runs_no_semisimple_stage(psl213, monkeypatch):
    # the two disproofs and the sweep decide without the semisimple test
    # or the transitive-only reduction
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran the semisimple stage")

    monkeypatch.setattr(PermGroup, "is_semisimple_product", refuse)
    monkeypatch.setattr(totality, "transitive_reduction_check", refuse)
    cases = [(alternating(5), None, NO, "factorization"),
             (*psl213, NO, "two-transitive"),
             (direct_product(quaternion(), cyclic(3)), None, YES, None)]
    for G, table, status, kind in cases:
        v = is_totally_two_closed(G, TotalityBudget(max_actions=2000),
                                  table=table)
        assert v.status == status
        assert (v.witness and v.witness.kind) == kind


def test_totality_partial_table_uses_input_action():
    # with subgroup enumeration capped below the group order, the
    # defining 2-transitive action still settles the question
    v = is_totally_two_closed(psl2(13),
                              TotalityBudget(subgroup_order_bound=100))
    assert v.status == NO
    assert v.witness.kind == "input-action"
    assert v.witness.degree == 14


def test_totality_semisimple_over_bound_input_action():
    G = direct_product(alternating(5), alternating(6))
    v = is_totally_two_closed(G)
    assert v.status == NO
    assert v.witness.kind == "input-action"
    assert v.witness.closure_index == 4


def test_totality_inconclusive_then_resume():
    C30 = cyclic(30)
    first = is_totally_two_closed(C30, TotalityBudget(max_actions=3))
    assert first.status == INCONCLUSIVE
    assert first.frontier["stopped_by"] == "actions"
    assert first.reason
    json.dumps(first.frontier)
    done = [tuple(c) for c in first.frontier["completed"]]
    second = is_totally_two_closed(C30, completed=done)
    assert second.status == YES
    assert second.budget_spent["resumed_subsets"] == len(done)


@pytest.mark.parametrize("G", [symmetric(4), dihedral(4), alternating(5)],
                         ids=["S4", "D4", "A5"])
@pytest.mark.parametrize("node_budget", [1, 2, 4])
@pytest.mark.parametrize("max_actions", [1, 3])
def test_tiny_node_budget_gives_a_verdict(G, node_budget, max_actions):
    # budgets this small can stop the closure search of the factorization
    # witness action; running out must not escape as an exception
    v = is_totally_two_closed(G, TotalityBudget(
        node_budget=node_budget, max_actions=max_actions))
    assert isinstance(v, TotalityVerdict)
    assert v.status in (NO, INCONCLUSIVE)
    if v.status == INCONCLUSIVE and \
            v.frontier["stage"] == "factorization witness":
        assert v.frontier["stopped_by"] == "nodes"


@pytest.mark.parametrize("G", [
    symmetric(3),
    symmetric(4),
    alternating(4),
    dihedral(4),
    elementary_abelian(2, 2),
    elementary_abelian(3, 2),
    direct_product(cyclic(2), cyclic(4)),
    direct_product(quaternion(), cyclic(2)),
])
def test_no_witness_replays(G):
    v = is_totally_two_closed(G, TotalityBudget(max_actions=2000))
    assert v.status == NO
    res = replay_witness(v.witness)
    assert res.closure.order() > v.witness.group.order()
    assert res.closure.order() == v.witness.closure_order


def test_totality_deterministic():
    a = is_totally_two_closed(symmetric(4))
    b = is_totally_two_closed(symmetric(4))
    assert (a.status, a.witness.classes, a.witness.closure_order) == \
        (b.status, b.witness.classes, b.witness.closure_order)
    assert a.tested == b.tested


NILPOTENT_32 = [
    (cyclic(6), YES),
    (cyclic(8), YES),
    (cyclic(27), YES),
    (quaternion(), YES),
    (direct_product(quaternion(), cyclic(3)), YES),
    (elementary_abelian(2, 2), NO),
    (direct_product(cyclic(2), cyclic(4)), NO),
    (dihedral(4), NO),
    (elementary_abelian(3, 2), NO),
    (direct_product(quaternion(), cyclic(2)), NO),
]


@pytest.mark.parametrize("G, want", NILPOTENT_32)
def test_nilpotent_classification(G, want):
    # among nilpotent groups of order at most 32, exactly the cyclic
    # ones and the quaternion group times an odd cyclic group pass
    v = is_totally_two_closed(G, TotalityBudget(max_actions=2000))
    assert v.status == want


def faithful_multisets(G, table, degree_cap):
    """Faithful multisets of proper classes, repeats allowed."""
    classes = sorted(table.proper_classes())
    order = G.order()
    degrees = {i: order // table.orders[i] for i in classes}
    core_sets = oracle_cores(G, table, classes)
    full = frozenset(p.images for p in G.elements())

    def extend(start, chosen, total, kernel):
        if chosen and len(kernel) == 1:
            yield tuple(chosen)
        for i in classes[start:]:
            if total + degrees[i] > degree_cap:
                continue
            chosen.append(i)
            yield from extend(classes.index(i), chosen,
                              total + degrees[i], kernel & core_sets[i])
            chosen.pop()

    yield from extend(0, [], 0, full)


@pytest.mark.parametrize("G, want", [
    (cyclic(6), True),
    (cyclic(10), True),
    (quaternion(), True),
    (elementary_abelian(2, 2), False),
])
def test_desk_scale_multiset_sweep_agrees(G, want):
    # the unpruned ground truth: every faithful multiset of coset
    # actions up to twice the group order, duplicates included
    table = subgroup_classes(G)
    all_closed = True
    seen = 0
    for combo in faithful_multisets(G, table, 2 * G.order()):
        seen += 1
        act = assemble_action(G, table, combo)
        res = two_closure(act.group)
        assert res.certified
        if res.index > 1:
            all_closed = False
            break
    assert seen > 0
    assert all_closed == want
    verdict = is_totally_two_closed(G)
    assert (verdict.status == YES) == want


def test_sporadic_section_data():
    assert SPORADIC_SECTION_PAIRS == {("Th", "M")}


def test_witness_fields_serialize():
    v = is_totally_two_closed(symmetric(3))
    w = v.witness
    assert isinstance(w, ActionWitness)
    assert w.description
    json.dumps({"kind": w.kind, "classes": list(w.classes),
                "degree": w.degree, "closure": w.closure_order})
    json.dumps(v.budget_spent)
