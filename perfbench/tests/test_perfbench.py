"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import Case, make_case, shuffled, solve  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_cases(seed=0):
    from twoclosure.constructions import (alternating, cyclic, dihedral,
                                          quaternion)
    return shuffled([
        make_case("C6", "totality", cyclic(6), "Yes"),
        make_case("Q8", "totality", quaternion(), "Yes"),
        make_case("A5", "subgroups", alternating(5),
                  {"classes": 9, "subgroups": 59}),
        make_case("D8", "closure", dihedral(4), {"index": 1, "base_size": 2}),
    ], seed)


def wrong(case, expected):
    return Case(case.label, case.kind, case.degree, case.gens, expected)


def run_main(monkeypatch, tmp_path, capsys, cases, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda seed: cases)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "tiny", "--seed", "0", "--seconds",
                     "0.01", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def traced_pass(cases):
    with Tracer() as tracer:
        _, _, outcomes = run.run_pass(cases, solve, tracer)
    return tracer, outcomes


def test_tiny_cases_are_answered_correctly():
    for case in tiny_cases():
        ok, detail = solve(case)
        assert ok, (case.label, detail)


def test_two_traced_runs_give_identical_counters():
    first, first_outcomes = traced_pass(tiny_cases(seed=3))
    second, second_outcomes = traced_pass(tiny_cases(seed=3))
    assert all(ok for _, ok, _, _ in first_outcomes + second_outcomes)
    assert first.counts() == second.counts()
    assert [o[3] for o in first_outcomes] == [o[3] for o in second_outcomes]
    counts = first.counts()
    assert counts["closure.calls"] > 0
    assert counts["subgroups.class_tables"] > 0
    assert counts["totality.closure_runs"] > 0
    assert counts["perm.constructed"] > 0


def test_tracer_patches_every_binding_and_restores_it():
    import twoclosure
    import twoclosure.closure as closure
    import twoclosure.totality as totality
    original = closure.two_closure
    assert totality.two_closure is original
    with Tracer():
        assert closure.two_closure is not original
        assert totality.two_closure is closure.two_closure
        assert twoclosure.two_closure is closure.two_closure
    for module in (closure, totality, twoclosure):
        assert module.two_closure is original


def test_tracer_skips_targets_the_package_lacks(monkeypatch):
    monkeypatch.setattr(tracing, "COUNTED", tracing.COUNTED + [
        ("perm", "perm", "Permutation.gone", "gone"),
        ("closure", "closure", "gone", "gone")])
    tracer, outcomes = traced_pass(tiny_cases()[:1])
    assert tracer.missing == ["perm.Permutation.gone", "closure.gone"]
    assert all(ok for _, ok, _, _ in outcomes)
    assert tracer.counts()["totality.closure_runs"] > 0


@pytest.mark.parametrize("label, expected", [
    ("C6", "No"),
    ("A5", {"classes": 9, "subgroups": 60}),
    ("D8", {"index": 1, "base_size": 3}),
])
def test_wrong_expected_answer_is_reported_as_failed(
        monkeypatch, tmp_path, capsys, label, expected):
    cases = [wrong(c, expected) if c.label == label else c
             for c in tiny_cases()]
    code, result = run_main(monkeypatch, tmp_path, capsys, cases, trace=0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(cases)


def test_crash_is_reported_as_failed(monkeypatch, tmp_path, capsys):
    cases = [Case("bad", "closure", 3, ((0, 0, 1),), {})]
    code, result = run_main(monkeypatch, tmp_path, capsys, cases, trace=0)
    assert code != 0
    assert result["failed"] == result["attempted"] == 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_benchmark_metric_is_produced(
        monkeypatch, tmp_path, capsys, trace, section):
    code, result = run_main(monkeypatch, tmp_path, capsys, tiny_cases(),
                            trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if trace:
        doc = json.loads(next(tmp_path.glob("trace-tiny-*.json")).read_text())
        assert doc["spans"] and len(doc["inputs"]) == len(tiny_cases())


def test_benchmark_json_matches_the_runner():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        PER_LAYER
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    expectations = json.loads((HERE / "expectations.json").read_text())
    assert set(expectations["moves"]) == {name for name, _ in PER_LAYER}


def test_seed_zero_keeps_labels_and_seeds_relabel():
    cases = tiny_cases()
    assert shuffled(cases, 0) == cases
    moved = shuffled(cases, 5)
    assert [c.gens for c in moved] != [c.gens for c in cases]
    assert moved == shuffled(cases, 5)
    for a, b in zip(cases, moved):
        assert workloads.group_of(a).order() == workloads.group_of(b).order()


def test_j1_relabelling_stays_inside_j1():
    (base,) = workloads.closure_j1(0)
    (moved,) = workloads.closure_j1(7)
    assert moved.gens != base.gens
    J1 = workloads.group_of(base)
    assert workloads.group_of(moved).equals(J1)
