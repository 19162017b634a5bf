"""Per-layer tracing of the twoclosure package from outside it.

The tracer wraps public functions and methods of each layer, records a
span (name, start, end, parent) around every spanned call and bumps
counters at the same boundaries.  Nothing under src/ is edited: a
wrapped function is rebound in every twoclosure module that binds it
(``two_closure`` lives in ``closure``, ``totality``, ``reduction`` and the
package namespace), so inner calls are not missed, and every binding is
restored when the tracer is closed.

Hot calls (permutation products, sifts, partition rows) are counted but
not spanned, because there are millions of them.  A target the package
no longer has is skipped and listed in ``Tracer.missing``, so that a
refactoring of the package leaves the benchmark running; its metrics
then read 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

PACKAGE = "twoclosure"

# Calls recorded as spans: (layer, module, attribute path, span name,
# counter bumped per call or None).  A method ``_after_<span name>`` of
# Tracer, when present, reads the call's result.
SPANNED = [
    ("group", "group", "StabilizerChain.build", "chain_build",
     "chain_builds"),
    ("group", "group", "PermGroup.conjugacy_classes", "conjugacy_classes",
     None),
    ("group", "group", "PermGroup.normal_closure", "normal_closure", None),
    ("orbital", "orbital", "OrbitalPartition.__init__", "partition",
     "partitions"),
    ("closure", "closure", "two_closure", "two_closure", "calls"),
    ("backtrack", "backtrack", "orbit_minima", "orbit_minima",
     "orbit_minima_calls"),
    ("backtrack", "backtrack", "subgroup_search", "subgroup_search", None),
    ("backtrack", "backtrack", "find_element", "find_element", None),
    ("backtrack", "backtrack", "conjugating_element", "conjugating_element",
     None),
    ("backtrack", "backtrack", "conjugating_element_for_subgroup",
     "conjugating_element_for_subgroup", None),
    ("actions", "actions", "coset_action", "coset_action", "coset_actions"),
    ("subgroups", "subgroups", "subgroup_classes", "subgroup_classes",
     "class_tables"),
    ("subgroups", "subgroups", "all_subgroup_sets", "all_subgroup_sets",
     None),
    ("subgroups", "subgroups", "generated_set", "generated_set",
     "generated_set_calls"),
    ("subgroups", "subgroups", "small_generating_set",
     "small_generating_set", None),
    ("subgroups", "subgroups", "has_section", "has_section", None),
    ("basesize", "basesize", "exact_base_size", "exact_base_size", "calls"),
    ("totality", "totality", "is_totally_two_closed",
     "is_totally_two_closed", None),
    ("totality", "totality", "factorization_disproof",
     "factorization_disproof", None),
    ("totality", "totality", "two_transitive_disproof",
     "two_transitive_disproof", None),
    ("totality", "totality", "transitive_reduction_check",
     "transitive_reduction_check", None),
    ("totality", "totality", "representation_sweep", "representation_sweep",
     None),
    ("totality", "totality", "assemble_action", "assemble_action", None),
]

# Calls only counted: (layer, module, attribute path, counter).
COUNTED = [
    ("perm", "perm", "Permutation.__init__", "constructed"),
    ("perm", "perm", "Permutation.__mul__", "mul_calls"),
    ("perm", "perm", "Permutation.inverse", "inverse_calls"),
    ("group", "group", "StabilizerChain.sift", "sifts"),
    ("orbital", "orbital", "OrbitalPartition.row", "row_calls"),
    ("closure", "closure", "closure_membership", "membership_calls"),
]

# Per-layer metrics and their units, in report order.
PER_LAYER = [
    ("perm.constructed", "count"), ("perm.mul_calls", "count"),
    ("perm.inverse_calls", "count"),
    ("group.chain_builds", "count"), ("group.chain_build_s", "s"),
    ("group.sifts", "count"), ("group.self_s", "s"),
    ("orbital.partitions", "count"), ("orbital.partition_s", "s"),
    ("orbital.row_calls", "count"),
    ("closure.calls", "count"), ("closure.search_nodes", "count"),
    ("closure.shortcut_ratio", "ratio"), ("closure.uncertified", "count"),
    ("closure.membership_calls", "count"), ("closure.busy_s", "s"),
    ("closure.self_s", "s"),
    ("backtrack.orbit_minima_calls", "count"), ("backtrack.busy_s", "s"),
    ("actions.coset_actions", "count"), ("actions.coset_action_s", "s"),
    ("subgroups.class_tables", "count"),
    ("subgroups.generated_set_calls", "count"),
    ("subgroups.generated_set_s", "s"),
    ("subgroups.new_subgroup_ratio", "ratio"), ("subgroups.self_s", "s"),
    ("basesize.calls", "count"), ("basesize.nodes", "count"),
    ("basesize.busy_s", "s"),
    ("totality.closure_runs", "count"), ("totality.closure_nodes", "count"),
    ("totality.actions_enumerated", "count"),
    ("totality.pruned_ratio", "ratio"), ("totality.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def _resolve(module, path):
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters for one traced pass; use as a context manager.

    spans holds [layer, name, start, end, parent index, case label] lists
    in start order; counters holds the per-layer counts.  Call
    ``case(label)`` around each workload input so the spans of one input
    share its label.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.new_subgroups = set()
        self.label = None
        self.missing = []
        self._stack = []
        self._restore = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        for layer, module, path, span, counter in SPANNED:
            self._patch(module, path, self._spanning(layer, span, counter))
        for layer, module, path, counter in COUNTED:
            self._patch(module, path, self._counting(f"{layer}.{counter}"))
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def _patch(self, module, path, make_wrapper):
        try:
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else \
                getattr(owner, attr)
        except (KeyError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        if isinstance(owner, type):
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # A module-level function: rebind it wherever it is bound.
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._restore.append((mod, name, raw))
                    setattr(mod, name, wrapped)

    def _counting(self, key):
        counters = self.counters

        def make(fn):
            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _spanning(self, layer, span_name, counter):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        key = f"{layer}.{counter}" if counter else None
        on_result = getattr(self, f"_after_{span_name}", None)
        clock = time.perf_counter

        def make(fn):
            def spanned(*args, **kwargs):
                if key:
                    counters[key] += 1
                record = [layer, span_name, clock(), None,
                          stack[-1] if stack else -1, self.label]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[3] = clock()
                    stack.pop()
                if on_result is not None:
                    on_result(result)
                return result
            return spanned
        return make

    # -- result hooks ------------------------------------------------------

    def _after_two_closure(self, res):
        c = self.counters
        c["closure.search_nodes"] += res.nodes
        c["closure.results"] += 1
        if res.method != "backtrack":
            c["closure.shortcuts"] += 1
        if not res.certified:
            c["closure.uncertified"] += 1

    def _after_generated_set(self, elems):
        self.new_subgroups.add(elems)

    def _after_exact_base_size(self, report):
        self.counters["basesize.nodes"] += report.nodes_used

    def _after_is_totally_two_closed(self, verdict):
        # Only the outermost decision counts, so that a nested one is not
        # counted twice.
        if not any(self.spans[i][1] == "is_totally_two_closed"
                   for i in self._stack):
            for key, value in verdict.budget_spent.items():
                self.counters[f"totality.{key}"] += value

    # -- grouping by workload input ----------------------------------------

    def case(self, label):
        return _Case(self, label)

    # -- summaries ---------------------------------------------------------

    def durations(self):
        """(duration, self time) of every span, self time being the part
        of its interval that no child span covers."""
        dur = [s[3] - s[2] for s in self.spans]
        own = list(dur)
        for s, d in zip(self.spans, dur):
            if s[4] >= 0:
                own[s[4]] -= d
        return dur, own

    def metrics(self, overhead_s):
        """Every per-layer metric as {name: value}."""
        dur, own = self.durations()
        busy = Counter()
        self_s = Counter()
        named = Counter()
        for i, s in enumerate(self.spans):
            layer = s[0]
            self_s[layer] += own[i]
            named[(layer, s[1])] += dur[i]
            if not self._inside(i, layer):
                busy[layer] += dur[i]
        c = self.counters
        gen_calls = c["subgroups.generated_set_calls"]
        out = {
            "perm.constructed": c["perm.constructed"],
            "perm.mul_calls": c["perm.mul_calls"],
            "perm.inverse_calls": c["perm.inverse_calls"],
            "group.chain_builds": c["group.chain_builds"],
            "group.chain_build_s": named[("group", "chain_build")],
            "group.sifts": c["group.sifts"],
            "group.self_s": self_s["group"],
            "orbital.partitions": c["orbital.partitions"],
            "orbital.partition_s": named[("orbital", "partition")],
            "orbital.row_calls": c["orbital.row_calls"],
            "closure.calls": c["closure.calls"],
            "closure.search_nodes": c["closure.search_nodes"],
            "closure.shortcut_ratio": _ratio(c["closure.shortcuts"],
                                             c["closure.results"]),
            "closure.uncertified": c["closure.uncertified"],
            "closure.membership_calls": c["closure.membership_calls"],
            "closure.busy_s": busy["closure"],
            "closure.self_s": self_s["closure"],
            "backtrack.orbit_minima_calls": c["backtrack.orbit_minima_calls"],
            "backtrack.busy_s": busy["backtrack"],
            "actions.coset_actions": c["actions.coset_actions"],
            "actions.coset_action_s": named[("actions", "coset_action")],
            "subgroups.class_tables": c["subgroups.class_tables"],
            "subgroups.generated_set_calls": gen_calls,
            "subgroups.generated_set_s": named[("subgroups",
                                                "generated_set")],
            "subgroups.new_subgroup_ratio": _ratio(len(self.new_subgroups),
                                                   gen_calls),
            "subgroups.self_s": self_s["subgroups"],
            "basesize.calls": c["basesize.calls"],
            "basesize.nodes": c["basesize.nodes"],
            "basesize.busy_s": busy["basesize"],
            "totality.closure_runs": c["totality.closure_runs"],
            "totality.closure_nodes": c["totality.closure_nodes"],
            "totality.actions_enumerated": c["totality.actions_enumerated"],
            "totality.pruned_ratio": _ratio(c["totality.pruned_subsets"],
                                            c["totality.actions_enumerated"]),
            "totality.self_s": self_s["totality"],
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
        }
        assert list(out) == [name for name, _ in PER_LAYER]
        return out

    def _inside(self, i, layer):
        """Whether span i has an ancestor span of the same layer."""
        parent = self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][4]
        return False

    def counts(self):
        """The metrics that are not times; they repeat exactly between
        traced runs of the same inputs."""
        m = self.metrics(0.0)
        return {name: m[name] for name, unit in PER_LAYER if unit != "s"}

    def write(self, path, extra):
        """Write the spans and per-input counters as JSON."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["layer", "name", "start_s", "end_s", "parent",
                              "input"]
        doc["spans"] = [[s[0], s[1], round(s[2] - t0, 9),
                         round(s[3] - t0, 9), s[4], s[5]]
                        for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


class _Case:
    """Labels the spans of one workload input and records its counters."""

    def __init__(self, tracer, label):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        self.tracer.label = self.label
        self.before = Counter(self.tracer.counters)
        return self

    def __exit__(self, *exc):
        self.tracer.label = None
        self.counters = dict(Counter(self.tracer.counters) - self.before)
        return False


def _ratio(part, whole):
    return part / whole if whole else 0.0
