"""The seed ranges and per-metric summary of ``tools/bench_pairs.py``,
on made-up values; no benchmark runs."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_range(tool):
    assert tool.seed_range("901-903") == [901, 902, 903]
    for bad in ("901", "901-901", "903-901", "a-b"):
        with pytest.raises(argparse.ArgumentTypeError):
            tool.seed_range(bad)


def test_report_counts_lower_pairs_and_quartiles(tool):
    lines = tool.report("solve_cpu_s", "s", [1, 2, 3, 4],
                        [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 2.5, 5.0])
    assert lines[0] == "solve_cpu_s (s)"
    # the parent runs first on even pairs
    assert [line.split()[2] for line in lines[2:6]] == \
        ["parent", "change", "parent", "change"]
    assert lines[6] == "  parent median 2.5000, quartiles 1.7500-3.2500"
    assert lines[7] == "  change median 2.2500, quartiles 1.6250-3.1250"
    assert lines[8] == ("  medians differ by -0.2500 (-10.0%); parent "
                        "quartile spread 1.5000")
    # the tie in pair 1 counts for neither side
    assert lines[9] == "  change lower in 2 of 4 pairs"


def test_bounds_are_read_from_the_benchmark_declaration(tool, tmp_path):
    bounds = tool.end_to_end_bounds(TOOL.parent.parent)
    assert set(bounds) == {"setup_s", "solve_cpu_s", "peak_rss_mb"}
    assert all(better in ("lower", "higher") for _, better in bounds.values())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1}]}))
    assert tool.end_to_end_bounds(tmp_path) == {"ops": (0.1, "higher")}


@pytest.mark.parametrize("change, bound, want", [
    ([0.5, 2.0, 2.5, 5.0], None, None),
    ([0.5, 2.0, 2.5, 5.0], (0.25, "lower"),
     "  move -10.0% against bound 25%, lower is better: within"),
    ([0.5, 2.0, 2.5, 5.0], (0.05, "higher"),
     "  move -10.0% against bound 5%, higher is better: "
     "WORSE by more than the bound"),
    ([1.5, 2.5, 3.5, 4.5], (0.25, "lower"),
     "  move +20.0% against bound 25%, lower is better: within"),
    ([1.5, 2.5, 3.5, 4.5], (0.1, "lower"),
     "  move +20.0% against bound 10%, lower is better: "
     "WORSE by more than the bound"),
])
def test_report_marks_a_move_beyond_the_bound(tool, change, bound, want):
    # the parent median is 2.5; the change medians 2.25 and 3.0
    lines = tool.report("m", "s", [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0],
                        change, bound)
    assert lines[10:] == ([] if want is None else [want])
