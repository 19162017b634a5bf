"""The seed ranges and per-metric summary of ``tools/bench_pairs.py``,
on made-up values; no benchmark runs."""

import argparse
import importlib.util
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
