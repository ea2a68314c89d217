"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each workload runs for one pass, so the whole file takes one to two minutes.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC_UNITS = ("count", "bytes", "ratio", "digits")
UNITS = run.load_units(json.loads(run.BENCHMARK.read_text()))


def _deterministic(result):
    return {name: value for name, (value, _) in result["metrics"].items()
            if UNITS[name] in DETERMINISTIC_UNITS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_work_counts_exactly(workload):
    first = run.run_traced(workload, seed=1, seconds=0)
    second = run.run_traced(workload, seed=1, seconds=0)
    assert first["failures"] == second["failures"] == []
    # Work counts, ratios and bracket_digits (density-heavy only).
    assert _deterministic(first) == _deterministic(second)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_child_output_is_correct(workload):
    result = run.run_untraced(workload, seed=1, seconds=0)
    assert result["failures"] == []
    assert result["metrics"]["fail_ratio"] == (0, len(workloads.WORKLOADS[workload]))


def test_check_rejects_wrong_outputs():
    expected = workloads.load_expected()
    count = ["count", "-d", "3", "-H", "1000000", "--variant", "monic"]
    assert workloads.check(count, 0, "762330185251304218\n", expected) == (None, None)
    assert workloads.check(count, 0, "762330185251304219\n", expected)[0]
    assert workloads.check(count, 3, "762330185251304218\n", expected)[0]

    theta = workloads.WORKLOADS["density-heavy"][0](0)
    line = ("theta(2) = {0}  in [{0}, {1}]  via euler_product prime_count=10000\n"
            "theta(2) = {0}  in [{0}, {1}]  via mobius_series series_limit=999999\n")
    assert workloads.check(theta, 0, line.format(0.2514, 0.2515), expected)[0] is None
    assert workloads.check(theta, 0, line.format(0.2516, 0.2517), expected)[0]

    table = workloads.WORKLOADS["small-verify"][2](0)
    good = expected["stdout"][" ".join(table)]
    assert workloads.check(table, 0, good, expected) == (None, None)
    assert workloads.check(table, 0, good.replace("0.2515", "0.2514"), expected)[0]
