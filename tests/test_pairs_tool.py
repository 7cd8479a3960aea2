"""tools/pairs.py's verdicts, on synthetic runs: no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

LOWER = {"name": "req_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2}
# ten parent runs, median 10.0 and quartiles 9.9 and 10.1 (an IQR of 2% of the median)
STEADY = [9.8, 9.85, 9.9, 9.95, 10.0, 10.0, 10.05, 10.1, 10.15, 10.2]


def runs(parent, change, metric=LOWER, workload="query-mix"):
    """The runs list of pairs.py: one parent and one change run per seed."""
    out = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            out.append({"workload": workload, "seed": seed, "side": side,
                        "result": {"metrics": {metric["name"]: {"value": value}}}})
    return out


def judged(parent, change, metric=LOWER):
    return pairs.summary(runs(parent, change, metric), "query-mix", [metric])[metric["name"]]


@pytest.mark.parametrize("change, want", [
    pytest.param([v - 0.5 for v in STEADY], "gain", id="every-pair-won-past-the-iqr"),
    pytest.param([v - 0.5 for v in STEADY[:9]] + [10.2], "gain", id="nine-of-ten-a-tie"),
    pytest.param([v - 0.5 for v in STEADY[:8]] + [10.15, 10.3], "within bound", id="eight-a-tie-a-loss"),
    pytest.param([v - 0.1 for v in STEADY], "within bound", id="every-pair-won-inside-the-iqr"),
    pytest.param([v + 1.5 for v in STEADY], "within bound", id="worse-by-15-percent"),
    pytest.param([v + 2.5 for v in STEADY], "worse", id="worse-by-25-percent"),
])
def test_steady_parent(change, want):
    row = judged(STEADY, change)
    assert row["verdict"] == want
    assert row["parent"] == 10.0 and row["parent_quartiles"] == pytest.approx([9.9125, 10.0875])


def test_a_tie_is_won_by_neither_side():
    row = judged(STEADY, [v - 0.5 for v in STEADY[:9]] + [10.2])
    assert row["change_better_pairs"] == 9
    row = judged(STEADY, [v - 0.5 for v in STEADY[:8]] + [10.15, 10.3])
    assert row["change_better_pairs"] == 8


BIMODAL = [7.0, 7.1, 7.2, 7.3, 7.4, 12.6, 12.7, 12.8, 12.9, 13.0]  # IQR 5.5 of a median 10.0


@pytest.mark.parametrize("change, want", [
    pytest.param(BIMODAL[::-1], "unresolved", id="same-runs-other-order"),
    pytest.param([v + 3.0 for v in BIMODAL], "unresolved", id="worse-by-30-percent-inside-the-spread"),
    pytest.param([6.0 + 0.01 * j for j in range(10)], "within bound", id="every-run-better"),
    pytest.param([14.0 + 0.01 * j for j in range(10)], "worse", id="every-run-worse"),
])
def test_parent_spread_past_the_bound(change, want):
    assert judged(BIMODAL, change)["verdict"] == want


def test_higher_is_better():
    assert judged(STEADY, [v + 0.5 for v in STEADY], HIGHER)["verdict"] == "gain"
    assert judged(STEADY, [v - 2.5 for v in STEADY], HIGHER)["verdict"] == "worse"
    assert judged(STEADY, [v - 1.5 for v in STEADY], HIGHER)["verdict"] == "within bound"


def test_each_workload_is_judged_on_its_own_runs():
    both = runs(STEADY, [v - 0.5 for v in STEADY]) + runs(STEADY, [v + 2.5 for v in STEADY], workload="verify")
    assert pairs.summary(both, "query-mix", [LOWER])["req_p50_ms"]["verdict"] == "gain"
    assert pairs.summary(both, "verify", [LOWER])["req_p50_ms"]["verdict"] == "worse"
