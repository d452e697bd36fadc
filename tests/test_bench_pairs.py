"""Tests for the arithmetic of tools/bench_pairs.py, on synthetic runs.

The script is loaded by path; nothing here exports a tree, runs git or
starts a process.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [100.0 + i for i in range(10)]  # quartiles 102.25, 104.5, 106.75
OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs(values: list[float], name: str = "ops_per_s") -> list[dict]:
    return [{"metrics": {name: v}} for v in values]


def summary(change: list[float], metric: dict = OPS) -> dict:
    name = metric["name"]
    return bench_pairs.summarize(
        {"parent": runs(PARENT, name), "change": runs(change, name)}, metric
    )


def claim(change: list[float], failed_parent=0.01, failed_change=0.01) -> dict:
    result = {
        "summary": {"ops_per_s": summary(change)},
        "failed_share": {"parent": failed_parent, "change": failed_change},
    }
    return bench_pairs.claim(result, "class-sweep", "ops_per_s")


class TestWorseBy:
    @pytest.mark.parametrize(
        "change, direction, expected",
        [(90, "higher", 0.1), (110, "higher", -0.1), (110, "lower", 0.1), (90, "lower", -0.1)],
    )
    def test_positive_when_worse(self, change, direction, expected):
        assert bench_pairs.worse_by(change, 100, direction) == pytest.approx(expected)


class TestCompare:
    def test_ties_count_for_neither_side(self):
        out = bench_pairs.compare([1, 2, 3, 4], [2, 2, 2, 5], "higher")
        assert (out["change_wins"], out["pairs"]) == (2, 4)
        out = bench_pairs.compare([1, 2, 3, 4], [2, 2, 2, 5], "lower")
        assert out["change_wins"] == 1

    def test_quartiles_and_spread(self):
        out = bench_pairs.compare(PARENT, PARENT, "higher")
        assert out["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
        assert out["median_worse_by"] == 0
        assert out["parent_iqr_over_median"] == pytest.approx(4.5 / 104.5)


class TestClaim:
    def test_met(self):
        out = claim([v + 50 for v in PARENT])
        assert out["met"]
        assert (out["change_wins"], out["pairs"]) == (10, 10)
        assert out["median_gain"] == 50 and out["parent_iqr"] == 4.5

    def test_eight_wins_are_too_few(self):
        out = claim([v + 50 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]])
        assert out["change_wins"] == 8 and out["median_gain"] > out["parent_iqr"]
        assert not out["met"]

    def test_gain_within_the_parent_iqr_is_not_enough(self):
        out = claim([v + 3 for v in PARENT])
        assert out["change_wins"] == 10 and out["median_gain"] < out["parent_iqr"]
        assert not out["met"]

    def test_larger_failed_share_fails(self):
        assert claim([v + 50 for v in PARENT], failed_change=0.011)["met"] is False
        assert claim([v + 50 for v in PARENT], failed_parent=0.02)["met"] is True


class TestSummarize:
    def test_within_bound(self):
        assert summary([v * 0.8 for v in PARENT])["within_bound"]
        out = summary([v * 0.7 for v in PARENT])
        assert out["median_worse_by"] == pytest.approx(0.3) and not out["within_bound"]

    def test_lower_is_better(self):
        metric = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
        out = summary([v * 1.3 for v in PARENT], metric)
        assert out["median_worse_by"] == pytest.approx(0.3) and not out["within_bound"]
        assert summary([v / 2 for v in PARENT], metric)["every_change_run_better"]

    def test_every_change_run_better(self):
        # The worst change run must beat the best parent run, 109.
        assert summary([110.0] * 10)["every_change_run_better"]
        assert not summary([109.0] + [200.0] * 9)["every_change_run_better"]
        assert not summary([109.0] * 10)["every_change_run_better"]
