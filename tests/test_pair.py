"""The summary of ``tools/pair.py`` on canned pair results."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "pair", Path(__file__).resolve().parent.parent / "tools" / "pair.py")
pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pair)


def canned(base_rates, change_rates, base_ms, change_ms):
    return [{"seed": seed,
             "base": {"examples_per_s": b, "latency_ms_p50": bl},
             "change": {"examples_per_s": c, "latency_ms_p50": cl},
             "ratio": {"examples_per_s": pair.ratio(c, b), "latency_ms_p50": pair.ratio(cl, bl)}}
            for seed, (b, c, bl, cl) in enumerate(zip(base_rates, change_rates, base_ms,
                                                      change_ms), start=1)]


def test_summary_counts_wins_in_each_direction():
    pairs = canned([100, 100, 200, 100, 100], [150, 90, 300, 200, 100],
                   [10, 10, 10, 10, 10], [5, 12, 10, 8, 4])
    summary = pair.summarize(pairs, {"examples_per_s": "higher", "latency_ms_p50": "lower"})
    rate, latency = summary["examples_per_s"], summary["latency_ms_p50"]
    # a tie is not a win
    assert (rate["wins"], rate["pairs"], latency["wins"]) == (3, 5, 3)
    assert rate["better"] == "higher" and latency["better"] == "lower"
    # ratios 1.5, 0.9, 1.5, 2.0, 1.0: inclusive quartiles 1.0 and 1.5
    assert rate["ratio"] == {"median": 1.5, "q1": 1.0, "q3": 1.5}
    assert rate["base"] == {"median": 100, "q1": 100, "q3": 100}
    assert rate["change"] == {"median": 150, "q1": 100, "q3": 200}
    assert latency["ratio"]["median"] == pytest.approx(0.8)


def test_summary_of_one_pair_and_a_zero_base():
    pairs = canned([0.0], [0.5], [10.0], [20.0])
    summary = pair.summarize(pairs, {"examples_per_s": "higher", "latency_ms_p50": "lower"})
    assert summary["examples_per_s"]["ratio"] is None  # no ratio to a base of 0
    assert summary["examples_per_s"]["wins"] == 1
    assert summary["latency_ms_p50"] == {
        "better": "lower", "wins": 0, "pairs": 1,
        "ratio": {"median": 2.0, "q1": 2.0, "q3": 2.0},
        "base": {"median": 10.0, "q1": 10.0, "q3": 10.0},
        "change": {"median": 20.0, "q1": 20.0, "q3": 20.0}}
