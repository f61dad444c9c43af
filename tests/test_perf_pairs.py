"""tools/perf_pairs.py's summary: medians, quartiles, wins and the gain
rule over fixed numbers."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "perf_pairs.py")
spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)


def _pairs(parent, change, name="epoch_p50_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_a_clear_gain_wins_nine_tenths_beyond_the_parents_iqr():
    parent = [0.40, 0.42, 0.41, 0.43, 0.39, 0.41, 0.42, 0.40, 0.44, 0.41]
    change = [0.20, 0.21, 0.22, 0.20, 0.19, 0.21, 0.20, 0.22, 0.45, 0.21]
    s = perf_pairs.summarize(_pairs(parent, change),
                             {"epoch_p50_s": "lower"})["epoch_p50_s"]
    assert (s["wins"], s["ties"], s["pairs"]) == (9, 0, 10)
    assert s["parent"] == {"median": 0.41, "q1": 0.4025, "q3": 0.42}
    assert s["change"]["median"] == 0.21
    assert s["gain"]


def test_eight_wins_of_ten_is_no_gain():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5, 1.0]
    s = perf_pairs.summarize(_pairs(parent, change),
                             {"epoch_p50_s": "lower"})["epoch_p50_s"]
    assert (s["wins"], s["ties"]) == (8, 1)
    assert not s["gain"]


def test_a_gap_inside_the_parents_spread_is_no_gain():
    # the change wins every pair, but by less than the parent's IQR
    parent = [100, 140, 100, 140, 100, 140, 100, 140, 100, 140]
    change = [v + 1 for v in parent]
    s = perf_pairs.summarize(_pairs(parent, change, "events_per_s"),
                             {"events_per_s": "higher"})["events_per_s"]
    assert s["wins"] == 10
    assert s["parent"]["q3"] - s["parent"]["q1"] == 40
    assert not s["gain"]


def test_direction_and_missing_metrics():
    pairs = [({"a": 1.0, "b": 5.0}, {"a": 2.0}), ({"a": 1.0}, {"a": 2.0})]
    out = perf_pairs.summarize(pairs, {"a": "higher", "b": "lower",
                                       "c": "lower"})
    assert set(out) == {"a"}  # b is in one run only, c in none
    assert out["a"]["wins"] == 2 and out["a"]["better"] == "higher"
