"""The verdicts of tools/abpairs.py on synthetic runs; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ABPAIRS = Path(__file__).resolve().parents[1] / "tools" / "abpairs.py"


def _load_abpairs():
    spec = importlib.util.spec_from_file_location("abpairs", ABPAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [100.0, 104.0, 96.0, 101.0, 99.0, 103.0, 97.0, 102.0, 98.0, 100.0]


def test_quartiles():
    ab = _load_abpairs()
    assert ab.quartiles([3.0, 1.0, 2.0, 5.0, 4.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_of_ten_pairs_and_a_gap_above_the_iqr():
    ab = _load_abpairs()
    q1, _, q3 = ab.quartiles(PARENT)
    assert q3 - q1 == pytest.approx(3.5)
    # every pair won by 10: a gain
    v = ab.verdict(PARENT, [p + 10.0 for p in PARENT], "higher", 0.25)
    assert (v["won"], v["lost"], v["gain"], v["within_bound"]) == (10, 0, True, True)
    assert v["gap"] == pytest.approx(10.0)
    # nine of ten won by 10, one lost: still a gain
    change = [p + 10.0 for p in PARENT]
    change[3] = PARENT[3] - 1.0
    v = ab.verdict(PARENT, change, "higher", 0.25)
    assert (v["won"], v["gain"]) == (9, True)
    # eight of ten: not a gain, however large the gap
    change[4] = PARENT[4] - 1.0
    assert not ab.verdict(PARENT, change, "higher", 0.25)["gain"]
    # every pair won, but by less than the parent's interquartile range
    v = ab.verdict(PARENT, [p + 2.0 for p in PARENT], "higher", 0.25)
    assert (v["won"], v["gain"]) == (10, False)
    # ties count for neither side
    v = ab.verdict(PARENT, PARENT, "higher", 0.25)
    assert (v["won"], v["lost"], v["gain"], v["within_bound"], v["unresolved"]) == (0, 0, False, True, False)


def test_lower_is_better_and_the_bound():
    ab = _load_abpairs()
    v = ab.verdict(PARENT, [p - 10.0 for p in PARENT], "lower", 0.25)
    assert (v["won"], v["gain"], v["within_bound"]) == (10, True, True)
    # 20 % worse is inside a 25 % bound, 30 % worse is not
    assert ab.verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)["within_bound"]
    assert not ab.verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)["within_bound"]
    assert not ab.verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)["within_bound"]
    with pytest.raises(ValueError):
        ab.verdict(PARENT, PARENT[:9], "higher", 0.25)


def test_report_reads_the_runs():
    ab = _load_abpairs()

    def run(items, rss):
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {"items_per_s": {"value": items, "unit": "1/s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    runs = {"parent": [run(p, 36.0) for p in PARENT], "change": [run(p + 10.0, 36.0) for p in PARENT]}
    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    header, items, rss = ab.report(metrics, runs)
    assert header.split()[:3] == ["metric", "parent", "median"]
    assert items.split() == ["items_per_s", "100", "[98.25,", "101.75]", "110", "[108.25,", "111.75]",
                             "10/10", "10", "3.5", "yes", "ok"]
    assert rss.split()[-5:] == ["0/10", "0", "0", "no", "ok"]


# Parent runs whose interquartile range, 27.5, is 27.5 % of their median, 100.
WIDE = [60.0, 140.0, 85.0, 115.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


def test_spread_wider_than_the_bound_is_unresolved():
    ab = _load_abpairs()
    q1, q2, q3 = ab.quartiles(WIDE)
    assert (q2, q3 - q1) == (100.0, 27.5)
    # the same runs again, or 5 % better or worse: the bound of 25 % cannot tell
    for scale in (1.0, 1.05, 0.95):
        v = ab.verdict(WIDE, [p * scale for p in WIDE], "higher", 0.25)
        assert v["within_bound"] and v["unresolved"], scale
    # a bound wider than the spread resolves them
    assert not ab.verdict(WIDE, WIDE, "higher", 0.35)["unresolved"]
    # every change run better than every parent run: resolved, whichever the direction
    assert not ab.verdict(WIDE, [141.0 + p for p in WIDE], "higher", 0.25)["unresolved"]
    assert not ab.verdict(WIDE, [p - 81.0 for p in WIDE], "lower", 0.25)["unresolved"]
    # one change run that only ties the best parent run is not enough
    change = [141.0 + p for p in WIDE]
    change[0] = 140.0
    assert ab.verdict(WIDE, change, "higher", 0.25)["unresolved"]

    def run(items):
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {"items_per_s": {"value": items, "unit": "1/s"}}}

    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.25}]
    _, same = ab.report(metrics, {"parent": [run(p) for p in WIDE], "change": [run(p) for p in WIDE]})
    assert same.split()[-2:] == ["no", "unresolved"]
    _, clear = ab.report(metrics, {"parent": [run(p) for p in WIDE], "change": [run(p + 141.0) for p in WIDE]})
    assert clear.split()[-2:] == ["yes", "ok"]
