import importlib.util
import json
from collections import Counter
from pathlib import Path

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

RATE = {"name": "objects_per_s", "better": "higher", "bound": 0.25}
TIME = {"name": "setup_s", "better": "lower", "bound": 0.25}


def test_a_gain_won_in_nine_of_ten_pairs_beyond_the_base_iqr_is_resolved():
    base = [10.0 + i / 10 for i in range(10)]
    head = [13.0 + i / 10 for i in range(9)] + [9.0]
    line = ab.compare(RATE, base, head)
    assert "won 9/10" in line
    assert "gain resolved; bound holds" in line


def test_eight_pairs_of_ten_do_not_resolve_a_gain():
    base = [10.0 + i / 10 for i in range(10)]
    head = [13.0 + i / 10 for i in range(8)] + [9.0, 9.0]
    assert "won 8/10" in ab.compare(RATE, base, head)
    assert "gain unresolved" in ab.compare(RATE, base, head)


def test_a_median_inside_the_base_iqr_does_not_resolve_a_gain():
    base = [8.0, 12.0] * 5
    head = [b + 0.5 for b in base]
    line = ab.compare(RATE, base, head)
    assert "won 10/10" in line and "gain unresolved" in line


def test_ties_count_for_neither_side():
    assert "won 0/4" in ab.compare(RATE, [1.0] * 4, [1.0] * 4)


def test_the_bound_is_a_share_of_the_base_median_in_the_worse_direction():
    assert "bound exceeded" in ab.compare(RATE, [10.0] * 4, [7.4] * 4)
    assert "bound holds" in ab.compare(RATE, [10.0] * 4, [7.6] * 4)
    assert "bound exceeded" in ab.compare(TIME, [0.2] * 4, [0.26] * 4)
    assert "gain resolved" in ab.compare(TIME, [0.2] * 4, [0.1] * 4)


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    base = [5.0, 15.0] * 5
    assert "spread wider than bound: unresolved" in ab.compare(RATE, base, [b + 1 for b in base])
    line = ab.compare(RATE, base, [16.0] * 10)
    assert line.endswith("bound holds")


SPEC = {"end_to_end": [RATE, {"name": "bytes_per_record", "better": "lower", "bound": 0.05}]}


def bench_result(rate, size):
    return {"correct": True, "failed": 0, "metrics": {
        "objects_per_s": {"value": rate, "unit": "1/s"},
        "bytes_per_record": {"value": size, "unit": "B"},
    }}


def canned_runs(pairs, rate_base, rate_head):
    return {
        "base": [bench_result(rate_base + i, 100.0) for i in range(pairs)],
        "head": [bench_result(rate_head + i, 60.0) for i in range(pairs)],
    }


def test_json_holds_each_metric_per_side_and_every_run(tmp_path):
    path = tmp_path / "BENCH.json"
    runs = canned_runs(4, 10.0, 10.5)
    ab.write_json(path, "mock-corpus", 1, ("abc1234", "HEAD"), SPEC, runs)

    doc = json.loads(path.read_text())
    [entry] = doc["summary"]
    assert entry["workload"] == "mock-corpus" and entry["seed"] == 1 and entry["pairs"] == 4
    assert (entry["parent"], entry["change"]) == ("abc1234", "HEAD")
    assert entry["objects_per_s"] == {
        "parent_median": 11.5, "parent_quartiles": [10.75, 12.25],
        "change_median": 12.0, "change_quartiles": [11.25, 12.75],
        "change_better_pairs": 4,
    }
    assert entry["bytes_per_record"]["change_median"] == 60.0
    assert entry["bytes_per_record"]["change_better_pairs"] == 4
    assert [(r["pair"], r["side"], r["ran_first"]) for r in doc["runs"]] == [
        (0, "parent", True), (0, "change", False), (1, "parent", False), (1, "change", True),
        (2, "parent", True), (2, "change", False), (3, "parent", False), (3, "change", True),
    ]
    assert doc["runs"][3]["result"] == runs["head"][1]
    assert {r["trace"] for r in doc["runs"]} == {0}


def test_json_replaces_only_the_same_workload_and_seed(tmp_path):
    path = tmp_path / "BENCH.json"
    ab.write_json(path, "mock-corpus", 1, ("a", "b"), SPEC, canned_runs(2, 10.0, 9.0))
    ab.write_json(path, "mock-corpus", 7, ("a", "b"), SPEC, canned_runs(3, 10.0, 9.0))
    doc = json.loads(path.read_text())
    doc["topic"] = "kept across writes"
    path.write_text(json.dumps(doc))
    ab.write_json(path, "mock-corpus", 1, ("a", "c"), SPEC, canned_runs(5, 10.0, 12.0))

    doc = json.loads(path.read_text())
    assert doc["topic"] == "kept across writes"
    assert [(e["seed"], e["pairs"], e["change"]) for e in doc["summary"]] == [(7, 3, "b"), (1, 5, "c")]
    assert sorted(Counter(r["seed"] for r in doc["runs"]).items()) == [(1, 10), (7, 6)]
    assert doc["summary"][1]["objects_per_s"]["change_better_pairs"] == 5
