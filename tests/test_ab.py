import importlib.util
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
