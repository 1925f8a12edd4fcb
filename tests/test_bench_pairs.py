"""tools/bench_pairs.compare on hand-built runs: the pair statistics that
every speed claim quotes."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def spec(better="lower", bound=0.25):
    return {"name": "wall_s", "unit": "s", "better": better, "bound": bound}


def test_wins_ties_and_quartiles_for_a_lower_is_better_metric():
    """A pair counts as a win when the change reads lower, a tie counts for
    neither side, and the quartiles are statistics.quantiles' inclusive ones."""
    out = bench_pairs.compare(spec(), [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 2.5, 5.0])
    assert (out["change_wins"], out["ties"]) == (2, 1)
    assert out["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert out["change"] == {"q1": 1.625, "median": 2.25, "q3": 3.125}
    assert out["parent_iqr"] == 1.5
    assert out["median_gap"] == 0.25
    assert out["median_ratio"] == 0.9
    assert out["within_bound"]
    assert out["parent_runs"] == [1.0, 2.0, 3.0, 4.0]
    assert out["change_runs"] == [0.5, 2.0, 2.5, 5.0]


def test_a_higher_is_better_metric_flips_the_sign():
    """The same runs with higher better: only the pair the change reads higher
    is a win, and the gap is negative, since the change's median is lower."""
    out = bench_pairs.compare(spec("higher"), [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 2.5, 5.0])
    assert (out["change_wins"], out["ties"]) == (1, 1)
    assert out["median_gap"] == -0.25
    assert out["within_bound"]  # 10% worse against a bound of 25%


@pytest.mark.parametrize("better, parent, edge, past", [
    ("lower", 4.0, 5.0, 5.0 + 2**-40),
    ("higher", 4.0, 3.0, 3.0 - 2**-40)])
def test_within_bound_holds_at_the_bound_and_fails_past_it(better, parent, edge, past):
    """A median worse by exactly the bound (25% of 4) is within it; any more
    is not."""
    at = bench_pairs.compare(spec(better), [parent] * 3, [edge] * 3)
    assert at["within_bound"] and at["change_wins"] == 0
    assert not bench_pairs.compare(spec(better), [parent] * 3, [past] * 3)["within_bound"]


def test_pairs_where_one_run_reported_nothing_are_left_out():
    """Only the pairs that both runs report are compared; with none, the
    result says so and holds no statistics."""
    out = bench_pairs.compare(spec(), [1.0, None, 3.0, 2.0], [None, 2.0, 2.0, 1.0])
    assert out["parent_runs"] == [3.0, 2.0] and out["change_runs"] == [2.0, 1.0]
    assert out["change_wins"] == 2
    assert out["parent"]["median"] == 2.5
    one = bench_pairs.compare(spec(), [None, 3.0], [1.0, 2.0])
    assert one["parent"] == {"q1": 3.0, "median": 3.0, "q3": 3.0}
    assert bench_pairs.compare(spec(), [None, 1.0], [2.0, None]) == {
        "unit": "s", "pairs_reported": 0}


def test_a_zero_parent_median_gives_no_ratio():
    assert bench_pairs.compare(spec(), [0.0, 0.0], [1.0, 1.0])["median_ratio"] is None
