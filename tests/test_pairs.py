"""`tools/pairs.py` summarises alternating pairs of benchmark runs at a
revision and in the working tree: each side's median and quartiles, the
ratio of the medians, the pairs the working tree won (ties count for
neither), and whether that is a gain: at least nine tenths of the pairs
won, and medians further apart than the revision's quartiles.  Pinned
here on fixed numbers; CI runs the tool itself on one short pair."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent

# ten pairs, in ms: the working tree is faster in all but the fourth
PARENT = [40.0, 44.0, 42.0, 43.0, 45.0, 44.0, 43.0, 42.0, 44.0, 43.0]
CHANGE = [36.0, 37.0, 36.0, 45.0, 36.0, 35.0, 37.0, 36.0, 36.0, 37.0]


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs",
                                                  ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def test_quartiles_interpolate_between_the_sorted_values():
    quartiles = _pairs().quartiles
    assert quartiles([3.0, 1.0, 2.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_nine_of_ten_pairs_and_a_gap_past_the_spread_is_a_gain():
    stats = _pairs().compare(PARENT, CHANGE, "lower")
    assert stats == {"rev": (42.25, 43.0, 44.0), "here": (36.0, 36.0, 37.0),
                     "ratio": 36.0 / 43.0, "won": 9, "pairs": 10,
                     "gain": True}


def test_a_tie_counts_for_neither_side():
    tied = [40.0] + CHANGE[1:]  # the first pair is now a tie
    stats = _pairs().compare(PARENT, tied, "lower")
    assert (stats["won"], stats["gain"]) == (8, False)


def test_every_pair_won_inside_the_spread_is_no_gain():
    parent = [40.0, 50.0] * 5
    stats = _pairs().compare(parent, [x - 1.0 for x in parent], "lower")
    assert stats["rev"] == (40.0, 45.0, 50.0)
    assert (stats["won"], stats["gain"]) == (10, False)


def test_higher_is_better_turns_the_comparison():
    stats = _pairs().compare(PARENT, CHANGE, "higher")
    assert (stats["won"], stats["gain"]) == (1, False)
