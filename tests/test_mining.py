"""Frequent contiguous pattern mining against windowed brute force."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseplan import GroundAction, SequenceDB, mine_frequent
from caseplan.mining import grow_frequent
from caseplan.pipeline import mine_fragments

from .conftest import P1_FRAGMENT, P2_FRAGMENT, plan
from .oracles import bruteforce_mine, support, window_support

COMMON_RUN = plan("pickup b,stack b a,pickup c,stack c b")

# the nine shorter runs the shared window contains, all of which must be
# absorbed by the maximal pattern
SUBPATTERNS = [
    plan("pickup b"), plan("stack b a"), plan("pickup c"), plan("stack c b"),
    plan("pickup b,stack b a"), plan("stack b a,pickup c"),
    plan("pickup c,stack c b"), plan("pickup b,stack b a,pickup c"),
    plan("stack b a,pickup c,stack c b"),
]


@pytest.fixture
def golden_db():
    return SequenceDB.from_sequences([P1_FRAGMENT, P2_FRAGMENT])


def test_support_of_shared_run(golden_db):
    assert support(golden_db, COMMON_RUN) == 2
    assert mine_frequent(golden_db, 2).supports == {COMMON_RUN: 2}


def test_support_absent_pattern(golden_db):
    assert support(golden_db, plan("putdown d")) == 0


def test_support_counts_entries_not_occurrences():
    seq = plan("pickup b,pickup b,pickup b")
    db = SequenceDB.from_sequences([seq])
    assert support(db, plan("pickup b")) == 1
    assert mine_frequent(db, 1).supports == {seq: 1}
    assert mine_frequent(db, 2).patterns == ()


def test_support_random_matches_window_oracle():
    rng = random.Random(13)
    alphabet = [GroundAction("a", (str(i),)) for i in range(5)]
    for _ in range(50):
        entries = tuple(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
                        for _ in range(rng.randint(1, 8)))
        db = SequenceDB(entries)
        pattern = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        assert support(db, pattern) == window_support(entries, pattern)


def test_mine_delta_two(golden_db):
    result = mine_frequent(golden_db, 2)
    assert result.patterns == (COMMON_RUN,)
    assert result.supports[COMMON_RUN] == 2


def test_mine_delta_one(golden_db):
    result = mine_frequent(golden_db, 1)
    assert set(result.patterns) == {P1_FRAGMENT, P2_FRAGMENT}
    # ordered longest first
    assert result.patterns[0] == P2_FRAGMENT


def test_subpatterns_eliminated(golden_db):
    for delta in (1, 2):
        patterns = set(mine_frequent(golden_db, delta).patterns)
        for sub in SUBPATTERNS:
            assert sub not in patterns


def test_delta_one_returns_maximal_entries():
    a, b, c = (GroundAction(x) for x in "abc")
    db = SequenceDB.from_sequences([(a, b, c), (b, c), (a, c)])
    result = mine_frequent(db, 1)
    # (b, c) is inside (a, b, c); (a, c) is not contiguous within it
    assert set(result.patterns) == {(a, b, c), (a, c)}


def test_mine_random_matches_bruteforce():
    rng = random.Random(99)
    alphabet = [GroundAction("op", (str(i),)) for i in range(6)]
    for _ in range(100):
        entries = tuple(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
                        for _ in range(rng.randint(1, 10)))
        db = SequenceDB(entries)
        for delta in (1, 2, 3):
            got = set(mine_frequent(db, delta).patterns)
            assert got == bruteforce_mine(entries, delta)


def test_no_pattern_contains_another():
    rng = random.Random(123)
    alphabet = [GroundAction("op", (str(i),)) for i in range(4)]
    for _ in range(30):
        entries = tuple(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
                        for _ in range(rng.randint(1, 6)))
        patterns = mine_frequent(SequenceDB(entries), 2).patterns
        for p in patterns:
            for q in patterns:
                if p is q:
                    continue
                windows = {q[i:i + len(p)] for i in range(len(q) - len(p) + 1)}
                assert p not in windows


def test_supports_match_recount(golden_db):
    for delta in (1, 2):
        result = mine_frequent(golden_db, delta)
        for pattern in result.patterns:
            assert result.supports[pattern] == support(golden_db, pattern)
            assert result.supports[pattern] >= delta


_actions = st.sampled_from([GroundAction("op", (c,)) for c in "abcd"])
_entry = st.lists(_actions, min_size=1, max_size=10).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.lists(_entry, min_size=1, max_size=8), st.integers(0, 6), st.integers(0, 6))
def test_antimonotone_support(entries, start, width):
    db = SequenceDB.from_sequences(entries)
    seq = entries[0]
    start = start % len(seq)
    pattern = seq[start:start + 1 + width]
    full = support(db, pattern)
    if len(pattern) > 1:
        assert support(db, pattern[:-1]) >= full
        assert support(db, pattern[1:]) >= full


def test_invalid_inputs(golden_db):
    with pytest.raises(ValueError):
        mine_frequent(golden_db, 0)
    with pytest.raises(ValueError):
        support(golden_db, ())


def test_supports_are_read_only(golden_db):
    result = mine_frequent(golden_db, 2)
    with pytest.raises(TypeError):
        result.supports[COMMON_RUN] = 99
    assert result.supports[COMMON_RUN] == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(_entry, min_size=1, max_size=8),
       st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True))
def test_one_growth_serves_every_threshold(entries, deltas):
    # the thresholds come in any order; growing at the smallest and filtering
    # gives, at each, the very set mining at that threshold gives
    db = SequenceDB.from_sequences(entries)
    grown = grow_frequent(db, min(deltas))
    for delta in deltas:
        direct = mine_frequent(db, delta)
        for derived in (mine_frequent(db, delta, grown=grown),
                        mine_fragments(entries, delta, grown=grown)):
            assert derived.patterns == direct.patterns
            assert dict(derived.supports) == dict(direct.supports)
            assert derived == direct


def test_growth_above_the_threshold_is_refused(golden_db):
    grown = grow_frequent(golden_db, 2)
    assert grown.min_support == 2
    assert dict(grown.supports) == {sub: 2 for sub in [*SUBPATTERNS, COMMON_RUN]}
    with pytest.raises(ValueError, match="grown at support 2"):
        mine_frequent(golden_db, 1, grown=grown)
    with pytest.raises(ValueError):
        grow_frequent(golden_db, 0)
    with pytest.raises(TypeError):
        grown.supports[COMMON_RUN] = 99
