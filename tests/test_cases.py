"""Case files, plan files, and the experiment CSV format."""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseplan import (
    CaseFile,
    ExperimentRow,
    GroundAction,
    best_mapping,
    build_fragments,
    parse_case,
    parse_plan,
)
from caseplan.cases import (
    CSV_HEADER,
    case_to_text,
    plan_to_text,
    read_case_library,
    read_rows,
    write_case_library,
    write_rows,
)
from caseplan.mapping import case_index
from caseplan.pddl import PddlError

from .conftest import GOLDEN_SOLUTION, atoms, make_p1


def test_parse_p1_case(fixture_dir, p1):
    case = parse_case((fixture_dir / "cases" / "p1.case").read_text())
    assert case == p1
    assert len(case.plan) == 6


def test_single_action_case():
    case = parse_case("(:init (clear a)) (:goal (holding a)) (:plan (pickup a))")
    assert len(case.plan) == 1


def test_empty_plan_rejected():
    with pytest.raises(PddlError, match="nonempty"):
        parse_case("(:init (clear a)) (:goal (clear a)) (:plan)")


def test_missing_section_rejected():
    with pytest.raises(PddlError, match=":goal"):
        parse_case("(:init (clear a)) (:plan (pickup a))")


def test_variable_in_case_rejected():
    with pytest.raises(PddlError):
        parse_case("(:init (clear ?x)) (:goal (clear a)) (:plan (pickup a))")


def test_case_round_trip(p1, p2):
    for case in (p1, p2):
        assert parse_case(case_to_text(case)) == case


def _random_case(rng: random.Random) -> CaseFile:
    objs = [f"o{i}" for i in range(rng.randint(1, 4))]
    def atom():
        return (rng.choice(["p", "q", "r"]),) + tuple(
            rng.choice(objs) for _ in range(rng.randint(0, 2)))
    init = atoms(*(" ".join(atom()) for _ in range(rng.randint(1, 6))))
    goal = atoms(*(" ".join(atom()) for _ in range(rng.randint(1, 3))))
    plan = tuple(GroundAction(rng.choice(["go", "do"]),
                              tuple(rng.choice(objs)
                                    for _ in range(rng.randint(0, 2))))
                 for _ in range(rng.randint(1, 5)))
    return CaseFile(init=init, goal=goal, plan=plan)


def test_mapped_case_is_the_value_a_fresh_parse_is(fixture_dir, tower):
    # mapping keeps the case's rows on it, which must not show in its value
    text = (fixture_dir / "cases" / "p1.case").read_text()
    case, fresh = parse_case(text), parse_case(text)
    build_fragments(tower, [("p1", case)])
    rows = case.mapping_rows
    # the kept rows, the greedy order among them, are tuples and frozensets
    # all the way down: they hash, and equal a fresh build
    assert isinstance(rows.greedy, tuple)
    assert all(isinstance(step, tuple) and isinstance(step[1], tuple) for step in rows.greedy)
    assert hash(rows) == hash(case_index(fresh))
    assert rows == case_index(fresh)
    assert dataclasses.fields(case) == dataclasses.fields(fresh)
    assert case == fresh
    assert hash(case) == hash(fresh)
    assert repr(case) == repr(fresh)
    assert case_to_text(case) == case_to_text(fresh)
    for name in ("plan", "mapping_rows"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(case, name, ())
    restored = pickle.loads(pickle.dumps(case))
    assert restored == fresh
    assert hash(restored) == hash(fresh)
    assert restored.mapping_rows == rows
    assert best_mapping(restored, tower) == best_mapping(fresh, tower)


def test_a_loaded_case_key_hashes_anew(fixture_dir):
    # a str hashes differently in another process, so an index's kept hash
    # is not loaded with it: a stale one would hide an equal index from the
    # fragments memo of build_fragments
    case = parse_case((fixture_dir / "cases" / "p1.case").read_text())
    rows = case.mapping_rows
    object.__setattr__(rows, "hash", hash((rows.atoms, rows.plan)) + 1)
    restored = pickle.loads(pickle.dumps(case))
    assert restored.mapping_rows == rows
    assert hash(restored.mapping_rows) == hash((rows.atoms, rows.plan)) == \
        hash(case_index(case))


def test_library_round_trip_byte_identical(tmp_path):
    rng = random.Random(11)
    cases = [(f"case_{i:04d}", _random_case(rng)) for i in range(200)]
    first = tmp_path / "lib1"
    write_case_library(first, cases)
    loaded = read_case_library(first)
    assert loaded == cases
    second = tmp_path / "lib2"
    write_case_library(second, loaded)
    for a, b in zip(sorted(first.iterdir()), sorted(second.iterdir())):
        assert a.read_bytes() == b.read_bytes()


def test_plan_file_golden_solution(tmp_path):
    text = plan_to_text(GOLDEN_SOLUTION)
    assert len(text.splitlines()) == 8
    assert text.splitlines()[0] == "(unstack c a)"
    assert parse_plan(text) == GOLDEN_SOLUTION


def test_plan_file_rejects_variable_with_location():
    with pytest.raises(PddlError, match=r"^line 1, col 12: variable \?x not allowed") as exc:
        parse_plan("(unstack c ?x)\n")
    assert (exc.value.line, exc.value.col) == (1, 12)


def test_empty_plan_file():
    assert plan_to_text(()) == ""
    assert parse_plan("") == ()


_action = st.tuples(
    st.sampled_from(["pickup", "putdown", "stack", "move-b"]),
    st.lists(st.sampled_from(["a", "b", "c3"]), max_size=3).map(tuple),
).map(lambda t: GroundAction(*t))


@settings(max_examples=200, deadline=None)
@given(st.lists(_action, max_size=12).map(tuple))
def test_plan_round_trip_property(plan):
    assert parse_plan(plan_to_text(plan)) == plan


def test_csv_round_trip(tmp_path):
    rows = [
        ExperimentRow("blocks", 40, 0.6, 15, "seed1-p000", True, 12, 34),
        ExperimentRow("blocks", 200, 0.2, 5, "seed1-p001", False, 0, 7),
    ]
    path = tmp_path / "out.csv"
    write_rows(path, rows)
    content = path.read_text().splitlines()
    assert content[0] == ",".join(CSV_HEADER)
    assert read_rows(path) == sorted(rows, key=ExperimentRow.sort_key)


def test_row_validation():
    with pytest.raises(ValueError, match="completeness"):
        ExperimentRow("blocks", 40, 1.5, 15, "x", True, 1, 1)
    with pytest.raises(ValueError, match="delta"):
        ExperimentRow("blocks", 40, 0.5, 0, "x", True, 1, 1)


def test_case_objects(p1):
    assert make_p1().objects() == ("b1", "b2", "b3", "b4")
