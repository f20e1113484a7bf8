"""Accuracy scoring under the complete model."""

from __future__ import annotations

import pytest

from caseplan import evaluate, solve_with_library
from caseplan.strips import PlanningProblem

from .conftest import atoms, make_p1


def trivial_problem(blocks, i):
    return PlanningProblem(name=f"t{i}", domain=blocks, objects={"a": "object"},
                           init=atoms("ontable a", "clear a", "handempty"),
                           goal=atoms("clear a"))


def test_accuracy_88_of_100(blocks):
    problems = [trivial_problem(blocks, i) for i in range(100)]
    solutions = [() if i < 88 else None for i in range(100)]
    report = evaluate(problems, solutions, blocks)
    assert report.n_total == 100
    assert report.n_correct == 88
    assert report.accuracy == pytest.approx(0.88)


def test_zero_problems_rejected(blocks):
    with pytest.raises(ValueError, match="empty"):
        evaluate([], [], blocks)


def test_misaligned_inputs_rejected(blocks):
    problems = [trivial_problem(blocks, 0)]
    with pytest.raises(ValueError, match="solutions"):
        evaluate(problems, [], blocks)
    with pytest.raises(ValueError, match="ids"):
        evaluate(problems, [()], blocks, ids=[])


def test_plan_valid_under_incomplete_but_not_complete(blocks, tower_incomplete):
    # the skeletal shortcut stacks b on a while c still covers a: fine for
    # the degraded model, wrong for the real one
    outcome = solve_with_library(tower_incomplete, [("p1", make_p1())], 1)
    assert outcome.plan is not None
    report = evaluate([tower_incomplete], [outcome.plan], blocks)
    assert report.n_correct == 0


def test_mean_length_over_solved_only(blocks, tower, tower_incomplete):
    problems = [trivial_problem(blocks, 0), tower]
    from caseplan import solve
    good = solve(tower).plan
    report = evaluate(problems, [(), good], blocks)
    assert report.n_correct == 2
    assert report.mean_plan_length == pytest.approx(len(good) / 2)
    partial = evaluate(problems, [(), None], blocks)
    assert partial.mean_plan_length == pytest.approx(0.0)
    assert partial.n_correct == 1


def test_no_solved_mean_is_none(blocks):
    report = evaluate([trivial_problem(blocks, 0)], [None], blocks)
    assert report.mean_plan_length is None
    assert report.accuracy == 0.0


def test_accuracy_monotone_under_dropped_solutions(blocks):
    problems = [trivial_problem(blocks, i) for i in range(10)]
    solutions: list = [() for _ in range(10)]
    previous = evaluate(problems, solutions, blocks).accuracy
    for i in range(10):
        solutions[i] = None
        current = evaluate(problems, solutions, blocks).accuracy
        assert current <= previous
        previous = current


def test_per_problem_ids_and_timings(blocks):
    problems = [trivial_problem(blocks, i) for i in range(2)]
    report = evaluate(problems, [(), ()], blocks, ids=["x", "y"])
    assert [r.problem_id for r in report.per_problem] == ["x", "y"]
