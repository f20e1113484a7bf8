"""Accuracy scoring under the complete model."""

from __future__ import annotations

import pytest

from caseplan import evaluate, solve_with_library
from caseplan.evaluate import check_solution
from caseplan.strips import GroundAction, Grounding, PlanningProblem, execute_plan

from .conftest import GOLDEN_SOLUTION, atoms, make_p1, plan


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


def test_unsolved_results_say_where_and_why(blocks, tower, tower_incomplete):
    # a missing plan, a step whose precondition fails under the complete
    # model, and a plan that runs but leaves the goal unmet
    shortcut = solve_with_library(tower_incomplete, [("p1", make_p1())], 1).plan
    report = evaluate([tower, tower_incomplete, trivial_problem(blocks, 0), tower],
                      [None, shortcut, (), ()], blocks, ids=["none", "bad", "ok", "short"])
    none, bad, ok, short = report.per_problem
    assert (none.solved, none.failed_step, none.reason) == (False, None, "no plan")
    expected = execute_plan(tower_incomplete, shortcut,
                            grounding=Grounding(blocks, tower_incomplete.objects))
    assert not expected.success
    assert (bad.failed_step, bad.reason) == (expected.failed_step, expected.reason)
    assert bad.reason.startswith("unsatisfied precondition")
    assert (ok.solved, ok.failed_step, ok.reason) == (True, None, None)
    assert short.failed_step == 0
    assert short.reason.startswith("goal atom")


@pytest.mark.parametrize("steps", [
    GOLDEN_SOLUTION,  # solved
    GOLDEN_SOLUTION[:2] + GOLDEN_SOLUTION[3:],  # (stack b a) fails mid-walk: b is not held
    GOLDEN_SOLUTION[:4],  # every step applies, the goal is missed
    (),  # the goal is missed without a step
    GOLDEN_SOLUTION[:2] + (GroundAction("fly", ("a",)),),  # unknown schema
    plan("unstack c a,stack c"),  # wrong arity
    plan("unstack c a,putdown z"),  # no such object
    plan("pickup b,stack b b"),  # an action of the table that cannot apply
])
def test_check_solution_is_execute_plan_success(blocks, tower, steps):
    # check_solution decides on atom ids what execute_plan reports, and an
    # off-table step reads as a failure, never raises
    grounding = Grounding(blocks, tower.objects)
    expected = execute_plan(tower, steps, grounding=grounding).success
    assert check_solution(tower, steps, blocks) == expected
    assert check_solution(tower, steps, blocks, grounding=grounding) == expected


def test_check_solution_on_solver_plans(blocks, incomplete_blocks):
    # plans of every route, valid or not under the complete model
    from caseplan import generate_case_library, make_problem_suite
    cases = generate_case_library(blocks, 6, 3, n_blocks=4)
    seen = set()
    for problem in make_problem_suite(incomplete_blocks, 12, 5, n_blocks=4):
        found = solve_with_library(problem, cases, 1).plan
        if found is None:
            continue
        expected = execute_plan(problem, found,
                                grounding=Grounding(blocks, problem.objects)).success
        seen.add(expected)
        assert check_solution(problem, found, blocks) == expected
    assert seen == {True, False}
