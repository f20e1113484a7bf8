"""Problem and case-library generation."""

from __future__ import annotations

import random
from importlib import resources

import pytest

from caseplan import (
    generate_case_library,
    parse_domain,
    random_blocks_problem,
    solve,
)
from caseplan.generators import random_blocks_state, random_walk_problem
from caseplan.strips import PlanningProblem, execute_plan

from .conftest import atoms


def test_random_blocks_state_is_legal(blocks):
    rng = random.Random(1)
    for _ in range(50):
        state = random_blocks_state(["b1", "b2", "b3", "b4"], rng)
        ontable = sum(a.predicate == "ontable" for a in state)
        clear = sum(a.predicate == "clear" for a in state)
        on = sum(a.predicate == "on" for a in state)
        assert ontable == clear  # one table block and one top per stack
        assert ontable + on == 4
        assert atoms("handempty") <= state


def test_random_blocks_problem_is_solvable(blocks):
    rng = random.Random(2)
    for i in range(10):
        problem = random_blocks_problem(blocks, 4, rng, name=f"g{i}")
        assert not problem.goal <= problem.init
        result = solve(problem)
        assert result.solved


def test_random_walk_problem_on_driverlog():
    text = (resources.files("caseplan") / "domains" / "driverlog.pddl").read_text()
    domain = parse_domain(text)
    objects = {"d1": "driver", "t1": "truck", "p1": "obj", "p2": "obj",
               "l1": "location", "l2": "location"}
    init = atoms("at d1 l1", "at t1 l1", "at p1 l1", "at p2 l2", "empty t1",
                 "link l1 l2", "link l2 l1", "path l1 l2", "path l2 l1")
    rng = random.Random(3)
    problem = random_walk_problem(domain, objects, init, rng, walk_length=15,
                                  goal_predicates=frozenset({"at", "in"}),
                                  goal_size=2)
    assert problem.goal
    assert all(a.predicate in ("at", "in") for a in problem.goal)
    result = solve(problem)
    assert result.solved
    assert execute_plan(problem, result.plan).success


def test_generate_case_library_from_given_problems(blocks):
    rng = random.Random(5)
    problems = [random_blocks_problem(blocks, 3, rng, name=f"src{i}")
                for i in range(4)]
    library = generate_case_library(blocks, 4, 0, problems=problems)
    assert len(library) == 4
    for name, case in library:
        objects = {o: "object" for o in case.objects()}
        check = PlanningProblem(name=name, domain=blocks, objects=objects,
                                init=case.init, goal=case.goal)
        assert execute_plan(check, case.plan).success


def test_generate_case_library_reports_short(blocks):
    # two problems cannot fill a four-case request
    rng = random.Random(5)
    problems = [random_blocks_problem(blocks, 3, rng) for _ in range(2)]
    library = generate_case_library(blocks, 4, 0, problems=problems)
    assert len(library) == 2


def test_generator_bounds(blocks):
    with pytest.raises(ValueError, match="n_blocks must be at least 2"):
        random_blocks_problem(blocks, 1, random.Random(0))
    with pytest.raises(ValueError, match="case count must be >= 0"):
        generate_case_library(blocks, -1, 0)
    assert generate_case_library(blocks, 0, 0) == []
