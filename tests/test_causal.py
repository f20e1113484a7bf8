"""Causal-pair extraction and the per-goal skeletal planner."""

from __future__ import annotations

import random

import pytest

import caseplan.strips
from caseplan import (
    CausalPair,
    DegradeSpec,
    Grounding,
    StripsError,
    degrade,
    extract_causal_pairs,
    skeleton,
)
from caseplan.causal import single_goal_plans
from caseplan.search import solve
from caseplan.strips import PlanningProblem

from .conftest import GA, make_tower_problem, named_pairs, op_ids, pair_ids, plan
from .oracles import causal_pairs_by_triples


def as_tuples(problem, pairs):
    """Causal pairs of op ids as (provider, consumer) tuples of named actions."""
    return {(p.provider, p.consumer) for p in named_pairs(problem, pairs)}


def test_two_action_plan(tower_incomplete):
    # the degraded stack has no (clear ?y) precondition, so this executes
    pairs = extract_causal_pairs(op_ids(tower_incomplete, plan("pickup b,stack b a")),
                                 tower_incomplete)
    assert pairs == pair_ids(tower_incomplete, {CausalPair(GA("pickup b"), GA("stack b a"))})


def test_single_action_plan(tower):
    assert extract_causal_pairs(op_ids(tower, plan("pickup b")), tower) == frozenset()


def test_three_action_plan_matches_triple_oracle(blocks, tower):
    p = plan("unstack c a,putdown c,pickup b")
    pairs = extract_causal_pairs(op_ids(tower, p), tower)
    assert as_tuples(tower, pairs) == causal_pairs_by_triples(p, blocks, tower.init)


def test_rejects_non_executable_plan(tower):
    with pytest.raises(StripsError, match=r"^plan step 0 \(pickup a\) is not executable: "
                                          r"missing \(clear a\)$"):
        extract_causal_pairs(op_ids(tower, plan("pickup a")), tower)


def test_golden_pairs(tower_incomplete):
    pairs = skeleton(tower_incomplete)[1]
    assert as_tuples(tower_incomplete, pairs) == {
        (GA("pickup b"), GA("stack b a")),
        (GA("unstack c a"), GA("stack c b")),
        (GA("pickup d"), GA("stack d c")),
    }


def test_empty_goal_gives_no_pairs(incomplete_blocks):
    problem = make_tower_problem(incomplete_blocks)
    empty = type(problem)(name="e", domain=incomplete_blocks,
                          objects=problem.objects, init=problem.init,
                          goal=frozenset())
    assert skeleton(empty)[1] == frozenset()


def test_unreachable_goal_contributes_nothing(blocks):
    # drop every add atom of stack: (on x y) has no achiever left
    model = degrade(blocks, DegradeSpec(completeness=0.0, seed=1, scope=("add",)))
    merged = type(blocks)(name="blocks", types=dict(blocks.types),
                          predicates=dict(blocks.predicates),
                          schemas={**blocks.schemas,
                                   "stack": model.schemas["stack"]})
    problem = make_tower_problem(merged)
    assert skeleton(problem)[1] == frozenset()


def test_pair_actions_come_from_goal_plans(tower_incomplete):
    # the pairs are op ids, taken from the op ids the per-goal searches record
    plans = single_goal_plans(tower_incomplete)
    seen = set()
    for _, result in plans:
        if result.solved:
            seen.update(result.ops)
    for pair in skeleton(tower_incomplete)[1]:
        assert pair.provider in seen and pair.consumer in seen


def test_random_plans_match_triple_oracle(blocks):
    from caseplan import random_blocks_problem
    rng = random.Random(17)
    for i in range(40):
        problem = random_blocks_problem(blocks, rng.choice([3, 4]), rng)
        grounding = Grounding.for_problem(problem)
        state = grounding.encode(problem.init)
        steps = []
        for _ in range(rng.randint(1, 8)):
            usable = [k for k, (pre, _, _) in enumerate(grounding.ops_ids)
                      if frozenset(pre) <= state]
            if not usable:
                break
            k = rng.choice(usable)
            pre, add, dele = grounding.ops_ids[k]
            state = (state - frozenset(dele)) | frozenset(add)
            steps.append(k)
        if not steps:
            continue
        pairs = extract_causal_pairs(tuple(steps), problem, grounding=grounding)
        assert as_tuples(problem, pairs) == causal_pairs_by_triples(
            tuple(map(grounding.action, steps)), blocks, problem.init)


def test_determinism(tower_incomplete):
    assert skeleton(tower_incomplete)[1] == \
        skeleton(tower_incomplete)[1]


def test_skeleton_checks_the_problem_once(monkeypatch, blocks):
    # building the problem checks its init and its goal; the per-goal
    # subproblems of skeleton are not checked again
    tower = make_tower_problem(blocks)
    assert len(tower.goal) > 1
    calls = []
    real = caseplan.strips._check_ground_atoms

    def counted(atoms, domain, objects, where):
        calls.append(where)
        return real(atoms, domain, objects, where)

    monkeypatch.setattr(caseplan.strips, "_check_ground_atoms", counted)
    problem = PlanningProblem(name=tower.name, domain=tower.domain, objects=tower.objects,
                              init=tower.init, goal=tower.goal)
    skeleton(problem)
    assert calls == ["init", "goal"]


@pytest.mark.parametrize("completeness", [0.6, 1.0])
def test_single_goal_plans_match_checked_subproblems(blocks, completeness):
    model = degrade(blocks, DegradeSpec(completeness=completeness, seed=2))
    problem = make_tower_problem(model)
    grounding = Grounding.for_problem(problem)
    expected = []
    for atom in sorted(problem.goal):
        sub = PlanningProblem(name=f"{problem.name}/{atom.pddl()}", domain=model,
                              objects=problem.objects, init=problem.init,
                              goal=frozenset({atom}))
        expected.append((atom, solve(sub, None, grounding)))
    assert single_goal_plans(problem, None, grounding) == expected


def test_subproblem_goal_must_come_from_the_problem(blocks):
    problem = make_tower_problem(blocks)
    atom = sorted(problem.goal)[0]
    sub = problem._with_own_goal("sub", frozenset({atom}))
    assert (sub.name, sub.goal, sub.init, sub.objects) == \
        ("sub", frozenset({atom}), problem.init, problem.objects)
    with pytest.raises(StripsError):
        problem._with_own_goal("sub", frozenset(problem.init))
