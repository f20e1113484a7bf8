"""Causal-pair extraction and the per-goal skeletal planner."""

from __future__ import annotations

import random

import pytest

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

from .conftest import GA, make_tower_problem, plan
from .oracles import causal_pairs_by_triples


def as_tuples(pairs):
    return {(p.provider, p.consumer) for p in pairs}


def test_two_action_plan(incomplete_blocks, tower_incomplete):
    # the degraded stack has no (clear ?y) precondition, so this executes
    pairs = extract_causal_pairs(plan("pickup b,stack b a"), incomplete_blocks,
                                 tower_incomplete.init)
    assert pairs == frozenset({CausalPair(GA("pickup b"), GA("stack b a"))})


def test_single_action_plan(blocks, tower):
    assert extract_causal_pairs(plan("pickup b"), blocks, tower.init) == frozenset()


def test_three_action_plan_matches_triple_oracle(blocks, tower):
    p = plan("unstack c a,putdown c,pickup b")
    pairs = extract_causal_pairs(p, blocks, tower.init)
    assert as_tuples(pairs) == causal_pairs_by_triples(p, blocks, tower.init)


def test_rejects_non_executable_plan(blocks, tower):
    with pytest.raises(StripsError, match="not executable"):
        extract_causal_pairs(plan("pickup a"), blocks, tower.init)


def test_golden_pairs(tower_incomplete):
    pairs = skeleton(tower_incomplete)[1]
    assert as_tuples(pairs) == {
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
    plans = single_goal_plans(tower_incomplete)
    seen = set()
    for _, result in plans:
        if result.solved:
            seen.update(result.plan)
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
            steps.append(grounding.actions[k].action)
        p = tuple(steps)
        if not p:
            continue
        pairs = extract_causal_pairs(p, blocks, problem.init)
        assert as_tuples(pairs) == causal_pairs_by_triples(p, blocks, problem.init)


def test_determinism(tower_incomplete):
    assert skeleton(tower_incomplete)[1] == \
        skeleton(tower_incomplete)[1]
