"""Skeletal plan structure: plan each goal atom separately, keep the causal pairs.

A causal pair links a provider action to a later consumer whose precondition
it supplies, with no intervening deleter. The pairs act as landmarks for
fragment assembly; nothing here tries to resolve threats or build a full
partial order.
"""

from __future__ import annotations

from typing import NamedTuple

from .search import SearchConfig, SolveResult, solve
from .strips import (
    Atom,
    DomainModel,
    GroundAction,
    Grounding,
    Plan,
    PlanningProblem,
    State,
    StripsError,
    grounded,
)


class CausalPair(NamedTuple):
    provider: GroundAction
    consumer: GroundAction

    def pddl(self) -> str:
        return f"{self.provider.pddl()} -> {self.consumer.pddl()}"


def extract_causal_pairs(plan: Plan, model: DomainModel, init: State) -> frozenset[CausalPair]:
    """All pairs (a_i, a_j), i < j, where a_i adds some precondition atom of a_j
    and no action strictly between them deletes that atom.

    The plan must execute under the model from ``init``; self-pairs (the same
    ground action at both ends) are dropped.
    """
    state = init
    steps = []
    for i, action in enumerate(plan):
        ga = grounded(model, action)
        if not ga.pre <= state:
            missing = sorted(ga.pre - state)[0]
            raise StripsError(f"plan step {i} {action.pddl()} is not executable: "
                              f"missing {missing.pddl()}")
        state = (state - ga.delete) | ga.add
        steps.append(ga)

    pairs = set()
    for j, consumer in enumerate(steps):
        for atom in consumer.pre:
            for i in range(j - 1, -1, -1):
                if atom in steps[i].delete:
                    break
                if atom in steps[i].add and steps[i].action != consumer.action:
                    pairs.add(CausalPair(steps[i].action, consumer.action))
    return frozenset(pairs)


def single_goal_plans(problem: PlanningProblem, config: SearchConfig | None = None,
                      grounding: Grounding | None = None
                      ) -> list[tuple[Atom, SolveResult]]:
    """Solve one subproblem per goal atom, in sorted goal order.

    Goal atoms the solver cannot reach (unsolvable or out of budget) keep
    their failed result; callers decide what a failure contributes.
    """
    config = config or SearchConfig()
    grounding = grounding or Grounding.for_problem(problem)
    out = []
    for atom in sorted(problem.goal):
        sub = PlanningProblem(name=f"{problem.name}/{atom.pddl()}", domain=problem.domain,
                              objects=problem.objects, init=problem.init,
                              goal=frozenset({atom}))
        out.append((atom, solve(sub, config, grounding)))
    return out

