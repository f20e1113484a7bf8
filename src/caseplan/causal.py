"""Skeletal plan structure: plan each goal atom separately, keep the causal pairs.

A causal pair links a provider action to a later consumer whose precondition
it supplies, with no intervening deleter. The pairs act as landmarks for
fragment assembly; nothing here tries to resolve threats or build a full
partial order. Plans and pairs here are op ids (:data:`~caseplan.strips.OpPlan`).
"""

from __future__ import annotations

from typing import NamedTuple

from .search import SearchConfig, SolveResult, solve
from .strips import Atom, Grounding, OpPlan, PlanningProblem, StripsError


class CausalPair(NamedTuple):
    provider: int  # op ids, which sort as the actions they name
    consumer: int


def extract_causal_pairs(plan: OpPlan, problem: PlanningProblem, *,
                         grounding: Grounding | None = None) -> frozenset[CausalPair]:
    """All pairs (a_i, a_j), i < j, where a_i adds some precondition atom of a_j
    and no action strictly between them deletes that atom.

    The plan, op ids of ``grounding``, must execute under the problem's model
    from its initial state; self-pairs (the same ground action at both ends)
    are dropped. ``grounding`` is as for :func:`~caseplan.strips.execute_plan`.
    """
    grounding = grounding or Grounding.for_problem(problem)
    state, applied = grounding.run(plan, grounding.encode(problem.init))
    if applied < len(plan):
        op_idx = plan[applied]
        missing = min(grounding.decode(grounding.ops_ids[op_idx][0] - state))
        raise StripsError(f"plan step {applied} {grounding.action(op_idx).pddl()} is not "
                          f"executable: missing {missing.pddl()}")

    steps = [grounding.ops_ids[op_idx] for op_idx in plan]  # (pre, add, delete) ids
    pairs = set()
    for j, (consumer, (pre, _, _)) in enumerate(zip(plan, steps)):
        for atom in pre:
            for i in range(j - 1, -1, -1):
                _, add, delete = steps[i]
                if atom in delete:
                    break
                if atom in add and plan[i] != consumer:
                    pairs.add(CausalPair(plan[i], consumer))
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
        sub = problem._with_own_goal(f"{problem.name}/{atom.pddl()}", frozenset({atom}))
        out.append((atom, solve(sub, config, grounding)))
    return out

