"""End-to-end solving: causal pairs, fragment mining, assembly, and fallbacks."""

from __future__ import annotations

from dataclasses import dataclass

from .assemble import concat_frag, trim
from .causal import CausalPair, extract_causal_pairs, single_goal_plans
from .cases import CaseFile
from .mapping import Fragment, build_fragments
from .mining import FrequentFragmentSet, SequenceDB, mine_frequent
from .search import SearchConfig, solve
from .strips import Grounding, Plan, PlanningProblem, execute_plan

ROUTE_FRAGMENTS = "fragments"
ROUTE_SKELETAL = "skeletal"
ROUTE_SEARCH = "search"

STAGE_SKELETAL = "skeletal"
STAGE_MINING = "mining"
STAGE_ASSEMBLY = "assembly"


@dataclass(frozen=True)
class PipelineOutcome:
    """What the solver produced and how; ``plan`` is None on overall failure."""

    plan: Plan | None
    route: str | None
    failed_stage: str | None
    pairs: frozenset[CausalPair]
    fragments: tuple[Fragment, ...]
    frequent: FrequentFragmentSet

    @property
    def solved(self) -> bool:
        return self.plan is not None


def skeleton(problem: PlanningProblem, config: SearchConfig | None = None,
             grounding: Grounding | None = None) -> tuple[list[Plan], frozenset[CausalPair]]:
    """The skeletal plan: the solved per-goal plans, in sorted goal order, and the
    union of their causal pairs. Goals the solver cannot reach contribute nothing."""
    goal_plans = [result.plan for _, result in single_goal_plans(problem, config, grounding)
                  if result.solved and result.plan]
    pairs: frozenset[CausalPair] = frozenset()
    for goal_plan in goal_plans:
        pairs |= extract_causal_pairs(goal_plan, problem.domain, problem.init)
    return goal_plans, pairs


def solve_with_library(problem: PlanningProblem, cases: list[tuple[str, CaseFile]],
                       min_support: int, *,
                       config: SearchConfig | None = None,
                       assembly_budget: int = 20_000,
                       search_fallback: bool = True) -> PipelineOutcome:
    """Solve under the problem's (possibly incomplete) model using the case library.

    The primary route assembles mined frequent fragments along the causal
    pairs. If that fails, the per-goal skeletal plans are concatenated in
    sorted goal order and trimmed. As a last resort the forward planner is
    run on the full goal; anything returned executes under the problem's own
    model, though only validation against the complete model can tell whether
    it is really correct.
    """
    config = config or SearchConfig()
    grounding = Grounding.for_problem(problem)
    goal_plans, pairs = skeleton(problem, config, grounding)

    fragments = tuple(build_fragments(problem, cases))
    db = SequenceDB.from_sequences([f.actions for f in fragments])
    frequent = mine_frequent(db, min_support)

    plan = concat_frag(problem, pairs, frequent, node_budget=assembly_budget)
    if plan is not None:
        return PipelineOutcome(plan, ROUTE_FRAGMENTS, None, pairs, fragments, frequent)

    skeletal = trim(tuple(a for goal_plan in goal_plans for a in goal_plan), problem)
    if execute_plan(problem, skeletal).success:
        return PipelineOutcome(skeletal, ROUTE_SKELETAL, None, pairs, fragments, frequent)

    if search_fallback:
        direct = solve(problem, config, grounding)
        if direct.solved:
            return PipelineOutcome(direct.plan, ROUTE_SEARCH, None, pairs,
                                   fragments, frequent)

    if not pairs:
        stage = STAGE_SKELETAL
    elif not frequent.patterns:
        stage = STAGE_MINING
    else:
        stage = STAGE_ASSEMBLY
    return PipelineOutcome(None, None, stage, pairs, fragments, frequent)
