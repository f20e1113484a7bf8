"""End-to-end solving: causal pairs, fragment mining, assembly, and fallbacks.

Inside a solve, plans, fragments, patterns and causal pairs are op ids
(:data:`~caseplan.strips.OpPlan`), which every grounding of the problem and
its mapping index share; only what a solve returns is named, once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .assemble import concat_frag, trim
from .causal import CausalPair, extract_causal_pairs, single_goal_plans
from .cases import CaseFile
from .mapping import Uncovered, build_fragments
from .mining import FrequentFragmentSet, GrownPatterns, SequenceDB, mine_frequent
from .search import SearchConfig, SolveResult, solve
from .strips import GroundAction, Grounding, OpPlan, Plan, PlanningProblem
from .strips import execute_plan  # unused: kept for the tracer's hook until ROADMAP item 5

ROUTE_FRAGMENTS = "fragments"
ROUTE_SKELETAL = "skeletal"
ROUTE_SEARCH = "search"

STAGE_SKELETAL = "skeletal"
STAGE_MINING = "mining"
STAGE_ASSEMBLY = "assembly"

NO_PATTERNS = FrequentFragmentSet((), {})


@dataclass(frozen=True)
class PipelineOutcome:
    """What the solver produced and how; ``plan`` is None on overall failure.

    ``plan`` and ``uncovered`` are named; the causal ``pairs``, and the
    ``fragments`` and ``frequent`` patterns the solve assembled from, are op
    ids. With no causal ``pairs`` there is nothing to assemble, so the latter
    are ``()`` and :data:`NO_PATTERNS`, whatever the call was given.

    ``uncovered`` is set where the solve stopped mapping cases because that
    end of a causal pair could no longer lie in ``min_support`` fragments
    (see :func:`solve_with_library`); the solve then mined and assembled
    nothing, so ``fragments`` and ``frequent`` are ``()`` and
    :data:`NO_PATTERNS` and a failed solve's stage is ``mining``."""

    plan: Plan | None
    route: str | None
    failed_stage: str | None
    pairs: frozenset[CausalPair]
    fragments: tuple[OpPlan, ...]
    frequent: FrequentFragmentSet
    uncovered: GroundAction | None = None

    @property
    def solved(self) -> bool:
        return self.plan is not None


class Skeleton(NamedTuple):
    """The stage that depends only on the problem and its (possibly incomplete)
    model: the skeletal plan (None where it does not execute to the goal), the
    causal pairs (op ids) of the per-goal plans, the grounding that every stage
    of a solve walks on, and, only where the plan is None, the full-goal search."""

    plan: Plan | None
    pairs: frozenset[CausalPair]
    grounding: Grounding
    search: SolveResult | None


def skeleton(problem: PlanningProblem, config: SearchConfig | None = None) -> Skeleton:
    """The skeleton of the problem under its own model. The skeletal plan is the
    solved per-goal plans joined in sorted goal order and trimmed, or None
    where :func:`~caseplan.assemble.trim` finds that it misses the goal; only
    there is the full goal searched. Each per-goal plan is walked twice, on the
    op ids its search recorded: once for its causal pairs, once in the trim.
    Only the trimmed plan is named."""
    grounding = Grounding.for_problem(problem)
    steps: list[int] = []
    pairs: frozenset[CausalPair] = frozenset()
    for _, result in single_goal_plans(problem, config, grounding):
        if result.solved and result.ops:
            steps += result.ops
            pairs |= extract_causal_pairs(result.ops, problem, grounding=grounding)
    trimmed = trim(tuple(steps), problem, grounding=grounding)
    if trimmed is None:
        return Skeleton(None, pairs, grounding, solve(problem, config, grounding))
    return Skeleton(tuple(map(grounding.action, trimmed)), pairs, grounding, None)


def mine_fragments(fragments: Sequence[OpPlan], min_support: int, *,
                   grown: GrownPatterns | None = None) -> FrequentFragmentSet:
    """The stage that depends only on the fragments of a library prefix and
    the support threshold: the maximal frequent runs of their actions.

    ``grown``, when given, is what ``grow_frequent`` returns for the same
    fragments at a threshold no higher than ``min_support`` (see
    :func:`~caseplan.mining.mine_frequent`)."""
    return mine_frequent(SequenceDB.from_sequences(fragments), min_support, grown=grown)


def solve_with_library(problem: PlanningProblem, cases: list[tuple[str, CaseFile]],
                       min_support: int, *,
                       config: SearchConfig | None = None,
                       assembly_budget: int = 20_000,
                       search_fallback: bool = True,
                       fragments: tuple[OpPlan, ...] | None = None,
                       skeletal: Skeleton | None = None,
                       frequent: FrequentFragmentSet | None = None) -> PipelineOutcome:
    """Solve under the problem's (possibly incomplete) model using the case library.

    The primary route assembles mined frequent fragments along the causal
    pairs. The pairs direct the mining: with none, assembly could only return
    the empty plan, which the skeletal plan already is where the goal holds
    initially, so the call maps no case, mines nothing and assembles nothing.
    If assembly fails, the skeletal plan is taken where it executes, and else,
    unless ``search_fallback`` is False, the skeleton's full-goal search (see
    :func:`skeleton`); anything returned executes under the problem's own
    model, though only validation against the complete model can tell whether
    it is really correct.

    Where the call builds the fragments itself, the pairs also direct how
    much it maps. Assembly drops a pair only once both its ends are in the
    draft, and a draft holds only actions of patterns, each in at least
    ``min_support`` fragments. So the ends of the pairs are passed to
    :func:`~caseplan.mapping.build_fragments` as required actions, and it
    stops mapping cases as soon as one of them can no longer lie in
    ``min_support`` fragments. Assembly would fail at every budget there, so
    the solve skips mining and assembly and goes on to the fallbacks. Its
    outcome reports that end as ``uncovered``, with ``fragments=()`` and
    ``frequent=NO_PATTERNS``, and ``failed_stage`` ``mining`` where no
    fallback solves, as with an empty library.

    ``fragments``, when given, are the fragments of ``cases`` on this problem,
    already built (what ``build_fragments(problem, cases)`` returns), and no
    mapping is cut. They do not depend on the action model, so a caller
    solving one problem under several models may build them once and pass
    them to every call.

    The other stages can be passed in the same way. ``skeletal``, when given,
    is what ``skeleton(problem, config)`` returns; it depends only on the
    problem and its model. ``frequent``, when given, is what
    ``mine_fragments(fragments, min_support)`` returns; it does not depend on
    the model. ``fragments`` and ``frequent`` are ignored, and the outcome
    reports them empty, when the skeleton has no causal pairs.

    ``min_support`` below 1 is a ``ValueError``, raised before any stage runs.
    """
    if min_support < 1:
        raise ValueError(f"min_support {min_support} must be >= 1")
    if skeletal is None:
        skeletal = skeleton(problem, config)
    skeletal_plan, pairs, grounding, direct = skeletal
    uncovered = None
    if not pairs:
        fragments, frequent = (), NO_PATTERNS
    elif fragments is None:
        try:
            fragments = tuple(build_fragments(
                problem, cases, required={end for pair in pairs for end in pair},
                min_support=min_support))
        except Uncovered as cut:
            fragments, frequent, uncovered = (), NO_PATTERNS, grounding.action(cut.action)

    def outcome(plan: Plan | None, route: str | None, stage: str | None) -> PipelineOutcome:
        return PipelineOutcome(plan, route, stage, pairs, fragments, frequent, uncovered)

    if pairs and uncovered is None:
        if frequent is None:
            frequent = mine_fragments(fragments, min_support)
        assembled = concat_frag(problem, pairs, frequent.patterns, node_budget=assembly_budget,
                                grounding=grounding)
        if assembled is not None:
            return outcome(tuple(map(grounding.action, assembled)), ROUTE_FRAGMENTS, None)

    if skeletal_plan is not None:
        return outcome(skeletal_plan, ROUTE_SKELETAL, None)

    if search_fallback and direct.solved:
        return outcome(direct.plan, ROUTE_SEARCH, None)

    return outcome(None, None, STAGE_SKELETAL if not pairs else
                   STAGE_MINING if not frequent.patterns else STAGE_ASSEMBLY)
