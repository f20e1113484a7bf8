"""Concatenate frequent fragments into a plan, guided by causal pairs.

Fragments may only be joined where they overlap on a common contiguous run
at one end; :func:`merge` is that join, the paper's ``share`` and ``append``
in one. Once every causal pair is satisfied, the draft plan is trimmed
(inapplicable actions from the front, goal-deleting actions from the back)
and accepted iff the trimmed plan reaches the goal under the problem's own
model; :func:`trim` takes both steps in one walk. Plans and pairs are op ids.
"""

from __future__ import annotations

from .causal import CausalPair
from .strips import Grounding, OpPlan, PlanningProblem
from .strips import execute_plan  # unused: kept for the tracer's hook until ROADMAP item 5


def merge(partial: OpPlan, fragment: OpPlan) -> OpPlan | None:
    """Merge the fragment into the partial plan on their longest end overlap,
    or return None where the two share no end (an empty plan shares one).

    An overlap is a run of one or more actions that ends one sequence and
    starts the other; it appears once in the result. When both directions
    overlap, the longer one wins; ties attach the fragment at the end. These
    are the paper's ``share`` (the result is not None) and ``append``.
    """
    fragment = tuple(fragment)
    if not partial:
        return fragment
    # every end overlap holds partial[-1] (at the end) or partial[0] (at the front)
    if partial[-1] not in fragment and partial[0] not in fragment:
        return None
    at_end = at_front = 0
    for k in range(1, min(len(partial), len(fragment)) + 1):
        if partial[-k:] == fragment[:k]:
            at_end = k
        if fragment[-k:] == partial[:k]:
            at_front = k
    if at_end == at_front == 0:
        return None
    if at_end >= at_front:
        return partial + fragment[at_end:]
    return fragment + partial[at_front:]


def removelinks(plan: OpPlan, pairs: frozenset[CausalPair]) -> frozenset[CausalPair]:
    """Drop every pair whose provider occurs somewhere before its consumer."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, action in enumerate(plan):
        first.setdefault(action, i)
        last[action] = i
    kept = []
    for pair in pairs:
        i = first.get(pair.provider)
        j = last.get(pair.consumer)
        if i is None or j is None or i >= j:
            kept.append(pair)
    return frozenset(kept)


def trim(plan: OpPlan, problem: PlanningProblem, *,
         grounding: Grounding | None = None) -> OpPlan | None:
    """Remove inapplicable actions, then goal-deleting trailing actions, and
    return the result where it reaches the goal, or None where it does not.

    Front: one forward pass from the initial state under the problem's model
    keeps each action whose precondition holds in the state reached by the
    kept actions before it; a skipped action leaves that state unchanged.
    Back: while the last kept action's delete list touches a goal atom, drop
    it. Every kept action applies in turn by construction, so the trimmed
    plan executes to the goal exactly when the goal holds in the state after
    its last action, which the pass keeps. The pass reads the op ids' atom
    ids in ``grounding.ops_ids``; ``grounding`` is as for
    :func:`~caseplan.strips.execute_plan`.
    """
    grounding = grounding or Grounding.for_problem(problem)
    goal = grounding.encode(problem.goal)
    init = state = grounding.encode(problem.init)
    ops = grounding.ops_ids
    kept = []  # (op id, its delete ids, the state after it)
    for op_idx in plan:
        pre, add, delete = ops[op_idx]
        if pre <= state:
            state = (state - delete) | add
            kept.append((op_idx, delete, state))
    while kept and kept[-1][1] & goal:
        kept.pop()
    if not goal <= (kept[-1][2] if kept else init):
        return None
    return tuple(op_idx for op_idx, _, _ in kept)


def concat_frag(problem: PlanningProblem, pairs: frozenset[CausalPair],
                patterns: tuple[OpPlan, ...], *,
                node_budget: int = 20_000,
                grounding: Grounding | None = None) -> OpPlan | None:
    """Depth-first assembly of the fragments ``patterns`` (the ``patterns`` of
    :func:`~caseplan.mining.mine_frequent`) until all causal pairs are satisfied.

    At each step, pick a remaining pair and an unused fragment that mentions
    one of the pair's actions and shares an end overlap with the draft; merge
    and recurse. When no pairs remain the draft is trimmed, and accepted iff
    :func:`trim` finds that it reaches the goal under the problem's model.
    Branches are explored pairs-sorted and fragments in their order (mined:
    longest first), so results are deterministic; the node budget caps
    backtracking on adversarial inputs. ``grounding`` is as for
    :func:`~caseplan.strips.execute_plan`; drafts are trimmed on it.

    A fragment that mentions several remaining pairs is a branch under each of
    them; its merge with the draft, and the pairs that merge leaves, are
    computed once per step and shared by those branches. A branch whose
    subtree has already failed under an earlier pair is not walked again: the
    budget is charged its node count, which is what a second walk would take,
    and a charge past the budget stops the search where that walk would have.
    """
    grounding = grounding or Grounding.for_problem(problem)
    mentions = [frozenset(pattern) for pattern in patterns]
    nodes = 0

    def rec(partial: OpPlan, remaining: frozenset[CausalPair],
            available: tuple[int, ...]) -> OpPlan | None:
        nonlocal nodes
        if not remaining:
            return trim(partial, problem, grounding=grounding)
        # per available pattern index: (merged draft, pairs it leaves), or None if no overlap
        children: dict[int, tuple[OpPlan, frozenset[CausalPair]] | None] = {}
        # per pattern index whose subtree was walked and failed: the nodes it took
        failed: dict[int, int] = {}
        for pair in sorted(remaining):
            for pos, idx in enumerate(available):
                if pair.provider not in mentions[idx] and pair.consumer not in mentions[idx]:
                    continue
                if idx in failed:
                    nodes += 1 + failed[idx]
                    if nodes > node_budget:
                        return None
                    continue
                if idx in children:
                    child = children[idx]
                else:
                    merged = merge(partial, patterns[idx])
                    child = children[idx] = None if merged is None else \
                        (merged, removelinks(merged, remaining))
                if child is not None:
                    nodes += 1
                    if nodes > node_budget:
                        return None
                    before = nodes
                    found = rec(*child, available[:pos] + available[pos + 1:])
                    if found is not None:
                        return found
                    failed[idx] = nodes - before
        return None

    return rec((), pairs, tuple(range(len(patterns))))
