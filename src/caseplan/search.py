"""Grounded forward search: greedy best-first with a delete-relaxation heuristic.

The solver takes whatever model its problem carries, complete or degraded,
and never second-guesses it: a degraded precondition list simply makes more
actions applicable.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

from .strips import Grounding, OpPlan, Plan, PlanningProblem, StripsError
from .strips import execute_plan  # unused: kept for the tracer's hook until ROADMAP item 5

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
BUDGET = "budget"


@dataclass(frozen=True)
class SearchConfig:
    max_expansions: int = 100_000

    def __post_init__(self) -> None:
        if self.max_expansions <= 0:
            raise ValueError("max_expansions must be positive")


@dataclass(frozen=True)
class SolveResult:
    """A search's outcome; a solved plan is the op ids ``ops`` of the grounding
    it searched on, and ``plan`` names them on first read."""

    status: str
    ops: OpPlan | None
    expansions: int
    grounding: Grounding | None = field(default=None, compare=False, repr=False)

    @property
    def solved(self) -> bool:
        return self.status == SOLVED

    @cached_property
    def plan(self) -> Plan | None:
        return None if self.ops is None else tuple(map(self.grounding.action, self.ops))


def _h_add(state: frozenset[int], goal_ids: tuple[int, ...], grounding: Grounding) -> float:
    """Additive delete-relaxation cost of the goal set from a state.

    An action fires once all its preconditions have final costs and charges 1
    plus their sum to every atom it adds. Every action costs 1, so every cost
    is an integer, and atoms are settled from a list of buckets indexed by
    cost (Dial's algorithm) instead of a heap. Buckets are read in increasing
    cost, the order in which Dijkstra's algorithm pops atoms up to ties. A
    firing from bucket c charges at least c + 1, so no bucket grows while it
    is read and an atom's cost is final when its bucket is reached; an entry
    above that cost is stale and skipped. The order of the atoms within a
    bucket changes only the order in which the same sums are added, so every
    cost, and the value, is the one Dijkstra's algorithm gives.

    Bucket 0 is the state itself, read in one pass: no atom costs less than
    0, so none of it is stale, and an action it completes has only
    preconditions of cost 0 and charges exactly 1.

    The relaxation stops before bucket c once every goal atom's cost is at
    most c + 1: buckets below c are done and a firing from bucket c or a later
    one charges at least c + 1, so no goal cost can fall any more, and the
    value is the one the full relaxation gives, ``inf`` included.
    """
    adds = grounding.adds
    cost = [math.inf] * grounding.atom_count
    for a in state:
        cost[a] = 0
    buckets: list[list[int]] = [[], []]
    for op_idx in grounding.free_ops:
        for b in adds[op_idx]:
            if 1 < cost[b]:
                cost[b] = 1
                buckets[1].append(b)

    pending = list(goal_ids)  # goal atoms whose cost may still fall
    while pending and cost[pending[-1]] <= 1:
        pending.pop()
    if pending:
        waiting = grounding.waiting
        remaining = list(grounding.pre_counts)
        acc = [1] * len(remaining)
        for a in state:
            for op_idx in waiting[a]:
                remaining[op_idx] -= 1
                if not remaining[op_idx]:
                    for b in adds[op_idx]:
                        if 1 < cost[b]:
                            cost[b] = 1
                            buckets[1].append(b)
        c = 1
        while c < len(buckets):
            while pending and cost[pending[-1]] <= c + 1:
                pending.pop()
            if not pending:
                break
            for a in buckets[c]:
                if cost[a] != c:  # settled from a cheaper bucket
                    continue
                for op_idx in waiting[a]:
                    acc[op_idx] += c
                    remaining[op_idx] -= 1
                    if not remaining[op_idx]:
                        k = acc[op_idx]
                        for b in adds[op_idx]:
                            if k < cost[b]:
                                cost[b] = k
                                while len(buckets) <= k:
                                    buckets.append([])
                                buckets[k].append(b)
            c += 1

    total = 0
    for gid in goal_ids:
        if cost[gid] == math.inf:
            return math.inf
        total += cost[gid]
    return float(total)


def relaxed_add_heuristic(state, goal, grounding: Grounding) -> float:
    """Public entry point over atom sets; 0 iff the goal already holds."""
    return _h_add(grounding.encode(state), tuple(sorted(grounding.encode(goal))), grounding)


def solve(problem: PlanningProblem, config: SearchConfig | None = None,
          grounding: Grounding | None = None) -> SolveResult:
    """Greedy best-first search from the initial state to the goal.

    Deterministic: ties in the heuristic fall back to discovery order, and
    successors are generated in lexicographic ground-action order. Any plan
    returned has been re-run on its op ids against the model as a
    self-check, and is named only where its ``plan`` is read.
    ``unsolvable`` is only reported on a proof (exhausted reachable space, or
    a goal atom unreachable even under delete relaxation).
    """
    config = config or SearchConfig()
    grounding = grounding or Grounding.for_problem(problem)

    init = grounding.encode(problem.init)
    goal = grounding.encode(problem.goal)
    goal_ids = tuple(sorted(goal))

    if goal <= init:
        return SolveResult(SOLVED, (), 0, grounding)

    h0 = _h_add(init, goal_ids, grounding)
    if h0 == math.inf:
        return SolveResult(UNSOLVABLE, None, 0)

    # Every generated state enters ``parent`` once, before any h is computed,
    # so a dead end (h = inf) is evaluated once and never pushed, and no popped
    # state has been expanded before. The goal is tested when a state is
    # generated: h is 0 only on a goal state, and a goal state generated
    # earlier would have been popped before this expansion, so the state
    # returned is the next one a goal test at pop would take, with the same
    # expansion count. An expansion records and tests all its new successors
    # before it evaluates any, so the one that finds the goal evaluates none.
    #
    # With a single goal atom g, h is 1 exactly when g does not hold and the
    # precondition of some action adding g does. A state of h 1 generates the
    # goal when it is expanded (adds are applied after deletes, and that goal
    # state cannot have been generated before), so no queued state has h < 2
    # when an expansion begins. The first new successor, in op order, where an
    # achiever applies therefore has the least key and the lowest counter among
    # the keys it ties: it is popped next, and its expansion returns the plan or
    # the budget check fires first. The siblings it leaves unevaluated could
    # never be popped, so it is queued alone, with key 1.
    achiever_pres = None
    if len(goal_ids) == 1:
        achiever_pres = [pre for pre, add, _ in grounding.ops_ids if goal_ids[0] in add]
    parent: dict[frozenset[int], tuple[frozenset[int], int] | None] = {init: None}
    heap: list[tuple[float, int, frozenset[int]]] = [(h0, 0, init)]
    counter = 1
    expansions = 0

    while heap:
        _, _, state = heapq.heappop(heap)
        if expansions >= config.max_expansions:
            return SolveResult(BUDGET, None, expansions)
        expansions += 1
        fresh = []
        for op_idx, succ in grounding.successors(state):
            if succ in parent:
                continue
            parent[succ] = (state, op_idx)
            if goal <= succ:
                return _solved(problem, grounding, parent, succ, expansions)
            fresh.append(succ)
        if achiever_pres is not None:
            near = next((succ for succ in fresh
                         if any(pre <= succ for pre in achiever_pres)), None)
            if near is not None:
                heapq.heappush(heap, (1.0, counter, near))
                counter += 1
                continue
        for succ in fresh:
            hs = _h_add(succ, goal_ids, grounding)
            if hs < math.inf:
                heapq.heappush(heap, (hs, counter, succ))
                counter += 1
    return SolveResult(UNSOLVABLE, None, expansions)


def _solved(problem: PlanningProblem, grounding: Grounding, parent, state,
            expansions: int) -> SolveResult:
    """The plan that ``parent`` records to ``state``, as op ids, after a
    self-check: they are re-run against the model from the initial state,
    and must apply in turn and reach the goal."""
    ops = []
    while parent[state] is not None:
        state, op_idx = parent[state]
        ops.append(op_idx)
    ops.reverse()
    state, applied = grounding.run(ops, grounding.encode(problem.init))
    if applied < len(ops):
        raise StripsError(f"internal: search produced an invalid plan (step {applied} "
                          "does not apply)")
    if not grounding.encode(problem.goal) <= state:
        raise StripsError("internal: search produced an invalid plan (goal not reached)")
    return SolveResult(SOLVED, tuple(ops), expansions, grounding)
