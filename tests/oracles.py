"""Independent reference implementations used to cross-check the library.

Deliberately naive: exhaustive enumeration, sliding windows, breadth-first
search. None of this shares code paths with the implementations it checks
beyond the basic data types.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import replace
from types import MappingProxyType
from typing import NamedTuple

from caseplan import (
    Atom,
    CaseFile,
    CausalPair,
    DomainModel,
    PlanningProblem,
    SequenceDB,
    object_features,
)
from caseplan.assemble import concat_frag, merge, removelinks
from caseplan.cases import ExperimentRow
from caseplan.degrade import DegradeSpec, degrade
from caseplan.evaluate import check_solution
from caseplan.experiment import ExperimentSpec, RunDetail
from caseplan.generators import generate_case_library
from caseplan.mapping import build_fragments
from caseplan.pipeline import (
    ROUTE_FRAGMENTS,
    ROUTE_SEARCH,
    ROUTE_SKELETAL,
    STAGE_ASSEMBLY,
    STAGE_MINING,
    STAGE_SKELETAL,
    PipelineOutcome,
    mine_fragments,
    skeleton,
    solve_with_library,
)
from caseplan.search import BUDGET, SOLVED, UNSOLVABLE, SearchConfig, SolveResult, solve
from caseplan.strips import (
    ActionSchema,
    ExecutionResult,
    GroundAction,
    Grounding,
    OpPlan,
    Plan,
    StripsError,
    is_subtype,
)

from .conftest import named


# Every ground atom and every ground action of a grounding, in id order, named
# one id at a time: a Grounding keeps no table of names.

def atom_names(grounding: Grounding) -> tuple[Atom, ...]:
    return tuple(atom for i in range(grounding.atom_count) for atom in grounding.decode((i,)))


def action_names(grounding: Grounding) -> tuple[GroundAction, ...]:
    return tuple(map(grounding.action, range(len(grounding.ops_ids))))


# The earlier plan simulator, the reference for caseplan.strips.Grounding.run
# and the execute_plan, check_solution, trim and extract_causal_pairs that walk
# plans on its op ids: each step is instantiated from its schema into Atom sets. A step
# whose arguments are no objects of its parameters' types is no action of the
# problem and raises, as it does there.

class GroundedAction(NamedTuple):
    """A ground action together with its instantiated condition and effect sets."""

    action: GroundAction
    pre: frozenset[Atom]
    add: frozenset[Atom]
    delete: frozenset[Atom]


def grounded(model: DomainModel, objects: Mapping[str, str],
             action: GroundAction) -> GroundedAction:
    """Instantiate the schema named by a ground action over typed objects."""
    schema = model.schemas.get(action.name)
    if schema is None:
        raise StripsError(f"unknown action schema: {action.name}")
    if len(action.args) != len(schema.params):
        raise StripsError(f"action {action.pddl()}: expected {len(schema.params)} arguments, "
                          f"got {len(action.args)}")
    for (var, ptype), obj in zip(schema.params, action.args):
        if obj not in objects or not is_subtype(model.types, objects[obj], ptype):
            raise StripsError(f"action {action.pddl()}: {obj} is no object of type {ptype} "
                              f"for {var}")
    binding = {var: obj for (var, _), obj in zip(schema.params, action.args)}

    def ground(atoms: frozenset[Atom]) -> frozenset[Atom]:
        return frozenset([Atom(a.predicate, tuple([binding[x] for x in a.args])) for a in atoms])

    return GroundedAction(action, ground(schema.pre), ground(schema.add), ground(schema.delete))


def execute_plan_on_atoms(problem: PlanningProblem, plan: Plan) -> ExecutionResult:
    """Run a plan from the initial state.

    Succeeds iff every step is applicable in sequence and the goal holds in
    the final state. Failures are reported as a value, never raised:
    ``failed_step`` is the offending step index, or ``len(plan)`` when all
    steps applied but the goal is unmet.
    """
    state = problem.init
    for i, action in enumerate(plan):
        try:
            ga = grounded(problem.domain, problem.objects, action)
        except StripsError as err:
            return ExecutionResult(False, state, i, str(err))
        if not ga.pre <= state:
            missing = sorted(ga.pre - state)
            return ExecutionResult(False, state, i,
                                   f"unsatisfied precondition {missing[0].pddl()} "
                                   f"for {action.pddl()}")
        state = (state - ga.delete) | ga.add
    unmet = problem.goal - state
    if unmet:
        return ExecutionResult(False, state, len(plan),
                               f"goal atom {sorted(unmet)[0].pddl()} not achieved")
    return ExecutionResult(True, state)


def cut_on_atoms(plan: Plan, problem: PlanningProblem) -> Plan:
    """Remove inapplicable actions, then goal-deleting trailing actions.

    Front: one forward pass from the initial state under the problem's model
    keeps each action whose precondition holds in the state reached by the
    kept actions before it; a skipped action leaves that state unchanged.
    Back: while the last kept action's delete list touches a goal atom, drop
    it.
    """
    state = problem.init
    kept = []
    for action in plan:
        ga = grounded(problem.domain, problem.objects, action)
        if ga.pre <= state:
            state = (state - ga.delete) | ga.add
            kept.append(ga)
    while kept and kept[-1].delete & problem.goal:
        kept.pop()
    return tuple(ga.action for ga in kept)


def trim_on_atoms(plan: Plan, problem: PlanningProblem) -> Plan | None:
    """The plan as :func:`cut_on_atoms` leaves it, where that executes to the
    goal under :func:`execute_plan_on_atoms`, or None where it does not."""
    cut = cut_on_atoms(plan, problem)
    return cut if execute_plan_on_atoms(problem, cut).success else None


def causal_pairs_on_atoms(plan: Plan, problem: PlanningProblem) -> frozenset[CausalPair]:
    """All pairs (a_i, a_j), i < j, where a_i adds some precondition atom of a_j
    and no action strictly between them deletes that atom.

    The plan must execute under the problem's model from its initial state;
    self-pairs (the same ground action at both ends) are dropped.
    """
    state = problem.init
    steps = []
    for i, action in enumerate(plan):
        ga = grounded(problem.domain, problem.objects, action)
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


def _ground_schema(schema, combo):
    binding = {var: obj for (var, _), obj in zip(schema.params, combo)}
    sub = lambda atoms: frozenset(  # noqa: E731
        Atom(a.predicate, tuple(binding.get(x, x) for x in a.args)) for a in atoms)
    return sub(schema.pre), sub(schema.add), sub(schema.delete)


def ground_ops(domain: DomainModel, objects: list[str]):
    """All ground (action, pre, add, delete) tuples, ignoring types."""
    ops = []
    for name in sorted(domain.schemas):
        schema = domain.schemas[name]
        for combo in itertools.product(sorted(objects), repeat=len(schema.params)):
            pre, add, delete = _ground_schema(schema, combo)
            ops.append(((name,) + combo, pre, add, delete))
    return ops


def bfs_plan(problem: PlanningProblem, max_states: int = 200_000):
    """Shortest plan by plain breadth-first search, or None if unsolvable.

    Raises if the reachable space exceeds ``max_states`` (inconclusive).
    """
    ops = ground_ops(problem.domain, list(problem.objects))
    init = problem.init
    goal = problem.goal
    if goal <= init:
        return []
    seen = {init: None}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for op in ops:
            name, pre, add, delete = op
            if pre <= state:
                succ = (state - delete) | add
                if succ not in seen:
                    seen[succ] = (state, name)
                    if goal <= succ:
                        steps = []
                        cur = succ
                        while seen[cur] is not None:
                            cur, nm = seen[cur]
                            steps.append(nm)
                        return steps[::-1]
                    if len(seen) > max_states:
                        raise RuntimeError("BFS oracle exceeded its state budget")
                    queue.append(succ)
    return None


def window_support(sequences, pattern) -> int:
    """Entries containing the pattern, via explicit window enumeration."""
    pattern = tuple(pattern)
    count = 0
    for seq in sequences:
        windows = {tuple(seq[i:i + len(pattern)])
                   for i in range(len(seq) - len(pattern) + 1)}
        if pattern in windows:
            count += 1
    return count


def bruteforce_mine(sequences, min_support):
    """All maximal frequent contiguous patterns, by enumerating every window.

    Maximality is decided by marking every proper window of every frequent
    pattern as covered, with no reliance on one-step extensions.
    """
    counts = {}
    for seq in sequences:
        windows = set()
        for length in range(1, len(seq) + 1):
            for i in range(len(seq) - length + 1):
                windows.add(tuple(seq[i:i + length]))
        for w in windows:
            counts[w] = counts.get(w, 0) + 1
    frequent = {p for p, c in counts.items() if c >= min_support}
    covered = set()
    for pattern in frequent:
        for length in range(1, len(pattern)):
            for i in range(len(pattern) - length + 1):
                covered.add(pattern[i:i + length])
    return {p for p in frequent if p not in covered}


# The support count that caseplan.mining once exported, kept as the reference
# for FrequentFragmentSet.supports: mine_frequent counts entries itself.

def support(db: SequenceDB, pattern) -> int:
    """Number of entries containing the pattern contiguously (each counted once)."""
    pat = tuple(pattern)
    if not pat:
        raise ValueError("pattern must be nonempty")
    k = len(pat)
    count = 0
    for seq in db.sequences:
        if any(seq[i:i + k] == pat for i in range(len(seq) - k + 1)):
            count += 1
    return count


def bruteforce_best_score(case: CaseFile, problem: PlanningProblem) -> int:
    """Maximum mapping score over every injective (partial or total) mapping."""
    case_objs = list(case.objects())
    prob_objs = sorted(problem.objects)

    def score(mapping):
        total = 0
        for atoms, target in ((case.init, problem.init), (case.goal, problem.goal)):
            mapped = set()
            for atom in atoms:
                if all(a in mapping for a in atom.args):
                    mapped.add(Atom(atom.predicate,
                                    tuple(mapping[a] for a in atom.args)))
            total += len(mapped & target)
        return total

    best = 0
    for k in range(len(case_objs) + 1):
        for subset in itertools.combinations(case_objs, k):
            for images in itertools.permutations(prob_objs, k):
                best = max(best, score(dict(zip(subset, images))))
    return best


def causal_pairs_by_triples(plan, model: DomainModel, init):
    """The (provider, consumer) pairs by checking every (i, j, atom) triple."""
    state = init
    grounded_steps = []
    for action in plan:
        schema = model.schemas[action.name]
        pre, add, delete = _ground_schema(schema, action.args)
        assert pre <= state, "oracle given a non-executable plan"
        state = (state - delete) | add
        grounded_steps.append((pre, add, delete))

    pairs = set()
    for i in range(len(plan)):
        for j in range(i + 1, len(plan)):
            if plan[i] == plan[j]:
                continue
            for atom in grounded_steps[i][1] & grounded_steps[j][0]:
                if all(atom not in grounded_steps[k][2] for k in range(i + 1, j)):
                    pairs.add((plan[i], plan[j]))
                    break
    return pairs


# The earlier assembly primitives, kept as references for the single-pass
# trim and the one-scan merge in caseplan.assemble. trim_by_restarts, like
# trim, also returns None where its result misses the goal.

def share_by_scan(partial, fragment) -> bool:
    """True if the partial plan is empty or overlaps the fragment at an end.

    An overlap is a contiguous run of equal actions that is both a suffix of
    one sequence and a prefix of the other, of length at least one.
    """
    if not partial:
        return True
    limit = min(len(partial), len(fragment))
    for k in range(1, limit + 1):
        if partial[-k:] == fragment[:k] or fragment[-k:] == partial[:k]:
            return True
    return False


def _overlap(head, tail) -> int:
    """Longest k such that the last k actions of head equal the first k of tail."""
    best = 0
    for k in range(1, min(len(head), len(tail)) + 1):
        if head[-k:] == tail[:k]:
            best = k
    return best


def append_by_overlaps(partial, fragment):
    """Merge the fragment into the partial plan on their longest end overlap.

    The overlap appears once in the result. When both directions overlap, the
    longer one wins; ties attach the fragment at the end.
    """
    fragment = tuple(fragment)
    if not partial:
        return fragment
    at_end = _overlap(partial, fragment)
    at_front = _overlap(fragment, partial)
    if at_end == 0 and at_front == 0:
        raise ValueError("append requires share(partial, fragment)")
    if at_end >= at_front:
        return partial + fragment[at_end:]
    return fragment + partial[at_front:]


def trim_by_restarts(plan, problem: PlanningProblem):
    """Remove broken leading actions and goal-deleting trailing actions, and
    return the result where it executes to the goal, or None where not.

    Front: simulate from the initial state under the problem's model and
    delete the earliest inapplicable action, restarting until the whole
    remainder executes. Back: while the last action's delete list touches a
    goal atom, drop it. Last: run the result with
    :func:`execute_plan_on_atoms`.
    """
    model, objects = problem.domain, problem.objects
    actions = list(plan)
    while actions:
        state = problem.init
        failed = None
        for i, action in enumerate(actions):
            ga = grounded(model, objects, action)
            if not ga.pre <= state:
                failed = i
                break
            state = (state - ga.delete) | ga.add
        if failed is None:
            break
        del actions[failed]
    while actions and grounded(model, objects, actions[-1]).delete & problem.goal:
        actions.pop()
    return tuple(actions) if execute_plan_on_atoms(problem, tuple(actions)).success else None


# The earlier assembly search, kept unchanged as the reference for
# caseplan.assemble.concat_frag, which now merges each fragment at most once
# per node instead of once per pair that names it.

def concat_frag_rescanning(problem: PlanningProblem, pairs: frozenset[CausalPair],
                           patterns: tuple[OpPlan, ...], *,
                           node_budget: int = 20_000) -> Plan | None:
    """Depth-first assembly of fragments until all causal pairs are satisfied.

    At each step, pick a remaining pair and an unused fragment that mentions
    one of the pair's actions and shares an end overlap with the draft; merge
    and recurse. When no pairs remain the draft is trimmed and accepted iff
    it executes to the goal under the problem's model. Branches are explored
    pairs-sorted and fragments longest-first, so results are deterministic;
    the node budget caps backtracking on adversarial inputs.
    """
    nodes = 0

    def rec(partial: Plan, remaining: frozenset[CausalPair],
            available: tuple[OpPlan, ...]) -> Plan | None:
        nonlocal nodes
        if not remaining:
            # trimmed, and None where the trimmed draft misses the goal
            return trim_on_atoms(partial, problem)
        for pair in sorted(remaining):
            for idx, frag in enumerate(available):
                if pair.provider not in frag and pair.consumer not in frag:
                    continue
                merged = merge(partial, frag)
                if merged is not None:
                    nodes += 1
                    if nodes > node_budget:
                        return None
                    rest = available[:idx] + available[idx + 1:]
                    found = rec(merged, removelinks(merged, remaining), rest)
                    if found is not None:
                        return found
        return None

    return rec((), pairs, patterns)


# The earlier schema instantiation, kept unchanged as the reference for
# grounded above, which grounds a schema by itself.

def substitute(atom: Atom, binding: dict[str, str]) -> Atom:
    return Atom(atom.predicate, tuple(binding.get(a, a) for a in atom.args))


def instantiate(schema: ActionSchema, binding: dict[str, str], *,
                objects: dict[str, str] | None = None,
                types: dict[str, str | None] | None = None) -> GroundedAction:
    """Ground a schema under a parameter binding.

    When ``objects`` and ``types`` are supplied, the binding is type checked
    against the schema's parameter types.
    """
    args = []
    for var, ptype in schema.params:
        if var not in binding:
            raise StripsError(f"action {schema.name}: parameter {var} is unbound")
        obj = binding[var]
        if objects is not None and types is not None:
            otype = objects.get(obj)
            if otype is None:
                raise StripsError(f"action {schema.name}: unknown object {obj}")
            if not is_subtype(types, otype, ptype):
                raise StripsError(f"action {schema.name}: object {obj} of type {otype} "
                                  f"does not fit parameter {var} - {ptype}")
        args.append(obj)

    def ground(atoms: frozenset[Atom]) -> frozenset[Atom]:
        return frozenset(substitute(a, binding) for a in atoms)

    return GroundedAction(GroundAction(schema.name, tuple(args)),
                          ground(schema.pre), ground(schema.add), ground(schema.delete))


# The earlier sweep loop, kept unchanged as the reference for
# caseplan.experiment.run_experiment, which now maps each (problem, case)
# pair once per seed instead of once per grid cell.

def run_experiment_per_cell(spec: ExperimentSpec) -> tuple[list[ExperimentRow], list[RunDetail]]:
    """Execute the sweep. Deterministic for fixed seeds (timing aside).

    A row is marked solved only when the produced plan re-executes to the
    goal under the complete model. cpu_millis is the wall-clock ms of the solve
    call alone (no parsing, no validation); with ``timing=False`` it is
    written as 0 so reruns are byte-identical.
    """
    rows: list[ExperimentRow] = []
    details: list[RunDetail] = []

    for seed in spec.seeds:
        if spec.cases is not None:
            library = spec.cases
        else:
            library = generate_case_library(
                spec.domain, max(spec.case_counts), seed,
                n_blocks=spec.case_blocks, config=spec.search)
        if max(spec.case_counts) > len(library):
            raise ValueError(f"case count {max(spec.case_counts)} exceeds the library "
                             f"of {len(library)} cases")
        for completeness in spec.completeness_levels:
            model = degrade(spec.domain, DegradeSpec(completeness=completeness, seed=seed))
            for num_cases in spec.case_counts:
                subset = library[:num_cases]
                for delta in spec.deltas:
                    for p_idx, problem in enumerate(spec.problems):
                        degraded_problem = replace(problem, domain=model)
                        start = time.perf_counter()
                        outcome = solve_with_library(
                            degraded_problem, subset, delta,
                            config=spec.search,
                            assembly_budget=spec.assembly_budget)
                        elapsed = int((time.perf_counter() - start) * 1000)
                        solved = outcome.plan is not None and check_solution(
                            degraded_problem, outcome.plan, spec.domain)
                        row = ExperimentRow(
                            domain=spec.domain.name,
                            num_cases=num_cases,
                            completeness=completeness,
                            delta=delta,
                            problem_id=f"seed{seed}-p{p_idx:03d}",
                            solved=solved,
                            plan_length=len(outcome.plan) if outcome.plan else 0,
                            cpu_millis=elapsed if spec.timing else 0)
                        rows.append(row)
                        details.append(RunDetail(row=row, problem=degraded_problem,
                                                 plan=outcome.plan, route=outcome.route))
    rows.sort(key=ExperimentRow.sort_key)
    return rows, details


# The earlier pipeline, kept as the reference for
# caseplan.pipeline.solve_with_library, which now maps, mines and assembles
# only when the skeleton has causal pairs and takes its full-goal search from
# the skeleton. It shares the stages themselves, which pass op ids, runs its
# own full-goal search, and names the assembled plan as the solve does.

def solve_with_library_eager(problem: PlanningProblem, cases: list[tuple[str, CaseFile]],
                             min_support: int, *, config: SearchConfig | None = None,
                             assembly_budget: int = 20_000,
                             search_fallback: bool = True) -> PipelineOutcome:
    """Map every case, mine the fragments and assemble along the pairs, pairs
    or not; then the skeletal plan, then the search. With no pairs, assembly
    returns the empty plan exactly when the goal holds initially, on the
    fragments route."""
    config = config or SearchConfig()
    skeletal_plan, pairs, grounding, _ = skeleton(problem, config)
    fragments = tuple(build_fragments(problem, cases))
    frequent = mine_fragments(fragments, min_support)
    plan = named(problem, concat_frag(problem, pairs, frequent.patterns,
                                      node_budget=assembly_budget, grounding=grounding))
    if plan is not None:
        return PipelineOutcome(plan, ROUTE_FRAGMENTS, None, pairs, fragments, frequent)
    if skeletal_plan is not None:
        return PipelineOutcome(skeletal_plan, ROUTE_SKELETAL, None, pairs, fragments, frequent)
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


# The earlier h_add, kept unchanged as the reference for caseplan.search._h_add,
# which now reads the precondition index that Grounding builds once instead of
# rebuilding it from ops_ids on every call.

def h_add_rebuilding_index(state: frozenset[int], goal_ids: tuple[int, ...],
                           grounding: Grounding) -> float:
    """Additive delete-relaxation cost of the goal set from a state.

    Dijkstra over atoms: an action fires once all its preconditions have
    final costs and charges 1 plus their sum to every atom it adds.
    """
    n = grounding.atom_count
    cost = [math.inf] * n
    waiting: dict[int, list[int]] = {}
    remaining = []
    acc = []
    heap: list[tuple[float, int]] = []

    for a in state:
        cost[a] = 0.0
        heap.append((0.0, a))
    heapq.heapify(heap)

    for op_idx, (pre, _, _) in enumerate(grounding.ops_ids):
        remaining.append(len(pre))
        acc.append(1.0)
        for a in pre:
            waiting.setdefault(a, []).append(op_idx)

    def fire(op_idx: int) -> None:
        c = acc[op_idx]
        for b in grounding.ops_ids[op_idx][1]:
            if c < cost[b]:
                cost[b] = c
                heapq.heappush(heap, (c, b))

    for op_idx, r in enumerate(remaining):
        if r == 0:
            fire(op_idx)

    done = [False] * n
    while heap:
        c, a = heapq.heappop(heap)
        if done[a] or c > cost[a]:
            continue
        done[a] = True
        for op_idx in waiting.get(a, ()):
            acc[op_idx] += c
            remaining[op_idx] -= 1
            if remaining[op_idx] == 0:
                fire(op_idx)

    total = 0.0
    for gid in goal_ids:
        if cost[gid] == math.inf:
            return math.inf
        total += cost[gid]
    return total


# The earlier solve, kept as the reference for caseplan.search.solve, which now
# tests the goal when a state is generated and evaluates a dead end once. This
# one tests the goal when a state is popped and evaluates a dead end again each
# time it is generated. The heuristic is a parameter, so a property can check
# every state it evaluates; the self-check runs the plan on atoms.

def solve_testing_goal_at_pop(problem: PlanningProblem, config: SearchConfig,
                              grounding: Grounding, h=h_add_rebuilding_index) -> SolveResult:
    init = grounding.encode(problem.init)
    goal = grounding.encode(problem.goal)
    goal_ids = tuple(sorted(goal))

    if goal <= init:
        return SolveResult(SOLVED, (), 0, grounding)

    h0 = h(init, goal_ids, grounding)
    if h0 == math.inf:
        return SolveResult(UNSOLVABLE, None, 0)

    parent: dict[frozenset[int], tuple[frozenset[int], int] | None] = {init: None}
    heap: list[tuple[float, int, frozenset[int]]] = [(h0, 0, init)]
    counter = 1
    expansions = 0

    while heap:
        _, _, state = heapq.heappop(heap)
        if goal <= state:
            return SolveResult(SOLVED, _checked_plan(problem, grounding, parent, state),
                               expansions, grounding)
        if expansions >= config.max_expansions:
            return SolveResult(BUDGET, None, expansions)
        expansions += 1
        for op_idx, succ in grounding.successors(state):
            if succ not in parent:
                hs = h(succ, goal_ids, grounding)
                if hs == math.inf:
                    continue
                parent[succ] = (state, op_idx)
                heapq.heappush(heap, (hs, counter, succ))
                counter += 1
    return SolveResult(UNSOLVABLE, None, expansions)


# The earlier solve loop, kept unchanged as the reference for
# caseplan.search.solve, which now records and tests every new successor
# before it evaluates any and, with a single goal atom, queues a successor
# where an achiever applies without evaluating it or its siblings. This one
# evaluates each new successor as it is generated, up to the goal successor.
# The heuristic is a parameter, so a property can compare the states the two
# evaluate; the self-check runs the plan on atoms.

def solve_evaluating_every_successor(problem: PlanningProblem, config: SearchConfig,
                                     grounding: Grounding,
                                     h=h_add_rebuilding_index) -> SolveResult:
    init = grounding.encode(problem.init)
    goal = grounding.encode(problem.goal)
    goal_ids = tuple(sorted(goal))

    if goal <= init:
        return SolveResult(SOLVED, (), 0, grounding)

    h0 = h(init, goal_ids, grounding)
    if h0 == math.inf:
        return SolveResult(UNSOLVABLE, None, 0)

    parent: dict[frozenset[int], tuple[frozenset[int], int] | None] = {init: None}
    heap: list[tuple[float, int, frozenset[int]]] = [(h0, 0, init)]
    counter = 1
    expansions = 0

    while heap:
        _, _, state = heapq.heappop(heap)
        if expansions >= config.max_expansions:
            return SolveResult(BUDGET, None, expansions)
        expansions += 1
        for op_idx, succ in grounding.successors(state):
            if succ in parent:
                continue
            parent[succ] = (state, op_idx)
            if goal <= succ:
                return SolveResult(SOLVED, _checked_plan(problem, grounding, parent, succ),
                                   expansions, grounding)
            hs = h(succ, goal_ids, grounding)
            if hs < math.inf:
                heapq.heappush(heap, (hs, counter, succ))
                counter += 1
    return SolveResult(UNSOLVABLE, None, expansions)


def _checked_plan(problem: PlanningProblem, grounding: Grounding, parent, state) -> OpPlan:
    """The op ids that ``parent`` records to ``state``, whose plan is run on
    atoms as a self-check."""
    ops = []
    while parent[state] is not None:
        state, op_idx = parent[state]
        ops.append(op_idx)
    ops.reverse()
    check = execute_plan_on_atoms(problem, tuple(map(grounding.action, ops)))
    if not check.success:
        raise StripsError(f"internal: search produced an invalid plan ({check.reason})")
    return tuple(ops)


# The earlier Grounding construction, kept unchanged as the reference for
# caseplan.strips.Grounding, which now compiles each schema atom into index
# arithmetic over the object pools instead of grounding every action through
# grounded and encoding its Atom sets.

class GroundingThroughGrounded:
    """The atoms, actions and integer index of a (domain, objects) pair."""

    def __init__(self, domain: DomainModel, objects: dict[str, str]):
        self.domain = domain
        self.objects = dict(objects)

        by_type: dict[str, list[str]] = {}
        for t in domain.types:
            by_type[t] = sorted(o for o, ot in objects.items()
                                if is_subtype(domain.types, ot, t))

        # predicates, schemas and type pools are all iterated in sorted order,
        # so atoms and actions come out sorted and duplicate-free
        self.atoms: tuple[Atom, ...] = tuple(
            Atom(pred, combo) for pred in sorted(domain.predicates)
            for combo in itertools.product(*(by_type[t] for t in domain.predicates[pred])))
        self.atom_index: dict[Atom, int] = {a: i for i, a in enumerate(self.atoms)}
        self.actions: tuple[GroundedAction, ...] = tuple(
            grounded(domain, objects, GroundAction(name, combo))
            for name in sorted(domain.schemas)
            for combo in itertools.product(*(by_type[t] for _, t in domain.schemas[name].params)))

        # (pre, add, delete) atom ids of each ground action, aligned with ``actions``
        self.ops_ids: tuple[tuple[frozenset[int], frozenset[int], frozenset[int]], ...] = tuple(
            (self.encode(ga.pre), self.encode(ga.add), self.encode(ga.delete))
            for ga in self.actions)

        # the delete-relaxation index read by h_add: for each atom, the ops that
        # have it as a precondition (ascending); each op's precondition count;
        # and the ops with none, which fire from every state
        waiting: list[list[int]] = [[] for _ in self.atoms]
        for op_idx, (pre, _, _) in enumerate(self.ops_ids):
            for a in pre:
                waiting[a].append(op_idx)
        self.waiting: tuple[tuple[int, ...], ...] = tuple(map(tuple, waiting))
        self.pre_counts: tuple[int, ...] = tuple(len(pre) for pre, _, _ in self.ops_ids)
        self.free_ops: tuple[int, ...] = tuple(
            op_idx for op_idx, n in enumerate(self.pre_counts) if n == 0)

    def encode(self, atoms: Iterable[Atom]) -> frozenset[int]:
        try:
            return frozenset(self.atom_index[a] for a in atoms)
        except KeyError as err:
            raise StripsError(f"atom {err.args[0]} is outside the ground atom universe") from None


# The earlier best_mapping, kept unchanged as the reference for
# caseplan.mapping.best_mapping, which now works on a per-problem integer index
# and also prunes an atom whose partial image is in no target atom.

def _slot_constraints(case: CaseFile, problem: PlanningProblem) -> dict[str, set[str]]:
    """Types each case object must fit, inferred from where it is used."""
    domain = problem.domain
    req: dict[str, set[str]] = {o: set() for o in case.objects()}
    for atom in itertools.chain(case.init, case.goal):
        sig = domain.predicates.get(atom.predicate)
        if sig is None or len(sig) != len(atom.args):
            continue
        for arg, t in zip(atom.args, sig):
            req[arg].add(t)
    for action in case.plan:
        schema = domain.schemas.get(action.name)
        if schema is None or len(schema.params) != len(action.args):
            continue
        for arg, (_, t) in zip(action.args, schema.params):
            req[arg].add(t)
    return req


_OPEN, _DEAD, _MATCHED = 0, 1, 2


def best_mapping_unindexed(case: CaseFile, problem: PlanningProblem, *,
                 node_budget: int = 200_000) -> dict[str, str]:
    """Exact branch-and-bound maximization of :func:`mapping_score`.

    Case objects may also stay unmapped. The bound counts every undecided,
    still-possible atom as a potential match, so pruning never loses the true
    maximum; if the node budget runs out, the best mapping found so far is
    returned. Deterministic: objects are visited most-involved first and
    candidates feature-matched first, then lexicographically.
    """
    targets = (problem.init, problem.goal)
    target_preds = (frozenset(a.predicate for a in problem.init),
                    frozenset(a.predicate for a in problem.goal))

    constraints = _slot_constraints(case, problem)
    types = problem.domain.types
    prob_feats = {o: object_features(problem, o) for o in problem.objects}

    atoms: list[tuple[Atom, int]] = [(a, 0) for a in sorted(case.init)]
    atoms += [(a, 1) for a in sorted(case.goal)]

    atom_objs = [tuple(sorted(set(a.args))) for a, _ in atoms]
    obj_atoms: dict[str, list[int]] = {o: [] for o in constraints}
    for ai, objs in enumerate(atom_objs):
        for o in objs:
            obj_atoms[o].append(ai)

    case_objs = sorted(constraints, key=lambda o: (-len(obj_atoms[o]), o))

    candidates: dict[str, list[str]] = {}
    for o in case_objs:
        feats = object_features(case, o)
        ok = [p for p, ptype in sorted(problem.objects.items())
              if all(is_subtype(types, ptype, t) for t in constraints[o])]
        candidates[o] = sorted(ok, key=lambda p: (prob_feats[p] != feats, p))

    remaining = [len(objs) for objs in atom_objs]
    status = []
    matched = 0
    alive = 0
    for ai, (atom, tset) in enumerate(atoms):
        if remaining[ai] == 0:
            status.append(_MATCHED if atom in targets[tset] else _DEAD)
            matched += status[ai] == _MATCHED
        elif atom.predicate not in target_preds[tset]:
            status.append(_DEAD)
        else:
            status.append(_OPEN)
            alive += 1
    max_possible = matched + alive

    assign: dict[str, str | None] = {}
    used: set[str] = set()
    best_assign: dict[str, str] = {}
    best_score = -1
    nodes = 0
    exhausted = False

    def assign_obj(obj: str, val: str | None) -> tuple[list[int], int, int]:
        nonlocal matched, alive
        flipped = []
        for ai in obj_atoms[obj]:
            remaining[ai] -= 1
            if status[ai] != _OPEN:
                continue
            if val is None:
                status[ai] = _DEAD
                alive -= 1
                flipped.append(ai)
            elif remaining[ai] == 0:
                atom, tset = atoms[ai]
                key = Atom(atom.predicate, tuple(assign[x] for x in atom.args))
                if key in targets[tset]:
                    status[ai] = _MATCHED
                    matched += 1
                else:
                    status[ai] = _DEAD
                alive -= 1
                flipped.append(ai)
        return flipped, matched, alive

    def undo(obj: str, flipped: list[int]) -> None:
        nonlocal matched, alive
        for ai in obj_atoms[obj]:
            remaining[ai] += 1
        for ai in flipped:
            if status[ai] == _MATCHED:
                matched -= 1
            status[ai] = _OPEN
            alive += 1

    def dfs(depth: int) -> None:
        nonlocal best_score, best_assign, nodes, exhausted
        if depth == len(case_objs):
            if matched > best_score:
                best_score = matched
                best_assign = {o: v for o, v in assign.items() if v is not None}
            return
        obj = case_objs[depth]
        for val in candidates[obj] + [None]:
            if val is not None and val in used:
                continue
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return
            assign[obj] = val
            if val is not None:
                used.add(val)
            flipped, _, _ = assign_obj(obj, val)
            if matched + alive > best_score:
                dfs(depth + 1)
            undo(obj, flipped)
            if val is not None:
                used.discard(val)
            del assign[obj]
            if exhausted or best_score == max_possible:
                return

    dfs(0)
    return best_assign


# The tuple-key best_mapping and the index it reads, kept unchanged as the
# reference for caseplan.mapping.best_mapping, which now encodes every partial
# image as one int and keeps a running key per case atom. The search order,
# the bound and the node count are the same, so the two agree at every budget.

UNSET = -1  # no problem object (yet): never an object id


class TupleImageIndex(NamedTuple):
    """The earlier MappingIndex: object fit by type instead of by signature."""

    objects: tuple[str, ...]
    features: tuple[frozenset[str], ...]
    fitting: Mapping[str, frozenset[int]]  # type -> ids of the objects that fit it
    predicates: Mapping[tuple[str, int], int]
    images: tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, ...]]]


def mapping_index_tuple_images(problem: PlanningProblem) -> TupleImageIndex:
    """The problem's index, with every partial image a tuple
    (predicate id, *object ids) with any subset of the ids replaced by UNSET."""
    objects = tuple(sorted(problem.objects))
    ids = {o: i for i, o in enumerate(objects)}
    types = problem.domain.types
    fitting = {t: frozenset(i for i, o in enumerate(objects)
                            if is_subtype(types, problem.objects[o], t))
               for t in types}
    # (predicate, arity) pairs are numbered in sorted order
    pairs = sorted({(atom.predicate, len(atom.args)) for atom in problem.init | problem.goal})
    predicates = {pair: pid for pid, pair in enumerate(pairs)}
    images = []
    for atoms in (problem.init, problem.goal):
        keys = set()
        for atom in atoms:
            pid = predicates[(atom.predicate, len(atom.args))]
            args = [ids[a] for a in atom.args]
            for kept in itertools.product((True, False), repeat=len(args)):
                keys.add((pid, *[a if k else UNSET for a, k in zip(args, kept)]))
        images.append(frozenset(keys))
    return TupleImageIndex(objects, tuple(object_features(problem, o) for o in objects),
                           MappingProxyType(fitting), MappingProxyType(predicates),
                           (images[0], images[1]))


def best_mapping_tuple_keys(case: CaseFile, problem: PlanningProblem, *,
                            node_budget: int = 200_000,
                            index: TupleImageIndex | None = None) -> dict[str, str]:
    """Exact branch-and-bound maximization of ``mapping_score`` that checks
    each row by building the tuple of its partial image."""
    if index is None:
        index = mapping_index_tuple_images(problem)
    constraints = _slot_constraints(case, problem)

    # each case atom with the image set of its target
    atoms = [(a, index.images[0]) for a in sorted(case.init)]
    atoms += [(a, index.images[1]) for a in sorted(case.goal)]
    obj_atoms: dict[str, list[int]] = {o: [] for o in constraints}
    for ai, (atom, _) in enumerate(atoms):
        for o in set(atom.args):
            obj_atoms[o].append(ai)

    # depth d of the search decides case object case_objs[d], into assign[d]
    case_objs = sorted(constraints, key=lambda o: (-len(obj_atoms[o]), o))
    depth_of = {o: d for d, o in enumerate(case_objs)}
    rows = [(target, index.predicates.get((a.predicate, len(a.args)), UNSET),
             tuple(depth_of[x] for x in a.args)) for a, target in atoms]
    # per depth: (atom, target, predicate id, argument depths, whether it completes the atom)
    depth_rows = [[(ai, *rows[ai], max(rows[ai][2]) == d) for ai in obj_atoms[o]]
                  for d, o in enumerate(case_objs)]

    # object_features of every case object, from one pass over the case
    case_features: dict[str, set[str]] = {o: set() for o in case_objs}
    for atom in itertools.chain(case.init, case.goal):
        if len(atom.args) == 1:
            case_features[atom.args[0]].add(atom.predicate)

    everything = frozenset(range(len(index.objects)))
    candidates: list[list[int]] = []
    for o in case_objs:
        feats = frozenset(case_features[o])
        ok = everything.intersection(*[index.fitting[t] for t in constraints[o]])
        candidates.append(sorted(ok, key=lambda i: (index.features[i] != feats, i)) + [UNSET])

    status = []
    matched = 0
    alive = 0
    for target, pid, slots in rows:
        if (pid, *[UNSET] * len(slots)) not in target:
            status.append(_DEAD)
        elif not slots:
            status.append(_MATCHED)
            matched += 1
        else:
            status.append(_OPEN)
            alive += 1
    max_possible = matched + alive

    assign = [UNSET] * len(case_objs)
    used = [False] * len(index.objects)
    best_assign: dict[str, str] = {}
    best_score = -1
    nodes = 0
    exhausted = False

    def assign_obj(depth: int, val: int) -> list[int]:
        nonlocal matched, alive
        flipped = []
        for ai, target, pid, slots, completes in depth_rows[depth]:
            if status[ai] != _OPEN:
                continue
            if val == UNSET or (pid, *[assign[s] for s in slots]) not in target:
                status[ai] = _DEAD
            elif not completes:
                continue
            else:
                status[ai] = _MATCHED
                matched += 1
            alive -= 1
            flipped.append(ai)
        return flipped

    def undo(flipped: list[int]) -> None:
        nonlocal matched, alive
        for ai in flipped:
            if status[ai] == _MATCHED:
                matched -= 1
            status[ai] = _OPEN
            alive += 1

    def dfs(depth: int) -> None:
        nonlocal best_score, best_assign, nodes, exhausted
        if depth == len(case_objs):
            if matched > best_score:
                best_score = matched
                best_assign = {o: index.objects[v] for o, v in zip(case_objs, assign)
                               if v != UNSET}
            return
        for val in candidates[depth]:
            if val != UNSET and used[val]:
                continue
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return
            assign[depth] = val
            if val != UNSET:
                used[val] = True
            flipped = assign_obj(depth, val)
            if matched + alive > best_score:
                dfs(depth + 1)
            undo(flipped)
            if val != UNSET:
                used[val] = False
            assign[depth] = UNSET
            if exhausted or best_score == max_possible:
                return

    dfs(0)
    return best_assign


# The name-based extract_fragments, kept unchanged as the reference for
# caseplan.mapping.extract_fragments, which now reads the case's plan rows and
# asks the problem's op numbering for the id of each renamed step.

def extract_fragments_by_name(case: CaseFile, mapping: dict[str, str],
                              problem: PlanningProblem) -> list[Plan]:
    """Rename the case plan and return its maximal runs of usable actions.

    An action is usable when its schema exists in the problem's domain and
    every argument is mapped to a type-compatible problem object; anything
    else splits the plan at that point.
    """
    domain = problem.domain
    fragments: list[Plan] = []
    current: list[GroundAction] = []

    def flush() -> None:
        if current:
            fragments.append(tuple(current))
            current.clear()

    for action in case.plan:
        schema = domain.schemas.get(action.name)
        usable = schema is not None and len(schema.params) == len(action.args) \
            and all(a in mapping for a in action.args)
        if usable:
            args = tuple(mapping[a] for a in action.args)
            usable = all(is_subtype(domain.types, problem.objects[o], t)
                         for o, (_, t) in zip(args, schema.params))
        if usable:
            current.append(GroundAction(action.name, args))
        else:
            flush()
    flush()
    return fragments
