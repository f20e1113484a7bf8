"""Independent reference implementations used to cross-check the library.

Deliberately naive: exhaustive enumeration, sliding windows, breadth-first
search. None of this shares code paths with the implementations it checks
beyond the basic data types.
"""

from __future__ import annotations

import itertools
from collections import deque

from caseplan import Atom, CaseFile, DomainModel, PlanningProblem, grounded
from caseplan.strips import ActionSchema, GroundAction, GroundedAction, StripsError, is_subtype


def _ground_schema(schema, combo):
    binding = dict(zip(schema.variables, combo))
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


def window_support(db_entries, pattern) -> int:
    """Entries containing the pattern, via explicit window enumeration."""
    pattern = tuple(pattern)
    count = 0
    for _, seq in db_entries:
        windows = {tuple(seq[i:i + len(pattern)])
                   for i in range(len(seq) - len(pattern) + 1)}
        if pattern in windows:
            count += 1
    return count


def bruteforce_mine(db_entries, min_support):
    """All maximal frequent contiguous patterns, by enumerating every window.

    Maximality is decided by marking every proper window of every frequent
    pattern as covered, with no reliance on one-step extensions.
    """
    counts = {}
    for sid, seq in db_entries:
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


# The earlier assembly primitives, kept unchanged as references for the
# single-pass trim and the one-scan merge in caseplan.assemble.

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
    """Remove broken leading actions and goal-deleting trailing actions.

    Front: simulate from the initial state under the problem's model and
    delete the earliest inapplicable action, restarting until the whole
    remainder executes. Back: while the last action's delete list touches a
    goal atom, drop it.
    """
    model = problem.domain
    actions = list(plan)
    while actions:
        state = problem.init
        failed = None
        for i, action in enumerate(actions):
            ga = grounded(model, action)
            if not ga.pre <= state:
                failed = i
                break
            state = (state - ga.delete) | ga.add
        if failed is None:
            break
        del actions[failed]
    while actions and grounded(model, actions[-1]).delete & problem.goal:
        actions.pop()
    return tuple(actions)


# The earlier schema instantiation, kept unchanged as the reference for
# caseplan.strips.grounded, which now grounds a schema by itself.

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
