"""Map recorded cases onto a new problem and cut their plans into usable fragments.

A mapping renames case objects to problem objects, injectively. Its score is
the number of initial-state plus goal propositions the renamed case shares
with the problem. ``best_mapping`` maximizes that score exactly (within a
node budget) over every injective, type-consistent mapping; matching unary
"feature" predicates is used to order the search, not to exclude mappings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cases import CaseFile
from .strips import Atom, GroundAction, PlanningProblem, is_subtype


@dataclass(frozen=True)
class Fragment:
    """A contiguous slice of a mapped case plan, every object of which exists
    in the target problem."""

    actions: tuple[GroundAction, ...]
    source_case: str = ""

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("a fragment cannot be empty")

    def __len__(self) -> int:
        return len(self.actions)


def object_features(source: CaseFile | PlanningProblem, obj: str) -> frozenset[str]:
    """Unary predicates true of the object in the initial state or the goal."""
    feats = set()
    for atom in itertools.chain(source.init, source.goal):
        if len(atom.args) == 1 and atom.args[0] == obj:
            feats.add(atom.predicate)
    return frozenset(feats)


def _mapped_atoms(atoms, mapping: dict[str, str]) -> set[Atom]:
    out = set()
    for atom in atoms:
        if all(a in mapping for a in atom.args):
            out.add(Atom(atom.predicate, tuple(mapping[a] for a in atom.args)))
    return out


def mapping_score(case: CaseFile, mapping: dict[str, str], problem: PlanningProblem) -> int:
    """Shared propositions between the renamed case and the problem.

    Atoms that mention an unmapped case object never match.
    """
    return (len(_mapped_atoms(case.init, mapping) & problem.init)
            + len(_mapped_atoms(case.goal, mapping) & problem.goal))


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


def best_mapping(case: CaseFile, problem: PlanningProblem, *,
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


def extract_fragments(case: CaseFile, mapping: dict[str, str],
                      problem: PlanningProblem, source: str = "") -> list[Fragment]:
    """Rename the case plan and return its maximal runs of usable actions.

    An action is usable when its schema exists in the problem's domain and
    every argument is mapped to a type-compatible problem object; anything
    else splits the plan at that point.
    """
    domain = problem.domain
    fragments: list[Fragment] = []
    current: list[GroundAction] = []

    def flush() -> None:
        if current:
            fragments.append(Fragment(tuple(current), source))
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


def build_fragments(problem: PlanningProblem,
                    cases: list[tuple[str, CaseFile]]) -> list[Fragment]:
    """Best-map every case onto the problem and collect all plan fragments."""
    out: list[Fragment] = []
    for name, case in cases:
        mapping = best_mapping(case, problem)
        out.extend(extract_fragments(case, mapping, problem, source=name))
    return out
