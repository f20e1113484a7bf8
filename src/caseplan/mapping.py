"""Map recorded cases onto a new problem and cut their plans into usable fragments.

A mapping renames case objects to problem objects, injectively. Its score is
the number of initial-state plus goal propositions the renamed case shares
with the problem. ``best_mapping`` maximizes that score exactly (within a
node budget) over every injective, type-consistent mapping; matching unary
"feature" predicates is used to order the search, not to exclude mappings.

The search reads the problem through a :class:`MappingIndex` (objects,
predicates, and the partial images of the init and goal atoms, as integers),
built once per problem and shared by every case mapped onto it. Its bound
drops a case atom as soon as the image of its mapped positions is part of no
target atom, a look-ahead in the manner of VF2 (Cordella et al., 2004). That
test only prunes subtrees that cannot beat the best mapping found, so the
result is the one the search without it returns whenever the node budget
suffices, and never scores lower when the budget runs out.

A partial image is one int, ``pid + P * sum((obj_j + 1) * R**j)``: ``pid`` is
the id of the atom's (predicate, arity), ``P`` the number of such ids, ``R``
the number of objects plus one, and an unmapped position adds 0. The key is
linear in each position, so the search keeps one running key per case atom,
starting at its ``pid``: mapping a case object to ``obj`` adds
``(obj + 1) * mult`` to the key of each undecided atom it occurs in, where
``mult`` sums ``P * R**j`` over the object's positions j in the atom, and
backtracking subtracts it again. Checking an atom is then one set lookup of
an int, and a node whose value cannot beat the bound is rejected after one
pass over its atoms, before any state changes.

The set-up of a mapping is split by what each part depends on:

- per case, and no domain: a :class:`CaseIndex` (the depth order of the
  case objects, the atom rows and depth rows, each object's features and
  usages, and the plan rows), which ``case.mapping_rows`` builds on first use
  and keeps on the case, so a library mapped onto many problems builds it
  once per case;
- per problem: the :class:`MappingIndex`, shared by every case mapped onto
  the problem and by every degraded model of it;
- per (case, problem), in :func:`best_mapping`: the atoms' keys, the depth
  multipliers and the sorted candidate lists.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .cases import CaseFile
from .strips import Atom, GroundAction, Plan, PlanningProblem, is_subtype


def _features(source: CaseFile | PlanningProblem) -> dict[str, frozenset[str]]:
    """:func:`object_features` of every object that has any, from one pass."""
    feats: dict[str, set[str]] = {}
    for atom in itertools.chain(source.init, source.goal):
        if len(atom.args) == 1:
            feats.setdefault(atom.args[0], set()).add(atom.predicate)
    return {o: frozenset(f) for o, f in feats.items()}


def object_features(source: CaseFile | PlanningProblem, obj: str) -> frozenset[str]:
    """Unary predicates true of the object in the initial state or the goal."""
    return _features(source).get(obj, frozenset())


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


# A signature, the key of MappingIndex.fits: (PREDICATE or ACTION, name, arity).
PREDICATE, ACTION = "predicate", "action"
Signature = tuple[str, str, int]


@dataclass(frozen=True)
class CaseIndex:
    """What :func:`best_mapping` and :func:`extract_fragments` read of a case,
    with each case object named by its depth in the search.

    Built by :func:`case_index`, through ``case.mapping_rows``. It reads the
    case alone, no domain or problem, so one serves every problem and every
    model the case is mapped onto.
    """

    case_objs: tuple[str, ...]  # depth -> case object, most atoms first, then by name
    # per atom, sorted init atoms then sorted goal atoms: ((predicate, arity),
    # target (0 init, 1 goal), the depth of each argument)
    atoms: tuple[tuple[tuple[str, int], int, tuple[int, ...]], ...]
    # per depth, per atom its object occurs in: (atom, the object's positions
    # in it, whether the depth is the atom's last)
    depth_rows: tuple[tuple[tuple[int, tuple[int, ...], bool], ...], ...]
    features: tuple[frozenset[str], ...]  # per depth: the object's object_features
    # per depth: the object's usages, as (signature, position)
    usages: tuple[tuple[tuple[Signature, int], ...], ...]
    plan: tuple[tuple[Signature, tuple[int, ...]], ...]  # per action: (signature, arg depths)


def case_index(case: CaseFile) -> CaseIndex:
    """The case's :class:`CaseIndex`; ``case.mapping_rows`` builds it once and keeps it."""
    atoms = [(a, 0) for a in sorted(case.init)] + [(a, 1) for a in sorted(case.goal)]
    obj_atoms: dict[str, list[int]] = {o: [] for o in case.objects()}
    for ai, (atom, _) in enumerate(atoms):
        for o in set(atom.args):
            obj_atoms[o].append(ai)
    case_objs = tuple(sorted(obj_atoms, key=lambda o: (-len(obj_atoms[o]), o)))
    depth_of = {o: d for d, o in enumerate(case_objs)}
    slots = [tuple(depth_of[x] for x in atom.args) for atom, _ in atoms]
    depth_rows = tuple(
        tuple((ai, tuple(j for j, s in enumerate(slots[ai]) if s == d), max(slots[ai]) == d)
              for ai in obj_atoms[o])
        for d, o in enumerate(case_objs))
    usages: dict[str, set[tuple[Signature, int]]] = {o: set() for o in case_objs}
    for atom, _ in atoms:
        sig = (PREDICATE, atom.predicate, len(atom.args))
        for j, o in enumerate(atom.args):
            usages[o].add((sig, j))
    plan = []
    for action in case.plan:
        sig = (ACTION, action.name, len(action.args))
        for j, o in enumerate(action.args):
            usages[o].add((sig, j))
        plan.append((sig, tuple(depth_of[o] for o in action.args)))
    features = _features(case)
    return CaseIndex(
        case_objs,
        tuple(((a.predicate, len(a.args)), target, s) for (a, target), s in zip(atoms, slots)),
        depth_rows,
        tuple(features.get(o, frozenset()) for o in case_objs),
        tuple(tuple(sorted(usages[o])) for o in case_objs),
        tuple(plan))


@dataclass(frozen=True)
class MappingIndex:
    """What :func:`best_mapping` reads of a problem, in integers.

    Built by :func:`mapping_index`. It depends only on the problem's objects,
    init and goal and on the domain's types, predicate signatures and schema
    parameters, which ``degrade`` never changes, so one index serves every
    case and every degraded model of the problem.
    """

    objects: tuple[str, ...]  # object id -> name, in sorted name order
    features: tuple[frozenset[str], ...]  # object id -> its object_features
    # signature of a declared predicate or schema -> per position, the ids of
    # the objects that fit its type
    fits: Mapping[Signature, tuple[frozenset[int], ...]]
    predicates: Mapping[tuple[str, int], int]  # (predicate, arity) -> predicate id
    # per target (init, goal): the _image_key of every partial image of every atom
    images: tuple[frozenset[int], frozenset[int]]


UNSET = -1  # no problem object (yet): never an object id


def _image_key(pid: int, args: list[int], predicates: int, radix: int) -> int:
    """A partial image's key: ``pid + predicates * sum((a + 1) * radix**j)``.

    ``predicates`` is the number of predicate ids and ``radix`` the number of
    objects plus one, so each position is one base-``radix`` digit, 0 where
    the argument is UNSET; distinct images get distinct keys.
    """
    return pid + predicates * sum((a + 1) * radix ** j for j, a in enumerate(args))


def mapping_index(problem: PlanningProblem) -> MappingIndex:
    """The problem's :class:`MappingIndex`."""
    objects = tuple(sorted(problem.objects))
    ids = {o: i for i, o in enumerate(objects)}
    domain = problem.domain
    fitting = {t: frozenset(i for i, o in enumerate(objects)
                            if is_subtype(domain.types, problem.objects[o], t))
               for t in domain.types}
    fits = {(PREDICATE, name, len(sig)): tuple(fitting[t] for t in sig)
            for name, sig in domain.predicates.items()}
    fits.update({(ACTION, name, len(schema.params)): tuple(fitting[t] for _, t in schema.params)
                 for name, schema in domain.schemas.items()})
    predicates: dict[tuple[str, int], int] = {}
    for atom in itertools.chain(problem.init, problem.goal):
        predicates.setdefault((atom.predicate, len(atom.args)), len(predicates))
    radix = len(objects) + 1
    images = []
    for atoms in (problem.init, problem.goal):
        keys = set()
        for atom in atoms:
            pid = predicates[(atom.predicate, len(atom.args))]
            args = [ids[a] for a in atom.args]
            for kept in itertools.product((True, False), repeat=len(args)):
                keys.add(_image_key(pid, [a if k else UNSET for a, k in zip(args, kept)],
                                    len(predicates), radix))
        images.append(frozenset(keys))
    features = _features(problem)
    return MappingIndex(objects, tuple(features.get(o, frozenset()) for o in objects),
                        MappingProxyType(fits), MappingProxyType(predicates),
                        (images[0], images[1]))


def best_mapping(case: CaseFile, problem: PlanningProblem, *,
                 node_budget: int = 200_000,
                 index: MappingIndex | None = None) -> dict[str, str]:
    """Exact branch-and-bound maximization of :func:`mapping_score`.

    Case objects may also stay unmapped. Deterministic: objects are visited
    most-involved first and candidates feature-matched first, then
    lexicographically, and the best mapping changes only on a strict
    improvement. The bound counts every undecided atom that can still match:
    an atom dies as soon as one of its objects stays unmapped, or the image of
    its mapped positions is part of no atom of its target (the init or the
    goal), since then no completion can match. Pruning so never loses the true
    maximum. If ``node_budget`` runs out, the best mapping found so far is
    returned; the nodes are an in-order subsequence of those of the search
    without the partial-image test, so the result is the same as without it
    when the budget suffices and never scores lower when it runs out.

    ``index``, when given, is ``mapping_index(problem)``, already built; a
    caller mapping many cases onto one problem builds it once.
    """
    if index is None:
        index = mapping_index(problem)
    rows = case.mapping_rows
    # depth d of the search decides case object case_objs[d], into assign[d]
    case_objs = rows.case_objs
    # keys[ai] is the _image_key of case atom ai's mapped positions, kept as
    # they are assigned; an UNSET predicate id is in no image set
    keys = [index.predicates.get(pred, UNSET) for pred, _, _ in rows.atoms]
    targets = [index.images[target] for _, target, _ in rows.atoms]
    count = len(index.predicates)
    radix = len(index.objects) + 1
    # per depth: (atom, target, what each step of the depth's object id adds to
    # the atom's key, whether the depth completes the atom)
    depth_rows = [[(ai, targets[ai], sum(count * radix ** j for j in positions), completes)
                   for ai, positions, completes in depth]
                  for depth in rows.depth_rows]

    everything = frozenset(range(len(index.objects)))
    candidates: list[list[int]] = []
    for feats, usages in zip(rows.features, rows.usages):
        ok = everything
        for sig, j in usages:
            fit = index.fits.get(sig)
            if fit is not None:
                ok = ok & fit[j]
        candidates.append(sorted(ok, key=lambda i: (index.features[i] != feats, i)))

    # shut[ai] is OPEN while case atom ai is undecided, else the depth that
    # decided it (-1: decided before the search, by its predicate alone)
    OPEN = len(case_objs)
    shut = []
    matched = 0
    alive = 0
    for ai, (_, _, slots) in enumerate(rows.atoms):
        if keys[ai] not in targets[ai]:
            shut.append(-1)
        elif not slots:
            shut.append(-1)
            matched += 1
        else:
            shut.append(OPEN)
            alive += 1
    max_possible = matched + alive

    assign = [UNSET] * len(case_objs)
    used = [False] * len(index.objects)
    best_assign: dict[str, str] = {}
    best_score = -1
    nodes = 0
    exhausted = False

    # A node first counts the open rows of its depth that its value kills and
    # touches no state unless the bound then passes. If it does, the node
    # decides those rows, stores the keys of the rows left open, recurses and
    # undoes: the rows it decided reopen, and the open rows take its step
    # back out of their keys.
    def dfs(depth: int) -> None:
        nonlocal best_score, best_assign, nodes, exhausted, matched, alive
        if depth == len(case_objs):
            if matched > best_score:
                best_score = matched
                best_assign = {o: index.objects[v] for o, v in zip(case_objs, assign)
                               if v != UNSET}
            return
        rows = depth_rows[depth]
        for val in candidates[depth]:
            if used[val]:
                continue
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return
            step = val + 1
            dying = 0
            for ai, target, mult, _ in rows:
                if shut[ai] == OPEN and keys[ai] + step * mult not in target:
                    dying += 1
            if matched + alive - dying <= best_score:
                continue
            assign[depth] = val
            used[val] = True
            gained = 0
            for ai, target, mult, completes in rows:
                if shut[ai] != OPEN:
                    continue
                key = keys[ai] + step * mult
                if key not in target:
                    shut[ai] = depth
                elif completes:
                    shut[ai] = depth
                    gained += 1
                else:
                    keys[ai] = key
            matched += gained
            alive -= dying + gained
            dfs(depth + 1)
            matched -= gained
            alive += dying + gained
            for ai, _, mult, _ in rows:
                if shut[ai] == depth:
                    shut[ai] = OPEN
                elif shut[ai] == OPEN:
                    keys[ai] -= step * mult
            used[val] = False
            assign[depth] = UNSET
            if exhausted or best_score == max_possible:
                return

        # the last choice leaves the depth's object unmapped: its open rows die
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        dying = 0
        for ai, _, _, _ in rows:
            if shut[ai] == OPEN:
                dying += 1
        if matched + alive - dying <= best_score:
            return
        for ai, _, _, _ in rows:
            if shut[ai] == OPEN:
                shut[ai] = depth
        alive -= dying
        dfs(depth + 1)
        alive += dying
        for ai, _, _, _ in rows:
            if shut[ai] == depth:
                shut[ai] = OPEN

    dfs(0)
    return best_assign


def extract_fragments(case: CaseFile, mapping: dict[str, str],
                      problem: PlanningProblem, *,
                      index: MappingIndex | None = None) -> list[Plan]:
    """Rename the case plan and return its maximal runs of usable actions,
    each a nonempty plan.

    An action is usable when its schema exists in the problem's domain and
    every argument is mapped to a type-compatible problem object; anything
    else splits the plan at that point. ``index``, when given, is
    ``mapping_index(problem)``, already built.
    """
    if index is None:
        index = mapping_index(problem)
    rows = case.mapping_rows
    ids = {o: i for i, o in enumerate(index.objects)}
    names = [mapping.get(o) for o in rows.case_objs]
    image = [UNSET if name is None else ids[name] for name in names]
    fragments: list[Plan] = []
    current: list[GroundAction] = []
    for sig, slots in rows.plan:
        fit = index.fits.get(sig)
        if fit is not None and all(image[s] in f for s, f in zip(slots, fit)):
            current.append(GroundAction(sig[1], tuple(names[s] for s in slots)))
        elif current:
            fragments.append(tuple(current))
            current = []
    if current:
        fragments.append(tuple(current))
    return fragments


def build_fragments(problem: PlanningProblem, cases: list[tuple[str, CaseFile]], *,
                    index: MappingIndex | None = None) -> list[Plan]:
    """Best-map every case onto the problem and collect all plan fragments.

    ``index``, when given, is ``mapping_index(problem)``; otherwise it is built
    once here for all the cases.
    """
    if index is None and cases:
        index = mapping_index(problem)
    out: list[Plan] = []
    for _, case in cases:
        mapping = best_mapping(case, problem, index=index)
        out.extend(extract_fragments(case, mapping, problem, index=index))
    return out
