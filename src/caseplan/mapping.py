"""Map recorded cases onto a new problem and cut their plans into usable fragments.

A mapping renames case objects to problem objects, injectively. Its score is
the number of initial-state plus goal propositions the renamed case shares
with the problem. ``best_mapping`` maximizes that score exactly (within a
node budget) over every injective, type-consistent mapping; matching unary
"feature" predicates is used to order the search, not to exclude mappings.

The search reads the problem through a :class:`MappingIndex` (objects,
predicates, type classes, and the partial images of the init and goal atoms,
as integers), built once per problem and shared by every case mapped onto
it. Its bound drops a case atom as soon as the image of its positions is
part of no target atom, a look-ahead in the manner of VF2 (Cordella et al.,
2004). A position whose object is still unmapped is not a wildcard: it reads
as the smallest *type class* (a set of problem objects that fit one of the
domain's types, short of all objects) holding every candidate of the object,
so on driverlog ``(at p1 l4)`` dies unless some package is at the image of
``l4``. No completion of a dropped atom can match, so the test only prunes
subtrees that cannot beat the best mapping found.

A partial image is one int, ``2 * pid + target + sum(digit_j * RADIX**(j+1))``:
``pid`` is the id of the atom's (predicate, arity), ``target`` is 0 for the
init and 1 for the goal, so one set holds the images of both, and a
position's digit is ``obj + 1`` where it is mapped to ``obj``, and else
``n + 1 + c`` for the class ``c`` of its object, or 0 where no class holds
all its candidates. ``RADIX`` is a fixed odd constant, so the key weight of
a set of positions belongs to the case alone, and the keys of an atom of
arity 2 stay below 2**30, one CPython digit (a power of two clusters keys in
the set's hash table, and a wider key is slower to hash). A problem fits
when its objects plus its classes plus one stay below ``RADIX``, and
``2 * pid + 1`` does too, so at most 1,019 objects on an untyped domain;
:func:`mapping_index` refuses a larger one with a ``ValueError``.

The key is linear in each position, so the search keeps one running key per
case atom, starting with every position at its class digit: mapping a case
object to ``obj`` adds ``(obj + 1 - digit) * mult`` to the key of each
undecided atom it occurs in, where ``mult`` sums ``RADIX**(j+1)`` over the
object's positions j in the atom, and backtracking subtracts it again.
Checking an atom is then one set lookup of an int, and a node whose value
cannot beat the bound is rejected after one pass over its atoms, before any
state changes.

Where the problem has type classes (driverlog, depots), a greedy descent
runs before the search: it maps the objects in a connected order (next the
object sharing the most atoms with those placed), each to the unused
candidate that kills the fewest of its open atoms; it spends none of the
node budget, and its cost is bounded by objects x candidates x rows. Where
there are none (blocks), every object is a candidate of every case object,
the seed cut almost no nodes (0.96x) yet cost a quarter of the call, so it
is skipped and the search is the classless one, node for node, at every
budget. The search starts with its incumbent at one below the greedy score
``s``, not at ``s``: a leaf scoring ``s`` still becomes the search's best, so
the search records the same first best leaf as without the seed, and only
subtrees that cannot reach ``s`` are cut. Neither the classes nor the seed
change which leaf is found first, so the result is the unseeded, classless
search's whenever the node budget suffices. When the budget runs out first,
the nodes visited are an in-order subsequence of that search's, and the
greedy mapping is returned if no leaf reached ``s``, so the score is never
lower.

The set-up of a mapping is split by what each part depends on:

- per case, and no domain: a :class:`CaseIndex`, which ``case.mapping_rows``
  builds on first use and keeps on the case, so a library mapped onto many
  problems builds it once per case;
- per problem: the :class:`MappingIndex`, shared by every case mapped onto
  the problem and by every degraded model of it, with the op numbering by
  whose arithmetic :func:`extract_fragments` gives each renamed step its op
  id;
- per (problem, case index), once: the mapping and its fragments, as op
  ids, one :func:`case_fragments` call, which :func:`build_fragments` makes
  for the first case of each index only. In :func:`best_mapping` this level
  holds the atoms' start keys, each object's candidates and class digit,
  which atoms are open or dead before the search, and the greedy descent
  where the problem has type classes. Without narrowing usages or classes
  (blocks), the candidates are the index's order for each object's features
  and every start key is the atom's lowest digit.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

from .cases import CaseFile
from .strips import Atom, Numbering, OpPlan, PlanningProblem, action_numbering, type_pools


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
    return {Atom(atom.predicate, tuple(mapping[a] for a in atom.args)) for atom in atoms
            if all(a in mapping for a in atom.args)}


def mapping_score(case: CaseFile, mapping: dict[str, str], problem: PlanningProblem) -> int:
    """Shared propositions between the renamed case and the problem; atoms
    that mention an unmapped case object never match."""
    return (len(_mapped_atoms(case.init, mapping) & problem.init)
            + len(_mapped_atoms(case.goal, mapping) & problem.goal))


# A signature, the first part of a MappingIndex.narrowing key: (PREDICATE or
# ACTION, name, arity).
PREDICATE, ACTION = "predicate", "action"
Signature = tuple[str, str, int]


@dataclass(frozen=True)
class CaseIndex:
    """What :func:`best_mapping` and :func:`extract_fragments` read of a case,
    with each case object named by its depth in the search and each atom by
    its place among the case's sorted rows.

    Built by :func:`case_index`, through ``case.mapping_rows``. It reads the
    case alone, no domain or problem, so one serves every problem and every
    model the case is mapped onto. Only ``case_objs`` holds names and every
    other field follows from ``atoms`` and ``plan``, so an index compares and
    hashes by those two. Every decision of :func:`best_mapping` and
    :func:`extract_fragments` is a count over atoms, a candidate order taken
    from the problem or a depth-indexed row, so cases with equal indexes get
    the same assignment per depth at every node budget, and the same
    fragments, on every problem. Renaming a case may change its depth order
    among objects with as many atoms, and so its index. The hash is computed
    once, so looking an index up is one dict probe.
    """

    case_objs: tuple[str, ...] = field(compare=False)  # depth -> object, most atoms first, by name
    # per atom, in sorted order: ((predicate, arity), target (0 init, 1 goal),
    # the depth of each argument)
    atoms: tuple[tuple[tuple[str, int], int, tuple[int, ...]], ...]
    # per depth, per atom its object occurs in: (atom, what each step of the
    # object's digit adds to the atom's key, whether the depth is the atom's last)
    depth_rows: tuple[tuple[tuple[int, int, bool], ...], ...] = field(compare=False)
    features: tuple[frozenset[str], ...] = field(compare=False)  # per depth: object_features
    # per depth: the object's usages, as (signature, position)
    usages: tuple[tuple[tuple[Signature, int], ...], ...] = field(compare=False)
    plan: tuple[tuple[Signature, tuple[int, ...]], ...]  # per action: (signature, arg depths)
    # per step of the greedy descent, in its connected order: (depth, per row
    # of depth_rows[depth] whether the step is the atom's last in that order)
    greedy: tuple[tuple[int, tuple[bool, ...]], ...] = field(compare=False)
    hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hash", hash((self.atoms, self.plan)))

    def __hash__(self) -> int:
        return self.hash

    def __reduce__(self):
        # the hash of a str differs between processes: a loaded index hashes anew
        return CaseIndex, (self.case_objs, self.atoms, self.depth_rows, self.features,
                           self.usages, self.plan, self.greedy)


def _connected_order(depth_rows, slots) -> list[int]:
    """The depths in the greedy descent's order: next the object sharing the
    most atoms with the objects already placed, ties to the lower depth."""
    placed = [False] * len(depth_rows)
    shared = [0] * len(depth_rows)  # per depth: its atoms that hold a placed object
    touched = [False] * len(slots)
    order = []
    for _ in depth_rows:
        depth = max((d for d, done in enumerate(placed) if not done),
                    key=lambda d: (shared[d], -d))
        placed[depth] = True
        order.append(depth)
        for ai, _, _ in depth_rows[depth]:
            if not touched[ai]:
                touched[ai] = True
                for other in set(slots[ai]):
                    if not placed[other]:
                        shared[other] += 1
    return order


def case_index(case: CaseFile) -> CaseIndex:
    """The case's :class:`CaseIndex`; ``case.mapping_rows`` builds it once and keeps it."""
    counts = dict.fromkeys(case.objects(), 0)  # per object: the atoms it occurs in
    for atom in itertools.chain(case.init, case.goal):
        for o in set(atom.args):
            counts[o] += 1
    case_objs = tuple(sorted(counts, key=lambda o: (-counts[o], o)))
    depth_of = {o: d for d, o in enumerate(case_objs)}
    atom_rows = tuple(sorted(((a.predicate, len(a.args)), target, tuple(map(depth_of.get, a.args)))
                             for target, part in enumerate((case.init, case.goal)) for a in part))
    slots = [s for _, _, s in atom_rows]
    depth_atoms: list[list[int]] = [[] for _ in case_objs]
    usages: list[set[tuple[Signature, int]]] = [set() for _ in case_objs]
    for ai, ((pred, arity), _, depths) in enumerate(atom_rows):
        for d in set(depths):
            depth_atoms[d].append(ai)
        for j, d in enumerate(depths):
            usages[d].add(((PREDICATE, pred, arity), j))
    depth_rows = tuple(
        tuple((ai, sum(RADIX ** (j + 1) for j, s in enumerate(slots[ai]) if s == d),
               max(slots[ai]) == d)
              for ai in ais)
        for d, ais in enumerate(depth_atoms))
    order = _connected_order(depth_rows, slots)
    step_of = {d: k for k, d in enumerate(order)}
    greedy = tuple(
        (d, tuple(max(step_of[s] for s in slots[ai]) == step_of[d]
                  for ai, _, _ in depth_rows[d]))
        for d in order)
    plan = []
    for action in case.plan:
        sig = (ACTION, action.name, len(action.args))
        for j, o in enumerate(action.args):
            usages[depth_of[o]].add((sig, j))
        plan.append((sig, tuple(map(depth_of.get, action.args))))
    features = _features(case)
    return CaseIndex(case_objs, atom_rows, depth_rows,
                     tuple(features.get(o, frozenset()) for o in case_objs),
                     tuple(tuple(sorted(u)) for u in usages), tuple(plan), greedy)


@dataclass(frozen=True)
class MappingIndex:
    """What mapping and cutting read of a problem, in integers.

    Built by :func:`mapping_index`. It depends only on the problem's objects,
    init and goal and on the domain's types, predicate signatures and schema
    parameters, which ``degrade`` never changes, so one index serves every
    case and every degraded model of the problem.
    """

    objects: tuple[str, ...]  # object id -> name, in sorted name order
    # the problem's op numbering (strips.action_numbering), as every Grounding
    # of it has: a renamed case step is usable when it gives the step an id
    ops: Numbering
    predicates: Mapping[tuple[str, int], int]  # (predicate, arity) -> predicate id
    # (signature, position) -> the ids of the objects that fit it, where
    # fewer than all objects do: the candidates of a case object are those
    # of every usage it has here
    narrowing: Mapping[tuple[Signature, int], frozenset[int]]
    # the type classes: the distinct nonempty sets of objects fitting a type,
    # short of all objects, smallest first; class c is digit n + 1 + c of a key
    classes: tuple[frozenset[int], ...]
    # the object_features of a problem object -> every object id, those with
    # exactly these features first, each part in id order: the candidate
    # order of a case object with these features
    orders: Mapping[frozenset[str], tuple[int, ...]]
    # the key of every partial image of every init and goal atom, each
    # position the object, 0, or the digit of a class holding it
    images: frozenset[int]


UNSET = -1  # no problem object (yet): never an object id, and never a key
# the base of a key's digits: odd, so keys spread over a set's hash table,
# and small enough that every key of an atom of arity 2 is below 2**30
RADIX = 1021


def mapping_index(problem: PlanningProblem) -> MappingIndex:
    """The problem's :class:`MappingIndex`."""
    objects = tuple(sorted(problem.objects))
    ids = {o: i for i, o in enumerate(objects)}
    domain = problem.domain
    pools = type_pools(domain, problem.objects)
    fitting = {t: frozenset(map(ids.__getitem__, pool)) for t, (pool, _) in pools.items()}
    fits = {(PREDICATE, name, len(sig)): tuple(fitting[t] for t in sig)
            for name, sig in domain.predicates.items()}
    fits.update({(ACTION, name, len(schema.params)): tuple(fitting[t] for _, t in schema.params)
                 for name, schema in domain.schemas.items()})
    narrowing = {(sig, j): fit for sig, fit_row in fits.items()
                 for j, fit in enumerate(fit_row) if len(fit) < len(objects)}
    classes = tuple(sorted({fit for fit in fitting.values() if 0 < len(fit) < len(objects)},
                           key=lambda fit: (len(fit), sorted(fit))))
    # numbered in sorted order, so no key depends on the order a set iterates in
    pairs = {(atom.predicate, len(atom.args))
             for atom in itertools.chain(problem.init, problem.goal)}
    predicates = {pair: pid for pid, pair in enumerate(sorted(pairs))}
    if len(objects) + len(classes) + 1 >= RADIX:
        raise ValueError(f"problem {problem.name}: {len(objects)} objects and {len(classes)} "
                         f"type classes do not fit a mapping key; objects plus classes "
                         f"must stay below {RADIX - 1}")
    if 2 * len(predicates) - 1 >= RADIX:
        raise ValueError(f"problem {problem.name}: {len(predicates)} (predicate, arity) pairs "
                         f"in the init and goal do not fit a mapping key; at most "
                         f"{(RADIX - 1) // 2} do")
    # per object: the digits a position holding it may have in an image
    digits = {o: (i + 1, 0, *(len(objects) + 1 + c for c, cls in enumerate(classes) if i in cls))
              for o, i in ids.items()}
    # the keys of every image of an atom, each position's digits folded in at
    # its weight; distinct images get distinct keys, every digit and the low
    # part being below RADIX
    weights = [RADIX ** (j + 1) for j in range(max(map(len, domain.predicates.values()),
                                                    default=0))]
    images = set()
    for target, atoms in enumerate((problem.init, problem.goal)):
        for atom in atoms:
            keys = [2 * predicates[(atom.predicate, len(atom.args))] + target]
            for arg, weight in zip(atom.args, weights):
                keys = [k + d * weight for k in keys for d in digits[arg]]
            images.update(keys)
    features = _features(problem)
    object_feats = tuple(features.get(o, frozenset()) for o in objects)
    orders = {feats: tuple(sorted(range(len(objects)),
                                  key=lambda i: (object_feats[i] != feats, i)))
              for feats in set(object_feats)}
    return MappingIndex(objects, action_numbering(domain, pools), MappingProxyType(predicates),
                        MappingProxyType(narrowing), classes, MappingProxyType(orders),
                        frozenset(images))


def best_mapping(case: CaseFile, problem: PlanningProblem, *,
                 node_budget: int = 200_000,
                 index: MappingIndex | None = None) -> dict[str, str]:
    """Exact branch-and-bound maximization of :func:`mapping_score`.

    Case objects may also stay unmapped. Deterministic: objects are visited
    most-involved first and candidates feature-matched first, then
    lexicographically, and the best mapping changes only on a strict
    improvement. The bound counts every undecided atom that can still match:
    an atom dies as soon as one of its objects stays unmapped, or the image of
    its mapped positions, with each unmapped position read as the smallest
    type class that holds all candidates of its object, is part of no atom of
    its target (the init or the goal), since then no completion can match.
    Pruning so never loses the true maximum. Where the problem has type
    classes, a greedy descent seeds the search, as the module docstring
    describes: the result is the search's without classes and seed when the
    budget suffices, and never scores lower when it runs out.

    ``index``, when given, is ``mapping_index(problem)``, already built; a
    caller mapping many cases onto one problem builds it once.
    """
    if index is None:
        index = mapping_index(problem)
    rows = case.mapping_rows
    # depth d of the search decides case object case_objs[d], into assign[d]
    case_objs = rows.case_objs
    # per depth: (atom, what each step of the depth's digit adds to the
    # atom's key, whether the depth completes the atom)
    depth_rows = rows.depth_rows
    images = index.images
    # keys[ai] is the key of case atom ai's image, kept as its objects are
    # assigned; an atom whose predicate has no id is UNSET, in no image
    predicates = index.predicates
    keys = [2 * predicates[pred] + target if pred in predicates else UNSET
            for pred, target, _ in rows.atoms]
    n = len(index.objects)

    # per depth: the candidates in order, and the base of a step: a key
    # position of the depth's object starts at the digit of the smallest
    # class holding every candidate (0 where no class does), and mapping the
    # object to val moves it by val + 1 - that digit
    candidates: list[Sequence[int]] = [index.orders.get(feats, range(n))
                                       for feats in rows.features]
    bases = [1] * len(case_objs)
    if index.narrowing or index.classes:
        everything = frozenset(range(n))
        for depth, usages in enumerate(rows.usages):
            ok = everything
            for usage in usages:
                fit = index.narrowing.get(usage)
                if fit is not None:
                    ok = ok & fit
            if len(ok) < n:
                candidates[depth] = [i for i in candidates[depth] if i in ok]
            for c, cls in enumerate(index.classes):
                if ok <= cls:
                    digit = n + 1 + c
                    for ai, mult, _ in depth_rows[depth]:
                        if keys[ai] != UNSET:
                            keys[ai] += digit * mult
                    bases[depth] = 1 - digit
                    break

    # shut[ai] is OPEN while case atom ai is undecided, else the depth that
    # decided it (-1: decided before the search, by its predicate and the
    # classes of its objects)
    OPEN = len(case_objs)
    shut = []
    matched = 0
    alive = 0
    for key, (_, _, slots) in zip(keys, rows.atoms):
        if key not in images:
            shut.append(-1)
        elif not slots:
            shut.append(-1)
            matched += 1
        else:
            shut.append(OPEN)
            alive += 1
    max_possible = matched + alive

    # the greedy seed pays only where type classes narrow the candidates;
    # without them it saves almost no nodes, and the search is the classless
    # one as it stands, which returns {} if the budget runs out before a leaf
    greedy_gain, greedy = 0, [UNSET] * len(case_objs)
    if index.classes:
        greedy_gain, greedy = _greedy_descent(rows.greedy, depth_rows, images, candidates,
                                              bases, keys[:], [state == OPEN for state in shut],
                                              n)

    assign = [UNSET] * len(case_objs)
    used = [False] * n
    best_assign: dict[str, str] | None = None
    # one below the greedy score: the search records its own first leaf that
    # reaches it, so the greedy seed changes which subtrees are cut, not the
    # mapping returned when the budget suffices
    best_score = matched + greedy_gain - 1
    nodes = 0
    exhausted = False

    # A value kills at most the open rows of its depth, and each value leaves
    # them open again for the next. So a node passes the bound outright when
    # it would pass with all of them dead; else it first counts the rows its
    # value kills and touches no state unless the bound then passes. A node
    # that passes decides its rows, stores the keys of the rows left open,
    # recurses and undoes: the rows it decided reopen, and the open rows take
    # its step back out of their keys. ``matched`` and ``alive`` count the
    # matched and the open atoms at the node.
    def dfs(depth: int, matched: int, alive: int) -> None:
        nonlocal best_score, best_assign, nodes, exhausted
        if depth == len(case_objs):
            if matched > best_score:
                best_score = matched
                best_assign = {o: index.objects[v] for o, v in zip(case_objs, assign)
                               if v != UNSET}
            return
        rows = depth_rows[depth]
        base = bases[depth]
        open_rows = 0
        for ai, _, _ in rows:
            if shut[ai] == OPEN:
                open_rows += 1
        for val in candidates[depth]:
            if used[val]:
                continue
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return
            step = val + base
            if matched + alive - open_rows <= best_score:
                dying = 0
                for ai, mult, _ in rows:
                    if shut[ai] == OPEN and keys[ai] + step * mult not in images:
                        dying += 1
                if matched + alive - dying <= best_score:
                    continue
            assign[depth] = val
            used[val] = True
            dying = gained = 0
            for ai, mult, completes in rows:
                if shut[ai] != OPEN:
                    continue
                key = keys[ai] + step * mult
                if key not in images:
                    shut[ai] = depth
                    dying += 1
                elif completes:
                    shut[ai] = depth
                    gained += 1
                else:
                    keys[ai] = key
            dfs(depth + 1, matched + gained, alive - dying - gained)
            for ai, mult, _ in rows:
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
        if matched + alive - open_rows <= best_score:
            return
        for ai, _, _ in rows:
            if shut[ai] == OPEN:
                shut[ai] = depth
        dfs(depth + 1, matched, alive - open_rows)
        for ai, _, _ in rows:
            if shut[ai] == depth:
                shut[ai] = OPEN

    dfs(0, matched, alive)
    if best_assign is None:  # the budget ran out before a leaf reached the greedy score
        return {o: index.objects[v] for o, v in zip(case_objs, greedy) if v != UNSET}
    return best_assign


def _greedy_descent(steps, depth_rows, images, candidates, bases, keys: list[int],
                    is_open: list[bool], n: int) -> tuple[int, list[int]]:
    """One greedy pass over :func:`best_mapping`'s rows, updating ``keys`` and
    ``is_open`` (copies of the search's) as it goes.

    Each object, in the connected order of ``steps`` (``CaseIndex.greedy``),
    takes the unused candidate that kills the fewest of its open atoms, ties
    to the one that completes the most, then to the earlier candidate; it
    stays unmapped if every candidate kills them all. An object with no open
    atom takes its first unused candidate. Returns the atoms matched and the
    object id chosen per depth, UNSET where none.
    """
    chosen = [UNSET] * len(depth_rows)
    taken = [False] * n
    gained = 0
    for depth, last in steps:
        row = []
        can_complete = 0
        for (ai, mult, _), completes in zip(depth_rows[depth], last):
            if is_open[ai]:
                row.append((ai, mult, completes))
                can_complete += completes
        base = bases[depth]
        best_val = UNSET
        fewest, most = len(row), 0  # the kills and completions to beat
        for val in candidates[depth]:
            if taken[val]:
                continue
            if not row:
                best_val = val
                break
            step = val + base
            kills = completes = 0
            for ai, mult, completes_it in row:
                if keys[ai] + step * mult not in images:
                    kills += 1
                elif completes_it:
                    completes += 1
            if kills < fewest or kills == fewest and completes > most:
                best_val, fewest, most = val, kills, completes
                if not kills and completes == can_complete:
                    break
        if best_val == UNSET:
            for ai, _, _ in row:
                is_open[ai] = False
            continue
        step = best_val + base
        for ai, mult, completes_it in row:
            key = keys[ai] + step * mult
            if key not in images:
                is_open[ai] = False
            elif completes_it:
                is_open[ai] = False
                gained += 1
            else:
                keys[ai] = key
        taken[best_val] = True
        chosen[depth] = best_val
    return gained, chosen


def extract_fragments(case: CaseFile, mapping: dict[str, str],
                      problem: PlanningProblem, *,
                      index: MappingIndex | None = None) -> list[OpPlan]:
    """Rename the case plan and return its maximal runs of usable actions,
    each a nonempty tuple of op ids of the problem (``index.ops``, the
    numbering that every grounding of the problem shares).

    An action is usable when the numbering gives the renamed action an id, as
    the op table does every action of the problem; anything else splits the
    plan at that point. The id is the numbering's arithmetic over the pool
    position of each renamed argument in its parameter's type; no action is
    named. ``index``, when given, is ``mapping_index(problem)``, already built.
    """
    digits = (index or mapping_index(problem)).ops.digits
    names = list(map(mapping.get, case.mapping_rows.case_objs))  # per depth: the image, else None
    fragments: list[OpPlan] = []
    current: list[int] = []
    for (_, name, arity), slots in case.mapping_rows.plan:
        entry = digits.get(name)
        if entry is not None and len(entry[1]) == arity:
            op_idx, params = entry
            for slot, (_, where, stride) in zip(slots, params):
                k = where.get(names[slot])
                if k is None:
                    break
                op_idx += k * stride
            else:
                current.append(op_idx)
                continue
        if current:
            fragments.append(tuple(current))
            current = []
    if current:
        fragments.append(tuple(current))
    return fragments


def case_fragments(case: CaseFile, problem: PlanningProblem, index: MappingIndex) -> list[OpPlan]:
    """The fragments of one case on the problem, as op ids: its
    :func:`best_mapping`, cut by :func:`extract_fragments`. ``index`` is
    ``mapping_index(problem)``."""
    return extract_fragments(case, best_mapping(case, problem, index=index), problem, index=index)


class Uncovered(Exception):
    """Raised by :func:`build_fragments` given ``required`` op ids, where
    ``action``, one of them, can no longer lie in ``min_support`` fragments."""

    def __init__(self, action: int):
        super().__init__(action)
        self.action = action


def build_fragments(problem: PlanningProblem, cases: list[tuple[str, CaseFile]], *,
                    required: Collection[int] = (),
                    min_support: int = 1) -> list[OpPlan]:
    """Best-map every case onto the problem and collect all plan fragments, as
    op ids (see :func:`extract_fragments`), in library order.

    Only the first case of each :class:`CaseIndex` (``case.mapping_rows``,
    which compares without names) is mapped and cut, by
    :func:`case_fragments`; a later case with an equal index gets the same
    fragments. The problem's :func:`mapping_index` is built once for all
    the cases, where there are any.

    ``required``, when given, are op ids of actions that must each lie in at
    least ``min_support`` of the fragments, or the caller has no use for them
    (the ends of causal pairs: a frequent pattern holds only actions that do).
    Fragments are disjoint runs of a case plan, so a case not yet mapped adds
    at most as many fragments holding ``x`` as its plan has steps of ``x``'s
    schema. Before the first index is mapped and after each one, the call
    raises :class:`Uncovered` for the first action, in sorted order, whose
    fragments so far plus those steps in the indexes not yet mapped (each
    once per case that has it) fall below ``min_support``. So that a cut
    comes early, the indexes are mapped in descending order of their steps
    of the required schemas, once per case that has them, ties in library
    order; the fragments are still returned in library order. Without
    ``required`` nothing is cut, and the indexes are mapped in library order.
    """
    first: dict[CaseIndex, CaseFile] = {}  # per index: its first case, in library order
    copies: Counter = Counter()  # per index: the cases that have it
    for _, case in cases:
        first.setdefault(case.mapping_rows, case)
        copies[case.mapping_rows] += 1
    index = mapping_index(problem) if first else None
    held = dict.fromkeys(sorted(set(required)), 0)  # per end: the fragments built that hold it
    schema_of: dict[int, Signature] = {}  # per end: its schema; with no case, none is read
    if index is not None:
        for x in held:
            name, args = index.ops.name(x)
            schema_of[x] = (ACTION, name, len(args))
    sigs = set(schema_of.values())
    left: Counter = Counter()  # per schema: its steps in the indexes not mapped
    # per index: its steps of those schemas, each counting once per case that has it
    steps = {rows: [sig for sig, _ in rows.plan if sig in sigs] for rows in first}
    for rows, n in copies.items():
        for sig in steps[rows]:
            left[sig] += n

    def check() -> None:
        for x, n in held.items():
            if n + left[schema_of.get(x)] < min_support:
                raise Uncovered(x)

    check()
    built: dict[CaseIndex, list[OpPlan]] = {}
    # most steps first, each once per case that has it; sorted is stable, so
    # ties keep library order
    for rows in sorted(first, key=lambda rows: len(steps[rows]) * copies[rows], reverse=True):
        fragments = built[rows] = case_fragments(first[rows], problem, index)
        n = copies[rows]
        for sig in steps[rows]:
            left[sig] -= n
        for fragment in fragments:
            for x in held:
                if x in fragment:
                    held[x] += n
        check()
    return [fragment for _, case in cases for fragment in built[case.mapping_rows]]
