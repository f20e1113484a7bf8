"""Ground STRIPS semantics: atoms, states, action schemas, grounding, execution."""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, TypeAlias


class StripsError(Exception):
    """Raised for ill-formed models, bad bindings, or broken invariants."""


class Atom(NamedTuple):
    """A predicate applied to argument symbols.

    Arguments beginning with ``?`` are variables; an atom with no variables
    is ground. Atoms hash and order like plain tuples, which gives every
    container of atoms a stable lexicographic order for free.
    """

    predicate: str
    args: tuple[str, ...] = ()

    @property
    def is_ground(self) -> bool:
        return not any(a.startswith("?") for a in self.args)

    def pddl(self) -> str:
        return "(" + " ".join((self.predicate,) + self.args) + ")"


class GroundAction(NamedTuple):
    """An action schema name applied to object symbols."""

    name: str
    args: tuple[str, ...] = ()

    def pddl(self) -> str:
        return "(" + " ".join((self.name,) + self.args) + ")"


State: TypeAlias = frozenset[Atom]
Plan: TypeAlias = tuple[GroundAction, ...]
OpPlan: TypeAlias = tuple[int, ...]  # a plan as the op ids of its steps (see action_numbering)


@dataclass(frozen=True)
class ActionSchema:
    """A lifted operator with positive preconditions and add/delete effects."""

    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type) pairs in declaration order
    pre: frozenset[Atom]
    add: frozenset[Atom]
    delete: frozenset[Atom]

    def __post_init__(self) -> None:
        declared = {v for v, _ in self.params}
        if len(declared) != len(self.params):
            raise StripsError(f"action {self.name}: duplicate parameter name")
        for var, _ in self.params:
            if not var.startswith("?"):
                raise StripsError(f"action {self.name}: parameter {var} must start with '?'")
        for label, atoms in (("precondition", self.pre), ("add", self.add), ("delete", self.delete)):
            for atom in atoms:
                for arg in atom.args:
                    if not arg.startswith("?"):
                        raise StripsError(
                            f"action {self.name}: constant {arg} in {label} list is not supported")
                    if arg not in declared:
                        raise StripsError(
                            f"action {self.name}: variable {arg} in {label} list is not a parameter")
        overlap = self.add & self.delete
        if overlap:
            raise StripsError(
                f"action {self.name}: add and delete lists overlap on {sorted(overlap)[0].pddl()}")

    def atom_count(self) -> int:
        return len(self.pre) + len(self.add) + len(self.delete)


def is_subtype(types: Mapping[str, str | None], t: str, ancestor: str) -> bool:
    """True when ``t`` equals ``ancestor`` or is below it in the hierarchy."""
    cur: str | None = t
    while cur is not None:
        if cur == ancestor:
            return True
        cur = types.get(cur)
    return False


@dataclass(frozen=True)
class DomainModel:
    """A set of action schemas plus the type and predicate declarations they use.

    ``completeness`` is bookkeeping only: it records what fraction of the
    original schema atoms a degraded model retains and has no effect on
    semantics.
    """

    name: str
    types: Mapping[str, str | None]  # type name -> parent (None for the root)
    predicates: Mapping[str, tuple[str, ...]]  # predicate -> parameter types
    schemas: Mapping[str, ActionSchema]
    completeness: float = 1.0

    def __post_init__(self) -> None:
        # read-only copies: the caller's dicts can change neither this model nor its hash
        types = dict(self.types)
        types.setdefault("object", None)
        object.__setattr__(self, "types", MappingProxyType(types))
        object.__setattr__(self, "predicates", MappingProxyType(dict(self.predicates)))
        object.__setattr__(self, "schemas", MappingProxyType(dict(self.schemas)))
        for t, parent in self.types.items():
            if parent is not None and parent not in self.types:
                raise StripsError(f"type {t} has undeclared parent {parent}")
        for t, parent in self.types.items():
            above = {t}  # t and its ancestors up to parent
            while parent is not None:
                if parent in above:
                    raise StripsError(f"type {parent} is its own ancestor")
                above.add(parent)
                parent = self.types[parent]
        for pred, sig in self.predicates.items():
            for pt in sig:
                if pt not in self.types:
                    raise StripsError(f"predicate {pred} uses undeclared type {pt}")
        for key, schema in self.schemas.items():
            if key != schema.name:
                raise StripsError(f"schema map key {key} does not match name {schema.name}")
            for _, pt in schema.params:
                if pt not in self.types:
                    raise StripsError(f"action {schema.name} uses undeclared type {pt}")
            for atom in itertools.chain(schema.pre, schema.add, schema.delete):
                sig = self.predicates.get(atom.predicate)
                if sig is None:
                    raise StripsError(
                        f"action {schema.name} uses undeclared predicate {atom.predicate}")
                if len(sig) != len(atom.args):
                    raise StripsError(
                        f"action {schema.name}: {atom.pddl()} has arity {len(atom.args)}, "
                        f"declared {len(sig)}")

    def __hash__(self) -> int:
        return hash((self.name, frozenset(self.types.items()),
                     frozenset(self.predicates.items()), frozenset(self.schemas.items()),
                     self.completeness))

    def atom_count(self) -> int:
        return sum(s.atom_count() for s in self.schemas.values())


def _check_ground_atoms(atoms: Iterable[Atom], domain: DomainModel,
                        objects: Mapping[str, str], where: str) -> None:
    for atom in atoms:
        sig = domain.predicates.get(atom.predicate)
        if sig is None:
            raise StripsError(f"{where}: undeclared predicate {atom.predicate}")
        if len(sig) != len(atom.args):
            raise StripsError(f"{where}: {atom.pddl()} has arity {len(atom.args)}, "
                              f"declared {len(sig)}")
        for arg, ptype in zip(atom.args, sig):
            if arg.startswith("?"):
                raise StripsError(f"{where}: {atom.pddl()} is not ground")
            otype = objects.get(arg)
            if otype is None:
                raise StripsError(f"{where}: undeclared object {arg}")
            if not is_subtype(domain.types, otype, ptype):
                raise StripsError(f"{where}: object {arg} of type {otype} does not fit "
                                  f"{atom.predicate} position of type {ptype}")


@dataclass(frozen=True)
class PlanningProblem:
    """A domain model, typed objects, an initial state, and a conjunctive goal."""

    name: str
    domain: DomainModel
    objects: Mapping[str, str]  # object -> type
    init: State
    goal: frozenset[Atom]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", MappingProxyType(dict(self.objects)))
        for obj, t in self.objects.items():
            if t not in self.domain.types:
                raise StripsError(f"object {obj} has undeclared type {t}")
        _check_ground_atoms(self.init, self.domain, self.objects, "init")
        _check_ground_atoms(self.goal, self.domain, self.objects, "goal")

    def __hash__(self) -> int:
        return hash((self.name, self.domain, frozenset(self.objects.items()),
                     self.init, self.goal))

    def _with_own_goal(self, name: str, goal: frozenset[Atom]) -> PlanningProblem:
        """This problem under another name, with part of its goal as the goal.

        Nothing is checked again: every atom of it was checked when this
        problem was built, and nothing of it can have changed since.
        """
        if not goal <= self.goal:
            raise StripsError(f"{name}: goal is not part of the goal of {self.name}")
        sub = object.__new__(PlanningProblem)
        sub.__dict__.update(vars(self), name=name, goal=goal)
        return sub


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of running a plan: the reached state, and where it broke if it did."""

    success: bool
    state: State
    failed_step: int | None = None
    reason: str | None = None


# per type: the objects that fit it, in sorted order, and the position of each
Pools: TypeAlias = Mapping[str, tuple[tuple[str, ...], Mapping[str, int]]]


def type_pools(domain: DomainModel, objects: Mapping[str, str]) -> Pools:
    """The :data:`Pools` of ``objects`` under the domain's types; every numbering counts in them."""
    pools = {t: tuple(sorted(o for o, ot in objects.items() if is_subtype(domain.types, ot, t)))
             for t in domain.types}
    return {t: (pool, MappingProxyType({o: k for k, o in enumerate(pool)}))
            for t, pool in pools.items()}


class Numbering:
    """Consecutive ids for the tuples ``(name, args)`` of a signature table.

    ``args`` takes, at each position, an object of the pool of that
    position's type. Names take blocks of ids in sorted order, and within a
    block the arguments count up like the digits of a number, the last one
    fastest. So the tuple whose arguments sit at positions k_1..k_m of their
    pools has id ``base[name] + Σ k_i × stride_i``, and ids run in sorted
    tuple order. Both directions are this arithmetic; no table of names is
    kept. Its tables are tuples and read-only mappings, and never change.
    """

    def __init__(self, signatures: Mapping[str, tuple[str, ...]], pools: Pools):
        self.names = tuple(sorted(signatures))
        bases: list[int] = []
        digits = {}  # name -> (base, per position: (pool, positions in it, stride))
        count = 0
        for name in self.names:
            row = []
            stride = 1
            for t in reversed(signatures[name]):
                pool, where = pools[t]
                row.append((pool, where, stride))
                stride *= len(pool)
            bases.append(count)
            digits[name] = (count, tuple(reversed(row)))
            count += stride
        self.bases, self.digits, self.count = tuple(bases), MappingProxyType(digits), count

    def id(self, name: str, args: tuple[str, ...]) -> int | None:
        """The id of ``(name, args)``, or None where it is no tuple of the table."""
        entry = self.digits.get(name)
        if entry is None or len(args) != len(entry[1]):
            return None
        i, digits = entry
        for arg, (_, where, stride) in zip(args, digits):
            k = where.get(arg)
            if k is None:
                return None
            i += k * stride
        return i

    def name(self, i: int) -> tuple[str, tuple[str, ...]]:
        """The tuple ``(name, args)`` whose id is ``i``."""
        if not 0 <= i < self.count:
            raise IndexError(f"id {i} is outside 0..{self.count - 1}")
        name = self.names[bisect.bisect_right(self.bases, i) - 1]
        base, digits = self.digits[name]
        i -= base
        args = []
        for pool, _, stride in digits:
            k, i = divmod(i, stride)
            args.append(pool[k])
        return name, tuple(args)


def action_numbering(domain: DomainModel, pools: Pools) -> Numbering:
    """The op ids of the domain's ground actions over ``type_pools``: an
    action is an op exactly when the numbering gives it an id."""
    return Numbering({name: tuple(t for _, t in schema.params)
                      for name, schema in domain.schemas.items()}, pools)


# how many distinct atom sets a grounding remembers the ids of; a solve encodes
# its initial state, its goal and the goal of each goal atom's search
_ENCODED_SETS = 64


class Grounding:
    """All well-typed ground atoms and actions over a (domain, objects) pair,
    as integer ids.

    Atom and op ids are those of a :class:`Numbering` over the objects'
    :func:`type_pools`, so they run in sorted, duplicate-free order. Each
    distinct schema atom is compiled once into a template of that arithmetic
    over the pools of the schema's parameters, which gives its id under every
    ground action of the schema at once: no action is grounded into
    :class:`Atom` values and no atom is looked up.

    Construction builds only what search code reads: each op's (pre, add,
    delete) atom ids, which :meth:`successors` and :meth:`run` walk, and the
    index that h_add reads. No table of names is kept: :meth:`encode`,
    :meth:`decode`, :meth:`action` and :meth:`op_id` name atoms and actions
    by the arithmetic alone, and only ``encode`` remembers anything, the ids
    of the atom frozensets it is given, since every search and walk of a
    problem starts from the same initial state. :meth:`run` is the one plan
    simulator: a plan given by name is numbered by ``op_id`` first. Its
    tables are computed once and never change, so it is safe to share across
    the per-goal solver calls of one problem.
    """

    def __init__(self, domain: DomainModel, objects: Mapping[str, str]):
        self.domain = domain

        pools = type_pools(domain, objects)
        self._atom_ids = Numbering(domain.predicates, pools)
        self._op_ids = action_numbering(domain, pools)
        self.atom_count = self._atom_ids.count
        self._encoded: dict[frozenset[Atom], frozenset[int]] = {}

        sets: tuple[list[frozenset[int]], ...] = ([], [], [])  # pre, add, delete of each op
        for name in self._op_ids.names:
            schema = domain.schemas[name]
            params = self._op_ids.digits[name][1]
            n_ops = math.prod(len(pool) for pool, _, _ in params)
            if not n_ops:
                continue
            # the ids of each distinct schema atom, and of each distinct set of
            # them, under every ground action of the schema, in op order
            columns: dict[Atom, list[int]] = {}
            rows: dict[frozenset[Atom], list[frozenset[int]]] = {}
            for templates, out in zip((schema.pre, schema.add, schema.delete), sets):
                if templates not in rows:
                    for atom in templates:
                        if atom not in columns:
                            columns[atom] = self._compile(atom, schema, params)
                    rows[templates] = (list(map(frozenset, zip(*map(columns.get, templates))))
                                       if templates else [frozenset()] * n_ops)
                out.extend(rows[templates])

        # (pre, add, delete) atom ids of each ground action, in op order
        self.ops_ids: tuple[tuple[frozenset[int], frozenset[int], frozenset[int]], ...] = tuple(
            zip(*sets))

        # the delete-relaxation index read by h_add: each op's add ids and, for
        # each atom, the ops that have it as a precondition, both ascending; each
        # op's precondition count; and the ops with none, which fire from every state
        self.adds: tuple[tuple[int, ...], ...] = tuple(map(tuple, map(sorted, sets[1])))
        waiting: list[list[int]] = [[] for _ in range(self.atom_count)]
        for op_idx, pre in enumerate(sets[0]):
            for a in pre:
                waiting[a].append(op_idx)
        self.waiting: tuple[tuple[int, ...], ...] = tuple(map(tuple, waiting))
        self.pre_counts: tuple[int, ...] = tuple(map(len, sets[0]))
        self.free_ops: tuple[int, ...] = tuple(
            op_idx for op_idx, n in enumerate(self.pre_counts) if n == 0)

    def _compile(self, atom: Atom, schema: ActionSchema, params) -> list[int]:
        """The id of a schema atom under each ground action of the schema, in
        action order: each parameter in turn adds its object's pool position
        times the stride of every atom position it fills. ``params`` is the
        schema's row of the op numbering, and no parameter's pool is empty."""
        base, positions = self._atom_ids.digits[atom.predicate]
        ids = [base]
        for (var, _), (pool, _, _) in zip(schema.params, params):
            step = None  # what each object of the pool adds, in pool order
            for arg, (atom_pool, atom_where, stride) in zip(atom.args, positions):
                if arg != var:
                    continue
                if atom_pool is pool:  # the position takes the parameter's own type
                    column = range(0, len(pool) * stride, stride)
                else:
                    column = []
                    for obj in pool:
                        pos = atom_where.get(obj)
                        if pos is None:
                            binding = {v: p[0] for (v, _), (p, _, _) in zip(schema.params, params)}
                            binding[var] = obj
                            bad = Atom(atom.predicate, tuple(binding[x] for x in atom.args))
                            raise StripsError(
                                f"atom {bad.pddl()} is outside the ground atom universe")
                        column.append(pos * stride)
                step = column if step is None else [a + b for a, b in zip(step, column)]
            if step is None:
                ids = [i for i in ids for _ in pool]
            else:
                ids = [i + d for i in ids for d in step]
        return ids

    @classmethod
    def for_problem(cls, problem: PlanningProblem) -> "Grounding":
        return cls(problem.domain, problem.objects)

    def encode(self, atoms: Iterable[Atom]) -> frozenset[int]:
        """The ids of ground atoms; an atom outside the universe raises
        :class:`StripsError`. The ids of a frozenset are remembered, so the
        initial state that every search and walk of a problem starts from is
        encoded once."""
        if not isinstance(atoms, frozenset):
            return frozenset(map(self._atom_id, atoms))
        ids = self._encoded.get(atoms)
        if ids is None:
            ids = frozenset(map(self._atom_id, atoms))
            if len(self._encoded) < _ENCODED_SETS:
                self._encoded[atoms] = ids
        return ids

    def _atom_id(self, atom: Atom) -> int:
        i = self._atom_ids.id(*atom)
        if i is None:
            raise StripsError(f"atom {Atom(*atom).pddl()} is outside the ground atom universe")
        return i

    def decode(self, ids: Iterable[int]) -> State:
        """The ground atoms of ids."""
        name = self._atom_ids.name
        return frozenset([Atom(*name(i)) for i in ids])

    def action(self, op_idx: int) -> GroundAction:
        """The ground action of an op id, named by the arithmetic alone."""
        return GroundAction(*self._op_ids.name(op_idx))

    def op_id(self, action: GroundAction) -> int:
        """The op id of a ground action, by the arithmetic alone. An action
        outside the op table is no action of the problem: it raises
        :class:`StripsError` naming an unknown schema, a wrong arity, or the
        first argument that is no object of its parameter's type."""
        op_idx = self._op_ids.id(*action)
        if op_idx is None:
            raise StripsError(self._why_off_table(action))
        return op_idx

    def _why_off_table(self, action: GroundAction) -> str:
        schema = self.domain.schemas.get(action.name)
        if schema is None:
            return f"unknown action schema: {action.name}"
        if len(action.args) != len(schema.params):
            return (f"action {action.pddl()}: expected {len(schema.params)} "
                    f"arguments, got {len(action.args)}")
        # the table holds every well-typed binding, so some argument is outside its pool
        _, digits = self._op_ids.digits[action.name]
        arg, (var, ptype) = next((arg, param) for arg, param, (_, where, _)
                                 in zip(action.args, schema.params, digits) if arg not in where)
        return f"action {action.pddl()}: {arg} is no object of type {ptype} for {var}"

    def successors(self, state: frozenset[int]) -> Iterator[tuple[int, frozenset[int]]]:
        """Each op applicable in an encoded state with the state it leads to, in op order."""
        for op_idx, (pre, add, delete) in enumerate(self.ops_ids):
            if pre <= state:
                yield op_idx, (state - delete) | add

    def run(self, ops: Iterable[int], state: frozenset[int]) -> tuple[frozenset[int], int]:
        """Apply op ids in turn from an encoded state, stopping before the
        first whose precondition fails: the state reached, and how many
        ops applied."""
        applied = 0
        for op_idx in ops:
            pre, add, delete = self.ops_ids[op_idx]
            if not pre <= state:
                break
            state = (state - delete) | add
            applied += 1
        return state, applied


def execute_plan(problem: PlanningProblem, plan: Plan, *,
                 grounding: Grounding | None = None) -> ExecutionResult:
    """Run a plan from the problem's initial state.

    Succeeds iff every step is applicable in sequence and the goal holds in
    the final state. Failures are reported as a value, never raised:
    ``failed_step`` is the first offending step index, or ``len(plan)`` when
    all steps applied but the goal is unmet. A step that is no action of the
    grounding fails with the reason :meth:`Grounding.op_id` gives. The plan
    is numbered up to such a step and walked by :meth:`Grounding.run`; the
    reached state is named once, for the result.

    The steps run under the model of ``grounding``, which must be a grounding
    of the problem's objects; by default it is the problem's own,
    ``Grounding.for_problem(problem)``, whose construction raises
    :class:`StripsError` where the problem cannot be grounded. A caller that
    runs several plans on one problem builds it once and passes it to every
    call.
    """
    grounding = grounding or Grounding.for_problem(problem)
    ids: list[int] = []
    reason = None
    for action in plan:
        try:
            ids.append(grounding.op_id(action))
        except StripsError as err:
            reason = str(err)  # the first step that is no action
            break
    state, applied = grounding.run(ids, grounding.encode(problem.init))
    if applied < len(ids):
        missing = min(grounding.decode(grounding.ops_ids[ids[applied]][0] - state))
        reason = f"unsatisfied precondition {missing.pddl()} for {plan[applied].pddl()}"
    elif reason is None:
        unmet = grounding.encode(problem.goal) - state
        if not unmet:
            return ExecutionResult(True, grounding.decode(state))
        reason = f"goal atom {min(grounding.decode(unmet)).pddl()} not achieved"
    return ExecutionResult(False, grounding.decode(state), applied, reason)
