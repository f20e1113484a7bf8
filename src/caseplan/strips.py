"""Ground STRIPS semantics: atoms, states, action schemas, grounding, execution."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, TypeAlias


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

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.params)

    def atom_count(self) -> int:
        return len(self.pre) + len(self.add) + len(self.delete)


def is_subtype(types: dict[str, str | None], t: str, ancestor: str) -> bool:
    """True when ``t`` equals ``ancestor`` or is below it in the hierarchy."""
    cur: str | None = t
    seen = set()
    while cur is not None and cur not in seen:
        if cur == ancestor:
            return True
        seen.add(cur)
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
    types: dict[str, str | None]  # type name -> parent (None for the root)
    predicates: dict[str, tuple[str, ...]]  # predicate -> parameter types
    schemas: dict[str, ActionSchema]
    completeness: float = 1.0

    def __post_init__(self) -> None:
        if "object" not in self.types:
            object.__setattr__(self, "types", {**self.types, "object": None})
        for t, parent in self.types.items():
            if parent is not None and parent not in self.types:
                raise StripsError(f"type {t} has undeclared parent {parent}")
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

    def atom_count(self) -> int:
        return sum(s.atom_count() for s in self.schemas.values())


def _check_ground_atoms(atoms: Iterable[Atom], domain: DomainModel,
                        objects: dict[str, str], where: str) -> None:
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
    objects: dict[str, str]
    init: State
    goal: frozenset[Atom]

    def __post_init__(self) -> None:
        for obj, t in self.objects.items():
            if t not in self.domain.types:
                raise StripsError(f"object {obj} has undeclared type {t}")
        _check_ground_atoms(self.init, self.domain, self.objects, "init")
        _check_ground_atoms(self.goal, self.domain, self.objects, "goal")


class GroundedAction(NamedTuple):
    """A ground action together with its instantiated condition and effect sets."""

    action: GroundAction
    pre: frozenset[Atom]
    add: frozenset[Atom]
    delete: frozenset[Atom]


def grounded(model: DomainModel, action: GroundAction) -> GroundedAction:
    """Instantiate the schema named by a ground action."""
    schema = model.schemas.get(action.name)
    if schema is None:
        raise StripsError(f"unknown action schema: {action.name}")
    if len(action.args) != len(schema.params):
        raise StripsError(f"action {action.pddl()}: expected {len(schema.params)} arguments, "
                          f"got {len(action.args)}")
    binding = {var: obj for (var, _), obj in zip(schema.params, action.args)}

    def ground(atoms: frozenset[Atom]) -> frozenset[Atom]:
        return frozenset([Atom(a.predicate, tuple([binding[x] for x in a.args])) for a in atoms])

    return GroundedAction(action, ground(schema.pre), ground(schema.add), ground(schema.delete))


def applicable(state: State, action: GroundAction, model: DomainModel) -> bool:
    """True iff the action's instantiated precondition holds in the state."""
    return grounded(model, action).pre <= state


def apply_action(state: State, action: GroundAction, model: DomainModel) -> State:
    """Apply one action: remove its delete list, then add its add list."""
    ga = grounded(model, action)
    if not ga.pre <= state:
        missing = sorted(ga.pre - state)
        raise StripsError(f"action {action.pddl()} is not applicable: "
                          f"missing {missing[0].pddl()}")
    return (state - ga.delete) | ga.add


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of running a plan: the reached state, and where it broke if it did."""

    success: bool
    state: State
    failed_step: int | None = None
    reason: str | None = None


def execute_plan(problem: PlanningProblem, plan: Plan) -> ExecutionResult:
    """Run a plan from the initial state.

    Succeeds iff every step is applicable in sequence and the goal holds in
    the final state. Failures are reported as a value, never raised:
    ``failed_step`` is the offending step index, or ``len(plan)`` when all
    steps applied but the goal is unmet.
    """
    state = problem.init
    for i, action in enumerate(plan):
        try:
            ga = grounded(problem.domain, action)
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


class Grounding:
    """All well-typed ground atoms and actions over a (domain, objects) pair.

    Also carries an integer encoding of the atom universe so search code can
    work on frozensets of ints. Immutable after construction; safe to share
    across the per-goal solver calls of one problem.
    """

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
            grounded(domain, GroundAction(name, combo)) for name in sorted(domain.schemas)
            for combo in itertools.product(*(by_type[t] for _, t in domain.schemas[name].params)))

        # (pre, add, delete) atom ids of each ground action, aligned with ``actions``
        self.ops_ids: tuple[tuple[frozenset[int], frozenset[int], frozenset[int]], ...] = tuple(
            (self.encode(ga.pre), self.encode(ga.add), self.encode(ga.delete))
            for ga in self.actions)

    @classmethod
    def for_problem(cls, problem: PlanningProblem) -> "Grounding":
        return cls(problem.domain, problem.objects)

    def encode(self, atoms: Iterable[Atom]) -> frozenset[int]:
        try:
            return frozenset(self.atom_index[a] for a in atoms)
        except KeyError as err:
            raise StripsError(f"atom {err.args[0]} is outside the ground atom universe") from None
