"""Shared fixtures: a hand-built blocks world, the tower problem, and its cases.

Everything here is constructed in Python, independently of the PDDL parser,
so parser tests can compare against it and semantic tests do not depend on
file I/O.
"""

from __future__ import annotations

import functools
import random
from importlib import resources
from pathlib import Path

import pytest

import caseplan.mapping
from caseplan import (
    ActionSchema,
    Atom,
    CaseFile,
    CausalPair,
    DomainModel,
    GroundAction,
    Grounding,
    PlanningProblem,
    SearchConfig,
    generate_case_library,
    parse_domain,
    random_blocks_problem,
)
from caseplan.generators import random_walk_problem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "blocks"


def A(text: str) -> Atom:
    parts = text.split()
    return Atom(parts[0], tuple(parts[1:]))


def GA(text: str) -> GroundAction:
    parts = text.split()
    return GroundAction(parts[0], tuple(parts[1:]))


def atoms(*texts: str) -> frozenset[Atom]:
    return frozenset(A(t) for t in texts)


def plan(text: str) -> tuple[GroundAction, ...]:
    return tuple(GA(step) for step in text.split(","))


# Inside a solve, plans, fragments, patterns and causal pairs are op ids of the
# problem; tests name them, and number named actions, through its grounding.

def op_ids(problem: PlanningProblem, plan) -> tuple[int, ...]:
    """The op ids of named actions on the problem; an action that is no op of
    it raises StripsError with the reason ``Grounding.op_id`` gives."""
    return tuple(map(Grounding.for_problem(problem).op_id, plan))


def named(problem: PlanningProblem, ops):
    """The named actions of op ids on the problem, a tuple like ``ops``
    (None stays None)."""
    return None if ops is None else tuple(map(Grounding.for_problem(problem).action, ops))


def pair_ids(problem: PlanningProblem, pairs) -> frozenset[CausalPair]:
    """Causal pairs of named actions as pairs of op ids."""
    op_id = Grounding.for_problem(problem).op_id
    return frozenset(CausalPair(op_id(provider), op_id(consumer)) for provider, consumer in pairs)


def named_pairs(problem: PlanningProblem, pairs) -> frozenset[CausalPair]:
    """Causal pairs of op ids as pairs of named actions."""
    action = Grounding.for_problem(problem).action
    return frozenset(CausalPair(action(provider), action(consumer))
                     for provider, consumer in pairs)


BLOCKS_PREDICATES = {
    "on": ("object", "object"),
    "ontable": ("object",),
    "clear": ("object",),
    "handempty": (),
    "holding": ("object",),
}


def make_blocks_domain() -> DomainModel:
    x = ("?x", "object")
    y = ("?y", "object")
    schemas = {
        "pickup": ActionSchema(
            "pickup", (x,),
            pre=frozenset({A("clear ?x"), A("ontable ?x"), A("handempty")}),
            add=frozenset({A("holding ?x")}),
            delete=frozenset({A("ontable ?x"), A("clear ?x"), A("handempty")})),
        "putdown": ActionSchema(
            "putdown", (x,),
            pre=frozenset({A("holding ?x")}),
            add=frozenset({A("ontable ?x"), A("clear ?x"), A("handempty")}),
            delete=frozenset({A("holding ?x")})),
        "stack": ActionSchema(
            "stack", (x, y),
            pre=frozenset({A("holding ?x"), A("clear ?y")}),
            add=frozenset({A("on ?x ?y"), A("clear ?x"), A("handempty")}),
            delete=frozenset({A("holding ?x"), A("clear ?y")})),
        "unstack": ActionSchema(
            "unstack", (x, y),
            pre=frozenset({A("on ?x ?y"), A("clear ?x"), A("handempty")}),
            add=frozenset({A("holding ?x"), A("clear ?y")}),
            delete=frozenset({A("on ?x ?y"), A("clear ?x"), A("handempty")})),
    }
    return DomainModel(name="blocks", types={"object": None},
                       predicates=dict(BLOCKS_PREDICATES), schemas=schemas)


def make_incomplete_blocks() -> DomainModel:
    """The degraded variant used by the golden walkthrough: pickup lost its
    (handempty) precondition, stack lost (clear ?y) from precondition and
    delete list, unstack no longer deletes (handempty)."""
    complete = make_blocks_domain()
    schemas = dict(complete.schemas)
    pickup = schemas["pickup"]
    schemas["pickup"] = ActionSchema(
        "pickup", pickup.params,
        pre=pickup.pre - {A("handempty")}, add=pickup.add, delete=pickup.delete)
    stack = schemas["stack"]
    schemas["stack"] = ActionSchema(
        "stack", stack.params,
        pre=stack.pre - {A("clear ?y")}, add=stack.add,
        delete=stack.delete - {A("clear ?y")})
    unstack = schemas["unstack"]
    schemas["unstack"] = ActionSchema(
        "unstack", unstack.params,
        pre=unstack.pre, add=unstack.add, delete=unstack.delete - {A("handempty")})
    return DomainModel(name="blocks", types={"object": None},
                       predicates=dict(BLOCKS_PREDICATES), schemas=schemas)


TOWER_INIT = atoms("clear b", "clear c", "clear d", "handempty",
                   "on c a", "ontable a", "ontable b", "ontable d")
TOWER_GOAL = atoms("on b a", "on c b", "on d c")

GOLDEN_SOLUTION = plan("unstack c a,putdown c,pickup b,stack b a,"
                       "pickup c,stack c b,pickup d,stack d c")

P1_FRAGMENT = plan("pickup b,stack b a,pickup c,stack c b,pickup d,stack d c")
P2_FRAGMENT = plan("unstack b c,putdown b,unstack c a,putdown c,"
                   "pickup b,stack b a,pickup c,stack c b")


def make_tower_problem(domain: DomainModel) -> PlanningProblem:
    objects = {o: "object" for o in "abcd"}
    return PlanningProblem(name="tower", domain=domain, objects=objects,
                           init=TOWER_INIT, goal=TOWER_GOAL)


def make_p1() -> CaseFile:
    return CaseFile(
        init=atoms("clear b1", "clear b2", "clear b3", "clear b4", "handempty",
                   "ontable b1", "ontable b2", "ontable b3", "ontable b4"),
        goal=atoms("on b1 b3", "on b3 b2", "on b4 b1"),
        plan=plan("pickup b3,stack b3 b2,pickup b1,stack b1 b3,pickup b4,stack b4 b1"))


def make_p2() -> CaseFile:
    return CaseFile(
        init=atoms("clear b1", "handempty", "on b1 b3", "on b3 b2", "ontable b2"),
        goal=atoms("on b1 b2", "on b3 b1"),
        plan=plan("unstack b1 b3,putdown b1,unstack b3 b2,putdown b3,"
                  "pickup b1,stack b1 b2,pickup b3,stack b3 b1"))


def renamed_case(case: CaseFile, names: dict[str, str]) -> CaseFile:
    """The case with each object renamed by ``names``."""
    def move(item):
        return item._replace(args=tuple(names[a] for a in item.args))
    return CaseFile(frozenset(map(move, case.init)), frozenset(map(move, case.goal)),
                    tuple(map(move, case.plan)))


def wide_case_text(n: int) -> str:
    """A blocks case over ``n`` objects: one ``(clear oN)`` atom each, the
    goal ``(on o0 o1)`` and the plan ``(pickup o0)``."""
    init = " ".join(f"(clear o{i})" for i in range(n))
    return f"(:init {init})\n(:goal (on o0 o1))\n(:plan (pickup o0))\n"


@pytest.fixture(scope="session")
def blocks():
    return make_blocks_domain()


@pytest.fixture(scope="session")
def incomplete_blocks():
    return make_incomplete_blocks()


@pytest.fixture(scope="session")
def tower(blocks):
    return make_tower_problem(blocks)


@pytest.fixture(scope="session")
def tower_incomplete(incomplete_blocks):
    return make_tower_problem(incomplete_blocks)


@pytest.fixture(scope="session")
def p1():
    return make_p1()


@pytest.fixture(scope="session")
def p2():
    return make_p2()


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


# Valid typed starting states for random walks over the vendored driverlog and
# depots domains: the objects, the initial state, and the predicates that make
# sensible goals.

def driverlog_start(rng):
    locations = ["l0", "l1", "l2", "l3"]
    objects = {loc: "location" for loc in locations}
    init = set()
    for here, there in zip(locations, locations[1:] + locations[:1]):
        for pred in ("link", "path"):
            init |= {Atom(pred, (here, there)), Atom(pred, (there, here))}
    for kind, names in (("driver", ("d1",)), ("truck", ("t1",)), ("obj", ("p1", "p2"))):
        for obj in names:
            objects[obj] = kind
            init.add(Atom("at", (obj, rng.choice(locations))))
    init.add(Atom("empty", ("t1",)))
    return objects, frozenset(init), frozenset({"at"})


def depots_start(rng):
    places = {"depot0": "depot", "distributor0": "distributor"}
    objects = dict(places, truck0="truck")
    init = {Atom("at", ("truck0", rng.choice(sorted(places))))}
    tops = {}
    for i, place in enumerate(places):
        objects |= {f"hoist{i}": "hoist", f"pallet{i}": "pallet"}
        init |= {Atom("at", (f"hoist{i}", place)), Atom("available", (f"hoist{i}",)),
                 Atom("at", (f"pallet{i}", place))}
        tops[place] = f"pallet{i}"
    for j in range(3):
        place = rng.choice(sorted(places))
        objects[f"crate{j}"] = "crate"
        init |= {Atom("on", (f"crate{j}", tops[place])), Atom("at", (f"crate{j}", place))}
        tops[place] = f"crate{j}"
    init |= {Atom("clear", (top,)) for top in tops.values()}
    return objects, frozenset(init), frozenset({"on", "at"})


# Typed instances for property tests. A problem and its cases share one
# seeded stream; typed problems come from a random walk over a valid start.

SMALL_SEARCH = SearchConfig(max_expansions=300)


@functools.cache
def typed_instance(name: str, seed: int):
    """A vendored domain's complete model, one problem and a library of up to
    three cases solved under that model."""
    domain = parse_domain((resources.files("caseplan") / "domains" / f"{name}.pddl").read_text())
    rng = random.Random(seed)

    def draw(label):
        if name == "blocks":
            return random_blocks_problem(domain, 4, rng, name=label)
        start = driverlog_start if name == "driverlog" else depots_start
        objects, init, goal_predicates = start(rng)
        return random_walk_problem(domain, objects, init, rng, walk_length=40,
                                   goal_predicates=goal_predicates, name=label)

    problem = draw("target")
    cases = generate_case_library(domain, 3, seed, config=SMALL_SEARCH,
                                  problems=[draw(f"case{i}") for i in range(3)])
    return domain, problem, cases


def count_best_mapping_calls(monkeypatch) -> list:
    """Patch ``caseplan.mapping.best_mapping``, which ``build_fragments`` calls,
    to record the (case, problem) of every call; returns the record."""
    calls = []
    real = caseplan.mapping.best_mapping

    def counted(case, problem, **kwargs):
        calls.append((case, problem))
        return real(case, problem, **kwargs)

    monkeypatch.setattr(caseplan.mapping, "best_mapping", counted)
    return calls
