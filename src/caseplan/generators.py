"""Random problem and case-library generation for benchmarks."""

from __future__ import annotations

import random

from .cases import CaseFile
from .search import SearchConfig, solve
from .strips import Atom, DomainModel, PlanningProblem, State


def random_blocks_state(blocks: list[str], rng: random.Random) -> State:
    """A uniform-ish random legal blocks configuration with the hand empty."""
    stacks: list[list[str]] = []
    for block in rng.sample(blocks, len(blocks)):
        where = rng.randrange(len(stacks) + 1)
        if where == len(stacks):
            stacks.append([block])
        else:
            stacks[where].append(block)
    atoms = {Atom("handempty")}
    for stack in stacks:
        atoms.add(Atom("ontable", (stack[0],)))
        atoms.add(Atom("clear", (stack[-1],)))
        for below, above in zip(stack, stack[1:]):
            atoms.add(Atom("on", (above, below)))
    return frozenset(atoms)


def random_tower_goal(blocks: list[str], rng: random.Random) -> frozenset[Atom]:
    """Stacking goals over a random subset of blocks; always at least one tower."""
    k = rng.randint(2, len(blocks))
    chosen = rng.sample(sorted(blocks), k)
    while True:
        config = random_blocks_state(chosen, rng)
        goal = frozenset(a for a in config if a.predicate == "on")
        if goal:
            return goal


# the predicates random_blocks_state writes, with their arities
_BLOCKS_PREDICATES = (("on", 2), ("ontable", 1), ("clear", 1), ("handempty", 0))


def random_blocks_problem(domain: DomainModel, n_blocks: int, rng: random.Random,
                          name: str = "random-blocks") -> PlanningProblem:
    """A random solvable blocks instance whose goal does not already hold."""
    if n_blocks < 2:
        raise ValueError(f"n_blocks must be at least 2 to stack a tower, got {n_blocks}")
    if any(domain.predicates.get(p) != ("object",) * n for p, n in _BLOCKS_PREDICATES):
        raise ValueError(f"domain {domain.name} has no problem generator (it lacks the untyped "
                         "blocks predicates on, ontable, clear and handempty); give its "
                         "problems with --problems, and an experiment its cases with --cases")
    blocks = [f"b{i + 1}" for i in range(n_blocks)]
    objects = {b: "object" for b in blocks}
    while True:
        init = random_blocks_state(blocks, rng)
        goal = random_tower_goal(blocks, rng)
        if not goal <= init:
            return PlanningProblem(name=name, domain=domain, objects=objects,
                                   init=init, goal=goal)


def random_walk_problem(domain: DomainModel, objects: dict[str, str], init: State,
                        rng: random.Random, *, walk_length: int = 20,
                        goal_predicates: frozenset[str] | None = None,
                        goal_size: int = 3,
                        name: str = "random-walk") -> PlanningProblem:
    """Generic generator: random-walk from a valid state, goal from the end state.

    Works for any domain given one valid initial state. The goal is a sample
    of atoms the walk actually produced (restricted to ``goal_predicates``
    when given, and preferring atoms that do not hold initially), so the walk
    itself witnesses solvability.
    """
    grounding = domain.grounding(objects)
    state_ids = grounding.encode(init)
    for _ in range(walk_length):
        successors = list(grounding.successors(state_ids))
        if not successors:
            break
        _, state_ids = rng.choice(successors)
    final = grounding.decode(state_ids)
    pool = sorted(a for a in final
                  if goal_predicates is None or a.predicate in goal_predicates)
    fresh = [a for a in pool if a not in init]
    chosen = fresh if fresh else pool
    goal = frozenset(rng.sample(chosen, min(goal_size, len(chosen))))
    return PlanningProblem(name=name, domain=domain, objects=objects,
                           init=init, goal=goal)


def generate_case_library(domain: DomainModel, count: int, seed: int, *,
                          n_blocks: int = 5,
                          config: SearchConfig | None = None,
                          problems: list[PlanningProblem] | None = None
                          ) -> list[tuple[str, CaseFile]]:
    """Solve random (or given) problems with the complete model and record cases.

    Every case is self-validated by construction: the solver re-executes its
    plan before returning it. Problems the solver cannot crack within budget
    are skipped; generation keeps drawing until ``count`` cases exist or the
    attempt budget runs dry, so the library can come up short.
    """
    if count < 0:
        raise ValueError(f"case count must be >= 0, got {count}")
    config = config or SearchConfig()
    rng = random.Random(seed)
    cases: list[tuple[str, CaseFile]] = []
    supplied = list(problems) if problems is not None else None
    attempts = 0
    max_attempts = max(count * 5, 10)
    while len(cases) < count and attempts < max_attempts:
        attempts += 1
        if supplied is not None:
            if not supplied:
                break
            problem = supplied.pop(0)
        else:
            problem = random_blocks_problem(domain, n_blocks, rng,
                                            name=f"case-src-{attempts}")
        result = solve(problem, config)
        if not result.solved or not result.plan:
            continue
        case = CaseFile(init=problem.init, goal=problem.goal, plan=result.plan)
        cases.append((f"case_{len(cases):04d}", case))
    return cases
