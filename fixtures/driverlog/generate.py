"""Write the driverlog mapping fixture: one typed problem and three cases.

    PYTHONPATH=src python3 fixtures/driverlog/generate.py

The problem and the cases' source problems are random walks from a ring of
six locations with two drivers, two trucks and three packages, over the
vendored driverlog domain; the cases are solved by ``generate_case_library``.
Everything comes from fixed seeds, so a rerun writes the same bytes.
"""

from __future__ import annotations

import random
from importlib.resources import files
from pathlib import Path

from caseplan import Atom, SearchConfig, generate_case_library, parse_domain
from caseplan.cases import write_case_library
from caseplan.generators import random_walk_problem
from caseplan.pddl import problem_to_pddl

HERE = Path(__file__).resolve().parent
RING = 6
SEED = 14


def driverlog_problem(domain, rng: random.Random, name: str):
    locations = [f"l{i}" for i in range(RING)]
    objects = {loc: "location" for loc in locations}
    init = set()
    for i, here in enumerate(locations):
        there = locations[(i + 1) % RING]
        for pred in ("link", "path"):
            init |= {Atom(pred, (here, there)), Atom(pred, (there, here))}
    for kind, names in (("driver", ("d1", "d2")), ("truck", ("t1", "t2")),
                        ("obj", ("p1", "p2", "p3"))):
        for obj in names:
            objects[obj] = kind
            init.add(Atom("at", (obj, rng.choice(locations))))
    init |= {Atom("empty", (truck,)) for truck in ("t1", "t2")}
    return random_walk_problem(domain, objects, frozenset(init), rng,
                               goal_predicates=frozenset({"at"}), name=name)


def main() -> None:
    domain = parse_domain((files("caseplan") / "domains" / "driverlog.pddl").read_text())
    rng = random.Random(SEED)
    problem = driverlog_problem(domain, rng, "driverlog-fixture")
    sources = [driverlog_problem(domain, rng, f"case-src-{j}") for j in range(6)]
    cases = generate_case_library(domain, 3, SEED, config=SearchConfig(max_expansions=200),
                                  problems=sources)
    (HERE / "problem.pddl").write_text(problem_to_pddl(problem))
    write_case_library(HERE / "cases", cases)


if __name__ == "__main__":
    main()
