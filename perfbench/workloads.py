"""The three workloads: inputs generated from the seed, a set-up, and a closed loop.

Each workload is one caller that waits for every call before making the next.
Inputs come only from the seed, and the program sees only the generated
problems, models and case libraries. Calls go through module attributes
(``caseplan.solve_with_library``, ...) so that a traced run can wrap them.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import replace
from importlib.resources import files
from time import perf_counter

import caseplan
from caseplan import Atom, DegradeSpec, ExperimentSpec, SearchConfig
from caseplan.generators import random_walk_problem

evaluate = importlib.import_module("caseplan.evaluate")


def read_domain(name: str):
    return caseplan.parse_domain((files("caseplan") / "domains" / f"{name}.pddl").read_text())


def derived_seed(seed: int, *labels) -> int:
    """A 32-bit seed for one named input stream of a run."""
    return random.Random(":".join(map(str, (seed,) + labels))).getrandbits(32)


RING = 6
DRIVERS = ("d1", "d2")
TRUCKS = ("t1", "t2")
PACKAGES = ("p1", "p2", "p3")


def driverlog_problem(domain, rng: random.Random, name: str):
    """A ring of locations with links and paths both ways; goals from a random walk."""
    locations = [f"l{i}" for i in range(RING)]
    objects = {loc: "location" for loc in locations}
    init = set()
    for i, here in enumerate(locations):
        there = locations[(i + 1) % RING]
        for pred in ("link", "path"):
            init |= {Atom(pred, (here, there)), Atom(pred, (there, here))}
    for kind, names in (("driver", DRIVERS), ("truck", TRUCKS), ("obj", PACKAGES)):
        for obj in names:
            objects[obj] = kind
            init.add(Atom("at", (obj, rng.choice(locations))))
    init |= {Atom("empty", (truck,)) for truck in TRUCKS}
    return random_walk_problem(domain, objects, frozenset(init), rng,
                               goal_predicates=frozenset({"at"}), name=name)


class Workload:
    """Set-up builds ``self.inputs``; ``measure`` runs calls until the deadline.

    ``start`` numbers the calls of a run, so a later measuring slice in the
    same process continues the stream with fresh inputs instead of repeating
    it. A run goes on past its time until the digest prefix is complete.
    """

    name = ""
    digest_prefix = 0

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.inputs = None
        self.library_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def generate_library(self, *args, **kwargs):
        start = perf_counter()
        library = caseplan.generate_case_library(*args, **kwargs)
        self.library_s = perf_counter() - start
        return library

    def measure(self, seconds: float, tally, start: int) -> int:
        """Run calls numbered from ``start`` for ``seconds``; return the next number."""
        raise NotImplementedError

    def heuristic_problems(self):
        """Problems under the complete model whose initial states the h_add micro run uses."""
        raise NotImplementedError


class SweepBlocks(Workload):
    """``run_experiment`` over the paper's grid, one fresh problem per call.

    One problem per call keeps each call about a second long, so a run holds
    enough calls for latency percentiles; the grid's reuse of (problem, case)
    pairs, which spans one problem's cells, is the same as in a larger sweep.
    """

    name = "sweep-blocks"
    search = SearchConfig(max_expansions=4000)
    # At the default 20,000 nodes a few problems exhaust the assembly budget
    # at delta 5 and one solve takes up to 25 s in trim, more than a run can
    # average out. Over 80 problems, budgets of 500 and 20,000 gave the same
    # verdict on every row, and the fragments route in 173 and 176 rows.
    assembly_budget = 500

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.library_size = 10 if smoke else 200
        self.case_counts = (2, 10) if smoke else (40, 200)
        self.digest_prefix = 12 if smoke else 48  # the grids of the first calls

    def problems(self, domain, k):
        return caseplan.make_problem_suite(domain, 1, derived_seed(self.seed, "sweep", k),
                                           n_blocks=4)

    def setup(self):
        domain = read_domain("blocks")
        library = self.generate_library(domain, self.library_size,
                                        derived_seed(self.seed, "library"),
                                        n_blocks=4, config=self.search)
        self.inputs = (domain, library, self.problems(domain, 0))

    def measure(self, seconds, tally, start):
        domain, library, first = self.inputs
        deadline = perf_counter() + seconds
        k = start
        while k == start or perf_counter() < deadline or tally.attempted < tally.digest_prefix:
            problems = first if k == 0 else self.problems(domain, k)
            spec = ExperimentSpec(
                domain=domain, problems=problems, case_counts=self.case_counts,
                completeness_levels=(0.2, 0.6, 1.0), deltas=(5, 15),
                seeds=(derived_seed(self.seed, "degrade", k),), search=self.search,
                cases=library, assembly_budget=self.assembly_budget)
            rows = len(spec.case_counts) * len(spec.completeness_levels) \
                * len(spec.deltas) * len(problems)
            began = perf_counter()
            try:
                _, details = caseplan.run_experiment(spec)
            except Exception as err:  # counted as failed solves; the run goes on
                tally.error(f"sweep{k}", rows, err)
                k += 1
                continue
            tally.timed(perf_counter() - began, len(details))
            if len(details) != rows:
                tally.error(f"sweep{k}", abs(rows - len(details)),
                            ValueError(f"{len(details)} rows, expected {rows}"))
            for d in details:
                row = d.row
                tally.solve(f"sweep{k}/{row.problem_id}/c{row.completeness}/d{row.delta}"
                            f"/n{row.num_cases}", d.problem, domain, d.plan, d.route,
                            row.solved)
            k += 1
        return k

    def heuristic_problems(self):
        domain = self.inputs[0]
        return [p for k in range(8) for p in self.problems(domain, k)]


class StreamWorkload(Workload):
    """One ``solve_with_library`` per distinct problem, cycling through completeness levels.

    Every problem gets its own degraded model, so one run averages over many
    models. Complete models are part of the cycle, which keeps ``accuracy``
    far from 0.
    """

    completeness = (0.6, 1.0)
    delta = 3
    windows = 1
    search: SearchConfig

    def cases(self, library, i):
        """Problem ``i`` is solved against one of ``windows`` equal slices of the library."""
        size = len(library) // self.windows
        k = i % self.windows
        return library[k * size:(k + 1) * size]

    def problem(self, domain, i):
        raise NotImplementedError

    def stream_item(self, domain, i):
        problem = self.problem(domain, i)
        spec = DegradeSpec(completeness=self.completeness[i % len(self.completeness)],
                           seed=derived_seed(self.seed, "degrade", i))
        return replace(problem, domain=caseplan.degrade(domain, spec))

    def measure(self, seconds, tally, start):
        domain, library, first = self.inputs
        deadline = perf_counter() + seconds
        i = start
        while i == start or perf_counter() < deadline or tally.attempted < tally.digest_prefix:
            problem = first[i] if i < len(first) else self.stream_item(domain, i)
            pid = f"{i}/{problem.name}/c{problem.domain.completeness}"
            began = perf_counter()
            try:
                outcome = caseplan.solve_with_library(problem, self.cases(library, i),
                                                      self.delta, config=self.search)
            except Exception as err:  # counted as a failed solve; the run goes on
                tally.error(pid, 1, err)
                i += 1
                continue
            tally.timed(perf_counter() - began, 1)
            solved = outcome.plan is not None and evaluate.check_solution(
                problem, outcome.plan, domain)
            tally.solve(pid, problem, domain, outcome.plan, outcome.route, solved)
            i += 1
        return i

    def heuristic_problems(self):
        domain, _, first = self.inputs
        return [replace(p, domain=domain) for p in first]


class StreamDriverlog(StreamWorkload):
    """Typed driverlog problems, each against a 12-case library: mapping with no reuse.

    What one best_mapping call costs depends much on the case, so a single
    12-case library made one seed's run up to 20% slower than another's. The
    problems take turns among four 12-case libraries to average that out.
    """

    name = "stream-driverlog"
    search = SearchConfig(max_expansions=200)
    windows = 4

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.library_size = 2 if smoke else 12
        self.first_batch = 4 if smoke else 16
        self.digest_prefix = 4 if smoke else 20

    def problem(self, domain, i):
        rng = random.Random(derived_seed(self.seed, "driverlog", i))
        return driverlog_problem(domain, rng, f"driverlog-{i}")

    def setup(self):
        domain = read_domain("driverlog")
        rng = random.Random(derived_seed(self.seed, "library"))
        count = self.windows * self.library_size
        sources = [driverlog_problem(domain, rng, f"case-src-{j}") for j in range(2 * count)]
        library = self.generate_library(domain, count, 0, config=self.search,
                                        problems=sources)
        self.inputs = (domain, library,
                       [self.stream_item(domain, i) for i in range(self.first_batch)])


class NolibBlocks(StreamWorkload):
    """``solve_with_library`` with an empty library: per-goal search and fallbacks only.

    Solves at completeness 0.6 mostly fail within milliseconds, and complete
    ones take tens. Two complete problems for each degraded one keep the
    median inside the complete mode instead of in the gap between the two.

    Problems have 6 blocks. On 8 blocks, a few degraded models per run made
    one solve take 1 to 2.5 s, and complete solves split evenly between the
    skeletal route (about 15 ms) and the search fallback (about 90 ms), so
    the median fell in the gap. The mean number of ``_h_add`` calls per
    solve then ranged from 173 to 238 across six seeds. On 6 blocks no solve
    in 1,500 took over 0.11 s, and the mean, median and p90 per seed stayed
    within 6% of each other.
    """

    name = "nolib-blocks"
    search = SearchConfig(max_expansions=300)
    completeness = (0.6, 1.0, 1.0)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.n_blocks = 4 if smoke else 6
        self.first_batch = 4 if smoke else 64
        self.digest_prefix = 4 if smoke else 100

    def problem(self, domain, i):
        (problem,) = caseplan.make_problem_suite(
            domain, 1, derived_seed(self.seed, "nolib", i), n_blocks=self.n_blocks)
        return replace(problem, name=f"nolib-{i}")

    def setup(self):
        domain = read_domain("blocks")
        library = self.generate_library(domain, 0, 0)
        self.inputs = (domain, library,
                       [self.stream_item(domain, i) for i in range(self.first_batch)])


WORKLOADS = {w.name: w for w in (SweepBlocks, StreamDriverlog, NolibBlocks)}
