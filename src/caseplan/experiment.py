"""Benchmark sweeps: degrade the model, solve with the library, score, emit CSV."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from .cases import CaseFile, ExperimentRow
from .degrade import DegradeSpec, degrade
from .evaluate import check_solution
from .generators import generate_case_library, random_blocks_problem
from .pipeline import solve_with_library
from .search import SearchConfig
from .strips import DomainModel, Plan, PlanningProblem

DEFAULT_CASE_COUNTS = (40, 80, 120, 160, 200)
DEFAULT_COMPLETENESS = (0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_DELTAS = (5, 15, 25)


@dataclass
class ExperimentSpec:
    """The full sweep grid; every (seed, cases, completeness, delta, problem)
    combination yields one CSV row."""

    domain: DomainModel  # the complete model; degraded copies are derived per seed
    problems: list[PlanningProblem]
    case_counts: tuple[int, ...] = DEFAULT_CASE_COUNTS
    completeness_levels: tuple[float, ...] = DEFAULT_COMPLETENESS
    deltas: tuple[int, ...] = DEFAULT_DELTAS
    seeds: tuple[int, ...] = (1,)
    search: SearchConfig = field(default_factory=SearchConfig)
    cases: list[tuple[str, CaseFile]] | None = None  # fixed library; else generated
    case_blocks: int = 5
    assembly_budget: int = 20_000
    timing: bool = True

    def __post_init__(self) -> None:
        if not self.problems:
            raise ValueError("experiment needs at least one problem")
        for group, values in (("case_counts", self.case_counts),
                              ("completeness_levels", self.completeness_levels),
                              ("deltas", self.deltas), ("seeds", self.seeds)):
            if not values:
                raise ValueError(f"{group} must be nonempty")
        if min(self.case_counts) < 0:
            raise ValueError(f"case count {min(self.case_counts)} must be >= 0")


@dataclass(frozen=True)
class RunDetail:
    """Everything needed to re-validate one row after the fact."""

    row: ExperimentRow
    problem: PlanningProblem  # carries the degraded model the run used
    plan: Plan | None
    route: str | None


def run_experiment(spec: ExperimentSpec) -> tuple[list[ExperimentRow], list[RunDetail]]:
    """Execute the sweep. Deterministic for fixed seeds (timing aside).

    A row is marked solved only when the produced plan re-executes to the
    goal under the complete model. cpu_millis is the wall-clock ms of the solve
    call alone (no parsing, no validation); with ``timing=False`` it is
    written as 0 so reruns are byte-identical.
    """
    rows: list[ExperimentRow] = []
    details: list[RunDetail] = []

    for seed in spec.seeds:
        if spec.cases is not None:
            library = spec.cases
        else:
            library = generate_case_library(
                spec.domain, max(spec.case_counts), seed,
                n_blocks=spec.case_blocks, config=spec.search)
        if max(spec.case_counts) > len(library):
            raise ValueError(f"case count {max(spec.case_counts)} exceeds the library "
                             f"of {len(library)} cases")
        for completeness in spec.completeness_levels:
            model = degrade(spec.domain, DegradeSpec(completeness=completeness, seed=seed))
            for num_cases in spec.case_counts:
                subset = library[:num_cases]
                for delta in spec.deltas:
                    for p_idx, problem in enumerate(spec.problems):
                        degraded_problem = replace(problem, domain=model)
                        start = time.perf_counter()
                        outcome = solve_with_library(
                            degraded_problem, subset, delta,
                            config=spec.search,
                            assembly_budget=spec.assembly_budget)
                        elapsed = int((time.perf_counter() - start) * 1000)
                        solved = outcome.plan is not None and check_solution(
                            degraded_problem, outcome.plan, spec.domain)
                        row = ExperimentRow(
                            domain=spec.domain.name,
                            num_cases=num_cases,
                            completeness=completeness,
                            delta=delta,
                            problem_id=f"seed{seed}-p{p_idx:03d}",
                            solved=solved,
                            plan_length=len(outcome.plan) if outcome.plan else 0,
                            cpu_millis=elapsed if spec.timing else 0)
                        rows.append(row)
                        details.append(RunDetail(row=row, problem=degraded_problem,
                                                 plan=outcome.plan, route=outcome.route))
    rows.sort(key=ExperimentRow.sort_key)
    return rows, details


def accuracy_of(rows: list[ExperimentRow], **filters) -> float:
    """Fraction solved among rows matching the given attribute filters."""
    hit = [r for r in rows
           if all(getattr(r, k) == v for k, v in filters.items())]
    if not hit:
        raise ValueError(f"no rows match {filters}")
    return sum(r.solved for r in hit) / len(hit)


def make_problem_suite(domain: DomainModel, count: int, seed: int, *,
                       n_blocks: int = 5) -> list[PlanningProblem]:
    """Random blocks test problems, distinct from any case-generation stream."""
    rng = random.Random(seed ^ 0x5EED)
    return [random_blocks_problem(domain, n_blocks, rng, name=f"p{i:03d}")
            for i in range(count)]
