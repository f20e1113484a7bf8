"""Benchmark sweeps: degrade the model, solve with the library, score, emit CSV."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from .cases import CaseFile, ExperimentRow
from .degrade import DegradeSpec, degrade
from .evaluate import check_solution
from .generators import generate_case_library, random_blocks_problem
from .mapping import CaseIndex, case_fragments, mapping_index
from .mining import SequenceDB, grow_frequent
from .pipeline import mine_fragments, skeleton, solve_with_library
from .search import SearchConfig
from .strips import DomainModel, Grounding, OpPlan, Plan, PlanningProblem

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
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{group} repeats the value {repeated[0]}")
        if min(self.case_counts) < 0:
            raise ValueError(f"case count {min(self.case_counts)} must be >= 0")
        if min(self.deltas) < 1:
            raise ValueError(f"delta {min(self.deltas)} must be >= 1")
        for level in self.completeness_levels:
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"completeness level {level} outside [0, 1]")


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
    goal under the complete model. Each stage of a solve is built once per
    key below, which names what it reads, and passed to the
    ``solve_with_library`` call of every row with that key:

    - per library case: its case index (``case.mapping_rows``), which
      compares without names, kept on the case;
    - per problem: its mapping index and the complete model's grounding;
    - per (problem, case index): the fragments of the first case with that
      index;
    - per (problem, model): the skeleton, its full-goal search included;
    - per (problem, seed, case count): the prefix's fragments and one growth
      pass over them at the grid's smallest delta (``grow_frequent``);
    - per (problem, seed, case count, delta): the patterns mined from the
      prefix, which filter that growth to the delta;
    - per row: assembly, inside the solve call.

    cpu_millis is the cost of a standalone solve: the wall-clock ms of the
    solve call (no parsing, no validation) plus the time of every stage it
    used, each timed once, when built: the row's skeleton (its full-goal
    search included) and, where the skeleton has causal pairs, its mining and
    the ``case_fragments`` call of each distinct case index in its prefix,
    timed once, as a standalone ``build_fragments`` of the prefix reuses it.
    Its mining is the prefix's growth pass, charged in full to each row of the
    prefix, plus the row's own filter at its delta. A nonempty prefix is also
    charged the problem's index. A row whose skeleton has no pairs is charged
    neither: a standalone solve with no pairs maps and mines nothing. The
    sweep maps every case index, since one build serves every model and a cut
    depends on the model's pairs, and it charges each row with pairs the
    fragments of its whole prefix; a standalone solve stops mapping once a
    pair end can no longer be frequent, so it may pay for fewer cases. With
    ``timing=False`` it is written as 0 so reruns are byte-identical.
    """
    max_cases = max(spec.case_counts)
    # per seed: (the seed, its library, its degraded model per completeness)
    seeds = []
    for seed in spec.seeds:
        library = spec.cases if spec.cases is not None else generate_case_library(
            spec.domain, max_cases, seed, n_blocks=spec.case_blocks, config=spec.search)
        if max_cases > len(library):
            raise ValueError(f"case count {max_cases} exceeds the library of {len(library)} cases")
        seeds.append((seed, library, [degrade(spec.domain, DegradeSpec(level, seed))
                                      for level in spec.completeness_levels]))
    # by grid position: (seed, completeness, case count, delta, problem)
    cells: dict[tuple[int, int, int, int, int], RunDetail] = {}
    for p_idx, problem in enumerate(spec.problems):
        index, index_s = _timed(mapping_index, problem)
        # the complete model's grounding, on which the problem's plans are validated
        complete = Grounding(spec.domain, problem.objects)
        # per case index, for every seed: (the fragments of its first case, build seconds)
        built: dict[CaseIndex, tuple[list[OpPlan], float]] = {}
        # per model, for every seed: (the problem under it, its skeleton, build seconds)
        under = {model: replace(problem, domain=model) for *_, models in seeds for model in models}
        staged = {model: (p, *_timed(skeleton, p, spec.search)) for model, p in under.items()}
        for s_idx, (seed, library, models) in enumerate(seeds):
            keys = [case.mapping_rows for _, case in library[:max_cases]]
            for key, (_, case) in zip(keys, library):
                if key not in built:
                    built[key] = _timed(case_fragments, case, problem, index)
            skeletons = [staged[model] for model in models]
            for n_idx, num_cases in enumerate(spec.case_counts):
                fragments = tuple(f for key in keys[:num_cases] for f in built[key][0])
                prefix_s = sum(built[key][1] for key in dict.fromkeys(keys[:num_cases])) \
                    + (index_s if num_cases else 0.0)
                # one growth pass at the smallest delta; each delta filters it
                grown, grown_s = _timed(grow_frequent, SequenceDB.from_sequences(fragments),
                                        min(spec.deltas))
                for d_idx, delta in enumerate(spec.deltas):
                    frequent, filter_s = _timed(mine_fragments, fragments, delta, grown=grown)
                    for c_idx, (degraded, skeletal, skeleton_s) in enumerate(skeletons):
                        outcome, elapsed = _timed(
                            solve_with_library, degraded, library[:num_cases], delta,
                            config=spec.search, assembly_budget=spec.assembly_budget,
                            fragments=fragments, skeletal=skeletal, frequent=frequent)
                        elapsed += skeleton_s
                        if skeletal.pairs:
                            elapsed += prefix_s + grown_s + filter_s
                        cells[s_idx, c_idx, n_idx, d_idx, p_idx] = RunDetail(ExperimentRow(
                            domain=spec.domain.name,
                            num_cases=num_cases,
                            completeness=spec.completeness_levels[c_idx],
                            delta=delta,
                            problem_id=f"seed{seed}-p{p_idx:03d}",
                            solved=outcome.plan is not None and check_solution(
                                degraded, outcome.plan, spec.domain, grounding=complete),
                            plan_length=len(outcome.plan) if outcome.plan else 0,
                            cpu_millis=int(elapsed * 1000) if spec.timing else 0),
                            degraded, outcome.plan, outcome.route)
    details = [cells[position] for position in sorted(cells)]
    return sorted((detail.row for detail in details), key=ExperimentRow.sort_key), details


def _timed(fn, *args, **kwargs):
    """``fn``'s result and the wall-clock seconds the call took."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


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
