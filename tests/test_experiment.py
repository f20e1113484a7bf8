"""The sweep harness: row arithmetic, determinism, soundness, runtime shape."""

from __future__ import annotations

from dataclasses import replace

import pytest

import caseplan.experiment
import caseplan.mapping
import caseplan.pipeline
from caseplan import (
    DegradeSpec,
    ExperimentSpec,
    SearchConfig,
    degrade,
    generate_case_library,
    make_problem_suite,
    run_experiment,
)
from caseplan.cases import read_rows, write_rows
from caseplan.evaluate import check_solution
from caseplan.experiment import accuracy_of
from caseplan.strips import Grounding

from .conftest import SMALL_SEARCH, count_best_mapping_calls, renamed_case, typed_instance
from .oracles import run_experiment_per_cell


def small_spec(blocks, **overrides):
    defaults = dict(
        domain=blocks,
        problems=make_problem_suite(blocks, 4, 0, n_blocks=4),
        case_counts=(6, 12),
        completeness_levels=(0.6,),
        deltas=(2,),
        seeds=(1, 2),
        search=SearchConfig(max_expansions=3000),
        case_blocks=4,
        timing=False,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def test_negative_case_count_rejected(blocks):
    with pytest.raises(ValueError, match="case count -1"):
        small_spec(blocks, case_counts=(-1, 2))


@pytest.mark.parametrize("group, values", [
    ("case_counts", (2, 6, 2)),
    ("completeness_levels", (1.0, 1.0)),
    ("deltas", (2, 3, 3)),
    ("seeds", (1, 1)),
])
def test_repeated_grid_value_rejected(blocks, group, values):
    with pytest.raises(ValueError, match=f"{group} repeats the value {values[-1]}"):
        small_spec(blocks, **{group: values})


@pytest.mark.parametrize("fixed_library", [True, False])
def test_matches_per_cell_reference(blocks, tower, p1, p2, fixed_library):
    if fixed_library:
        spec = small_spec(blocks, cases=[("p1", p1), ("p2", p2)], case_counts=(2, 1),
                          problems=[tower] + make_problem_suite(blocks, 2, 0, n_blocks=4))
    else:
        spec = small_spec(blocks, case_counts=(10, 2), completeness_levels=(0.2, 1.0),
                          deltas=(1, 5), seeds=(1, 2))
    rows, details = run_experiment(spec)
    ref_rows, ref_details = run_experiment_per_cell(spec)
    assert rows == ref_rows
    assert [(d.row, d.plan, d.route) for d in details] == \
        [(d.row, d.plan, d.route) for d in ref_details]


@pytest.mark.parametrize("domain_name", ["blocks", "driverlog", "depots"])
def test_matches_per_cell_reference_reusing_every_level(blocks, domain_name):
    # a fixed library and a grid where every stage is reused: each skeleton by
    # every case count x 2 deltas, each mining by 3 models, and each case's
    # fragments by every cell whose prefix holds it; every grid has an empty
    # prefix. Blocks and driverlog reach the fragments, skeletal and no-plan
    # routes; depots, with two cases, the skeletal, search and no-plan routes
    if domain_name == "blocks":
        from caseplan import generate_case_library
        spec = small_spec(blocks, cases=generate_case_library(blocks, 8, 3, n_blocks=4),
                          problems=make_problem_suite(blocks, 2, 0, n_blocks=4),
                          case_counts=(8, 3, 0), completeness_levels=(0.2, 0.6, 1.0),
                          deltas=(1, 3))
    else:
        domain, problem, cases = typed_instance(domain_name, 0)
        spec = ExperimentSpec(domain=domain, problems=[problem], cases=cases,
                              case_counts=(3, 1, 0) if domain_name == "driverlog" else (2, 0),
                              completeness_levels=(0.4, 0.8, 1.0),
                              deltas=(1, 2), seeds=(1, 2), search=SMALL_SEARCH, timing=False)
    rows, details = run_experiment(spec)
    ref_rows, ref_details = run_experiment_per_cell(spec)
    assert rows == ref_rows
    assert [(d.row, d.plan, d.route) for d in details] == \
        [(d.row, d.plan, d.route) for d in ref_details]


def test_sweep_builds_each_problem_index_and_complete_grounding_once(blocks, p1, p2,
                                                                    monkeypatch):
    # the mapping index and the complete model's grounding depend on the
    # problem alone: 3 problems under 2 seeds and 2 models build each 3 times
    indexed, complete = [], []
    real_index = caseplan.mapping.mapping_index
    real_init = Grounding.__init__

    def counted_index(problem):
        indexed.append(problem.name)
        return real_index(problem)

    def counted_init(self, domain, objects):
        if domain is blocks:  # the complete model itself, not a degraded copy
            complete.append(objects)
        real_init(self, domain, objects)

    for module in (caseplan.mapping, caseplan.experiment):
        monkeypatch.setattr(module, "mapping_index", counted_index)
    monkeypatch.setattr(Grounding, "__init__", counted_init)
    spec = small_spec(blocks, cases=[("p1", p1), ("p2", p2)], case_counts=(2, 1),
                      completeness_levels=(0.6, 1.0), deltas=(1, 2), seeds=(1, 2),
                      problems=make_problem_suite(blocks, 3, 0, n_blocks=4))
    rows, _ = run_experiment(spec)
    assert len(rows) == 2 * 2 * 2 * 2 * 3
    assert sorted(indexed) == sorted(p.name for p in spec.problems)
    assert len(complete) == 3


def test_sweep_builds_each_skeletal_plan_once(blocks, monkeypatch):
    # the skeletal plan is part of the skeleton of (problem, model): 3
    # problems under 2 models make 12 rows over 2 deltas, and 6 trims
    calls = []
    real = caseplan.pipeline.trim

    def counted(plan, problem, **kwargs):
        calls.append((problem.name, problem.domain))
        return real(plan, problem, **kwargs)

    monkeypatch.setattr(caseplan.pipeline, "trim", counted)
    spec = small_spec(blocks, cases=[], case_counts=(0,), seeds=(1,),
                      problems=make_problem_suite(blocks, 3, 0, n_blocks=4),
                      completeness_levels=(0.4, 1.0), deltas=(1, 2))
    rows, _ = run_experiment(spec)
    assert len(rows) == 12
    assert len(calls) == len(set(calls)) == 6


def test_sweep_builds_one_skeleton_and_one_search_per_model(blocks, p1, p2, monkeypatch):
    # the skeleton, its full-goal search included, reads only the problem and
    # its model: over the whole sweep, one trim per distinct (problem, model),
    # so completeness 1.0, the same model under every seed, is shared across
    # seeds, and one full-goal search per such pair with no skeletal plan
    spec = small_spec(blocks, cases=[("p1", p1), ("p2", p2)], case_counts=(2, 1),
                      completeness_levels=(0.6, 1.0), deltas=(1, 2), seeds=(1, 2),
                      problems=make_problem_suite(blocks, 3, 0, n_blocks=4))
    pairs = {(problem.name, degrade(blocks, DegradeSpec(level, seed)))
             for problem in spec.problems for level in (0.6, 1.0) for seed in (1, 2)}
    assert len(pairs) == 3 * 3
    by_name = {problem.name: problem for problem in spec.problems}
    searched = {(name, model) for name, model in pairs if caseplan.pipeline.skeleton(
        replace(by_name[name], domain=model), spec.search).plan is None}
    assert 0 < len(searched) < len(pairs)
    trims, searches = [], []
    real_trim, real_solve = caseplan.pipeline.trim, caseplan.pipeline.solve

    def counted_trim(plan, problem, **kwargs):
        trims.append((problem.name, problem.domain))
        return real_trim(plan, problem, **kwargs)

    def counted_solve(problem, *args):
        searches.append((problem.name, problem.domain))
        return real_solve(problem, *args)

    monkeypatch.setattr(caseplan.pipeline, "trim", counted_trim)
    # the per-goal searches of single_goal_plans call caseplan.causal.solve
    monkeypatch.setattr(caseplan.pipeline, "solve", counted_solve)
    rows, _ = run_experiment(spec)
    assert len(rows) == 2 * 2 * 2 * 2 * 3
    assert len(trims) == len(set(trims)) and set(trims) == pairs
    assert len(searches) == len(set(searches)) and set(searches) == searched


def test_sweep_grows_each_prefix_once_in_any_grid_order(blocks, monkeypatch):
    # one growth pass per (problem, case count, seed), at the smallest delta
    # wherever it stands in the grid; every order of the grid gives the same rows
    thresholds = []
    real = caseplan.experiment.grow_frequent

    def counted(db, min_support):
        thresholds.append(min_support)
        return real(db, min_support)

    monkeypatch.setattr(caseplan.experiment, "grow_frequent", counted)
    spec = small_spec(blocks, problems=make_problem_suite(blocks, 2, 0, n_blocks=4),
                      case_counts=(3, 8), completeness_levels=(0.2, 1.0),
                      deltas=(1, 3, 2), seeds=(1,))
    flipped = replace(spec, case_counts=(8, 3), completeness_levels=(1.0, 0.2),
                      deltas=(3, 2, 1))
    rows, details = run_experiment(spec)
    assert thresholds == [1] * 4
    flipped_rows, flipped_details = run_experiment(flipped)
    assert thresholds == [1] * 8
    assert flipped_rows == rows
    assert sorted((d.row.sort_key(), d.plan, d.route) for d in flipped_details) == \
        sorted((d.row.sort_key(), d.plan, d.route) for d in details)


def test_case_count_above_library_size_rejected(blocks, p1, p2):
    spec = small_spec(blocks, cases=[("p1", p1), ("p2", p2)], case_counts=(1, 3))
    with pytest.raises(ValueError, match="case count 3 exceeds the library of 2 cases"):
        run_experiment(spec)


def test_row_count_arithmetic(blocks):
    rows, _ = run_experiment(small_spec(blocks))
    # 2 case counts x 1 completeness x 1 delta x 4 problems x 2 seeds
    assert len(rows) == 16


def test_rows_are_deterministic(blocks, tmp_path):
    rows1, _ = run_experiment(small_spec(blocks))
    rows2, _ = run_experiment(small_spec(blocks))
    assert rows1 == rows2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(a, rows1)
    write_rows(b, rows2)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip(blocks, tmp_path):
    rows, _ = run_experiment(small_spec(blocks))
    path = tmp_path / "rows.csv"
    write_rows(path, rows)
    assert read_rows(path) == rows


def test_solved_rows_revalidate(blocks):
    rows, details = run_experiment(small_spec(blocks))
    for detail in details:
        if detail.row.solved:
            assert detail.plan is not None
            assert check_solution(detail.problem, detail.plan, blocks)


def test_complete_model_solves_everything(blocks):
    spec = small_spec(blocks, completeness_levels=(1.0,), seeds=(1,))
    rows, _ = run_experiment(spec)
    assert accuracy_of(rows, completeness=1.0) == 1.0


def test_accuracy_filter_errors(blocks):
    rows, _ = run_experiment(small_spec(blocks, seeds=(1,)))
    with pytest.raises(ValueError):
        accuracy_of(rows, completeness=0.31)


def test_fixed_library_is_used(blocks):
    from caseplan import generate_case_library
    cases = generate_case_library(blocks, 6, 3, n_blocks=4)
    spec = small_spec(blocks, cases=cases, case_counts=(6,), seeds=(1,))
    rows, _ = run_experiment(spec)
    assert all(r.num_cases == 6 for r in rows)


def test_timing_enabled_fills_cpu_millis(blocks):
    spec = small_spec(blocks, timing=True, seeds=(1,), case_counts=(6,))
    rows, _ = run_experiment(spec)
    assert all(r.cpu_millis >= 0 for r in rows)


def library_with_copies(blocks):
    """Four generated cases, then renamed copies of the first two: each object
    name gets a prefix, which keeps the depth order, so the prefixes of 0, 3
    and 6 cases hold 0, 3 and 4 distinct case indexes."""
    library = generate_case_library(blocks, 4, 1, n_blocks=4, config=SMALL_SEARCH)
    return library + [(f"copy-{name}",
                       renamed_case(case, {o: f"copy-{o}" for o in case.objects()}))
                      for name, case in library[:2]]


def test_cpu_millis_charges_mapping_and_mining_only_to_rows_with_pairs(blocks, monkeypatch):
    # each stage takes a fixed whole number of seconds, so the sums are exact.
    # Every row is charged its solve call and its skeleton; only a row whose
    # skeleton has causal pairs is charged its prefix's fragments (each
    # distinct case index's build once, with the problem's index when the
    # prefix is not empty), growth and filter, since a standalone solve with
    # no pairs builds none of them
    seconds = {"mapping_index": 1, "case_fragments": 2, "skeleton": 4,
               "grow_frequent": 8, "mine_fragments": 16, "solve_with_library": 32}

    def timed(fn, *args, **kwargs):
        return fn(*args, **kwargs), seconds[fn.__name__]

    monkeypatch.setattr(caseplan.experiment, "_timed", timed)
    library = library_with_copies(blocks)
    spec = small_spec(blocks, timing=True, problems=make_problem_suite(blocks, 3, 0, n_blocks=4),
                      case_counts=(0, 3, 6), completeness_levels=(0.2, 1.0), deltas=(1, 2),
                      seeds=(1,), cases=library)
    _, details = run_experiment(spec)
    assert [len({case.mapping_rows for _, case in library[:n]}) for n in (0, 3, 6)] == \
        [0, 3, 4]
    with_pairs = 0
    for detail in details:
        row = detail.row
        charged = 32 + 4
        if caseplan.pipeline.skeleton(detail.problem, spec.search).pairs:
            with_pairs += 1
            keys = {case.mapping_rows for _, case in library[:row.num_cases]}
            charged += 2 * len(keys) + (1 if row.num_cases else 0) + 8 + 16
        assert row.cpu_millis == charged * 1000, row
    assert 0 < with_pairs < len(details)


def test_sweep_maps_each_case_key_once_per_problem(blocks, monkeypatch):
    # over two seeds, each problem maps one case per index of the fixed
    # library, and the rows are those of the sweep that solves each cell on
    # its own
    library = library_with_copies(blocks)
    spec = small_spec(blocks, problems=make_problem_suite(blocks, 3, 0, n_blocks=4),
                      case_counts=(3, 6), completeness_levels=(0.6, 1.0), cases=library)
    expected = run_experiment_per_cell(spec)[0]
    calls = count_best_mapping_calls(monkeypatch)
    rows, _ = run_experiment(spec)
    assert rows == expected
    assert calls == [(case, problem) for problem in spec.problems for _, case in library[:4]]


def test_problem_id_encodes_seed(blocks):
    rows, _ = run_experiment(small_spec(blocks))
    seeds = {r.problem_id.split("-")[0] for r in rows}
    assert seeds == {"seed1", "seed2"}


def test_empty_spec_rejected(blocks):
    with pytest.raises(ValueError):
        ExperimentSpec(domain=blocks, problems=[])
    with pytest.raises(ValueError):
        ExperimentSpec(domain=blocks,
                       problems=make_problem_suite(blocks, 1, 0),
                       case_counts=())


def test_runtime_grows_polynomially_with_cases(blocks):
    # wall-clock over case-library size should be low-order polynomial; each
    # count's time is the least of three runs, so a busy machine adds no outlier
    numpy = pytest.importorskip("numpy")
    spec = small_spec(blocks,
                      problems=make_problem_suite(blocks, 3, 1, n_blocks=4),
                      case_counts=(5, 10, 20, 40, 60),
                      seeds=(1,),
                      timing=True)
    runs = []
    for _ in range(3):
        rows, _ = run_experiment(spec)
        runs.append([sum(r.cpu_millis for r in rows if r.num_cases == count)
                     for count in spec.case_counts])
    xs = list(spec.case_counts)
    ys = [min(times) for times in zip(*runs)]
    coeffs = numpy.polyfit(xs, ys, 3)
    fit = numpy.polyval(coeffs, xs)
    residual = sum((a - b) ** 2 for a, b in zip(ys, fit))
    total = sum((y - sum(ys) / len(ys)) ** 2 for y in ys)
    r_squared = 1.0 - residual / total if total else 1.0
    assert r_squared >= 0.9
