"""The sweep harness: row arithmetic, determinism, soundness, runtime shape."""

from __future__ import annotations

import pytest

from caseplan import ExperimentSpec, SearchConfig, make_problem_suite, run_experiment
from caseplan.cases import read_rows, write_rows
from caseplan.evaluate import check_solution
from caseplan.experiment import accuracy_of


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
    # wall-clock over case-library size should be low-order polynomial
    numpy = pytest.importorskip("numpy")
    spec = small_spec(blocks,
                      problems=make_problem_suite(blocks, 3, 1, n_blocks=4),
                      case_counts=(5, 10, 20, 40, 60),
                      seeds=(1,),
                      timing=True)
    rows, _ = run_experiment(spec)
    xs, ys = [], []
    for count in spec.case_counts:
        xs.append(count)
        ys.append(sum(r.cpu_millis for r in rows if r.num_cases == count))
    coeffs = numpy.polyfit(xs, ys, 3)
    fit = numpy.polyval(coeffs, xs)
    residual = sum((a - b) ** 2 for a, b in zip(ys, fit))
    total = sum((y - sum(ys) / len(ys)) ** 2 for y in ys)
    r_squared = 1.0 - residual / total if total else 1.0
    assert r_squared >= 0.9
