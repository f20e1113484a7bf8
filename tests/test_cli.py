"""CLI surface: every subcommand, exit codes, golden outputs."""

from __future__ import annotations

import pytest

from caseplan import parse_domain, parse_problem, read_case_library
from caseplan.cases import read_plan, read_rows
from caseplan.cli import INPUT_ERROR, OK, PIPELINE_FAILURE, main
from caseplan.evaluate import check_solution

from .conftest import FIXTURES, GOLDEN_SOLUTION


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DOMAIN = FIXTURES / "domain.pddl"
INCOMPLETE = FIXTURES / "incomplete.pddl"
TOWER = FIXTURES / "tower.pddl"
CASES = FIXTURES / "cases"


def test_gen_cases_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "lib1", tmp_path / "lib2"
    for out in (out1, out2):
        code, stdout, _ = run(capsys, "gen-cases", "--domain", DOMAIN,
                              "--count", 8, "--seed", 5, "--blocks", 4,
                              "--out", out)
        assert code == OK
        assert "wrote 8 cases" in stdout
    files1, files2 = sorted(out1.iterdir()), sorted(out2.iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for a, b in zip(files1, files2):
        assert a.read_bytes() == b.read_bytes()


def test_gen_cases_self_validate(tmp_path, capsys):
    out = tmp_path / "lib"
    code, _, _ = run(capsys, "gen-cases", "--domain", DOMAIN, "--count", 6,
                     "--seed", 2, "--blocks", 4, "--out", out)
    assert code == OK
    domain = parse_domain(DOMAIN.read_text())
    from caseplan.strips import PlanningProblem, execute_plan
    for _, case in read_case_library(out):
        objects = {o: "object" for o in case.objects()}
        problem = PlanningProblem(name="case", domain=domain, objects=objects,
                                  init=case.init, goal=case.goal)
        assert execute_plan(problem, case.plan).success


def test_degrade_writes_parseable_domain(tmp_path, capsys):
    out = tmp_path / "deg.pddl"
    code, stdout, _ = run(capsys, "degrade", "--domain", DOMAIN,
                          "--completeness", 0.8, "--seed", 7, "--out", out)
    assert code == OK
    assert "removed 6 of 27" in stdout
    model = parse_domain(out.read_text())
    assert model.atom_count() == 21


def test_skeletal_golden_pairs(capsys):
    code, stdout, _ = run(capsys, "skeletal", "--incomplete-domain", INCOMPLETE,
                          "--problem", TOWER)
    assert code == OK
    assert stdout.splitlines() == [
        "(pickup b) -> (stack b a)",
        "(pickup d) -> (stack d c)",
        "(unstack c a) -> (stack c b)",
    ]


def test_map_reports_scores(capsys):
    code, stdout, _ = run(capsys, "map", "--domain", DOMAIN,
                          "--problem", TOWER, "--cases", CASES)
    assert code == OK
    lines = stdout.splitlines()
    assert lines[0] == "p1: score=10 {b1->c b2->a b3->b b4->d}"
    assert lines[1] == "p2: score=6 {b1->b b2->a b3->c}"


def test_mine_golden_patterns(capsys):
    code, stdout, _ = run(capsys, "mine", "--domain", DOMAIN, "--problem", TOWER,
                          "--cases", CASES, "--delta", 2)
    assert code == OK
    assert stdout.splitlines() == [
        "support=2 (pickup b) (stack b a) (pickup c) (stack c b)",
    ]


def test_solve_golden(tmp_path, capsys):
    out = tmp_path / "plan.txt"
    code, stdout, _ = run(capsys, "solve", "--incomplete-domain", INCOMPLETE,
                          "--problem", TOWER, "--cases", CASES, "--delta", 1,
                          "--out", out)
    assert code == OK
    assert "status: solved" in stdout
    assert "route: fragments" in stdout
    assert read_plan(out) == GOLDEN_SOLUTION


def test_solve_failure_is_stage_labeled(tmp_path, capsys):
    # empty case library plus a goal no degraded action can achieve
    empty = tmp_path / "empty-cases"
    empty.mkdir()
    bad_domain = tmp_path / "noadd.pddl"
    code, _, _ = run(capsys, "degrade", "--domain", DOMAIN, "--completeness", 0.0,
                     "--seed", 1, "--scope", "add", "--out", bad_domain)
    assert code == OK
    code, stdout, _ = run(capsys, "solve", "--incomplete-domain", bad_domain,
                          "--problem", TOWER, "--cases", empty, "--delta", 1)
    assert code == PIPELINE_FAILURE
    assert "status: failed" in stdout
    assert "stage: skeletal" in stdout


def test_solve_classical(tmp_path, capsys):
    out = tmp_path / "plan.txt"
    code, stdout, _ = run(capsys, "solve-classical", "--domain", DOMAIN,
                          "--problem", TOWER, "--out", out)
    assert code == OK
    domain = parse_domain(DOMAIN.read_text())
    problem = parse_problem(TOWER.read_text(), domain)
    assert check_solution(problem, read_plan(out), domain)


def test_evaluate_command(tmp_path, capsys):
    problems = tmp_path / "problems"
    plans = tmp_path / "plans"
    problems.mkdir()
    plans.mkdir()
    (problems / "tower.pddl").write_text(TOWER.read_text())
    code, _, _ = run(capsys, "solve-classical", "--domain", DOMAIN,
                     "--problem", TOWER, "--out", plans / "tower.plan")
    assert code == OK
    csv_out = tmp_path / "eval.csv"
    code, stdout, _ = run(capsys, "evaluate", "--domain", DOMAIN,
                          "--problems", problems, "--plans", plans,
                          "--out", csv_out)
    assert code == OK
    assert "accuracy: 1.0000 (1/1)" in stdout
    assert read_rows(csv_out)[0].solved


def test_evaluate_missing_plan_counts_unsolved(tmp_path, capsys):
    problems = tmp_path / "problems"
    plans = tmp_path / "plans"
    problems.mkdir()
    plans.mkdir()
    (problems / "tower.pddl").write_text(TOWER.read_text())
    code, stdout, _ = run(capsys, "evaluate", "--domain", DOMAIN,
                          "--problems", problems, "--plans", plans)
    assert code == OK
    assert "accuracy: 0.0000 (0/1)" in stdout


def test_evaluate_variable_in_plan_is_input_error(tmp_path, capsys):
    problems = tmp_path / "problems"
    plans = tmp_path / "plans"
    problems.mkdir()
    plans.mkdir()
    (problems / "tower.pddl").write_text(TOWER.read_text())
    (plans / "tower.plan").write_text("(unstack c ?x)\n")
    code, _, stderr = run(capsys, "evaluate", "--domain", DOMAIN,
                          "--problems", problems, "--plans", plans)
    assert code == INPUT_ERROR
    assert "line 1, col 12: variable ?x not allowed in a ground atom" in stderr


def test_experiment_command(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, stdout, _ = run(capsys, "experiment", "--domain", DOMAIN,
                          "--num-problems", 2, "--blocks", 4,
                          "--case-counts", "4", "--completeness", "1.0",
                          "--delta", "2", "--seed", "1", "--no-timing",
                          "--case-blocks", 4,
                          "--artifacts", tmp_path / "artifacts",
                          "--out", out)
    assert code == OK
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(r.cpu_millis == 0 for r in rows)
    plan_files = list((tmp_path / "artifacts" / "plans").glob("*.plan"))
    assert len(plan_files) == len(rows)
    # persisted artifacts are enough to re-validate every solved row
    domain = parse_domain(DOMAIN.read_text())
    for row in rows:
        if not row.solved:
            continue
        problem_text = (tmp_path / "artifacts" / "problems"
                        / f"{row.problem_id}.pddl").read_text()
        problem = parse_problem(problem_text, domain)
        stem = (f"{row.problem_id}_n{row.num_cases}"
                f"_c{row.completeness}_d{row.delta}")
        plan = read_plan(tmp_path / "artifacts" / "plans" / f"{stem}.plan")
        assert check_solution(problem, plan, domain)


def test_zero_delta_is_input_error_with_or_without_cases(capsys):
    solve = ("solve", "--incomplete-domain", INCOMPLETE, "--problem", TOWER, "--delta", 0)
    for extra in ((), ("--cases", CASES)):
        code, _, stderr = run(capsys, *solve, *extra)
        assert code == INPUT_ERROR
        assert "min_support" in stderr


def test_mine_zero_delta_is_input_error_with_or_without_cases(tmp_path, capsys):
    empty = tmp_path / "empty-cases"
    empty.mkdir()
    for cases in (empty, CASES):
        code, stdout, stderr = run(capsys, "mine", "--domain", DOMAIN, "--problem", TOWER,
                                   "--cases", cases, "--delta", 0)
        assert code == INPUT_ERROR
        assert "min_support" in stderr
        assert stdout == ""


@pytest.mark.parametrize("counts, message", [
    ("-1,2", "case count -1 must be >= 0"),
    ("1,3", "case count 3 exceeds the library of 2 cases"),
])
def test_experiment_bad_case_count_is_input_error(tmp_path, capsys, counts, message):
    code, _, stderr = run(capsys, "experiment", "--domain", DOMAIN, "--cases", CASES,
                          f"--case-counts={counts}", "--num-problems", 1, "--blocks", 4,
                          "--completeness", "1.0", "--delta", 1, "--no-timing",
                          "--out", tmp_path / "rows.csv")
    assert code == INPUT_ERROR
    assert message in stderr
    assert not (tmp_path / "rows.csv").exists()


def test_max_expansions_is_rejected_where_nothing_searches(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "map", "--domain", DOMAIN, "--problem", TOWER, "--cases", CASES,
            "--max-expansions", 1)
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-expansions" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    code, _, stderr = run(capsys, "solve", "--incomplete-domain", "/nope.pddl",
                          "--problem", TOWER)
    assert code == INPUT_ERROR
    assert "error" in stderr


def test_bad_pddl_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.pddl"
    bad.write_text("(define (domain x) (:requirements :adl))")
    code, _, stderr = run(capsys, "skeletal", "--incomplete-domain", bad,
                          "--problem", TOWER)
    assert code == INPUT_ERROR
    assert ":adl" in stderr
