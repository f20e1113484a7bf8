"""CLI surface: every subcommand, exit codes, golden outputs."""

from __future__ import annotations

import re
from importlib import resources

import pytest

import caseplan.cli
import caseplan.experiment
import caseplan.mapping
from caseplan import parse_domain, parse_problem, read_case_library
from caseplan.cases import MAX_CASE_OBJECTS, parse_plan, read_rows, write_plan
from caseplan.cli import INPUT_ERROR, OK, PIPELINE_FAILURE, main
from caseplan.evaluate import check_solution
from caseplan.experiment import accuracy_of
from caseplan.pddl import PddlSyntaxError
from caseplan.strips import execute_plan

from .conftest import FIXTURES, GOLDEN_SOLUTION, wide_case_text


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


def test_map_builds_one_index(capsys, monkeypatch):
    calls = []
    real = caseplan.cli.mapping_index

    def counted(problem):
        calls.append(problem.name)
        return real(problem)

    monkeypatch.setattr(caseplan.cli, "mapping_index", counted)
    monkeypatch.setattr(caseplan.mapping, "mapping_index", counted)
    code, stdout, _ = run(capsys, "map", "--domain", DOMAIN,
                          "--problem", TOWER, "--cases", CASES)
    assert code == OK
    assert len(stdout.splitlines()) == 2
    assert calls == ["tower"]


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
    assert parse_plan(out.read_text()) == GOLDEN_SOLUTION


def test_solve_goal_in_init_reports_the_skeletal_route_and_no_mining(capsys):
    # no causal pairs: the cases are neither mapped nor mined, and the empty
    # plan is the skeleton's
    code, stdout, _ = run(capsys, "solve", "--incomplete-domain", INCOMPLETE,
                          "--problem", FIXTURES / "goal-in-init.pddl", "--cases", CASES,
                          "--delta", 1)
    assert code == OK
    assert stdout.splitlines() == ["pairs: 0", "fragments: 0", "patterns: 0",
                                   "status: solved", "route: skeletal", "plan-length: 0"]


@pytest.mark.parametrize("flags, code, tail", [
    ((), OK, ["status: solved", "route: search"]),
    (("--no-fallback",), PIPELINE_FAILURE, ["status: failed", "stage: mining"]),
])
def test_solve_reports_the_uncovered_pair_end(capsys, flags, code, tail):
    # on the driverlog fixture at delta 1, (board-truck d1 t1 l5) lies in no
    # fragment of the case mapped first and in no step of the others: mapping
    # stops, nothing is mined, and a failure is a mining one
    root = FIXTURES.parent.parent
    got, stdout, _ = run(capsys, "solve",
                         "--incomplete-domain", root / "src/caseplan/domains/driverlog.pddl",
                         "--problem", root / "fixtures/driverlog/problem.pddl",
                         "--cases", root / "fixtures/driverlog/cases", "--delta", 1, *flags)
    assert got == code
    assert stdout.splitlines()[:6] == ["pairs: 5", "fragments: 0", "patterns: 0",
                                       "uncovered: (board-truck d1 t1 l5)", *tail]


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
    assert check_solution(problem, parse_plan(out.read_text()), domain)


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
    assert stdout.splitlines() == ["accuracy: 0.0000 (0/1)", "unsolved tower: no plan"]


@pytest.mark.parametrize("command, extra", [
    ("gen-cases", ("--count", 2)),
    ("evaluate", ("--plans", FIXTURES)),
    ("experiment", ()),
], ids=["gen-cases", "evaluate", "experiment"])
@pytest.mark.parametrize("exists", [False, True], ids=["missing", "empty"])
def test_problem_directory_without_problems_is_input_error(tmp_path, capsys, command,
                                                           extra, exists):
    # a missing directory, or one with no *.pddl in it, is an input error for
    # every command that reads one, and nothing is written
    problems = tmp_path / "problems"
    if exists:
        problems.mkdir()
        (problems / "tower.txt").write_text(TOWER.read_text())
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, command, "--domain", DOMAIN, "--problems", problems,
                               *extra, "--out", out)
    assert code == INPUT_ERROR
    assert f"no problems in {problems}" in stderr
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("solve", ("--incomplete-domain", INCOMPLETE, "--problem", TOWER)),
    ("mine", ("--domain", DOMAIN, "--problem", TOWER)),
    ("map", ("--domain", DOMAIN, "--problem", TOWER)),
], ids=["solve", "mine", "map"])
def test_missing_case_library_is_named_once(tmp_path, capsys, command, args):
    library = tmp_path / "no-such-library"
    code, stdout, stderr = run(capsys, command, *args, "--cases", library)
    assert code == INPUT_ERROR
    assert stderr.count(str(library)) == 1
    assert f"case library {library} is not a directory" in stderr
    assert stdout == ""


def test_evaluate_missing_plans_directory_is_input_error(tmp_path, capsys):
    problems = tmp_path / "problems"
    problems.mkdir()
    (problems / "tower.pddl").write_text(TOWER.read_text())
    plans = tmp_path / "plans"
    code, stdout, stderr = run(capsys, "evaluate", "--domain", DOMAIN,
                               "--problems", problems, "--plans", plans)
    assert code == INPUT_ERROR
    assert f"no plans directory {plans}" in stderr
    assert stdout == ""


def test_walking_package_plan_is_rejected(tmp_path, capsys):
    # under :typing only a driver walks; a package walking to its goal is no plan
    domain_path = resources.files("caseplan") / "domains" / "driverlog.pddl"
    problems = tmp_path / "problems"
    plans = tmp_path / "plans"
    problems.mkdir()
    plans.mkdir()
    (problems / "walk.pddl").write_text(
        "(define (problem walk) (:domain driverlog)\n"
        "  (:objects p1 - obj d1 - driver l1 l2 - location)\n"
        "  (:init (at p1 l1) (at d1 l1) (path l1 l2))\n"
        "  (:goal (at p1 l2)))\n")
    (plans / "walk.plan").write_text("(walk p1 l1 l2)\n")
    domain = parse_domain(domain_path.read_text())
    problem = parse_problem((problems / "walk.pddl").read_text(), domain)
    plan = parse_plan((plans / "walk.plan").read_text())
    result = execute_plan(problem, plan)
    assert (result.success, result.failed_step) == (False, 0)
    assert result.reason == "action (walk p1 l1 l2): p1 is no object of type driver for ?d"
    assert not check_solution(problem, plan, domain)
    csv_out = tmp_path / "eval.csv"
    code, stdout, _ = run(capsys, "evaluate", "--domain", domain_path,
                          "--problems", problems, "--plans", plans, "--out", csv_out)
    assert code == OK
    assert stdout.splitlines()[:2] == [
        "accuracy: 0.0000 (0/1)",
        "unsolved walk: step 0: action (walk p1 l1 l2): p1 is no object of type driver for ?d"]
    # the CSV keeps its columns: no step, no reason
    assert csv_out.read_text() == (
        "domain,num_cases,completeness,delta,problem_id,solved,plan_length,cpu_millis\n"
        "driverlog,0,1.0,1,walk,false,1,0\n")


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
    assert "tower.plan: line 1, col 12: variable ?x not allowed in a ground atom" in stderr


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
        plan = parse_plan((tmp_path / "artifacts" / "plans" / f"{stem}.plan").read_text())
        assert check_solution(problem, plan, domain)


def _tree_bytes(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command, first, second, directory", [
    ("gen-cases", ("--count", 6, "--seed", 1, "--out", "lib"),
     ("--count", 3, "--seed", 2, "--out", "lib"), "lib"),
    ("experiment", ("--num-problems", 2, "--case-blocks", 4, "--case-counts", 2,
                    "--completeness", "1.0", "--delta", 1, "--no-timing",
                    "--artifacts", "art", "--out", "rows.csv"),
     ("--num-problems", 2, "--case-blocks", 4, "--case-counts", 2,
      "--completeness", "1.0", "--delta", 1, "--no-timing", "--problem-seed", 5,
      "--artifacts", "art", "--out", "rows.csv"), "art"),
], ids=["gen-cases", "experiment"])
def test_output_directory_of_another_run_is_refused(tmp_path, capsys, monkeypatch,
                                                    command, first, second, directory):
    # a second run into the same directory would mix its files with the first
    # run's: stale cases in a library, stale problems beside new plans
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, command, "--domain", DOMAIN, "--blocks", 4, *first)
    assert code == OK
    before = _tree_bytes(tmp_path)
    code, stdout, stderr = run(capsys, command, "--domain", DOMAIN, "--blocks", 4, *second)
    assert code == INPUT_ERROR
    assert stdout == ""
    assert f"error: {directory}" in stderr and "write to an empty directory" in stderr
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command, args, message", [
    ("experiment", ("--artifacts", "file", "--out", "rows.csv"),
     "cannot write to file/problems: file is not a directory"),
    ("experiment", ("--out", "missing/rows.csv"),
     "cannot write to missing/rows.csv: no directory missing"),
    ("experiment", ("--out", "dir"), "cannot write to dir: it is a directory"),
    ("gen-cases", ("--count", 2, "--out", "file"),
     "cannot write to file: file is not a directory"),
], ids=["experiment-artifacts-at-file", "experiment-out-in-missing-dir",
        "experiment-out-at-dir", "gen-cases-out-at-file"])
def test_unwritable_output_path_is_input_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                              command, args, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a case library was generated for an unwritable output path")

    monkeypatch.setattr(caseplan.cli, "generate_case_library", refuse)
    monkeypatch.setattr(caseplan.experiment, "generate_case_library", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    code, stdout, stderr = run(capsys, command, "--domain", DOMAIN, "--blocks", 4, *args)
    assert code == INPUT_ERROR
    assert f"error: {message}" in stderr
    assert stdout == ""
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["dir", "file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("command, args, work", [
    ("solve", ("--incomplete-domain", INCOMPLETE, "--problem", TOWER, "--cases", CASES,
               "--delta", 1), "solve_with_library"),
    ("solve-classical", ("--domain", DOMAIN, "--problem", TOWER), "solve"),
    ("degrade", ("--domain", DOMAIN, "--completeness", 0.8), "degrade"),
    ("evaluate", ("--domain", DOMAIN, "--problems", "problems", "--plans", "plans"),
     "evaluate"),
], ids=["solve", "solve-classical", "degrade", "evaluate"])
@pytest.mark.parametrize("out, message", [
    ("missing/x.out", "cannot write to missing/x.out: no directory missing"),
    ("dir", "cannot write to dir: it is a directory"),
], ids=["in-missing-dir", "at-dir"])
def test_unwritable_out_file_is_input_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command, args, work, out, message):
    # the command would otherwise print its results, then fail to write them
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran for an unwritable output path")

    monkeypatch.setattr(caseplan.cli, work, refuse)
    monkeypatch.chdir(tmp_path)
    for directory in ("dir", "problems", "plans"):
        (tmp_path / directory).mkdir()
    (tmp_path / "problems" / "tower.pddl").write_text(TOWER.read_text())
    before = _tree_bytes(tmp_path)
    code, stdout, stderr = run(capsys, command, *args, "--out", out)
    assert code == INPUT_ERROR
    assert f"error: {message}" in stderr
    assert stdout == ""
    assert sorted(path.name for path in tmp_path.rglob("*")) == \
        ["dir", "plans", "problems", "tower.pddl"]
    assert _tree_bytes(tmp_path) == before


def test_experiment_reports_accuracy_per_cell_and_route(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, stdout, _ = run(capsys, "experiment", "--domain", DOMAIN, "--cases", CASES,
                          "--num-problems", 3, "--blocks", 4, "--case-counts", "2,0",
                          "--completeness", "0.6,1.0", "--delta", "1,2", "--seed", "1,2",
                          "--no-timing", "--out", out)
    assert code == OK
    rows = read_rows(out)
    lines = stdout.splitlines()
    assert lines[0].startswith(f"wrote {len(rows)} rows")
    cells = [re.fullmatch(r"completeness (\S+) cases (\d+): (\d+)/(\d+) solved", line)
             for line in lines[1:5]]
    assert [(float(m[1]), int(m[2])) for m in cells] == [(0.6, 2), (0.6, 0), (1.0, 2), (1.0, 0)]
    for m in cells:
        assert int(m[3]) / int(m[4]) == accuracy_of(rows, completeness=float(m[1]),
                                                    num_cases=int(m[2]))
    assert sum(int(m[4]) for m in cells) == len(rows)
    routes = [re.fullmatch(r"route (\S+): (\d+)/(\d+) solved", line) for line in lines[5:9]]
    assert [m[1] for m in routes] == ["fragments", "skeletal", "search", "none"]
    assert sum(int(m[3]) for m in routes) == len(rows)
    assert sum(int(m[2]) for m in routes) == sum(r.solved for r in rows)
    assert routes[-1][2] == "0"
    # the grid holds case count 0, so one library-gain line per completeness:
    # accuracy at the largest case count minus accuracy at 0
    gains = [re.fullmatch(r"library gain at completeness (\S+): ([+-]\d\.\d{3}) "
                          r"\(2 cases vs 0: (\d+)/(\d+) solved vs (\d+)/(\d+) solved\)", line)
             for line in lines[9:]]
    assert [float(m[1]) for m in gains] == [0.6, 1.0]
    for m in gains:
        full, empty = (accuracy_of(rows, completeness=float(m[1]), num_cases=n) for n in (2, 0))
        assert m[2] == f"{full - empty:+.3f}"
        assert (int(m[3]) / int(m[4]), int(m[5]) / int(m[6])) == (full, empty)
    # and none without an empty library in the grid
    code, stdout, _ = run(capsys, "experiment", "--domain", DOMAIN, "--cases", CASES,
                          "--num-problems", 1, "--blocks", 4, "--case-counts", "2,1",
                          "--completeness", "0.6", "--delta", "1", "--no-timing", "--out", out)
    assert code == OK
    assert not [line for line in stdout.splitlines() if line.startswith("library gain")]


def test_zero_delta_is_input_error_with_or_without_cases(capsys):
    # also where the goal holds initially, so no causal pair directs mining
    for problem in (TOWER, FIXTURES / "goal-in-init.pddl"):
        solve = ("solve", "--incomplete-domain", INCOMPLETE, "--problem", problem, "--delta", 0)
        for extra in ((), ("--cases", CASES)):
            code, _, stderr = run(capsys, *solve, *extra)
            assert code == INPUT_ERROR
            assert "min_support" in stderr


def test_cyclic_type_hierarchy_is_input_error(tmp_path, capsys):
    domain = tmp_path / "cyclic.pddl"
    domain.write_text("(define (domain cyclic) (:requirements :strips :typing)\n"
                      "  (:types a - b b - a) (:predicates (p ?x - a))\n"
                      "  (:action go :parameters (?x - a) :precondition () :effect (p ?x)))\n")
    problem = tmp_path / "problem.pddl"
    problem.write_text("(define (problem p) (:domain cyclic) (:objects x - a)\n"
                       "  (:init) (:goal (p x)))\n")
    code, stdout, stderr = run(capsys, "solve-classical", "--domain", domain,
                               "--problem", problem)
    assert code == INPUT_ERROR
    assert "type a is its own ancestor" in stderr
    assert stdout == ""


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
    ("1,1", "case_counts repeats the value 1"),
    ("a,b", "argument --case-counts: invalid comma-separated int value: 'a,b'"),
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
    code, _, stderr = run(capsys, "map", "--domain", DOMAIN, "--problem", TOWER,
                          "--cases", CASES, "--max-expansions", 1)
    assert code == INPUT_ERROR
    assert "unrecognized arguments: --max-expansions" in stderr


@pytest.mark.parametrize("args, message", [
    (("solve",), "the following arguments are required: --incomplete-domain, --problem"),
    (("solve", "--incomplete-domain", INCOMPLETE, "--problem", TOWER,
      "--heuristic", "goal-count"), "unrecognized arguments: --heuristic goal-count"),
    (("solve-classical", "--domain", DOMAIN, "--problem", TOWER, "--max-expansions", "abc"),
     "argument --max-expansions: invalid int value: 'abc'"),
    (("experiment", "--domain", DOMAIN, "--seed", "1,x", "--out", "rows.csv"),
     "argument --seed: invalid comma-separated int value: '1,x'"),
    (("experiment", "--domain", DOMAIN, "--completeness", "0.5,high", "--out", "rows.csv"),
     "argument --completeness: invalid comma-separated float value: '0.5,high'"),
])
def test_usage_error_is_input_error(capsys, args, message):
    code, stdout, stderr = run(capsys, *args)
    assert code == INPUT_ERROR
    assert message in stderr
    assert "usage: caseplan" in stderr
    assert stdout == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "solve", "--help")
    assert exc.value.code == OK
    assert "--incomplete-domain" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ("experiment", "--domain", DOMAIN, "--blocks", 1, "--num-problems", 1),
    ("experiment", "--domain", DOMAIN, "--case-blocks", 1, "--num-problems", 1, "--blocks", 3,
     "--case-counts", 1, "--completeness", "1.0", "--delta", 1),
    ("gen-cases", "--domain", DOMAIN, "--blocks", 1),
])
def test_fewer_than_two_blocks_is_input_error(tmp_path, capsys, args):
    code, _, stderr = run(capsys, *args, "--out", tmp_path / "out")
    assert code == INPUT_ERROR
    assert "n_blocks must be at least 2" in stderr
    assert not (tmp_path / "out").exists()


def test_negative_case_count_is_input_error(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "gen-cases", "--domain", DOMAIN, "--count", -3,
                               "--out", tmp_path / "lib")
    assert code == INPUT_ERROR
    assert "case count must be >= 0, got -3" in stderr
    assert stdout == ""


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


def test_bad_case_in_library_names_its_file(tmp_path, capsys):
    library = tmp_path / "lib"
    library.mkdir()
    (library / "p1.case").write_text((CASES / "p1.case").read_text())
    (library / "p4.case").write_text("(:init (clear a))\n(:goal (clear a))\n"
                                     "(:plan (pickup ?x))\n")
    code, _, stderr = run(capsys, "solve", "--incomplete-domain", INCOMPLETE,
                          "--problem", TOWER, "--cases", library)
    assert code == INPUT_ERROR
    assert (f"{library / 'p4.case'}: line 3, col 16: variable ?x not allowed "
            "in a ground atom") in stderr


@pytest.mark.parametrize("command, args", [
    ("map", ("--domain", DOMAIN, "--problem", TOWER)),
    ("mine", ("--domain", DOMAIN, "--problem", TOWER)),
    ("solve", ("--incomplete-domain", INCOMPLETE, "--problem", TOWER)),
    ("experiment", ("--domain", DOMAIN, "--num-problems", 1, "--blocks", 4, "--case-counts", 1,
                    "--completeness", 1.0, "--delta", 1, "--seed", 1, "--no-timing")),
], ids=["map", "mine", "solve", "experiment"])
def test_a_case_too_wide_to_map_names_its_file(tmp_path, capsys, command, args):
    # mapping recurses once per case object, so a case past the bound is
    # refused when it is read, before it can exhaust the stack
    library = tmp_path / "lib"
    library.mkdir()
    (library / "wide.case").write_text(wide_case_text(1200))
    out = ("--out", tmp_path / "rows.csv") if command == "experiment" else ()
    code, stdout, stderr = run(capsys, command, *args, *out, "--cases", library)
    assert code == INPUT_ERROR
    assert (f"{library / 'wide.case'}: a case names 1200 objects; at most "
            f"{MAX_CASE_OBJECTS} can be mapped") in stderr
    assert stdout == ""
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("nested, exit_code, expected", [
    ("(" * 5000 + ")" * 5000, INPUT_ERROR,
     "line 2, col 2: expected a section keyword, found a list"),
    ("(:action a :parameters (?x) :precondition " + "(and " * 2000 + "(clear ?x)"
     + ")" * 2000 + " :effect (and))", OK, "removed 0 of 1 schema atoms"),
], ids=["parens", "conjunctions"])
def test_deeply_nested_domain_is_parsed_or_input_error(tmp_path, capsys, nested, exit_code,
                                                        expected):
    domain = tmp_path / "deep.pddl"
    domain.write_text(f"(define (domain deep) (:predicates (clear ?x))\n{nested})")
    code, stdout, stderr = run(capsys, "degrade", "--domain", domain, "--completeness", 1.0,
                               "--seed", 1, "--out", tmp_path / "out.pddl")
    assert code == exit_code
    assert expected in stdout + stderr


@pytest.mark.parametrize("kind", ["domain", "problem", "case", "plan"])
def test_text_that_is_not_utf8_names_its_file(tmp_path, capsys, kind):
    files = {"domain": tmp_path / "domain.pddl", "problem": tmp_path / "problems" / "tower.pddl",
             "case": tmp_path / "cases" / "p1.case", "plan": tmp_path / "plans" / "tower.plan"}
    for path, source in zip(files.values(), (DOMAIN, TOWER, CASES / "p1.case")):
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(source.read_bytes())
    files["plan"].parent.mkdir()
    write_plan(files["plan"], GOLDEN_SOLUTION)
    files[kind].write_bytes(b"\xff" + files[kind].read_bytes())
    if kind == "plan":
        args = ("evaluate", "--domain", files["domain"], "--problems", files["problem"].parent,
                "--plans", files["plan"].parent)
    else:
        args = ("solve", "--incomplete-domain", files["domain"], "--problem", files["problem"],
                "--cases", files["case"].parent)
    code, stdout, stderr = run(capsys, *args)
    assert code == INPUT_ERROR
    assert str(files[kind]) in stderr
    assert "can't decode byte 0xff in position 0" in stderr
    assert stdout == ""


@pytest.mark.parametrize("kind, source, section", [
    ("problem", TOWER, "(:goal (and (on a b)))"),
    ("problem", TOWER, "(:init (clear a))"),
    ("domain", INCOMPLETE, "(:predicates (extra ?x))"),
], ids=["goal", "init", "predicates"])
def test_a_repeated_section_is_a_located_input_error(tmp_path, capsys, kind, source, section):
    # a second copy of a once-only section is neither merged in nor dropped
    body = source.read_text().rstrip()[:-1]
    line = body.count("\n") + 2
    files = {"domain": INCOMPLETE, "problem": TOWER}
    files[kind] = tmp_path / source.name
    files[kind].write_text(f"{body}\n  {section})\n")
    keyword = section.split()[0][1:]
    with pytest.raises(PddlSyntaxError) as err:
        domain = parse_domain(files["domain"].read_text())
        parse_problem(files["problem"].read_text(), domain)
    assert (err.value.line, err.value.col) == (line, 3)
    code, stdout, stderr = run(capsys, "solve", "--incomplete-domain", files["domain"],
                               "--problem", files["problem"])
    assert code == INPUT_ERROR
    assert (f"error: in {kind} {files[kind]}: line {line}, col 3: "
            f"duplicate {kind} section {keyword}") in stderr
    assert stdout == ""


@pytest.mark.parametrize("flag, values, message", [
    ("--completeness", "0.5,1.5", "completeness level 1.5 outside [0, 1]"),
    ("--delta", "0,5", "delta 0 must be >= 1"),
])
def test_bad_grid_value_is_input_error_before_any_library(tmp_path, capsys, monkeypatch,
                                                          flag, values, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a case library was generated for a bad grid")

    monkeypatch.setattr(caseplan.experiment, "generate_case_library", refuse)
    code, stdout, stderr = run(capsys, "experiment", "--domain", DOMAIN, "--num-problems", 1,
                               "--blocks", 3, f"{flag}={values}", "--out", tmp_path / "rows.csv")
    assert code == INPUT_ERROR
    assert f"error: {message}" in stderr
    assert stdout == ""
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["gen-cases", "experiment"])
def test_domain_without_a_generator_asks_for_problems(tmp_path, capsys, command):
    domain = resources.files("caseplan") / "domains" / "driverlog.pddl"
    code, stdout, stderr = run(capsys, command, "--domain", domain, "--out", tmp_path / "out")
    assert code == INPUT_ERROR
    assert "error: domain driverlog has no problem generator" in stderr
    assert "--problems" in stderr
    assert stdout == ""
    assert not (tmp_path / "out").exists()
