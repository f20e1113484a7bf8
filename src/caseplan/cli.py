"""Command-line driver for the whole pipeline.

Exit codes: 0 success, 2 pipeline failure (no plan), 3 input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import cases as caseio
from .degrade import SCOPE_ALL, DegradeSpec, degrade
from .evaluate import evaluate
from .experiment import ExperimentSpec, accuracy_of, make_problem_suite, run_experiment
from .generators import generate_case_library
from .mapping import best_mapping, build_fragments, mapping_index, mapping_score
from .pddl import PddlError, domain_to_pddl, parse_domain, parse_problem, problem_to_pddl
from .pipeline import (ROUTE_FRAGMENTS, ROUTE_SEARCH, ROUTE_SKELETAL, mine_fragments, skeleton,
                       solve_with_library)
from .search import SearchConfig, solve
from .strips import Grounding, StripsError

OK, PIPELINE_FAILURE, INPUT_ERROR = 0, 2, 3


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors, not exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _load(what: str, path, parse, *args):
    """``parse(text, *args)`` of the file at ``path``; a file that cannot be
    read or parsed is an input error naming ``what`` and the path."""
    try:
        return parse(Path(path).read_text(), *args)
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {what} {path}: {err}") from err
    except PddlError as err:
        raise InputError(f"in {what} {path}: {err}") from err


def _load_problems(directory: str, domain):
    """The problem of every ``*.pddl`` file in the directory, by file stem,
    in file-name order; a directory with none is an input error."""
    paths = sorted(Path(directory).glob("*.pddl"))
    if not paths:
        raise InputError(f"no problems in {directory}")
    return {path.stem: _load("problem", path, parse_problem, domain) for path in paths}


def _load_cases(path: str):
    """The case library; its errors already name the directory or the file."""
    try:
        return caseio.read_case_library(path)
    except (OSError, PddlError) as err:
        raise InputError(str(err)) from err


def _check_output_dir(directory: Path, pattern: str) -> None:
    """An input error unless ``directory`` can hold this run's output: it is a
    directory, or its nearest existing ancestor is one, and it holds no
    ``pattern`` file, which would mix this run's output with an earlier
    run's. Checked before any work; nothing is made or deleted."""
    existing = next(path for path in (directory, *directory.parents) if path.exists())
    if not existing.is_dir():
        raise InputError(f"cannot write to {directory}: {existing} is not a directory")
    earlier = sorted(directory.glob(pattern)) if existing == directory else []
    if earlier:
        raise InputError(f"{directory} already holds {earlier[0].name} from another run; "
                         "write to an empty directory")


def _check_output_file(path: Path) -> None:
    """An input error unless a file can be written at ``path``, checked before
    any work: its directory exists and it is no directory itself."""
    if not path.parent.is_dir():
        raise InputError(f"cannot write to {path}: no directory {path.parent}")
    if path.is_dir():
        raise InputError(f"cannot write to {path}: it is a directory")


def _solved(rows) -> str:
    return f"{sum(r.solved for r in rows)}/{len(rows)} solved"


def _search_config(args) -> SearchConfig:
    return SearchConfig(max_expansions=args.max_expansions)


def _comma_list(convert):
    """An argparse type for a comma-separated list, named for its error message."""
    def parse(text: str) -> tuple:
        return tuple(convert(x) for x in text.split(","))
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


def _emit_plan(plan, out: str | None) -> int:
    """Print the plan length, then write the plan to ``out`` or print it."""
    print(f"plan-length: {len(plan)}")
    if out:
        caseio.write_plan(out, plan)
    else:
        for action in plan:
            print(action.pddl())
    return OK


def cmd_gen_cases(args) -> int:
    _check_output_dir(Path(args.out), "*.case")
    domain = _load("domain", args.domain, parse_domain)
    problems = list(_load_problems(args.problems, domain).values()) if args.problems else None
    library = generate_case_library(domain, args.count, args.seed,
                                    n_blocks=args.blocks,
                                    config=_search_config(args),
                                    problems=problems)
    caseio.write_case_library(args.out, library)
    print(f"wrote {len(library)} cases to {args.out}")
    if len(library) < args.count:
        print(f"warning: {args.count - len(library)} requested cases could not "
              "be generated", file=sys.stderr)
    return OK


def cmd_degrade(args) -> int:
    _check_output_file(Path(args.out))
    domain = _load("domain", args.domain, parse_domain)
    scope = tuple(args.scope.split(",")) if args.scope else SCOPE_ALL
    spec = DegradeSpec(completeness=args.completeness, seed=args.seed, scope=scope)
    before = domain.atom_count()
    result = degrade(domain, spec)
    Path(args.out).write_text(domain_to_pddl(result))
    print(f"removed {before - result.atom_count()} of {before} schema atoms; "
          f"wrote {args.out}")
    return OK


def cmd_skeletal(args) -> int:
    domain = _load("domain", args.incomplete_domain, parse_domain)
    problem = _load("problem", args.problem, parse_problem, domain)
    _, pairs, grounding, _ = skeleton(problem, _search_config(args))
    for provider, consumer in sorted(pairs):  # op ids sort as the actions they name
        print(f"{grounding.action(provider).pddl()} -> {grounding.action(consumer).pddl()}")
    return OK


def cmd_map(args) -> int:
    domain = _load("domain", args.domain, parse_domain)
    problem = _load("problem", args.problem, parse_problem, domain)
    index = mapping_index(problem)
    for name, case in _load_cases(args.cases):
        mapping = best_mapping(case, problem, index=index)
        score = mapping_score(case, mapping, problem)
        pairs = " ".join(f"{o}->{v}" for o, v in sorted(mapping.items()))
        print(f"{name}: score={score} {{{pairs}}}")
    return OK


def cmd_mine(args) -> int:
    domain = _load("domain", args.domain, parse_domain)
    problem = _load("problem", args.problem, parse_problem, domain)
    fragments = build_fragments(problem, _load_cases(args.cases))
    result = mine_fragments(fragments, args.delta)
    if not fragments:
        print("no fragments")
        return OK
    action = Grounding.for_problem(problem).action
    for pattern in result.patterns:
        text = " ".join(action(i).pddl() for i in pattern)
        print(f"support={result.supports[pattern]} {text}")
    return OK


def cmd_solve(args) -> int:
    if args.out:
        _check_output_file(Path(args.out))
    domain = _load("domain", args.incomplete_domain, parse_domain)
    problem = _load("problem", args.problem, parse_problem, domain)
    library = _load_cases(args.cases) if args.cases else []
    outcome = solve_with_library(problem, library, args.delta,
                                 config=_search_config(args),
                                 search_fallback=not args.no_fallback)
    print(f"pairs: {len(outcome.pairs)}")
    print(f"fragments: {len(outcome.fragments)}")
    print(f"patterns: {len(outcome.frequent.patterns)}")
    if outcome.uncovered is not None:
        print(f"uncovered: {outcome.uncovered.pddl()}")
    if outcome.plan is None:
        print("status: failed")
        print(f"stage: {outcome.failed_stage}")
        return PIPELINE_FAILURE
    print("status: solved")
    print(f"route: {outcome.route}")
    return _emit_plan(outcome.plan, args.out)


def cmd_solve_classical(args) -> int:
    if args.out:
        _check_output_file(Path(args.out))
    domain = _load("domain", args.domain, parse_domain)
    problem = _load("problem", args.problem, parse_problem, domain)
    result = solve(problem, _search_config(args))
    print(f"status: {result.status}")
    print(f"expansions: {result.expansions}")
    if not result.solved:
        return PIPELINE_FAILURE
    return _emit_plan(result.plan, args.out)


def cmd_evaluate(args) -> int:
    if args.out:
        _check_output_file(Path(args.out))
    domain = _load("domain", args.domain, parse_domain)
    problems = _load_problems(args.problems, domain)
    if not Path(args.plans).is_dir():
        raise InputError(f"no plans directory {args.plans}")
    plan_paths = [Path(args.plans) / f"{stem}.plan" for stem in problems]
    solutions = [_load("plan", path, caseio.parse_plan) if path.exists() else None
                 for path in plan_paths]
    report = evaluate(list(problems.values()), solutions, domain, ids=list(problems))
    print(f"accuracy: {report.accuracy:.4f} ({report.n_correct}/{report.n_total})")
    for r in report.per_problem:
        if not r.solved:
            where = "" if r.failed_step is None else f"step {r.failed_step}: "
            print(f"unsolved {r.problem_id}: {where}{r.reason}")
    if report.mean_plan_length is not None:
        print(f"mean-plan-length: {report.mean_plan_length:.2f}")
    if args.out:
        rows = [caseio.ExperimentRow(domain=domain.name, num_cases=0, completeness=1.0,
                                     delta=1, problem_id=r.problem_id, solved=r.solved,
                                     plan_length=r.plan_length, cpu_millis=0)
                for r in report.per_problem]
        caseio.write_rows(args.out, rows)
    return OK


def cmd_experiment(args) -> int:
    _check_output_file(Path(args.out))
    if args.artifacts:
        for part in ("problems", "plans"):
            _check_output_dir(Path(args.artifacts) / part, "*")
    domain = _load("domain", args.domain, parse_domain)
    if args.problems:
        problems = list(_load_problems(args.problems, domain).values())
    else:
        problems = make_problem_suite(domain, args.num_problems, args.problem_seed,
                                      n_blocks=args.blocks)
    cases = _load_cases(args.cases) if args.cases else None
    spec = ExperimentSpec(
        domain=domain,
        problems=problems,
        case_counts=args.case_counts,
        completeness_levels=args.completeness,
        deltas=args.delta,
        seeds=args.seed,
        search=_search_config(args),
        cases=cases,
        case_blocks=args.case_blocks,
        timing=not args.no_timing)
    rows, details = run_experiment(spec)
    caseio.write_rows(args.out, rows)
    if args.artifacts:
        artifacts = Path(args.artifacts)
        (artifacts / "problems").mkdir(parents=True, exist_ok=True)
        (artifacts / "plans").mkdir(parents=True, exist_ok=True)
        for detail in details:
            # problems are persisted once per id so any solved row can be
            # re-validated later against the complete domain
            problem_file = artifacts / "problems" / f"{detail.row.problem_id}.pddl"
            if not problem_file.exists():
                problem_text = problem_to_pddl(replace(detail.problem, domain=domain))
                problem_file.write_text(problem_text)
            if detail.plan is not None:
                stem = (f"{detail.row.problem_id}_n{detail.row.num_cases}"
                        f"_c{detail.row.completeness}_d{detail.row.delta}")
                caseio.write_plan(artifacts / "plans" / f"{stem}.plan", detail.plan)
    solved = sum(r.solved for r in rows)
    print(f"wrote {len(rows)} rows to {args.out} ({solved} solved)")
    # solved means valid under the complete model, as in the CSV
    cells = {(c, n): [r for r in rows if (r.completeness, r.num_cases) == (c, n)]
             for c in spec.completeness_levels for n in spec.case_counts}
    for (completeness, num_cases), cell in cells.items():
        print(f"completeness {completeness} cases {num_cases}: {_solved(cell)}")
    for route in (ROUTE_FRAGMENTS, ROUTE_SKELETAL, ROUTE_SEARCH, None):
        print(f"route {route or 'none'}: "
              f"{_solved([d.row for d in details if d.route == route])}")
    most = max(spec.case_counts)
    if most and 0 in spec.case_counts:
        for completeness in spec.completeness_levels:
            full, empty = cells[completeness, most], cells[completeness, 0]
            print(f"library gain at completeness {completeness}: "
                  f"{accuracy_of(full) - accuracy_of(empty):+.3f} "
                  f"({most} cases vs 0: {_solved(full)} vs {_solved(empty)})")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="caseplan",
        description="Case-based STRIPS planning with incomplete action models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, searches: bool = False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if searches:
            p.add_argument("--max-expansions", type=int, default=100_000,
                           help="search expansion budget")
        return p

    p = add("gen-cases", cmd_gen_cases, searches=True,
            help="solve random problems and record cases")
    p.add_argument("--domain", required=True, help="complete domain PDDL")
    p.add_argument("--problems", help="directory of source problems (default: generate)")
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--blocks", type=int, default=5, help="blocks per generated problem")
    p.add_argument("--out", required=True, help="case library directory")

    p = add("degrade", cmd_degrade, help="remove a fraction of schema atoms")
    p.add_argument("--domain", required=True)
    p.add_argument("--completeness", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scope", help="comma list among pre,add,delete (default all)")
    p.add_argument("--out", required=True)

    p = add("skeletal", cmd_skeletal, searches=True, help="print causal pairs for a problem")
    p.add_argument("--incomplete-domain", required=True)
    p.add_argument("--problem", required=True)

    p = add("map", cmd_map, help="print the best object mapping per case")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--cases", required=True)

    p = add("mine", cmd_mine, help="mine frequent fragments for a problem")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--cases", required=True)
    p.add_argument("--delta", type=int, default=15, help="support threshold")

    p = add("solve", cmd_solve, searches=True, help="full pipeline under an incomplete model")
    p.add_argument("--incomplete-domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--cases", help="case library directory")
    p.add_argument("--delta", type=int, default=15)
    p.add_argument("--out", help="plan file to write")
    p.add_argument("--no-fallback", action="store_true",
                   help="disable the direct-search fallback")

    p = add("solve-classical", cmd_solve_classical, searches=True, help="forward search only")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--out")

    p = add("evaluate", cmd_evaluate, help="validate plans under the complete model")
    p.add_argument("--domain", required=True)
    p.add_argument("--problems", required=True, help="directory of *.pddl problems")
    p.add_argument("--plans", required=True, help="directory of matching *.plan files")
    p.add_argument("--out", help="optional CSV output")

    p = add("experiment", cmd_experiment, searches=True, help="run a benchmark sweep to CSV")
    p.add_argument("--domain", required=True)
    p.add_argument("--problems", help="directory of test problems (default: generate)")
    p.add_argument("--num-problems", type=int, default=20)
    p.add_argument("--problem-seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=5)
    p.add_argument("--cases", help="fixed case library (default: generate per seed)")
    p.add_argument("--case-blocks", type=int, default=5)
    p.add_argument("--case-counts", type=_comma_list(int), default="40,80,120,160,200")
    p.add_argument("--completeness", type=_comma_list(float), default="0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--delta", type=_comma_list(int), default="5,15,25")
    p.add_argument("--seed", type=_comma_list(int), default="1")
    p.add_argument("--no-timing", action="store_true",
                   help="write cpu_millis as 0 for byte-reproducible CSV")
    p.add_argument("--artifacts", help="directory for per-run plan files")
    p.add_argument("--out", required=True, help="CSV output path")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, PddlError, StripsError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
