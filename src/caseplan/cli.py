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
from .experiment import ExperimentSpec, make_problem_suite, run_experiment
from .generators import generate_case_library
from .mapping import best_mapping, build_fragments, mapping_score
from .mining import SequenceDB, mine_frequent
from .pddl import PddlError, domain_to_pddl, parse_domain, parse_problem, problem_to_pddl
from .pipeline import skeleton, solve_with_library
from .search import SearchConfig, solve
from .strips import StripsError

OK, PIPELINE_FAILURE, INPUT_ERROR = 0, 2, 3


class InputError(Exception):
    pass


def _load_domain(path: str):
    try:
        return parse_domain(Path(path).read_text())
    except OSError as err:
        raise InputError(f"cannot read domain {path}: {err}") from err
    except PddlError as err:
        raise InputError(f"in domain {path}: {err}") from err


def _load_problem(path: str, domain):
    try:
        return parse_problem(Path(path).read_text(), domain)
    except OSError as err:
        raise InputError(f"cannot read problem {path}: {err}") from err
    except PddlError as err:
        raise InputError(f"in problem {path}: {err}") from err


def _load_cases(path: str):
    try:
        return caseio.read_case_library(path)
    except (OSError, PddlError) as err:
        raise InputError(f"in case library {path}: {err}") from err


def _search_config(args) -> SearchConfig:
    return SearchConfig(heuristic=getattr(args, "heuristic", "relaxed-add"),
                        max_expansions=args.max_expansions)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


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
    domain = _load_domain(args.domain)
    problems = None
    if args.problems:
        problems = [_load_problem(str(p), domain)
                    for p in sorted(Path(args.problems).glob("*.pddl"))]
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
    domain = _load_domain(args.domain)
    scope = tuple(args.scope.split(",")) if args.scope else SCOPE_ALL
    spec = DegradeSpec(completeness=args.completeness, seed=args.seed, scope=scope)
    before = domain.atom_count()
    result = degrade(domain, spec)
    Path(args.out).write_text(domain_to_pddl(result))
    print(f"removed {before - result.atom_count()} of {before} schema atoms; "
          f"wrote {args.out}")
    return OK


def cmd_skeletal(args) -> int:
    domain = _load_domain(args.incomplete_domain)
    problem = _load_problem(args.problem, domain)
    _, pairs = skeleton(problem, _search_config(args))
    for pair in sorted(pairs):
        print(pair.pddl())
    return OK


def cmd_map(args) -> int:
    domain = _load_domain(args.domain)
    problem = _load_problem(args.problem, domain)
    for name, case in _load_cases(args.cases):
        mapping = best_mapping(case, problem)
        score = mapping_score(case, mapping, problem)
        pairs = " ".join(f"{o}->{v}" for o, v in sorted(mapping.items()))
        print(f"{name}: score={score} {{{pairs}}}")
    return OK


def cmd_mine(args) -> int:
    domain = _load_domain(args.domain)
    problem = _load_problem(args.problem, domain)
    fragments = build_fragments(problem, _load_cases(args.cases))
    result = mine_frequent(SequenceDB.from_sequences([f.actions for f in fragments]),
                           args.delta)
    if not fragments:
        print("no fragments")
        return OK
    for pattern in result.patterns:
        text = " ".join(a.pddl() for a in pattern)
        print(f"support={result.supports[pattern]} {text}")
    return OK


def cmd_solve(args) -> int:
    domain = _load_domain(args.incomplete_domain)
    problem = _load_problem(args.problem, domain)
    library = _load_cases(args.cases) if args.cases else []
    outcome = solve_with_library(problem, library, args.delta,
                                 config=_search_config(args),
                                 search_fallback=not args.no_fallback)
    print(f"pairs: {len(outcome.pairs)}")
    print(f"fragments: {len(outcome.fragments)}")
    print(f"patterns: {len(outcome.frequent.patterns)}")
    if outcome.plan is None:
        print("status: failed")
        print(f"stage: {outcome.failed_stage}")
        return PIPELINE_FAILURE
    print("status: solved")
    print(f"route: {outcome.route}")
    return _emit_plan(outcome.plan, args.out)


def cmd_solve_classical(args) -> int:
    domain = _load_domain(args.domain)
    problem = _load_problem(args.problem, domain)
    result = solve(problem, _search_config(args))
    print(f"status: {result.status}")
    print(f"expansions: {result.expansions}")
    if not result.solved:
        return PIPELINE_FAILURE
    return _emit_plan(result.plan, args.out)


def cmd_evaluate(args) -> int:
    domain = _load_domain(args.domain)
    paths = sorted(Path(args.problems).glob("*.pddl"))
    if not paths:
        raise InputError(f"no problems in {args.problems}")
    problems, solutions, ids = [], [], []
    for path in paths:
        problems.append(_load_problem(str(path), domain))
        ids.append(path.stem)
        plan_path = Path(args.plans) / f"{path.stem}.plan"
        solutions.append(caseio.read_plan(plan_path) if plan_path.exists() else None)
    report = evaluate(problems, solutions, domain, ids=ids)
    print(f"accuracy: {report.accuracy:.4f} ({report.n_correct}/{report.n_total})")
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
    domain = _load_domain(args.domain)
    if args.problems:
        problems = [_load_problem(str(p), domain)
                    for p in sorted(Path(args.problems).glob("*.pddl"))]
        if not problems:
            raise InputError(f"no problems in {args.problems}")
    else:
        problems = make_problem_suite(domain, args.num_problems, args.problem_seed,
                                      n_blocks=args.blocks)
    cases = _load_cases(args.cases) if args.cases else None
    spec = ExperimentSpec(
        domain=domain,
        problems=problems,
        case_counts=_int_list(args.case_counts),
        completeness_levels=_float_list(args.completeness),
        deltas=_int_list(args.delta),
        seeds=_int_list(args.seed),
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
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--heuristic", default="relaxed-add",
                   choices=["relaxed-add", "goal-count"])

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
    p.add_argument("--heuristic", default="relaxed-add",
                   choices=["relaxed-add", "goal-count"])

    p = add("solve-classical", cmd_solve_classical, searches=True, help="forward search only")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--out")
    p.add_argument("--heuristic", default="relaxed-add",
                   choices=["relaxed-add", "goal-count"])

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
    p.add_argument("--case-counts", default="40,80,120,160,200")
    p.add_argument("--completeness", default="0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--delta", default="5,15,25")
    p.add_argument("--seed", default="1")
    p.add_argument("--no-timing", action="store_true",
                   help="write cpu_millis as 0 for byte-reproducible CSV")
    p.add_argument("--artifacts", help="directory for per-run plan files")
    p.add_argument("--out", required=True, help="CSV output path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PddlError, StripsError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
