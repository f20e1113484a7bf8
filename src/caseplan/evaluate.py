"""Score generated solutions by executing them under the complete model."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .strips import DomainModel, Plan, PlanningProblem, execute_plan


@dataclass(frozen=True)
class ProblemResult:
    problem_id: str
    solved: bool
    plan_length: int


@dataclass(frozen=True)
class EvalReport:
    """Accuracy over a problem set; mean plan length covers solved problems only."""

    n_total: int
    n_correct: int
    accuracy: float
    mean_plan_length: float | None
    per_problem: tuple[ProblemResult, ...]


def check_solution(problem: PlanningProblem, plan: Plan,
                   complete_model: DomainModel) -> bool:
    """Does the plan execute to the goal when the complete model replaces Ã?"""
    return execute_plan(replace(problem, domain=complete_model), plan).success


def evaluate(problems: list[PlanningProblem], solutions: list[Plan | None],
             complete_model: DomainModel, *,
             ids: list[str] | None = None) -> EvalReport:
    """A problem counts as correct iff it has a solution that executes to the
    goal under the complete model."""
    if not problems:
        raise ValueError("cannot evaluate an empty problem set")
    if len(problems) != len(solutions):
        raise ValueError(f"{len(problems)} problems but {len(solutions)} solutions")
    if ids is not None and len(ids) != len(problems):
        raise ValueError("ids misaligned with problems")

    per = []
    lengths = []
    for i, (problem, plan) in enumerate(zip(problems, solutions)):
        solved = plan is not None and check_solution(problem, plan, complete_model)
        if solved:
            lengths.append(len(plan))
        per.append(ProblemResult(
            problem_id=ids[i] if ids else problem.name,
            solved=solved,
            plan_length=len(plan) if plan is not None else 0))
    n_correct = sum(r.solved for r in per)
    return EvalReport(
        n_total=len(problems),
        n_correct=n_correct,
        accuracy=n_correct / len(problems),
        mean_plan_length=sum(lengths) / len(lengths) if lengths else None,
        per_problem=tuple(per))
