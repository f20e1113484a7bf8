"""Score generated solutions by executing them under the complete model."""

from __future__ import annotations

from dataclasses import dataclass

from .strips import DomainModel, Grounding, Plan, PlanningProblem, StripsError, execute_plan


@dataclass(frozen=True)
class ProblemResult:
    """One problem's verdict; an unsolved one says where its plan failed and why."""

    problem_id: str
    solved: bool
    plan_length: int
    # as ExecutionResult reports them; no step where there is no plan
    failed_step: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """Accuracy over a problem set; mean plan length covers solved problems only."""

    n_total: int
    n_correct: int
    accuracy: float
    mean_plan_length: float | None
    per_problem: tuple[ProblemResult, ...]


def check_solution(problem: PlanningProblem, plan: Plan, complete_model: DomainModel, *,
                   grounding: Grounding | None = None) -> bool:
    """Does the plan execute to the goal when the complete model replaces the incomplete model?

    ``grounding``, when given, must be ``Grounding(complete_model,
    problem.objects)``; by default it is the one the complete model keeps
    (``complete_model.grounding(problem.objects)``), so checking the plans of
    problems over the same objects builds one.

    This is ``execute_plan(...).success``, decided on atom ids alone: it names
    no state and gives no reason, and a step that is no action of the
    grounding reads as ``False``. The plan is numbered once, up to such a
    step, and walked by :meth:`Grounding.run`.
    """
    grounding = grounding or complete_model.grounding(problem.objects)
    try:
        ids = [grounding.op_id(action) for action in plan]
    except StripsError:
        return False
    state, applied = grounding.run(ids, grounding.encode(problem.init))
    return applied == len(ids) and grounding.encode(problem.goal) <= state


def evaluate(problems: list[PlanningProblem], solutions: list[Plan | None],
             complete_model: DomainModel, *,
             ids: list[str] | None = None) -> EvalReport:
    """A problem counts as correct iff it has a solution that executes to the
    goal under the complete model. An unsolved problem's result carries the
    step its plan failed at and the reason, as :func:`execute_plan` reports
    them, or the reason ``no plan``."""
    if not problems:
        raise ValueError("cannot evaluate an empty problem set")
    if len(problems) != len(solutions):
        raise ValueError(f"{len(problems)} problems but {len(solutions)} solutions")
    if ids is not None and len(ids) != len(problems):
        raise ValueError("ids misaligned with problems")

    per = []
    lengths = []
    for i, (problem, plan) in enumerate(zip(problems, solutions)):
        problem_id = ids[i] if ids else problem.name
        if plan is None:
            per.append(ProblemResult(problem_id, False, 0, reason="no plan"))
            continue
        result = execute_plan(problem, plan,
                              grounding=complete_model.grounding(problem.objects))
        if result.success:
            lengths.append(len(plan))
            per.append(ProblemResult(problem_id, True, len(plan)))
        else:
            per.append(ProblemResult(problem_id, False, len(plan),
                                     result.failed_step, result.reason))
    n_correct = sum(r.solved for r in per)
    return EvalReport(
        n_total=len(problems),
        n_correct=n_correct,
        accuracy=n_correct / len(problems),
        mean_plan_length=sum(lengths) / len(lengths) if lengths else None,
        per_problem=tuple(per))
