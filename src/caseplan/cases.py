"""File formats around the planner: case files, plan files, experiment CSV."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .pddl import PddlError, _parse_atom, _sections, read_sexprs
from .strips import Atom, GroundAction, Plan

if TYPE_CHECKING:
    from .mapping import CaseIndex


# the most objects a case may name: case mapping recurses once per case
# object, so the bound stays well below the interpreter's recursion limit
MAX_CASE_OBJECTS = 500


@dataclass(frozen=True)
class CaseFile:
    """One recorded solution: an initial state, a goal, and the plan between them."""

    init: frozenset[Atom]
    goal: frozenset[Atom]
    plan: tuple[GroundAction, ...]

    def __post_init__(self) -> None:
        if not self.plan:
            raise PddlError("a case must contain a nonempty plan")
        for atom in list(self.init) + list(self.goal):
            if not atom.is_ground:
                raise PddlError(f"case atom {atom.pddl()} is not ground")
        n = len(self.objects())
        if n > MAX_CASE_OBJECTS:
            raise PddlError(f"a case names {n} objects; at most {MAX_CASE_OBJECTS} can be mapped")

    def objects(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for atom in list(self.init) + list(self.goal):
            seen.update(atom.args)
        for action in self.plan:
            seen.update(action.args)
        return tuple(sorted(seen))

    @cached_property
    def mapping_rows(self) -> CaseIndex:
        """What case mapping reads of this case (a :class:`caseplan.mapping.CaseIndex`),
        built on first use and kept. It depends on the case alone, so it is
        built once however many problems the case is mapped onto; it is no
        field, so equality, hashing and ``repr`` ignore it."""
        from .mapping import case_index  # mapping imports this module
        return case_index(self)


def _parse_actions(nodes: list[object]) -> Plan:
    return tuple(GroundAction(*_parse_atom(n, variables_ok=False)) for n in nodes)


CASE_SECTIONS = (":init", ":goal", ":plan")


def parse_case(text: str) -> CaseFile:
    """Read the three-section case format: ``(:init ...) (:goal ...) (:plan ...)``."""
    sections = _sections(read_sexprs(text), "case", CASE_SECTIONS)
    for required in CASE_SECTIONS:
        if required not in sections:
            raise PddlError(f"case is missing the {required} section")
    (init,), (goal,), (plan,) = (sections[kind] for kind in CASE_SECTIONS)
    return CaseFile(init=frozenset(_parse_atom(n, variables_ok=False) for n in init[1:]),
                    goal=frozenset(_parse_atom(n, variables_ok=False) for n in goal[1:]),
                    plan=_parse_actions(plan[1:]))


def case_to_text(case: CaseFile) -> str:
    """Canonical form: sorted atoms, plan order preserved, one section per line."""
    lines = [
        "(:init " + " ".join(a.pddl() for a in sorted(case.init)) + ")",
        "(:goal " + " ".join(a.pddl() for a in sorted(case.goal)) + ")",
        "(:plan " + " ".join(a.pddl() for a in case.plan) + ")",
    ]
    return "\n".join(lines) + "\n"


def read_case_library(directory: Path | str) -> list[tuple[str, CaseFile]]:
    """Load every ``*.case`` file in a directory, sorted by file name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise PddlError(f"case library {directory} is not a directory")
    out = []
    for path in sorted(directory.glob("*.case")):
        try:
            out.append((path.stem, parse_case(path.read_text())))
        except (PddlError, UnicodeDecodeError) as err:
            raise PddlError(f"{path}: {err}") from err
    return out


def write_case_library(directory: Path | str, cases: list[tuple[str, CaseFile]]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, case in cases:
        (directory / f"{name}.case").write_text(case_to_text(case))


def parse_plan(text: str) -> Plan:
    """Read a plan file: one ``(name arg1 arg2)`` per line, ';' comments allowed."""
    return _parse_actions(read_sexprs(text))


def plan_to_text(plan: Plan) -> str:
    return "".join(a.pddl() + "\n" for a in plan)


def write_plan(path: Path | str, plan: Plan) -> None:
    Path(path).write_text(plan_to_text(plan))


CSV_HEADER = ["domain", "num_cases", "completeness", "delta",
              "problem_id", "solved", "plan_length", "cpu_millis"]


@dataclass(frozen=True)
class ExperimentRow:
    """One (setting, problem) outcome of an experiment sweep."""

    domain: str
    num_cases: int
    completeness: float
    delta: int
    problem_id: str
    solved: bool
    plan_length: int
    # wall-clock ms, despite the name, of a standalone solve: the solve call
    # plus the row's skeleton, its mining and the fragment build of each
    # distinct case shape (a case's mapping_rows, which compare without
    # names) in its library prefix (see caseplan.experiment.run_experiment)
    cpu_millis: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.completeness <= 1.0:
            raise ValueError(f"completeness {self.completeness} outside [0, 1]")
        if self.delta < 1:
            raise ValueError(f"delta {self.delta} must be >= 1")

    def sort_key(self):
        return (self.domain, self.num_cases, self.completeness, self.delta, self.problem_id)


def write_rows(path: Path | str, rows: list[ExperimentRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in sorted(rows, key=ExperimentRow.sort_key):
            writer.writerow([row.domain, row.num_cases, str(float(row.completeness)),
                             row.delta, row.problem_id,
                             "true" if row.solved else "false",
                             row.plan_length, row.cpu_millis])


def read_rows(path: Path | str) -> list[ExperimentRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        out = []
        for rec in reader:
            out.append(ExperimentRow(
                domain=rec[0], num_cases=int(rec[1]), completeness=float(rec[2]),
                delta=int(rec[3]), problem_id=rec[4], solved=rec[5] == "true",
                plan_length=int(rec[6]), cpu_millis=int(rec[7])))
        return out
