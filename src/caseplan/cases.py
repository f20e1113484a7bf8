"""File formats around the planner: case files, plan files, experiment CSV."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .pddl import PddlError, PddlSyntaxError, SList, _as_list, _as_symbol, _parse_atom, \
    read_sexprs
from .strips import Atom, GroundAction, Plan


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

    def objects(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for atom in list(self.init) + list(self.goal):
            seen.update(atom.args)
        for action in self.plan:
            seen.update(action.args)
        return tuple(sorted(seen))


def _parse_actions(nodes: list[object]) -> Plan:
    return tuple(GroundAction(*_parse_atom(n, variables_ok=False)) for n in nodes)


def parse_case(text: str) -> CaseFile:
    """Read the three-section case format: ``(:init ...) (:goal ...) (:plan ...)``."""
    sections: dict[str, SList] = {}
    for tree in read_sexprs(text):
        lst = _as_list(tree, "a case section")
        if not lst:
            raise PddlSyntaxError("empty case section", lst.line, lst.col)
        head = _as_symbol(lst[0], "a section keyword").text
        if head not in (":init", ":goal", ":plan"):
            raise PddlSyntaxError(f"unknown case section {head}", lst.line, lst.col)
        if head in sections:
            raise PddlSyntaxError(f"duplicate case section {head}", lst.line, lst.col)
        sections[head] = lst
    for required in (":init", ":goal", ":plan"):
        if required not in sections:
            raise PddlError(f"case is missing the {required} section")
    init = frozenset(_parse_atom(n, variables_ok=False) for n in sections[":init"][1:])
    goal = frozenset(_parse_atom(n, variables_ok=False) for n in sections[":goal"][1:])
    return CaseFile(init=init, goal=goal, plan=_parse_actions(sections[":plan"][1:]))


def case_to_text(case: CaseFile) -> str:
    """Canonical form: sorted atoms, plan order preserved, one section per line."""
    lines = [
        "(:init " + " ".join(a.pddl() for a in sorted(case.init)) + ")",
        "(:goal " + " ".join(a.pddl() for a in sorted(case.goal)) + ")",
        "(:plan " + " ".join(a.pddl() for a in case.plan) + ")",
    ]
    return "\n".join(lines) + "\n"


def read_case(path: Path | str) -> CaseFile:
    return parse_case(Path(path).read_text())


def write_case(path: Path | str, case: CaseFile) -> None:
    Path(path).write_text(case_to_text(case))


def read_case_library(directory: Path | str) -> list[tuple[str, CaseFile]]:
    """Load every ``*.case`` file in a directory, sorted by file name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise PddlError(f"case library {directory} is not a directory")
    out = []
    for path in sorted(directory.glob("*.case")):
        out.append((path.stem, read_case(path)))
    return out


def write_case_library(directory: Path | str, cases: list[tuple[str, CaseFile]]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, case in cases:
        write_case(directory / f"{name}.case", case)


def parse_plan(text: str) -> Plan:
    """Read a plan file: one ``(name arg1 arg2)`` per line, ';' comments allowed."""
    return _parse_actions(read_sexprs(text))


def plan_to_text(plan: Plan) -> str:
    return "".join(a.pddl() + "\n" for a in plan)


def read_plan(path: Path | str) -> Plan:
    return parse_plan(Path(path).read_text())


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
    cpu_millis: int  # wall-clock ms of the solve call, despite the name

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
