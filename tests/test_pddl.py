"""PDDL front end: parsing, rejection of unsupported features, round trips."""

from __future__ import annotations

import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseplan import (
    PddlError,
    UnsupportedFeatureError,
    domain_to_pddl,
    parse_domain,
    parse_problem,
    problem_to_pddl,
)
from caseplan.cases import parse_case, parse_plan, plan_to_text
from caseplan.pddl import PddlSyntaxError, Token, read_sexprs

from .conftest import FIXTURES, GOLDEN_SOLUTION, TOWER_GOAL, TOWER_INIT, atoms


def packaged(name: str) -> str:
    return (resources.files("caseplan") / "domains" / name).read_text()


def test_parse_blocks_matches_hand_model(blocks, fixture_dir):
    parsed = parse_domain((fixture_dir / "domain.pddl").read_text())
    assert parsed.name == blocks.name
    assert parsed.predicates == blocks.predicates
    assert set(parsed.schemas) == set(blocks.schemas)
    for name in blocks.schemas:
        assert parsed.schemas[name] == blocks.schemas[name]


def test_parse_incomplete_matches_hand_model(incomplete_blocks, fixture_dir):
    parsed = parse_domain((fixture_dir / "incomplete.pddl").read_text())
    for name in incomplete_blocks.schemas:
        assert parsed.schemas[name] == incomplete_blocks.schemas[name]


def test_empty_action_list():
    model = parse_domain("(define (domain empty) (:predicates (p ?x)))")
    assert model.schemas == {}


def test_adl_rejected():
    with pytest.raises(UnsupportedFeatureError, match=":adl"):
        parse_domain("(define (domain x) (:requirements :adl))")


def test_negative_precondition_rejected():
    text = """(define (domain x) (:predicates (p ?a))
      (:action a :parameters (?v)
        :precondition (and (not (p ?v))) :effect (and (p ?v))))"""
    with pytest.raises(UnsupportedFeatureError):
        parse_domain(text)


def test_disjunctive_goal_rejected(blocks, fixture_dir):
    domain = parse_domain((fixture_dir / "domain.pddl").read_text())
    text = """(define (problem p) (:domain blocks) (:objects a)
      (:init (ontable a)) (:goal (or (clear a) (ontable a))))"""
    with pytest.raises(UnsupportedFeatureError, match="'or'"):
        parse_problem(text, domain)


def test_constants_rejected():
    with pytest.raises(UnsupportedFeatureError, match=":constants"):
        parse_domain("(define (domain x) (:constants a b))")


def test_syntax_error_has_position():
    with pytest.raises(PddlSyntaxError) as err:
        parse_domain("(define (domain x)\n  (:predicates (p ?x))")
    assert err.value.line == 1


def test_parse_tower_problem(fixture_dir):
    domain = parse_domain((fixture_dir / "domain.pddl").read_text())
    problem = parse_problem((fixture_dir / "tower.pddl").read_text(), domain)
    assert problem.init == TOWER_INIT
    assert problem.goal == TOWER_GOAL
    assert len(problem.goal) == 3


def test_empty_goal_allowed(fixture_dir):
    domain = parse_domain((fixture_dir / "domain.pddl").read_text())
    text = """(define (problem p) (:domain blocks) (:objects a)
      (:init (ontable a)) (:goal (and)))"""
    problem = parse_problem(text, domain)
    assert problem.goal == frozenset()


def test_arity_mismatch(fixture_dir):
    domain = parse_domain((fixture_dir / "domain.pddl").read_text())
    text = """(define (problem p) (:domain blocks) (:objects a)
      (:init (on a)) (:goal (and)))"""
    with pytest.raises(PddlError, match="arity"):
        parse_problem(text, domain)


def test_undeclared_object(fixture_dir):
    domain = parse_domain((fixture_dir / "domain.pddl").read_text())
    text = """(define (problem p) (:domain blocks) (:objects a)
      (:init (ontable q)) (:goal (and)))"""
    with pytest.raises(PddlError, match="undeclared object"):
        parse_problem(text, domain)


def test_wrong_domain_name(fixture_dir):
    domain = parse_domain((fixture_dir / "domain.pddl").read_text())
    text = "(define (problem p) (:domain logistics) (:init) (:goal (and)))"
    with pytest.raises(PddlError, match="logistics"):
        parse_problem(text, domain)


@pytest.mark.parametrize("name", ["blocks.pddl", "driverlog.pddl", "depots.pddl"])
def test_domain_round_trip(name):
    model = parse_domain(packaged(name))
    again = parse_domain(domain_to_pddl(model))
    assert again.name == model.name
    assert again.types == model.types
    assert again.predicates == model.predicates
    assert again.schemas == model.schemas


def test_problem_round_trip(fixture_dir):
    domain = parse_domain((fixture_dir / "domain.pddl").read_text())
    problem = parse_problem((fixture_dir / "tower.pddl").read_text(), domain)
    again = parse_problem(problem_to_pddl(problem), domain)
    assert again.objects == problem.objects
    assert again.init == problem.init
    assert again.goal == problem.goal


def test_driverlog_typed_parsing():
    model = parse_domain(packaged("driverlog.pddl"))
    assert model.types["driver"] == "locatable"
    assert model.types["location"] == "object"
    assert model.predicates["driving"] == ("driver", "truck")
    assert len(model.schemas) == 6


def test_depots_type_hierarchy():
    model = parse_domain(packaged("depots.pddl"))
    assert model.types["crate"] == "surface"
    assert model.types["depot"] == "place"
    assert len(model.schemas) == 5


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_parser_never_panics(data):
    text = data.decode("latin-1")
    try:
        parse_domain(text)
    except PddlError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="()abc?:- \n", max_size=120))
def test_parser_structured_errors_on_paren_soup(text):
    try:
        parse_domain(text)
    except PddlError:
        pass


# Hostile input: deep nesting, a nameless (:domain), and token-level
# mutations of the fixture texts end in a parse or a PddlError, never in
# another exception.

DEPTH = 5000
NESTED = "(" * DEPTH + ")" * DEPTH


def parse_as(kind: str, text: str):
    """Parse text as a domain, a blocks problem, a case or a plan."""
    if kind == "domain":
        return parse_domain(text)
    if kind == "problem":
        return parse_problem(text, parse_domain((FIXTURES / "domain.pddl").read_text()))
    return parse_case(text) if kind == "case" else parse_plan(text)


@pytest.mark.parametrize("kind, text, message", [
    ("domain", f"(define (domain d) {NESTED})",
     "line 1, col 21: expected a section keyword, found a list"),
    ("problem", f"(define (problem p) {NESTED})",
     "line 1, col 22: expected a section keyword, found a list"),
    ("case", f"(:init (clear a)) {NESTED}",
     "line 1, col 20: expected a section keyword, found a list"),
    ("plan", f"(pickup a)\n{NESTED}", "line 2, col 2: expected a predicate name, found a list"),
], ids=["domain", "problem", "case", "plan"])
def test_deep_nesting_ends_in_a_located_error(kind, text, message):
    with pytest.raises(PddlError) as err:
        parse_as(kind, text)
    assert str(err.value) == message
    with pytest.raises(PddlSyntaxError, match=rf"^line 1, col {DEPTH}: unbalanced '\('$"):
        parse_as(kind, "(" * DEPTH)


def test_deeply_nested_conjunctions_are_flattened():
    def nest(body: str) -> str:
        return "(and " * 2000 + body + ")" * 2000

    model = parse_domain(
        "(define (domain d) (:predicates (p ?x) (q ?x) (r ?x))\n"
        f"  (:action a :parameters (?x) :precondition {nest('(p ?x) (and) (q ?x)')}\n"
        f"    :effect {nest('(r ?x) (not (q ?x))')}))")
    schema = model.schemas["a"]
    assert (schema.pre, schema.add, schema.delete) == (
        atoms("p ?x", "q ?x"), atoms("r ?x"), atoms("q ?x"))
    problem = parse_problem(
        "(define (problem p) (:domain blocks) (:objects a)\n"
        f"  (:init (ontable a)) (:goal {nest('(clear a) (ontable a)')}))",
        parse_domain((FIXTURES / "domain.pddl").read_text()))
    assert problem.goal == atoms("clear a", "ontable a")


def test_domain_section_without_a_name_is_a_syntax_error(fixture_dir):
    domain = parse_domain((fixture_dir / "domain.pddl").read_text())
    text = "(define (problem p) (:domain) (:objects a) (:init) (:goal (and)))"
    with pytest.raises(PddlSyntaxError, match=r"^line 1, col 21: expected \(:domain NAME\)$"):
        parse_problem(text, domain)


MUTATION_SOURCES = {
    "domain": (FIXTURES / "domain.pddl").read_text(),
    "problem": (FIXTURES / "tower.pddl").read_text(),
    "case": (FIXTURES / "cases" / "p1.case").read_text(),
    "plan": plan_to_text(GOLDEN_SOLUTION),
}
_TOKEN = re.compile(r"[()]|[^\s();]+")


def source_tokens(text: str) -> list[str]:
    """The parens and symbols of a text, comments dropped."""
    return _TOKEN.findall(re.sub(r";[^\n]*", "", text))


MUTATION_VOCABULARY = sorted({tok for text in MUTATION_SOURCES.values()
                              for tok in source_tokens(text)})


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(MUTATION_SOURCES)), st.data())
def test_mutated_fixture_text_raises_only_pddl_errors(kind, data):
    # one to three tokens deleted, inserted or replaced, drawn from every
    # fixture's tokens
    tokens = source_tokens(MUTATION_SOURCES[kind])
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, len(tokens) - 1), label="at")
        edit = data.draw(st.sampled_from(["delete", "insert", "replace"]), label="edit")
        if edit == "delete":
            del tokens[i]
        else:
            tokens[i:i + (edit == "replace")] = [data.draw(st.sampled_from(MUTATION_VOCABULARY),
                                                           label="token")]
    try:
        parse_as(kind, " ".join(tokens))
    except PddlError:
        pass


# One section reader serves domain, problem and case text: each fixture is
# rewritten with one section per line, so a section's position is its line.

def render(node) -> str:
    """An s-expression on one line."""
    if isinstance(node, Token):
        return node.text
    return "(" + " ".join(render(child) for child in node) + ")"


def fixture_sections(kind: str) -> tuple[str | None, list[str]]:
    """A fixture's define head, None for a case, and its sections, one line each."""
    forms = read_sexprs(MUTATION_SOURCES[kind])
    if kind == "case":
        return None, [render(form) for form in forms]
    return render(forms[0][1]), [render(form) for form in forms[0][2:]]


def section_text(head: str | None, sections: list[str]) -> str:
    """The text whose sections start at col 1 of line i + 1 (a case) or i + 2."""
    body = "\n".join(sections)
    return body if head is None else f"(define {head}\n{body})"


READERS = ["domain", "problem", "case"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(READERS), st.data())
def test_a_repeated_section_is_located_at_the_copy(kind, data):
    head, sections = fixture_sections(kind)
    once = [i for i, text in enumerate(sections) if not text.startswith("(:action ")]
    i = data.draw(st.sampled_from(once), label="section")
    at = data.draw(st.integers(0, len(sections)), label="copy at")
    keyword = sections[i].split()[0][1:]
    sections.insert(at, sections[i])
    copy = max(at, i + 1)  # the later of the two
    with pytest.raises(PddlSyntaxError) as err:
        parse_as(kind, section_text(head, sections))
    assert (err.value.line, err.value.col) == (copy + (1 if head is None else 2), 1)
    assert str(err.value).endswith(f": duplicate {kind} section {keyword}")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(READERS), st.data())
def test_permuted_sections_parse_to_an_equal_value(kind, data):
    head, sections = fixture_sections(kind)
    permuted = data.draw(st.permutations(sections), label="sections")
    assert parse_as(kind, section_text(head, permuted)) == \
        parse_as(kind, MUTATION_SOURCES[kind])


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["(:metric minimize (total-cost))", "(:constraints (and))",
                        "(:length (:serial 4))"]), st.data())
def test_problem_sections_outside_the_subset_are_unsupported(section, data):
    head, sections = fixture_sections("problem")
    at = data.draw(st.integers(0, len(sections)), label="at")
    sections.insert(at, section)
    with pytest.raises(UnsupportedFeatureError) as err:
        parse_as("problem", section_text(head, sections))
    assert (err.value.line, err.value.col) == (at + 2, 1)
    assert str(err.value).endswith(f": {section.split()[0][1:]} sections are not supported")


@pytest.mark.parametrize("kind, section, error, message", [
    ("domain", "(:constants a b)", UnsupportedFeatureError, ":constants sections are not supported"),
    ("domain", "(:objects a b)", PddlSyntaxError, "unknown domain section :objects"),
    ("problem", "(:types t)", PddlSyntaxError, "unknown problem section :types"),
    ("case", "(:objects a b)", PddlSyntaxError, "unknown case section :objects"),
    ("case", "()", PddlSyntaxError, "empty section in case"),
])
def test_unknown_and_unsupported_sections_are_told_apart(kind, section, error, message):
    head, sections = fixture_sections(kind)
    with pytest.raises(PddlError) as err:
        parse_as(kind, section_text(head, sections + [section]))
    line = len(sections) + (1 if head is None else 2)
    assert type(err.value) is error
    assert str(err.value) == f"line {line}, col 1: {message}"
