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
from caseplan.pddl import PddlSyntaxError

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
