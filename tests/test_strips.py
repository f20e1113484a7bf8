"""Ground semantics: instantiation, applicability, application, execution."""

from __future__ import annotations

import functools
import itertools
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseplan import (
    ActionSchema,
    DegradeSpec,
    DomainModel,
    GroundAction,
    Grounding,
    StripsError,
    applicable,
    apply_action,
    degrade,
    execute_plan,
    grounded,
    parse_domain,
)
from caseplan.strips import PlanningProblem

from .conftest import A, GA, GOLDEN_SOLUTION, atoms, make_tower_problem
from .oracles import instantiate, substitute

DOMAIN_NAMES = ("blocks", "driverlog", "depots")


@functools.cache
def typed_grounding(name: str, completeness: float) -> Grounding:
    """A packaged domain, degraded with a fixed seed, grounded over two objects
    of every declared type."""
    model = parse_domain((resources.files("caseplan") / "domains" / f"{name}.pddl").read_text())
    model = degrade(model, DegradeSpec(completeness=completeness, seed=3))
    return Grounding(model, {f"{t}{i}": t for t in model.types for i in (1, 2)})


def test_grounded_pickup(blocks):
    ga = grounded(blocks, GA("pickup b"))
    assert ga.action == GA("pickup b")
    assert ga.pre == atoms("clear b", "ontable b", "handempty")
    assert ga.add == atoms("holding b")
    assert ga.delete == atoms("ontable b", "clear b", "handempty")


def test_grounded_no_params():
    schema = ActionSchema("noop", (), pre=frozenset(), add=frozenset(),
                          delete=frozenset())
    model = DomainModel(name="d", types={}, predicates={}, schemas={"noop": schema})
    ga = grounded(model, GA("noop"))
    assert ga.action == GA("noop")
    assert ga.pre == frozenset()


def test_grounded_stack_add(blocks):
    assert A("on b a") in grounded(blocks, GA("stack b a")).add


def test_grounded_wrong_arity(blocks):
    with pytest.raises(StripsError, match="expected 2 arguments, got 1"):
        grounded(blocks, GA("stack b"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grounded_matches_instantiate_reference(data):
    name = data.draw(st.sampled_from(DOMAIN_NAMES))
    grounding = typed_grounding(name, data.draw(st.sampled_from([1.0, 0.5])))
    action = data.draw(st.sampled_from(grounding.actions)).action
    schema = grounding.domain.schemas[action.name]
    reference = instantiate(schema, dict(zip(schema.variables, action.args)))
    assert grounded(grounding.domain, action) == reference


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_grounding_is_sorted_without_duplicates(name):
    grounding = typed_grounding(name, 1.0)
    assert list(grounding.atoms) == sorted(set(grounding.atoms))
    names = [ga.action for ga in grounding.actions]
    assert names == sorted(set(names))


def test_applicable_pickup_b(blocks, tower):
    assert applicable(tower.init, GA("pickup b"), blocks)


def test_applicable_empty_state(blocks):
    assert not applicable(frozenset(), GA("pickup b"), blocks)


def test_applicable_pickup_c_blocked(blocks, tower):
    # c sits on a, so it is not on the table
    assert not applicable(tower.init, GA("pickup c"), blocks)


def test_applicable_unknown_schema(blocks, tower):
    with pytest.raises(StripsError, match="unknown action schema"):
        applicable(tower.init, GA("teleport c"), blocks)


def test_apply_unstack(blocks, tower):
    state = apply_action(tower.init, GA("unstack c a"), blocks)
    assert A("clear a") in state
    assert A("holding c") in state
    assert A("on c a") not in state


def test_apply_empty_effects(blocks, tower):
    schema = ActionSchema("observe", (), pre=frozenset(), add=frozenset(),
                          delete=frozenset())
    model = DomainModel(name="blocks", types=dict(blocks.types),
                        predicates=dict(blocks.predicates),
                        schemas={**blocks.schemas, "observe": schema})
    assert apply_action(tower.init, GA("observe"), model) == tower.init


def test_apply_checks_precondition(blocks, tower):
    with pytest.raises(StripsError, match="not applicable"):
        apply_action(tower.init, GA("putdown c"), blocks)


def test_apply_is_deterministic(blocks, tower):
    s1 = apply_action(tower.init, GA("unstack c a"), blocks)
    s2 = apply_action(tower.init, GA("unstack c a"), blocks)
    assert s1 == s2


def test_golden_solution_reaches_goal(blocks, tower):
    result = execute_plan(tower, GOLDEN_SOLUTION)
    assert result.success
    assert tower.goal <= result.state


def test_empty_plan_goal_already_met(blocks):
    problem = PlanningProblem(name="done", domain=blocks,
                              objects={"a": "object"},
                              init=atoms("ontable a", "clear a", "handempty"),
                              goal=atoms("clear a"))
    assert execute_plan(problem, ()).success


def test_dropped_last_action_fails_goal_check(tower):
    result = execute_plan(tower, GOLDEN_SOLUTION[:-1])
    assert not result.success
    assert result.failed_step == len(GOLDEN_SOLUTION) - 1
    assert "on d c" in result.reason


def test_inapplicable_step_reports_index(tower):
    result = execute_plan(tower, (GA("pickup a"),))
    assert not result.success
    assert result.failed_step == 0


def test_success_implies_all_prefixes_execute(tower):
    for k in range(len(GOLDEN_SOLUTION)):
        prefix = GOLDEN_SOLUTION[:k]
        state = tower.init
        for action in prefix:
            assert applicable(state, action, tower.domain)
            state = apply_action(state, action, tower.domain)


def test_frame_property(blocks, tower):
    rng = random.Random(7)
    state = tower.init
    for _ in range(30):
        options = [ga for ga in Grounding.for_problem(tower).actions
                   if ga.pre <= state]
        ga = rng.choice(options)
        succ = apply_action(state, ga.action, blocks)
        untouched = ga.add | ga.delete
        for atom in state - untouched:
            assert atom in succ
        for atom in succ - untouched:
            assert atom in state
        state = succ


def test_grounding_matches_lifted_check(blocks):
    # On small object sets, grounding + subset test equals checking the
    # lifted precondition under each binding directly.
    objects = ["a", "b", "c"]
    problem = PlanningProblem(
        name="tiny", domain=blocks, objects={o: "object" for o in objects},
        init=atoms("ontable a", "on b a", "clear b", "ontable c", "clear c",
                   "handempty"),
        goal=frozenset())
    for schema in blocks.schemas.values():
        for combo in itertools.product(objects, repeat=len(schema.params)):
            binding = dict(zip(schema.variables, combo))
            action = GroundAction(schema.name, combo)
            lifted_holds = all(substitute(a, binding) in problem.init
                               for a in schema.pre)
            assert applicable(problem.init, action, blocks) == lifted_holds


def test_schema_rejects_add_delete_overlap():
    with pytest.raises(StripsError, match="overlap"):
        ActionSchema("bad", (("?x", "object"),),
                     pre=frozenset(), add=frozenset({A("clear ?x")}),
                     delete=frozenset({A("clear ?x")}))


def test_schema_rejects_undeclared_variable():
    with pytest.raises(StripsError, match="not a parameter"):
        ActionSchema("bad", (("?x", "object"),),
                     pre=frozenset({A("on ?x ?y")}), add=frozenset(),
                     delete=frozenset())


def test_domain_rejects_undeclared_predicate(blocks):
    schema = ActionSchema("fly", (("?x", "object"),),
                          pre=frozenset({A("winged ?x")}), add=frozenset(),
                          delete=frozenset())
    with pytest.raises(StripsError, match="undeclared predicate"):
        DomainModel(name="bad", types={"object": None},
                    predicates=dict(blocks.predicates),
                    schemas={"fly": schema})


def test_domain_leaves_callers_types_untouched():
    types = {"block": None}
    model = DomainModel(name="d", types=types, predicates={}, schemas={})
    assert types == {"block": None}
    assert model.types == {"block": None, "object": None}


def test_problem_rejects_unknown_object(blocks):
    with pytest.raises(StripsError, match="undeclared object"):
        PlanningProblem(name="bad", domain=blocks, objects={"a": "object"},
                        init=atoms("ontable zz"), goal=frozenset())


def test_grounding_enumerates_all_blocks_actions(blocks):
    problem = make_tower_problem(blocks)
    grounding = Grounding.for_problem(problem)
    # 4 objects: pickup/putdown 4 each, stack/unstack 16 each
    assert len(grounding.actions) == 4 + 4 + 16 + 16
    names = [ga.action for ga in grounding.actions]
    assert names == sorted(names)
    assert grounded(blocks, GA("pickup b")).pre == atoms(
        "clear b", "ontable b", "handempty")
