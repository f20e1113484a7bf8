"""Ground semantics: instantiation, applicability, application, execution."""

from __future__ import annotations

import copy
import functools
import gc
import itertools
import pickle
import random
import re
import weakref
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseplan import (
    ActionSchema,
    Atom,
    DegradeSpec,
    DomainModel,
    GroundAction,
    Grounding,
    StripsError,
    degrade,
    execute_plan,
    extract_causal_pairs,
    make_problem_suite,
    parse_domain,
    parse_problem,
    solve_with_library,
    trim,
)
from caseplan import strips
from caseplan.generators import random_blocks_state
from caseplan.strips import PlanningProblem

from .conftest import SMALL_SEARCH, A, GA, GOLDEN_SOLUTION, atoms, depots_start, \
    driverlog_start, make_tower_problem, named, named_pairs, op_ids
from .oracles import (
    GroundingThroughGrounded,
    action_names,
    atom_names,
    causal_pairs_on_atoms,
    execute_plan_on_atoms,
    grounded,
    instantiate,
    substitute,
    cut_on_atoms,
    trim_on_atoms,
)


def op_atoms(grounding: Grounding, action: GroundAction):
    """The (pre, add, delete) atoms of a ground action, through its op id."""
    return tuple(map(grounding.decode, grounding.ops_ids[grounding.op_id(action)]))


def applies(problem: PlanningProblem, action: GroundAction, state=None) -> bool:
    """Does the action apply in ``state`` (by default the problem's initial state)?"""
    grounding = Grounding.for_problem(problem)
    state = problem.init if state is None else state
    return grounding.run((grounding.op_id(action),), grounding.encode(state))[1] == 1

DOMAIN_NAMES = ("blocks", "driverlog", "depots")

# everything a Grounding holds: its model's schemas (not the model, which keeps
# the grounding), the integer tables, the two numberings and encode's memo, and
# no table of names
GROUNDING_FIELDS = {"schemas", "_atom_ids", "_op_ids", "atom_count", "_encoded",
                    "ops_ids", "adds", "waiting", "pre_counts", "free_ops"}


@functools.cache
def packaged_domain(name: str) -> DomainModel:
    return parse_domain((resources.files("caseplan") / "domains" / f"{name}.pddl").read_text())


@functools.cache
def typed_grounding(name: str, completeness: float) -> Grounding:
    """A packaged domain, degraded with a fixed seed, grounded over two objects
    of every declared type."""
    model = degrade(packaged_domain(name), DegradeSpec(completeness=completeness, seed=3))
    return Grounding(model, {f"{t}{i}": t for t in model.types for i in (1, 2)})


@st.composite
def any_atoms(draw, model: DomainModel, symbols: list[str]):
    """An atom of a declared or an unknown predicate, of its arity or one off, over ``symbols``."""
    name = draw(st.sampled_from(sorted(model.predicates) + ["teleported"]))
    arity = len(model.predicates.get(name, ("object",)))
    arity = draw(st.sampled_from([arity, arity, arity + 1, max(arity - 1, 0)]))
    return Atom(name, tuple(draw(st.lists(st.sampled_from(symbols), min_size=arity,
                                          max_size=arity))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DOMAIN_NAMES), st.sampled_from([1.0, 0.5, 0.2]), st.integers(0, 5),
       st.data())
def test_grounding_matches_grounding_through_grounded(name, completeness, seed, data):
    model = degrade(packaged_domain(name), DegradeSpec(completeness=completeness, seed=seed))
    objects = {f"{t}{i}": t for t in sorted(model.types)
               for i in range(data.draw(st.integers(0, 2), label=t))}
    reference = GroundingThroughGrounded(model, objects)
    grounding = Grounding(model, objects)
    # names to ids and back by the index arithmetic alone: no name table exists
    for i, atom in enumerate(reference.atoms):
        assert grounding.encode(frozenset({atom})) == {i}
        assert grounding.decode({i}) == {atom}
    for i, ga in enumerate(reference.actions):
        assert grounding.ops_ids[grounding.op_id(ga.action)] == reference.ops_ids[i]
        assert grounding.action(i) == ga.action
    assert grounding.encode(frozenset(reference.atoms)) == frozenset(range(len(reference.atoms)))
    index = {ga.action: i for i, ga in enumerate(reference.actions)}
    for _ in range(5):
        atom = data.draw(any_atoms(model, sorted(objects) + ["nowhere"]), label="atom")
        if atom in reference.atom_index:
            assert grounding.encode([atom]) == {reference.atom_index[atom]}
        else:
            assert raised(grounding.encode, [atom]) == \
                f"raised: atom {atom.pddl()} is outside the ground atom universe"
        action = data.draw(off_table_actions(model, objects), label="action")
        if action in index:
            assert grounding.ops_ids[grounding.op_id(action)] == reference.ops_ids[index[action]]
        else:
            assert raised(grounding.op_id, action) == raised(grounded, model, objects, action)
    assert vars(grounding).keys() == GROUNDING_FIELDS
    assert grounding.atom_count == len(reference.atoms)
    assert grounding.ops_ids == reference.ops_ids
    assert grounding.waiting == reference.waiting
    assert grounding.pre_counts == reference.pre_counts
    assert grounding.free_ops == reference.free_ops
    assert grounding.adds == tuple(tuple(sorted(add)) for _, add, _ in reference.ops_ids)
    # every name, one id at a time
    assert atom_names(grounding) == reference.atoms
    assert {a: i for i, a in enumerate(atom_names(grounding))} == reference.atom_index
    assert action_names(grounding) == tuple(ga.action for ga in reference.actions)
    assert {a: i for i, a in enumerate(action_names(grounding))} == index


def test_grounding_rejects_schema_broader_than_its_predicate():
    # ?x ranges over every object, but (clear ?x) only takes blocks, so
    # (pickup t1 h1) would need (clear t1), which is no ground atom; with no
    # hand there is no ground pickup, and nothing to reject
    schema = ActionSchema("pickup", (("?x", "object"), ("?h", "hand")),
                          pre=frozenset({A("clear ?x")}), add=frozenset(),
                          delete=frozenset({A("clear ?x")}))
    model = DomainModel(name="d", types={"block": "object", "hand": "object"},
                        predicates={"clear": ("block",)}, schemas={"pickup": schema})
    for build in (Grounding, GroundingThroughGrounded):
        with pytest.raises(StripsError, match="outside the ground atom universe") as err:
            build(model, {"b1": "block", "t1": "object", "h1": "hand"})
        if build is Grounding:  # the first object of ?x's pool that is no block, in PDDL
            assert str(err.value) == "atom (clear h1) is outside the ground atom universe"
        assert build(model, {"b1": "block", "t1": "object"}).ops_ids == ()


def test_grounded_pickup(tower):
    pre, add, delete = op_atoms(Grounding.for_problem(tower), GA("pickup b"))
    assert pre == atoms("clear b", "ontable b", "handempty")
    assert add == atoms("holding b")
    assert delete == atoms("ontable b", "clear b", "handempty")


def test_grounded_no_params():
    schema = ActionSchema("noop", (), pre=frozenset(), add=frozenset(),
                          delete=frozenset())
    model = DomainModel(name="d", types={}, predicates={}, schemas={"noop": schema})
    grounding = Grounding(model, {})
    assert action_names(grounding) == (GA("noop"),)
    op = grounding.op_id(GA("noop"))
    assert grounding.ops_ids[op] == (frozenset(),) * 3
    assert grounding.run((op,), frozenset()) == (frozenset(), 1)


def test_grounded_stack_add(tower):
    assert A("on b a") in op_atoms(Grounding.for_problem(tower), GA("stack b a"))[1]


def test_grounded_wrong_arity(tower):
    with pytest.raises(StripsError, match="expected 2 arguments, got 1"):
        Grounding.for_problem(tower).op_id(GA("stack b"))


def walking_package_problem() -> PlanningProblem:
    """A driverlog problem whose goal a package walking from l1 to l2 would reach."""
    return PlanningProblem(
        name="walk", domain=packaged_domain("driverlog"),
        objects={"p1": "obj", "d1": "driver", "l1": "location", "l2": "location"},
        init=atoms("at p1 l1", "at d1 l1", "path l1 l2"), goal=atoms("at p1 l2"))


@pytest.mark.parametrize("text, reason", [
    ("walk p1 l1 l2", "p1 is no object of type driver for ?d"),
    ("walk d1 l1 nowhere", "nowhere is no object of type location for ?to"),
    ("walk d1 d1 p1", "d1 is no object of type location for ?from"),
])
def test_step_names_the_first_ill_typed_argument(text, reason):
    problem = walking_package_problem()
    action = GA(text)
    message = f"action {action.pddl()}: {reason}"
    grounding = Grounding.for_problem(problem)
    with pytest.raises(StripsError) as err:
        grounding.op_id(action)
    assert str(err.value) == message
    plan = (GA("walk d1 l1 l2"), action)
    result = execute_plan(problem, plan)
    assert (result.success, result.failed_step, result.reason) == (False, 1, message)
    assert result.state == atoms("at p1 l1", "at d1 l2", "path l1 l2")
    # trim and causal-pair extraction walk op ids, which an action off the
    # table has none of: forming the plan's op ids raises the same message
    with pytest.raises(StripsError, match=f"^{re.escape(message)}$"):
        op_ids(problem, plan)
    assert execute_plan_on_atoms(problem, plan) == result


def test_atom_index_is_read_only(tower):
    # no atom index is kept: ids come from the numbering's arithmetic, and
    # what a grounding hands out or remembers cannot be changed through it;
    # it keeps no objects, so the caller's dict can change nothing either
    objects = dict(tower.objects)
    grounding = Grounding(tower.domain, objects)
    ids = grounding.encode(tower.init)
    assert type(ids) is frozenset and grounding.encode(tower.init) is ids
    assert all(type(table) is tuple for table in (grounding.ops_ids, grounding.adds,
                                                  grounding.waiting, grounding.pre_counts))
    objects["z"] = "object"
    with pytest.raises(StripsError, match="outside the ground atom universe"):
        grounding.encode([A("clear z")])
    objects.pop("a")
    assert grounding.decode(grounding.encode([A("clear a")])) == atoms("clear a")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grounded_matches_instantiate_reference(data):
    name = data.draw(st.sampled_from(DOMAIN_NAMES))
    grounding = typed_grounding(name, data.draw(st.sampled_from([1.0, 0.5])))
    action = data.draw(st.sampled_from(action_names(grounding)))
    schema = grounding.schemas[action.name]
    reference = instantiate(schema, {var: obj for (var, _), obj in zip(schema.params, action.args)})
    assert op_atoms(grounding, action) == (reference.pre, reference.add, reference.delete)


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_grounding_is_sorted_without_duplicates(name):
    grounding = typed_grounding(name, 1.0)
    assert list(atom_names(grounding)) == sorted(set(atom_names(grounding)))
    names = list(action_names(grounding))
    assert names == sorted(set(names))


def test_applicable_pickup_b(tower):
    assert applies(tower, GA("pickup b"))


def test_applicable_empty_state(tower):
    assert not applies(tower, GA("pickup b"), frozenset())


def test_applicable_pickup_c_blocked(tower):
    # c sits on a, so it is not on the table
    assert not applies(tower, GA("pickup c"))


def test_applicable_unknown_schema(tower):
    with pytest.raises(StripsError, match="unknown action schema"):
        applies(tower, GA("teleport c"))
    result = execute_plan(tower, (GA("teleport c"),))
    assert (result.failed_step, result.reason) == (0, "unknown action schema: teleport")


def test_apply_unstack(blocks, tower):
    state = execute_plan(tower, (GA("unstack c a"),)).state
    assert A("clear a") in state
    assert A("holding c") in state
    assert A("on c a") not in state


def test_apply_empty_effects(blocks, tower):
    schema = ActionSchema("observe", (), pre=frozenset(), add=frozenset(),
                          delete=frozenset())
    model = DomainModel(name="blocks", types=dict(blocks.types),
                        predicates=dict(blocks.predicates),
                        schemas={**blocks.schemas, "observe": schema})
    result = execute_plan(replace(tower, domain=model), (GA("observe"),))
    assert result.failed_step == 1 and result.state == tower.init


def test_apply_checks_precondition(blocks, tower):
    result = execute_plan(tower, (GA("putdown c"),))
    assert (result.success, result.failed_step, result.state) == (False, 0, tower.init)
    assert result.reason == "unsatisfied precondition (holding c) for (putdown c)"


def test_apply_is_deterministic(blocks, tower):
    s1 = execute_plan(tower, (GA("unstack c a"),)).state
    s2 = execute_plan(tower, (GA("unstack c a"),)).state
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
    # every step of every prefix applies: only the goal check may fail
    for k in range(len(GOLDEN_SOLUTION)):
        assert execute_plan(tower, GOLDEN_SOLUTION[:k]).failed_step == k


def test_frame_property(blocks, tower):
    rng = random.Random(7)
    actions = GroundingThroughGrounded(blocks, dict(tower.objects)).actions
    steps = ()
    state = tower.init
    for _ in range(30):
        options = [ga for ga in actions if ga.pre <= state]
        ga = rng.choice(options)
        steps += (ga.action,)
        succ = execute_plan(tower, steps).state
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
            binding = {var: obj for (var, _), obj in zip(schema.params, combo)}
            action = GroundAction(schema.name, combo)
            lifted_holds = all(substitute(a, binding) in problem.init
                               for a in schema.pre)
            assert applies(problem, action) == lifted_holds


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


@pytest.mark.parametrize("types, cyclic", [
    ({"a": "b", "b": "a"}, "a"),
    ({"a": "a"}, "a"),
    ({"c": "a", "a": "b", "b": "a"}, "a"),
])
def test_domain_rejects_a_cyclic_type_hierarchy(types, cyclic):
    with pytest.raises(StripsError, match=f"type {cyclic} is its own ancestor"):
        DomainModel(name="d", types=types, predicates={}, schemas={})


def test_domain_leaves_callers_types_untouched():
    types = {"block": None}
    model = DomainModel(name="d", types=types, predicates={}, schemas={})
    assert types == {"block": None}
    assert model.types == {"block": None, "object": None}


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_domain_mappings_are_read_only(name):
    model = packaged_domain(name)
    for mapping in (model.types, model.predicates, model.schemas):
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
        with pytest.raises(AttributeError):  # a read-only mapping has no pop
            mapping.pop(key)


def test_problem_objects_are_read_only(blocks):
    objects = {"a": "object", "b": "object"}
    problem = PlanningProblem(name="p", domain=blocks, objects=objects,
                              init=atoms("ontable a"), goal=atoms("ontable b"))
    objects["c"] = "object"  # the caller's dict is copied, not shared
    assert dict(problem.objects) == {"a": "object", "b": "object"}
    with pytest.raises(TypeError):
        problem.objects["c"] = "object"
    with pytest.raises(AttributeError):
        problem.objects.pop("a")


def test_two_parses_are_equal_and_hash_equal():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures" / "blocks"
    domain_text = (fixtures / "domain.pddl").read_text()
    problem_text = (fixtures / "tower.pddl").read_text()
    first, second = parse_domain(domain_text), parse_domain(domain_text)
    assert first == second and hash(first) == hash(second)
    p1, p2 = parse_problem(problem_text, first), parse_problem(problem_text, second)
    assert p1 == p2 and hash(p1) == hash(p2)
    assert len({first, second}) == 1 and len({p1, p2}) == 1


def test_degraded_models_are_new_hashable_values(blocks):
    spec = DegradeSpec(completeness=0.5, seed=4)
    model = degrade(blocks, spec)
    assert model == degrade(blocks, spec) and hash(model) == hash(degrade(blocks, spec))
    assert model != blocks
    with pytest.raises(TypeError):
        model.schemas["pickup"] = blocks.schemas["pickup"]
    problem = make_tower_problem(blocks)
    moved = replace(problem, domain=model)
    assert moved.domain is model and moved.objects == problem.objects
    assert moved != problem


def test_problem_rejects_unknown_object(blocks):
    with pytest.raises(StripsError, match="undeclared object"):
        PlanningProblem(name="bad", domain=blocks, objects={"a": "object"},
                        init=atoms("ontable zz"), goal=frozenset())


def test_grounding_enumerates_all_blocks_actions(blocks):
    problem = make_tower_problem(blocks)
    grounding = Grounding.for_problem(problem)
    # 4 objects: pickup/putdown 4 each, stack/unstack 16 each
    assert len(action_names(grounding)) == 4 + 4 + 16 + 16
    names = list(action_names(grounding))
    assert names == sorted(names)
    assert op_atoms(grounding, GA("pickup b"))[0] == atoms(
        "clear b", "ontable b", "handempty")


# The op-id simulator against the earlier one on Atom sets, on random action
# sequences over the vendored domains. Besides applicable and inapplicable
# well-typed actions, the sequences hold actions missing from the op table:
# an unknown schema, a wrong arity, and arguments of any type or no object at
# all. Each of those is no action of the problem: both simulators fail its
# step, with the same message. trim and causal-pair extraction walk op ids:
# forming the op ids of a plan that holds such an action raises the message
# that the atom simulators raise at it, and the op-id walks are checked on the
# plan and on its steps that are on the table.

@functools.cache
def simulator_start(name: str, completeness: float, seed: int):
    model = degrade(packaged_domain(name), DegradeSpec(completeness=completeness, seed=3))
    rng = random.Random(seed)
    if name == "blocks":
        objects = {f"b{i}": "object" for i in range(1, 5)}
        init = random_blocks_state(sorted(objects), rng)
    else:
        objects, init, _ = (driverlog_start if name == "driverlog" else depots_start)(rng)
    return model, objects, init, GroundingThroughGrounded(model, objects).actions


@st.composite
def off_table_actions(draw, model: DomainModel, objects):
    name = draw(st.sampled_from(sorted(model.schemas) + ["teleport"]))
    arity = len(model.schemas[name].params) if name in model.schemas else 1
    arity = draw(st.sampled_from([arity, arity, arity + 1, max(arity - 1, 0)]))
    symbols = st.sampled_from(sorted(objects) + ["nowhere"])
    return GroundAction(name, tuple(draw(st.lists(symbols, min_size=arity, max_size=arity))))


@st.composite
def plans_on_problems(draw):
    model, objects, init, actions = simulator_start(
        draw(st.sampled_from(DOMAIN_NAMES)), draw(st.sampled_from([1.0, 0.5])),
        draw(st.integers(0, 3)))
    state = init  # reached by the applicable steps drawn so far
    steps = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["applicable", "applicable", "any", "off-table"]))
        usable = [ga for ga in actions if ga.pre <= state]
        if kind == "applicable" and usable:
            ga = draw(st.sampled_from(usable))
            state = (state - ga.delete) | ga.add
            steps.append(ga.action)
        elif kind == "any" and actions:
            steps.append(draw(st.sampled_from(actions)).action)
        else:
            steps.append(draw(off_table_actions(model, objects)))
    goal = draw(st.sets(st.sampled_from(sorted(state | init)), max_size=3))
    problem = PlanningProblem(name="walk", domain=model, objects=objects, init=init,
                              goal=frozenset(goal))
    return problem, tuple(steps)


def raised(fn, *args, **kwargs):
    """``fn``'s result, or the message of the StripsError it raised."""
    try:
        return fn(*args, **kwargs)
    except StripsError as err:
        return f"raised: {err}"


@settings(max_examples=300, deadline=None)
@given(plans_on_problems())
def test_op_id_simulator_matches_atom_simulator(drawn):
    problem, steps = drawn
    grounding = Grounding.for_problem(problem)
    assert execute_plan(problem, steps, grounding=grounding) == \
        execute_plan_on_atoms(problem, steps)
    on_table = tuple(a for a in steps if not isinstance(raised(grounding.op_id, a), str))
    for plan in dict.fromkeys((steps, on_table)):
        ids = raised(op_ids, problem, plan)
        trimmed = ids if isinstance(ids, str) else \
            raised(lambda: named(problem, trim(ids, problem, grounding=grounding)))
        assert trimmed == raised(trim_on_atoms, plan, problem)
        # the trimmed plan before it is accepted, which executes step by step
        cut = raised(cut_on_atoms, plan, problem)
        for walked in (plan, cut) if isinstance(cut, tuple) else (plan,):
            ids = raised(op_ids, problem, walked)
            if isinstance(ids, str):
                continue
            assert raised(lambda: named_pairs(problem, extract_causal_pairs(
                ids, problem, grounding=grounding))) == \
                raised(causal_pairs_on_atoms, walked, problem)


# Grounding.run against the atom simulator, on random op-id walks over the
# vendored domains, under the complete model and a degraded one. A walk mixes
# ops that apply in the state its drawn applicable ops reach with any op of
# the table, so it holds ops that apply after one that does not, and ops
# whose add and delete lists share an atom (a depots truck driven from a
# place to itself), where deleting after adding would lose the atom.

@st.composite
def op_walks(draw):
    model, objects, init, actions = simulator_start(
        draw(st.sampled_from(DOMAIN_NAMES)), draw(st.sampled_from([1.0, 0.5])),
        draw(st.integers(0, 3)))
    state = init
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        usable = [i for i, ga in enumerate(actions) if ga.pre <= state]
        if usable and draw(st.integers(0, 3)):
            i = draw(st.sampled_from(usable))
            state = (state - actions[i].delete) | actions[i].add
        else:
            i = draw(st.integers(0, len(actions) - 1))
        ops.append(i)
    problem = PlanningProblem(name="walk", domain=model, objects=objects, init=init,
                              goal=frozenset())
    return problem, tuple(ops)


@settings(max_examples=300, deadline=None)
@given(op_walks())
def test_run_matches_the_atom_simulator(drawn):
    problem, ops = drawn
    grounding = Grounding.for_problem(problem)
    expected = execute_plan_on_atoms(problem, tuple(map(grounding.action, ops)))
    applied = len(ops) if expected.success else expected.failed_step
    state, count = grounding.run(ops, grounding.encode(problem.init))
    assert (grounding.decode(state), count) == (expected.state, applied)


# The groundings a model keeps (DomainModel.grounding). A test that counts or
# compares them works on a fresh copy of the model (``replace(model)``), since
# the session's models keep theirs across tests.

def grounding_tables(grounding: Grounding):
    """Every table of a grounding, and each atom and action named by id."""
    return (grounding.atom_count, grounding.ops_ids, grounding.adds, grounding.waiting,
            grounding.pre_counts, grounding.free_ops,
            tuple(map(grounding.action, range(len(grounding.ops_ids)))),
            sorted(grounding.decode(range(grounding.atom_count))))


def test_problems_over_equal_objects_share_one_grounding(blocks):
    model = replace(blocks)
    first, second = make_problem_suite(model, 2, 5, n_blocks=4)
    grounding = Grounding.for_problem(first)
    assert Grounding.for_problem(second) is grounding
    assert model.grounding(dict(second.objects)) is grounding
    # an equal model that is another object, and another object set, each
    # get their own
    other = replace(model)
    assert other == model
    assert Grounding.for_problem(replace(first, domain=other)) is not grounding
    (smaller,) = make_problem_suite(model, 1, 5, n_blocks=3)
    assert Grounding.for_problem(smaller) is not grounding
    assert Grounding.for_problem(first) is grounding


def test_a_model_keeps_the_groundings_of_its_latest_object_sets(blocks):
    model = replace(blocks)
    kept = strips._KEPT_GROUNDINGS
    object_sets = [{f"b{i}": "object" for i in range(n)} for n in range(1, kept + 3)]
    groundings = [model.grounding(objects) for objects in object_sets]
    # first in, first out: the first two object sets are no longer kept
    assert all(model.grounding(objects) is grounding
               for objects, grounding in zip(object_sets[2:], groundings[2:]))
    assert len(vars(model)["_groundings"]) == kept
    assert model.grounding(object_sets[0]) is not groundings[0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DOMAIN_NAMES), st.sampled_from([1.0, 0.6]), st.integers(0, 3),
       st.data())
def test_a_kept_grounding_has_the_tables_of_a_fresh_one(name, completeness, seed, data):
    # at completeness 1.0 the model is the packaged one itself, whose memo
    # carries over from earlier examples
    model = degrade(packaged_domain(name), DegradeSpec(completeness=completeness, seed=seed))
    for _ in range(3):
        objects = {f"{t}{i}": t for t in sorted(model.types)
                   for i in range(data.draw(st.integers(0, 2), label=t))}
        kept = model.grounding(objects)
        assert model.grounding(dict(objects)) is kept
        assert grounding_tables(kept) == grounding_tables(Grounding(model, objects))


def test_a_model_and_its_groundings_form_no_cycle(blocks):
    # with the cyclic collector off, a model whose groundings point back at
    # it would outlive its last reference
    gc.disable()
    try:
        model = degrade(blocks, DegradeSpec(completeness=0.6, seed=1))
        (problem,) = make_problem_suite(model, 1, 3, n_blocks=4)
        solve_with_library(problem, [], 1, config=SMALL_SEARCH)
        grounding = weakref.ref(Grounding.for_problem(problem))
        dead = weakref.ref(model)
        del model, problem
        assert dead() is None and grounding() is None
    finally:
        gc.enable()


def test_encode_stays_right_when_many_problems_share_a_grounding(blocks):
    model = replace(blocks)
    problems = make_problem_suite(model, 3 * strips._ENCODED_SETS, 9, n_blocks=4)
    grounding = Grounding.for_problem(problems[0])
    fresh = Grounding(model, problems[0].objects)
    for problem in problems + problems[::-1]:
        assert Grounding.for_problem(problem) is grounding
        for atom_set in (problem.init, problem.goal):
            # a list is never remembered
            assert grounding.encode(atom_set) == fresh.encode(list(atom_set))
        if problem is problems[-1]:
            # the memo keeps the latest sets, up to its bound
            assert len(grounding._encoded) == strips._ENCODED_SETS
            assert {problem.init, problem.goal} <= grounding._encoded.keys()


@pytest.mark.parametrize("copy_of", [lambda value: pickle.loads(pickle.dumps(value)),
                                     copy.deepcopy, copy.copy])
def test_models_and_problems_copy_without_their_groundings(blocks, copy_of):
    # the copy is rebuilt from its fields and keeps no grounding; a solve on
    # it builds its own and returns what the original returns
    model = degrade(blocks, DegradeSpec(completeness=0.6, seed=2))
    problems = make_problem_suite(model, 2, 4, n_blocks=4) + [make_tower_problem(blocks)]
    outcomes = [solve_with_library(p, [], 1, config=SMALL_SEARCH) for p in problems]
    for problem, outcome in zip(problems, outcomes):
        assert vars(problem.domain)["_groundings"]
        assert vars(copy_of(problem.domain))["_groundings"] == {}
        for value in (problem.domain, problem):
            restored = copy_of(value)
            assert restored == value and hash(restored) == hash(value)
        restored = copy_of(problem)
        assert solve_with_library(restored, [], 1, config=SMALL_SEARCH) == outcome
