"""Forward planner: validity, determinism, budget, heuristic behavior."""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseplan import (
    ActionSchema,
    DegradeSpec,
    DomainModel,
    Grounding,
    PlanningProblem,
    SearchConfig,
    StripsError,
    degrade,
    execute_plan,
    parse_domain,
    random_blocks_problem,
    relaxed_add_heuristic,
    solve,
)
import caseplan.search
from caseplan.generators import random_blocks_state
from caseplan.search import BUDGET, SOLVED, UNSOLVABLE, _h_add

from .conftest import atoms, depots_start, driverlog_start, make_tower_problem, typed_instance
from .oracles import (
    GroundingThroughGrounded,
    bfs_plan,
    h_add_rebuilding_index,
    solve_evaluating_every_successor,
    solve_testing_goal_at_pop,
)


def test_tower_problem_solved_and_valid(blocks):
    problem = make_tower_problem(blocks)
    result = solve(problem)
    assert result.status == SOLVED
    assert execute_plan(problem, result.plan).success


def test_goal_already_met_gives_empty_plan(blocks):
    problem = random_blocks_problem(blocks, 3, random.Random(0))
    trivial = type(problem)(name="t", domain=blocks, objects=problem.objects,
                            init=problem.init, goal=frozenset())
    assert solve(trivial).plan == ()


def test_against_bfs_oracle_on_small_instances(blocks):
    rng = random.Random(42)
    for i in range(25):
        problem = random_blocks_problem(blocks, 3, rng, name=f"o{i}")
        oracle = bfs_plan(problem)
        assert oracle is not None  # blocks goals are always reachable
        result = solve(problem)
        assert result.status == SOLVED
        assert execute_plan(problem, result.plan).success


def test_unsolvable_when_achiever_degraded_away(blocks):
    # removing every add list leaves the goal unreachable in the relaxation
    model = degrade(blocks, DegradeSpec(completeness=0.0, seed=1, scope=("add",)))
    problem = make_tower_problem(model)
    result = solve(problem)
    assert result.status == UNSOLVABLE


def test_budget_exhaustion(blocks):
    problem = make_tower_problem(blocks)
    result = solve(problem, SearchConfig(max_expansions=1))
    assert result.status == BUDGET
    assert result.plan is None


def test_heuristic_zero_iff_goal_holds(blocks):
    problem = make_tower_problem(blocks)
    grounding = Grounding.for_problem(problem)
    assert relaxed_add_heuristic(problem.init, frozenset(), grounding) == 0
    held = atoms("on c a")
    assert relaxed_add_heuristic(problem.init, held, grounding) == 0
    assert relaxed_add_heuristic(problem.init, problem.goal, grounding) > 0


def test_heuristic_names_an_atom_outside_the_universe_in_pddl(blocks):
    problem = make_tower_problem(blocks)
    grounding = Grounding.for_problem(problem)
    with pytest.raises(StripsError) as err:
        relaxed_add_heuristic(problem.init, atoms("on a zz"), grounding)
    assert str(err.value) == "atom (on a zz) is outside the ground atom universe"


def test_heuristic_exact_h_add_on_two_blocks(blocks):
    # from both blocks on the table: pickup costs 1, so (holding a) costs 1,
    # and stack a b costs 1 + h(holding a) + h(clear b) = 2 for (on a b)
    init = atoms("ontable a", "ontable b", "clear a", "clear b", "handempty")
    problem = PlanningProblem(name="two", domain=blocks, objects={"a": "object", "b": "object"},
                              init=init, goal=atoms("on a b"))
    grounding = Grounding.for_problem(problem)
    assert relaxed_add_heuristic(init, atoms("holding a"), grounding) == 1
    assert relaxed_add_heuristic(init, atoms("on a b"), grounding) == 2
    assert relaxed_add_heuristic(init, atoms("on a b", "on b a"), grounding) == 4


def test_heuristic_infinite_when_unreachable(blocks):
    model = degrade(blocks, DegradeSpec(completeness=0.0, seed=1, scope=("add",)))
    problem = make_tower_problem(model)
    grounding = Grounding.for_problem(problem)
    assert relaxed_add_heuristic(problem.init, problem.goal, grounding) == math.inf


def test_heuristic_is_a_float(blocks):
    problem = make_tower_problem(blocks)
    grounding = Grounding.for_problem(problem)
    held = relaxed_add_heuristic(problem.init, atoms("on c a"), grounding)
    reachable = relaxed_add_heuristic(problem.init, problem.goal, grounding)
    assert (held, type(held)) == (0.0, float)
    assert type(reachable) is float and 0 < reachable < math.inf
    model = degrade(blocks, DegradeSpec(completeness=0.0, seed=1, scope=("add",)))
    problem = make_tower_problem(model)
    unreachable = relaxed_add_heuristic(problem.init, problem.goal,
                                        Grounding.for_problem(problem))
    assert (unreachable, type(unreachable)) == (math.inf, float)


def test_h_add_settles_each_atom_once_at_its_least_cost():
    # Propositional ops (pre -> add). (t) is first charged 1 + 4 by `four`,
    # then lowered to 1 + 2 by `late`; (u) is added by two free ops. An atom
    # taken twice would fire `join_t` and `join_u` before (w6), at cost 6.
    def op(name, pre, add):
        return ActionSchema(name, (), pre=atoms(*pre), add=atoms(*add), delete=frozenset())

    chain = [op(f"w{i}", [f"w{i - 1}" if i > 1 else "s"], [f"w{i}"]) for i in range(1, 7)]
    ops = chain + [
        op("xs", ["s"], ["x1", "x2", "x3", "x4"]), op("y", ["x1"], ["y"]),
        op("four", ["x1", "x2", "x3", "x4"], ["t"]), op("late", ["y"], ["t"]),
        op("free1", [], ["u"]), op("free2", [], ["u"]),
        op("join_t", ["t", "w6"], ["g"]), op("join_u", ["u", "w6"], ["h"]),
    ]
    names = {a.predicate for o in ops for a in o.pre | o.add}
    model = DomainModel(name="p", types={}, predicates={n: () for n in names},
                        schemas={o.name: o for o in ops})
    grounding = Grounding(model, {})
    assert relaxed_add_heuristic(atoms("s"), atoms("t"), grounding) == 3
    assert relaxed_add_heuristic(atoms("s"), atoms("g"), grounding) == 1 + 3 + 6
    assert relaxed_add_heuristic(atoms("s"), atoms("h"), grounding) == 1 + 1 + 6
    for goal in ("g", "h"):
        state, goal_ids = grounding.encode(atoms("s")), tuple(grounding.encode(atoms(goal)))
        assert _h_add(state, goal_ids, grounding) == h_add_rebuilding_index(
            state, goal_ids, grounding)


def test_heuristic_sanity_bound_against_optimal(blocks):
    rng = random.Random(9)
    for i in range(15):
        problem = random_blocks_problem(blocks, rng.choice([2, 3]), rng, name=f"h{i}")
        optimal = bfs_plan(problem)
        grounding = Grounding.for_problem(problem)
        h0 = relaxed_add_heuristic(problem.init, problem.goal, grounding)
        assert h0 <= 3 * len(optimal)


def test_determinism(blocks):
    rng = random.Random(4)
    problem = random_blocks_problem(blocks, 5, rng)
    first = solve(problem)
    second = solve(problem)
    assert first.plan == second.plan
    assert first.expansions == second.expansions


def recording_h_add(calls: list):
    """_h_add, appending to ``calls`` each state it is called on."""
    def recorded(state, goal_ids, grounding):
        calls.append(state)
        return _h_add(state, goal_ids, grounding)

    return recorded


def counted_h_add(monkeypatch):
    """Wrap caseplan.search._h_add; the list records each state it is called on."""
    calls = []
    monkeypatch.setattr(caseplan.search, "_h_add", recording_h_add(calls))
    return calls


def test_goal_is_tested_when_generated(blocks, monkeypatch):
    # (holding d) is one action from the tower's init, and the goal successor
    # is the second one generated: the init is evaluated, and the expansion
    # that generates the goal evaluates none of its successors
    problem = replace(make_tower_problem(blocks), goal=atoms("holding d"))
    grounding = Grounding.for_problem(problem)
    goal = grounding.encode(problem.goal)
    before = next(i for i, (_, succ) in enumerate(grounding.successors(
        grounding.encode(problem.init))) if goal <= succ)
    calls = counted_h_add(monkeypatch)
    result = solve(problem, grounding=grounding)
    assert (result.status, result.expansions) == (SOLVED, 1)
    assert [a.pddl() for a in result.plan] == ["(pickup d)"]
    assert before == 1 and len(calls) == 1


def test_dead_end_is_evaluated_once(monkeypatch):
    # Propositional ops (pre -> add, del). From (s), (a) and (b) both have
    # h = 2, so (a) is expanded first, by discovery order; its successors
    # (x) and (z) are dead ends. Then (b) is expanded, and it too leads to (x).
    # With `finish`, (b)'s other successor (c) is queued unevaluated: `finish`
    # applies there, so h is 1. (s), (a), (b), (x) and (z) are evaluated.
    # Without `finish`, (b) is a dead end too and the space is exhausted after
    # the same five evaluations.
    def op(name, pre, add, delete=()):
        return ActionSchema(name, (), pre=atoms(*pre), add=atoms(*add), delete=atoms(*delete))

    ops = [op("to_a", ["s"], ["a"], ["s"]), op("to_b", ["s"], ["b"], ["s"]),
           op("fall_a", ["a"], ["x"], ["a"]), op("fall_b", ["b"], ["x"], ["b"]),
           op("make_z", ["a"], ["z"], ["a"]), op("win_a", ["a", "z"], ["g"]),
           op("b_to_c", ["b"], ["c"], ["b"]), op("finish", ["c"], ["g"])]
    names = {a.predicate for o in ops for a in o.pre | o.add}
    expected = {True: (SOLVED, ["to_b", "b_to_c", "finish"], 4, 5),
                False: (UNSOLVABLE, None, 2, 5)}
    for with_finish, (status, plan, expansions, evaluated) in expected.items():
        model = DomainModel(name="dead", types={}, predicates={n: () for n in names},
                            schemas={o.name: o for o in ops if with_finish or o.name != "finish"})
        problem = PlanningProblem(name="dead", domain=model, objects={},
                                  init=atoms("s"), goal=atoms("g"))
        grounding = Grounding(model, {})
        calls = counted_h_add(monkeypatch)
        result = solve(problem, grounding=grounding)
        assert result.status == status and result.expansions == expansions
        assert (result.plan and [a.name for a in result.plan]) == plan
        assert result == solve_testing_goal_at_pop(problem, SearchConfig(), grounding)
        assert calls.count(grounding.encode(atoms("x"))) == 1
        assert len(calls) == len(set(calls)) == evaluated


def test_a_one_step_successor_is_queued_unevaluated(monkeypatch):
    # Propositional ops (pre -> add, del), single goal (g). (t) is expanded
    # second; of its successors (l), (m) and (n), only (n) has an applicable
    # achiever of (g), `e_win`, and it is third in op order. So that expansion
    # evaluates nothing, and the next one, of (n), generates the goal.
    def op(name, pre, add, delete=()):
        return ActionSchema(name, (), pre=atoms(*pre), add=atoms(*add), delete=atoms(*delete))

    ops = [op("a_go", ["s"], ["t"], ["s"]), op("b_l", ["t"], ["l"], ["t"]),
           op("c_m", ["t"], ["m"], ["t"]), op("d_n", ["t"], ["n"], ["t"]),
           op("e_win", ["n"], ["g"]), op("f_l", ["l"], ["n"], ["l"]),
           op("f_m", ["m"], ["n"], ["m"])]
    names = {a.predicate for o in ops for a in o.pre | o.add}
    model = DomainModel(name="near", types={}, predicates={n: () for n in names},
                        schemas={o.name: o for o in ops})
    problem = PlanningProblem(name="near", domain=model, objects={},
                              init=atoms("s"), goal=atoms("g"))
    grounding = Grounding(model, {})
    t = grounding.encode(atoms("t"))
    assert [succ for _, succ in grounding.successors(t)] == [
        grounding.encode(atoms(x)) for x in ("l", "m", "n")]
    for budget, status, plan, expansions in ((100, SOLVED, ["a_go", "d_n", "e_win"], 3),
                                             (2, BUDGET, None, 2)):
        config = SearchConfig(max_expansions=budget)
        calls = counted_h_add(monkeypatch)
        result = solve(problem, config, grounding)
        assert (result.status, result.expansions) == (status, expansions)
        assert (result.plan and [a.name for a in result.plan]) == plan
        assert calls == [grounding.encode(atoms("s")), t]
        oracle_calls = []
        assert result == solve_evaluating_every_successor(
            problem, config, grounding, h=recording_h_add(oracle_calls))
        assert len(oracle_calls) == 5


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["blocks", "driverlog", "depots"]), st.integers(0, 2),
       st.sampled_from([1.0, 0.8, 0.5]), st.integers(0, 5), st.sampled_from([4, 300]))
def test_solve_matches_goal_at_pop_reference(name, seed, completeness, degrade_seed,
                                             max_expansions):
    # for the full goal and each single goal; a degraded model may have free
    # ops and dead ends, and the small budget is hit
    domain, problem, _ = typed_instance(name, seed)
    model = degrade(domain, DegradeSpec(completeness=completeness, seed=degrade_seed))
    problem = replace(problem, domain=model)
    grounding = Grounding.for_problem(problem)
    config = SearchConfig(max_expansions=max_expansions)

    def checked(state, goal_ids, grounding):
        value = _h_add(state, goal_ids, grounding)
        assert value == h_add_rebuilding_index(state, goal_ids, grounding)
        return value

    for goal in [problem.goal, *(frozenset({atom}) for atom in sorted(problem.goal))]:
        sub = replace(problem, goal=goal)
        assert solve(sub, config, grounding) == solve_testing_goal_at_pop(
            sub, config, grounding, h=checked)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["blocks", "driverlog", "depots"]), st.integers(0, 2),
       st.sampled_from([1.0, 0.8, 0.5]), st.integers(0, 5), st.sampled_from([1, 4, 300]))
def test_solve_evaluates_a_sub_multiset_of_the_reference(name, seed, completeness,
                                                         degrade_seed, max_expansions):
    # for the full goal and each single goal: the same result, and no state
    # evaluated that the search evaluating every new successor does not
    # evaluate as often
    domain, problem, _ = typed_instance(name, seed)
    model = degrade(domain, DegradeSpec(completeness=completeness, seed=degrade_seed))
    problem = replace(problem, domain=model)
    grounding = Grounding.for_problem(problem)
    config = SearchConfig(max_expansions=max_expansions)
    with pytest.MonkeyPatch.context() as patched:
        calls = counted_h_add(patched)
        for goal in [problem.goal, *(frozenset({atom}) for atom in sorted(problem.goal))]:
            sub = replace(problem, goal=goal)
            calls.clear()
            reference_calls = []
            assert solve(sub, config, grounding) == solve_evaluating_every_successor(
                sub, config, grounding, h=recording_h_add(reference_calls))
            assert not Counter(calls) - Counter(reference_calls)


def test_bad_config():
    with pytest.raises(ValueError):
        SearchConfig(max_expansions=0)


# Random reachable states of the vendored domains, under the complete model
# and a seeded half-complete one, for the properties below. The walk applies
# the actions that GroundingThroughGrounded grounds one by one, so it shares
# no code with Grounding.successors.

@functools.cache
def start(name: str, completeness: float, seed: int):
    model = parse_domain((resources.files("caseplan") / "domains" / f"{name}.pddl").read_text())
    model = degrade(model, DegradeSpec(completeness=completeness, seed=3))
    rng = random.Random(seed)
    if name == "blocks":
        objects = {f"b{i}": "object" for i in range(1, 5)}
        init = random_blocks_state(sorted(objects), rng)
    else:
        objects, init, _ = (driverlog_start if name == "driverlog" else depots_start)(rng)
    return Grounding(model, objects), GroundingThroughGrounded(model, objects).actions, init


@st.composite
def reachable_states(draw):
    grounding, actions, state = draw(st.builds(
        start, st.sampled_from(["blocks", "driverlog", "depots"]),
        st.sampled_from([1.0, 0.5]), st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 12))):
        usable = [ga for ga in actions if ga.pre <= state]
        if not usable:
            break
        ga = draw(st.sampled_from(usable))
        state = (state - ga.delete) | ga.add
    return grounding, actions, state


def relaxed_reachable(grounding: Grounding, state: frozenset[int]) -> frozenset[int]:
    """The atoms some sequence of ops reaches from ``state`` when deletes are ignored."""
    reached = set(state)
    grown = True
    while grown:
        grown = False
        for pre, add, _ in grounding.ops_ids:
            if pre <= reached and not add <= reached:
                reached |= add
                grown = True
    return frozenset(reached)


@settings(max_examples=200, deadline=None)
@given(reachable_states(), st.data())
def test_h_add_matches_rebuilding_reference(reached, data):
    # goals mix atoms of the state (cost 0), atoms no relaxed plan reaches
    # (cost inf) and any others, and may be empty
    grounding, _, state = reached
    ids = grounding.encode(state)
    unreachable = sorted(frozenset(range(grounding.atom_count))
                         - relaxed_reachable(grounding, ids))
    goal = set()
    for pool, most in ((sorted(ids), 2), (unreachable, 1), (range(grounding.atom_count), 3)):
        if pool:
            goal.update(data.draw(st.lists(st.sampled_from(pool), max_size=most)))
    goal_ids = tuple(sorted(goal))
    assert _h_add(ids, goal_ids, grounding) == h_add_rebuilding_index(ids, goal_ids, grounding)


def test_h_add_stops_once_the_goal_is_settled():
    # (g) costs 1, and a chain (c1), ..., (c40) costs 1, ..., 40. Once (g) is
    # settled no waiting list of the chain is read.
    def op(name, pre, add):
        return ActionSchema(name, (), pre=atoms(pre), add=atoms(add), delete=frozenset())

    ops = [op("reach_g", "s", "g"), op("c1", "s", "c1")]
    ops += [op(f"c{i}", f"c{i - 1}", f"c{i}") for i in range(2, 41)]
    names = {a.predicate for o in ops for a in o.pre | o.add}
    model = DomainModel(name="chain", types={}, predicates={n: () for n in names},
                        schemas={o.name: o for o in ops})
    grounding = Grounding(model, {})
    reads = []

    class CountedReads(tuple):
        def __getitem__(self, atom_id):
            reads.append(min(grounding.decode((atom_id,))).predicate)
            return tuple.__getitem__(self, atom_id)

    grounding.waiting = CountedReads(grounding.waiting)
    state = grounding.encode(atoms("s"))
    for goal, value, read in (("g", 1, {"s"}),
                              ("c40", 40, {"s", "g"} | {f"c{i}" for i in range(1, 40)})):
        reads.clear()
        goal_ids = tuple(grounding.encode(atoms(goal)))
        assert _h_add(state, goal_ids, grounding) == value
        assert sorted(reads) == sorted(read)
        assert h_add_rebuilding_index(state, goal_ids, grounding) == value


@settings(max_examples=200, deadline=None)
@given(reachable_states())
def test_successors_match_applicable_actions_in_order(reached):
    grounding, actions, state = reached
    expected = [(i, grounding.encode((state - ga.delete) | ga.add))
                for i, ga in enumerate(actions) if ga.pre <= state]
    assert list(grounding.successors(grounding.encode(state))) == expected
