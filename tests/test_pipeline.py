"""The end-to-end driver and its fallback chain."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import caseplan.pipeline
import caseplan.search
from caseplan import (
    CaseFile,
    DegradeSpec,
    Grounding,
    build_fragments,
    degrade,
    execute_plan,
    generate_case_library,
    make_problem_suite,
    parse_domain,
    parse_problem,
    random_blocks_problem,
    read_case_library,
    solve_with_library,
)
from caseplan.causal import CausalPair, single_goal_plans
from caseplan.evaluate import check_solution
from caseplan.pipeline import (
    NO_PATTERNS,
    ROUTE_FRAGMENTS,
    ROUTE_SEARCH,
    ROUTE_SKELETAL,
    STAGE_MINING,
    STAGE_SKELETAL,
    mine_fragments,
    skeleton,
)
from caseplan.strips import PlanningProblem

from .conftest import (
    GA,
    GOLDEN_SOLUTION,
    SMALL_SEARCH,
    atoms,
    count_best_mapping_calls,
    make_p1,
    make_p2,
    named,
    named_pairs,
    plan,
    typed_instance,
)
from .oracles import execute_plan_on_atoms, solve_with_library_eager, trim_on_atoms


ROOT = Path(__file__).resolve().parent.parent


def library():
    return [("p1", make_p1()), ("p2", make_p2())]


def counted(real, calls: list):
    """``real``, appending the arguments of each call to ``calls``."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("domain, problem, cases, route", [
    ("fixtures/blocks/incomplete.pddl", "fixtures/blocks/tower.pddl", "fixtures/blocks/cases",
     ROUTE_FRAGMENTS),
    ("src/caseplan/domains/driverlog.pddl", "fixtures/driverlog/problem.pddl",
     "fixtures/driverlog/cases", ROUTE_SEARCH),
    ("fixtures/blocks/incomplete.pddl", "fixtures/blocks/goal-in-init.pddl",
     "fixtures/blocks/cases", ROUTE_SKELETAL),
])
def test_a_solve_builds_no_name_table(domain, problem, cases, route, monkeypatch):
    # every plan of a solve is checked on atom ids, so a solve names no atom;
    # its stages pass op ids, so it names no action but those it returns: the
    # plan (the skeletal plan comes named with the skeleton) and the
    # uncovered pair end of a solve that stopped mapping
    model = parse_domain((ROOT / domain).read_text())
    problem = parse_problem((ROOT / problem).read_text(), model)
    decoded, named_actions = [], []
    monkeypatch.setattr(Grounding, "decode", counted(Grounding.decode, decoded))
    skeletal = skeleton(problem)
    monkeypatch.setattr(Grounding, "action", counted(Grounding.action, named_actions))
    outcome = solve_with_library(problem, read_case_library(ROOT / cases), 1, skeletal=skeletal)
    assert outcome.route == route
    assert decoded == []
    assert len(named_actions) == (0 if route == ROUTE_SKELETAL else len(outcome.plan)) + \
        (outcome.uncovered is not None)
    result = execute_plan(problem, outcome.plan, grounding=skeletal.grounding)
    assert result.success
    assert result.state == execute_plan_on_atoms(problem, outcome.plan).state


def test_a_skeleton_walks_each_per_goal_plan_twice(blocks, monkeypatch):
    # the per-goal searches check their plans on op ids and record them, and
    # the only walks of a skeleton are of those op ids, one for causal pairs
    # and one in trim, which also decides whether the joined plan reaches the
    # goal; it numbers no plan by name and names only the trimmed plan
    problems = make_problem_suite(blocks, 30, 7, n_blocks=6)
    per_goal = sum(len(result.ops) for problem in problems
                   for _, result in single_goal_plans(problem) if result.solved)
    walked, numbered, executed, named_actions = [], [], [], []
    for walk in ("extract_causal_pairs", "trim"):
        monkeypatch.setattr(caseplan.pipeline, walk,
                            counted(getattr(caseplan.pipeline, walk), walked))
    monkeypatch.setattr(Grounding, "op_id", counted(Grounding.op_id, numbered))
    monkeypatch.setattr(Grounding, "action", counted(Grounding.action, named_actions))
    monkeypatch.setattr(caseplan.search, "execute_plan",
                        counted(caseplan.search.execute_plan, executed))
    skeletal_steps = sum(len(skeleton(problem).plan or ()) for problem in problems)
    assert per_goal == 298
    assert sum(len(ops) for ops, *_ in walked) == 2 * per_goal
    assert (numbered, executed) == ([], [])
    assert len(named_actions) == skeletal_steps


def test_golden_end_to_end(tower_incomplete, blocks):
    outcome = solve_with_library(tower_incomplete, library(), 1)
    assert outcome.route == ROUTE_FRAGMENTS
    assert outcome.plan == GOLDEN_SOLUTION
    assert check_solution(tower_incomplete, outcome.plan, blocks)


def test_skeletal_fallback_without_p2(tower_incomplete, blocks):
    outcome = solve_with_library(tower_incomplete, [("p1", make_p1())], 1)
    assert outcome.route == ROUTE_SKELETAL
    assert outcome.plan is not None
    # it runs under the incomplete model but is wrong for the real one:
    # stack b a fires while c still sits on a
    assert execute_plan(tower_incomplete, outcome.plan).success
    assert not check_solution(tower_incomplete, outcome.plan, blocks)


def test_search_fallback_with_no_cases(tower):
    outcome = solve_with_library(tower, [], 1)
    assert outcome.route == ROUTE_SEARCH
    assert execute_plan(tower, outcome.plan).success


def test_a_solve_given_its_skeleton_runs_no_full_goal_search(tower, tower_incomplete,
                                                            monkeypatch):
    # the full-goal search reads only the problem and its model, so the
    # skeleton runs it, and only where it has no skeletal plan; a solve given
    # the skeleton reads it there
    assert skeleton(tower_incomplete).search is None
    skeletal = skeleton(tower)
    assert skeletal.plan is None
    searched = []
    monkeypatch.setattr(caseplan.pipeline, "solve", counted(caseplan.pipeline.solve, searched))
    outcome = solve_with_library(tower, [], 1, skeletal=skeletal)
    assert searched == []
    assert (outcome.route, outcome.plan) == (ROUTE_SEARCH, skeletal.search.plan)


def test_goal_already_satisfied(blocks):
    problem = PlanningProblem(name="t", domain=blocks, objects={"a": "object"},
                              init=atoms("ontable a", "clear a", "handempty"),
                              goal=atoms("clear a"))
    outcome = solve_with_library(problem, library(), 1)
    assert outcome.plan == ()
    assert skeleton(problem).plan == ()  # a skeletal plan, not None
    # no fragment makes the empty plan: it is the skeleton's
    assert outcome.route == ROUTE_SKELETAL
    assert (outcome.pairs, outcome.fragments, outcome.frequent) == (frozenset(), (), NO_PATTERNS)


def no_pair_problems(blocks, tower):
    """Problems whose skeleton has no causal pairs: a goal that holds
    initially, a goal one action away, and a goal no action adds."""
    no_adds = degrade(blocks, DegradeSpec(completeness=0.0, seed=1, scope=("add",)))
    return {
        "goal-in-init": replace(tower, goal=atoms("on c a")),
        "one-step": replace(tower, goal=atoms("holding d")),
        "no-achiever": replace(tower, domain=no_adds),
    }


@pytest.mark.parametrize("passed_in", [False, True])
@pytest.mark.parametrize("name, route", [("goal-in-init", ROUTE_SKELETAL),
                                         ("one-step", ROUTE_SKELETAL),
                                         ("no-achiever", None)])
def test_no_pairs_maps_and_mines_nothing(blocks, tower, monkeypatch, passed_in, name, route):
    # with no pair to direct it, a solve neither builds fragments nor mines
    # them, also when the caller passes in the fragments and the patterns
    problem = no_pair_problems(blocks, tower)[name]
    stages = {}
    if passed_in:
        fragments = tuple(build_fragments(problem, library()))
        stages = dict(fragments=fragments, frequent=mine_fragments(fragments, 1))
        assert fragments and stages["frequent"].patterns

    def refuse(*args, **kwargs):
        raise AssertionError("mapped or mined with no causal pairs")

    monkeypatch.setattr(caseplan.pipeline, "build_fragments", refuse)
    monkeypatch.setattr(caseplan.pipeline, "mine_fragments", refuse)
    monkeypatch.setattr(caseplan.pipeline, "concat_frag", refuse)
    outcome = solve_with_library(problem, library(), 1, **stages)
    assert outcome.pairs == frozenset()
    assert outcome.route == route
    assert outcome.failed_stage == (STAGE_SKELETAL if route is None else None)
    assert (outcome.fragments, outcome.frequent) == ((), NO_PATTERNS)


@pytest.mark.parametrize("name", ["tower", "goal-in-init", "one-step", "no-achiever"])
def test_a_support_below_one_is_refused_before_any_stage(blocks, tower, monkeypatch, name):
    # the threshold is checked first, so a problem whose skeleton has no
    # pairs, and which would mine nothing, refuses it as one with pairs does
    problem = {"tower": tower, **no_pair_problems(blocks, tower)}[name]

    def refuse(*args, **kwargs):
        raise AssertionError("a stage ran before the threshold was checked")

    monkeypatch.setattr(caseplan.pipeline, "skeleton", refuse)
    for min_support in (0, -1):
        with pytest.raises(ValueError, match=f"min_support {min_support} must be >= 1"):
            solve_with_library(problem, library(), min_support)


def test_failure_stage_skeletal(blocks, tower):
    # no cases and a goal atom without any achiever in the degraded model
    from caseplan import DegradeSpec, degrade
    model = degrade(blocks, DegradeSpec(completeness=0.0, seed=1, scope=("add",)))
    problem = PlanningProblem(name="t", domain=model, objects=tower.objects,
                              init=tower.init, goal=tower.goal)
    outcome = solve_with_library(problem, [], 1)
    assert outcome.plan is None
    assert outcome.failed_stage == STAGE_SKELETAL


def test_failure_stage_mining(blocks, tower):
    # mutually unreachable goal pair: each hand atom is singly plannable, so
    # causal pairs exist, but no model can hold two blocks at once and the
    # library offers no fragments
    problem = PlanningProblem(name="t", domain=blocks, objects=tower.objects,
                              init=tower.init,
                              goal=atoms("holding a", "holding b"))
    outcome = solve_with_library(problem, [], 1)
    assert outcome.plan is None
    assert outcome.pairs  # (holding a) needs unstack/putdown/pickup chain
    assert outcome.failed_stage == STAGE_MINING


def test_the_cut_bounds_fragments_by_schema_steps_not_cases(blocks, monkeypatch):
    # one case holds (pickup a) (stack a b) twice, split by steps on c, which
    # the two-block problem has no object for: two fragments hold each end of
    # the pair, so at delta 2 the pair is frequent though only one case is
    case = CaseFile(init=atoms("clear a", "clear b", "clear c", "handempty",
                               "ontable a", "ontable b", "ontable c"),
                    goal=atoms("on a b"),
                    plan=plan("pickup a,stack a b,unstack a b,putdown a,"
                              "pickup c,putdown c,pickup a,stack a b"))
    problem = PlanningProblem(name="two", domain=blocks, objects={"a": "object", "b": "object"},
                              init=atoms("clear a", "clear b", "handempty",
                                         "ontable a", "ontable b"),
                              goal=atoms("on a b"))
    assert [named(problem, f) for f in build_fragments(problem, [("case", case)])] == \
        [plan("pickup a,stack a b,unstack a b,putdown a"), plan("pickup a,stack a b")]
    outcome = solve_with_library(problem, [("case", case)], 2)
    assert named_pairs(problem, outcome.pairs) == {CausalPair(GA("pickup a"), GA("stack a b"))}
    assert (outcome.route, outcome.uncovered) == (ROUTE_FRAGMENTS, None)
    assert outcome.plan == plan("pickup a,stack a b")
    # a second copy of the case shares its index but holds two fragments more
    twice = solve_with_library(problem, [("case", case), ("copy", case)], 4)
    assert (twice.route, twice.uncovered) == (ROUTE_FRAGMENTS, None)
    # at delta 3 (stack a b) cannot lie in three fragments, as the case has two
    # stack steps: the solve is cut before it maps the case
    calls = count_best_mapping_calls(monkeypatch)
    cut = solve_with_library(problem, [("case", case)], 3)
    assert (cut.uncovered, cut.route, calls) == (GA("stack a b"), ROUTE_SKELETAL, [])


def test_a_cut_solve_maps_fewer_cases_than_the_library_has(monkeypatch):
    # on the driverlog fixture at delta 1, (board-truck d1 t1 l5) lies in no
    # fragment of the first case mapped, and the other two cases have no
    # board-truck step: the solve stops after one mapping where the eager
    # build maps all three
    domain = parse_domain((ROOT / "src/caseplan/domains/driverlog.pddl").read_text())
    problem = parse_problem((ROOT / "fixtures/driverlog/problem.pddl").read_text(), domain)
    cases = read_case_library(ROOT / "fixtures/driverlog/cases")
    calls = count_best_mapping_calls(monkeypatch)
    outcome = solve_with_library(problem, cases, 1)
    assert outcome.uncovered == GA("board-truck d1 t1 l5")
    assert (outcome.fragments, outcome.frequent, outcome.route) == ((), NO_PATTERNS, ROUTE_SEARCH)
    assert 0 < len(calls) < len({case.mapping_rows for _, case in cases})
    eager = solve_with_library_eager(problem, cases, 1)
    assert len(calls) == 1 + len({case.mapping_rows for _, case in cases})
    assert (eager.plan, eager.route, eager.pairs) == (outcome.plan, outcome.route, outcome.pairs)


def test_pipeline_is_deterministic(tower_incomplete):
    first = solve_with_library(tower_incomplete, library(), 1)
    second = solve_with_library(tower_incomplete, library(), 1)
    assert first.plan == second.plan
    assert first.route == second.route


def test_concat_results_execute_under_incomplete_model(blocks, incomplete_blocks):
    # soundness: whatever the fragment route returns must run under the
    # model it was assembled against
    rng = random.Random(2)
    from caseplan import generate_case_library
    cases = generate_case_library(blocks, 12, 7, n_blocks=4)
    for i in range(10):
        problem = random_blocks_problem(incomplete_blocks, 4, rng, name=f"q{i}")
        outcome = solve_with_library(problem, cases, 2, search_fallback=False)
        if outcome.plan is not None and outcome.route == ROUTE_FRAGMENTS:
            assert execute_plan(problem, outcome.plan).success


instances = st.builds(typed_instance, st.sampled_from(["blocks", "driverlog", "depots"]),
                      st.integers(0, 5))


@settings(max_examples=40, deadline=None)
@given(instances, st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_fragments_do_not_depend_on_the_model(instance, completeness, seed):
    domain, problem, cases = instance
    model = degrade(domain, DegradeSpec(completeness=completeness, seed=seed))
    assert build_fragments(replace(problem, domain=model), cases) == \
        build_fragments(problem, cases)


@settings(max_examples=25, deadline=None)
@given(instances, st.sampled_from([0.4, 0.8, 1.0]), st.integers(0, 2**16), st.integers(1, 3))
def test_given_fragments_solve_like_built_ones(instance, completeness, seed, delta):
    # each stage passed in, as run_experiment passes it, solves like the stage
    # the call computes itself: the fragments, the skeleton of (problem,
    # model) and the patterns of (fragments, delta); a call that stopped
    # mapping at an uncovered pair end built fewer fragments but finds the
    # same plan on the same route
    domain, problem, cases = instance
    problem = replace(problem, domain=degrade(domain, DegradeSpec(completeness, seed)))
    fragments = tuple(build_fragments(problem, cases))
    computed = solve_with_library(problem, cases, delta, config=SMALL_SEARCH)
    given = solve_with_library(problem, cases, delta, config=SMALL_SEARCH, fragments=fragments)
    event(f"{domain.name} cut {computed.uncovered is not None}")
    if computed.uncovered is None:
        assert given == computed
    else:
        assert (given.plan, given.route, given.pairs) == \
            (computed.plan, computed.route, computed.pairs)
    assert solve_with_library(problem, cases, delta, config=SMALL_SEARCH,
                              fragments=fragments,
                              skeletal=skeleton(problem, SMALL_SEARCH),
                              frequent=mine_fragments(fragments, delta)) == given


@settings(max_examples=40, deadline=None)
@given(instances, st.sampled_from([0.2, 0.6, 1.0]), st.integers(0, 2**16))
def test_skeletal_plan_matches_reference(instance, completeness, seed):
    # the solved per-goal plans joined in sorted goal order and trimmed, kept
    # iff it executes: () is a skeletal plan, None is none
    domain, problem, _ = instance
    problem = replace(problem, domain=degrade(domain, DegradeSpec(completeness, seed)))
    joined = tuple(action for _, result in single_goal_plans(problem, SMALL_SEARCH)
                   if result.solved for action in result.plan)
    assert skeleton(problem, SMALL_SEARCH).plan == trim_on_atoms(joined, problem)


@settings(max_examples=200, deadline=None)
@given(instances, st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]), st.integers(0, 2**16),
       st.integers(1, 3))
def test_every_route_is_sound_and_deterministic(instance, completeness, seed, delta):
    # on every vendored domain: a plan from any route executes under the model
    # it was solved with, check_solution is execution under the complete
    # model, and an identical call returns an equal outcome
    domain, problem, cases = instance
    solved_under = replace(problem, domain=degrade(domain, DegradeSpec(completeness, seed)))
    outcome = solve_with_library(solved_under, cases, delta, config=SMALL_SEARCH)
    assert solve_with_library(solved_under, cases, delta, config=SMALL_SEARCH) == outcome
    event(f"{domain.name} route {outcome.route}")
    if outcome.plan is not None:
        assert execute_plan_on_atoms(solved_under, outcome.plan).success
        assert check_solution(solved_under, outcome.plan, domain) == \
            execute_plan_on_atoms(problem, outcome.plan).success


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["blocks", "driverlog", "depots"]), st.integers(0, 23),
       st.sampled_from([0.2, 0.6, 1.0]), st.integers(0, 2**16), st.integers(1, 3),
       st.booleans())
@example("depots", 12, 1.0, 0, 1, True)  # targets whose goal holds initially
@example("driverlog", 13, 0.6, 5, 2, True)
def test_directed_mining_matches_the_eager_pipeline(name, instance_seed, completeness,
                                                    seed, delta, search_fallback):
    # skipping the mapping, mining and assembly of a solve with no causal
    # pairs changes no plan, failed stage or pairs; only a goal that holds
    # initially moves from the fragments route to the skeletal one. Cutting
    # the mapping where a pair end cannot be frequent changes no plan, route
    # or pairs, and never drops a fragments-route plan. Taking the full-goal
    # search from the skeleton changes nothing, with the fallback or without
    domain, problem, cases = typed_instance(name, instance_seed)
    problem = replace(problem, domain=degrade(domain, DegradeSpec(completeness, seed)))
    outcome = solve_with_library(problem, cases, delta, config=SMALL_SEARCH,
                                 search_fallback=search_fallback)
    eager = solve_with_library_eager(problem, cases, delta, config=SMALL_SEARCH,
                                     search_fallback=search_fallback)
    pairs = named_pairs(problem, outcome.pairs)
    assert (outcome.plan, pairs) == (eager.plan, named_pairs(problem, eager.pairs))
    goal_in_init = problem.goal <= problem.init
    event(f"{domain.name} pairs {bool(eager.pairs)} goal in init {goal_in_init} "
          f"cut {outcome.uncovered is not None} fallback {search_fallback}")
    if outcome.uncovered is not None:
        assert outcome.uncovered in {end for pair in pairs for end in pair}
        assert outcome.route == eager.route != ROUTE_FRAGMENTS
        assert (outcome.fragments, outcome.frequent) == ((), NO_PATTERNS)
        assert outcome.failed_stage == (STAGE_MINING if outcome.plan is None else None)
    elif eager.pairs:
        assert outcome == eager
    else:
        assert outcome.failed_stage == eager.failed_stage
        assert (outcome.fragments, outcome.frequent) == ((), NO_PATTERNS)
        assert outcome.route == (ROUTE_SKELETAL if goal_in_init else eager.route)
        assert (eager.route == ROUTE_FRAGMENTS) == goal_in_init
