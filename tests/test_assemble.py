"""Fragment assembly: overlap tests, merging, link removal, trimming, search."""

from __future__ import annotations

import functools
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import caseplan.assemble
from caseplan import (
    CausalPair,
    DegradeSpec,
    Grounding,
    PlanningProblem,
    SequenceDB,
    concat_frag,
    degrade,
    mine_frequent,
    random_blocks_problem,
    skeleton,
    solve,
    trim,
)
from caseplan.assemble import merge, removelinks
from caseplan.strips import Plan

from .conftest import (
    GA,
    GOLDEN_SOLUTION,
    P1_FRAGMENT,
    P2_FRAGMENT,
    atoms,
    make_blocks_domain,
    make_incomplete_blocks,
    make_tower_problem,
    named,
    named_pairs,
    op_ids,
    pair_ids,
    plan,
)
from . import oracles
from .oracles import (
    action_names,
    append_by_overlaps,
    concat_frag_rescanning,
    execute_plan_on_atoms,
    share_by_scan,
    trim_by_restarts,
)

MERGED = P2_FRAGMENT + P1_FRAGMENT[4:]  # the ten-action concatenation

GOLDEN_PAIRS = frozenset({
    CausalPair(GA("pickup b"), GA("stack b a")),
    CausalPair(GA("unstack c a"), GA("stack c b")),
    CausalPair(GA("pickup d"), GA("stack d c")),
})


# trim and concat_frag take and return op ids of the problem; these name them,
# so that tests read like the plans they check.

def trim_named(steps, problem, **kwargs):
    """:func:`trim` of named steps, its plan named."""
    return named(problem, trim(op_ids(problem, steps), problem, **kwargs))


def concat_named(problem, pairs, patterns, **kwargs):
    """:func:`concat_frag` of named pairs and patterns, its plan named."""
    return named(problem, concat_frag(problem, pair_ids(problem, pairs),
                                      tuple(op_ids(problem, p) for p in patterns), **kwargs))


# The paper's share (two plans overlap at an end) is merge(...) is not None,
# and its append is the merged plan.

def test_share_with_empty_partial():
    assert merge((), P1_FRAGMENT) is not None


def test_share_golden_fragments():
    assert merge(P1_FRAGMENT, P2_FRAGMENT) is not None
    assert merge(P2_FRAGMENT, P1_FRAGMENT) is not None


def test_share_no_overlap():
    assert merge(plan("pickup b,stack b a"), plan("pickup d,stack d c")) is None


def test_append_golden_merge():
    assert merge(P2_FRAGMENT, P1_FRAGMENT) == MERGED
    assert len(MERGED) == 10


def test_append_other_direction_prepends():
    assert merge(P1_FRAGMENT, P2_FRAGMENT) == MERGED


def test_append_to_empty():
    assert merge((), P1_FRAGMENT) == P1_FRAGMENT


def test_append_contained_suffix_is_idempotent():
    suffix = P1_FRAGMENT[3:]
    assert merge(P1_FRAGMENT, suffix) == P1_FRAGMENT


def test_append_contained_prefix_is_idempotent():
    prefix = P1_FRAGMENT[:3]
    assert merge(P1_FRAGMENT, prefix) == P1_FRAGMENT


def test_append_requires_share():
    assert merge(plan("pickup b"), plan("pickup d")) is None


def test_append_result_contains_both_inputs():
    merged = merge(P2_FRAGMENT, P1_FRAGMENT)
    def contains(seq, sub):
        return any(seq[i:i + len(sub)] == sub for i in range(len(seq) - len(sub) + 1))
    assert contains(merged, P1_FRAGMENT)
    assert contains(merged, P2_FRAGMENT)


def test_removelinks_satisfied_by_merged_plan():
    assert removelinks(MERGED, GOLDEN_PAIRS) == frozenset()


def test_removelinks_empty_plan_keeps_all():
    assert removelinks((), GOLDEN_PAIRS) == GOLDEN_PAIRS


def test_removelinks_wrong_order_keeps_pair():
    pair = CausalPair(GA("stack b a"), GA("pickup b"))
    kept = removelinks(plan("pickup b,stack b a"), frozenset({pair}))
    assert kept == frozenset({pair})


def test_removelinks_uses_any_occurrence():
    pair = CausalPair(GA("pickup b"), GA("putdown b"))
    p = plan("putdown b,pickup b,putdown b")
    assert removelinks(p, frozenset({pair})) == frozenset()


def test_trim_golden_head(tower_incomplete):
    trimmed = trim_named(MERGED, tower_incomplete)
    assert trimmed == GOLDEN_SOLUTION


def test_trim_executable_plan_unchanged(tower_incomplete):
    assert trim_named(GOLDEN_SOLUTION, tower_incomplete) == GOLDEN_SOLUTION


def test_trim_removes_goal_deleting_tail(blocks):
    # goal (ontable c): a trailing pickup of c deletes it
    problem = type(make_tower_problem(blocks))(
        name="t", domain=blocks, objects={o: "object" for o in "abc"},
        init=atoms("ontable a", "ontable b", "ontable c",
                   "clear a", "clear b", "clear c", "handempty"),
        goal=atoms("ontable c"))
    trimmed = trim_named(plan("pickup c"), problem)
    assert trimmed == ()


def test_trim_empty_plan(blocks, tower_incomplete):
    # the empty plan reaches the goal only where it holds initially
    assert trim((), tower_incomplete) is None
    problem = type(make_tower_problem(blocks))(
        name="t", domain=blocks, objects={"a": "object"},
        init=atoms("ontable a", "clear a", "handempty"), goal=atoms("clear a"))
    assert trim((), problem) == ()


def test_trim_of_a_plan_that_misses_the_goal_is_none(tower_incomplete):
    # both steps apply and neither deletes a goal atom, so trimming keeps
    # them, but they build only part of the tower
    steps = plan("pickup b,stack b a")
    assert execute_plan_on_atoms(tower_incomplete, steps).failed_step == len(steps)
    assert trim_named(steps, tower_incomplete) is None
    assert trim_by_restarts(steps, tower_incomplete) is None


# The complete model, a hand-made incomplete one and a seeded degraded one.
# Under the degraded one, 815 of the 2,000 problems short_solution_problems
# tries have a 3- to 5-step solution, none of which executes under the
# complete model; under seed 3 at the same completeness none was solvable.
MODELS = (make_blocks_domain(), make_incomplete_blocks(),
          degrade(make_blocks_domain(), DegradeSpec(completeness=0.5, seed=1)))


@st.composite
def problem_and_actions(draw):
    """A random 3-block problem under a complete or degraded model, with its ground actions."""
    model = draw(st.sampled_from(MODELS))
    problem = random_blocks_problem(model, 3, random.Random(draw(st.integers(0, 9999))))
    return problem, action_names(Grounding.for_problem(problem))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trim_matches_restarting_reference(data):
    problem, actions = data.draw(problem_and_actions())
    steps = tuple(data.draw(st.lists(st.sampled_from(actions), max_size=16)))
    assert trim_named(steps, problem) == trim_by_restarts(steps, problem)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_share_and_append_match_scanning_reference(data):
    _, actions = data.draw(problem_and_actions())
    # a few distinct actions, so that end overlaps are common
    alphabet = actions[:data.draw(st.integers(1, 4))]
    seqs = st.lists(st.sampled_from(alphabet), max_size=6).map(tuple)
    partial, fragment = data.draw(seqs), data.draw(seqs)
    if share_by_scan(partial, fragment):
        assert merge(partial, fragment) == append_by_overlaps(partial, fragment)
    else:
        assert merge(partial, fragment) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_rejects_only_where_no_end_is_shared(data):
    # merge rejects at once when neither end action of the draft occurs in
    # the fragment; every overlap would hold one of them, so nothing is lost
    _, actions = data.draw(problem_and_actions())
    alphabet = actions[:data.draw(st.integers(2, 5))]
    seqs = st.lists(st.sampled_from(alphabet), min_size=1, max_size=6).map(tuple)
    partial, fragment = data.draw(seqs), data.draw(seqs)
    if partial[-1] not in fragment and partial[0] not in fragment:
        assert not share_by_scan(partial, fragment)
        assert merge(partial, fragment) is None
    else:
        assert (merge(partial, fragment) is not None) == share_by_scan(partial, fragment)


def golden_fragments(min_support=1):
    db = SequenceDB.from_sequences([P1_FRAGMENT, P2_FRAGMENT])
    return mine_frequent(db, min_support).patterns


def test_concat_golden(tower_incomplete):
    result = concat_named(tower_incomplete, GOLDEN_PAIRS, golden_fragments())
    assert result == GOLDEN_SOLUTION


def test_concat_trivial_empty(blocks):
    problem = type(make_tower_problem(blocks))(
        name="t", domain=blocks, objects={"a": "object"},
        init=atoms("ontable a", "clear a", "handempty"),
        goal=atoms("clear a"))
    assert concat_frag(problem, frozenset(), ()) == ()


def test_concat_fails_without_p2_fragment(tower_incomplete):
    assert concat_named(tower_incomplete, GOLDEN_PAIRS, (P1_FRAGMENT,)) is None


def test_concat_respects_budget(tower_incomplete):
    assert concat_named(tower_incomplete, GOLDEN_PAIRS, golden_fragments(),
                        node_budget=0) is None


def test_concat_pairs_remaining_and_no_fragments_fails(tower_incomplete):
    assert concat_named(tower_incomplete, GOLDEN_PAIRS, ()) is None


def test_concat_budget_counts_a_fragment_under_every_pair_it_names(blocks):
    # two fragments name both pairs, so each is a branch under both; the node
    # budget counts those branches under each pair, as the rescanning search
    # did: the plan takes 12 nodes here, and would take 7 if repeats went
    # uncounted
    problem = PlanningProblem(name="t", domain=blocks,
                              objects={b: "object" for b in ("b1", "b2", "b3")},
                              init=atoms("ontable b1", "on b2 b1", "ontable b3", "clear b2",
                                         "clear b3", "handempty"),
                              goal=atoms("on b2 b3"))
    pairs = frozenset({CausalPair(GA("pickup b3"), GA("stack b2 b3")),
                       CausalPair(GA("unstack b2 b1"), GA("stack b2 b3"))})
    patterns = (plan("pickup b1,pickup b3"), plan("pickup b3,unstack b2 b1"),
                plan("unstack b2 b1,pickup b1"), plan("unstack b2 b1,stack b2 b3"))
    for budget, expected in ((11, None), (12, plan("unstack b2 b1,stack b2 b3"))):
        assert concat_named(problem, pairs, patterns, node_budget=budget) == expected
        assert concat_frag_rescanning(problem, pairs, patterns, node_budget=budget) == expected


def test_concat_walks_a_failed_subtree_once(blocks, monkeypatch):
    # the example above: a subtree that failed under the first pair is charged
    # its nodes under the second instead of being walked again, so fewer
    # drafts reach trim, and the budget still runs out at the same node
    problem = PlanningProblem(name="t", domain=blocks,
                              objects={b: "object" for b in ("b1", "b2", "b3")},
                              init=atoms("ontable b1", "on b2 b1", "ontable b3", "clear b2",
                                         "clear b3", "handempty"),
                              goal=atoms("on b2 b3"))
    pairs = frozenset({CausalPair(GA("pickup b3"), GA("stack b2 b3")),
                       CausalPair(GA("unstack b2 b1"), GA("stack b2 b3"))})
    patterns = (plan("pickup b1,pickup b3"), plan("pickup b3,unstack b2 b1"),
                plan("unstack b2 b1,pickup b1"), plan("unstack b2 b1,stack b2 b3"))
    calls = {"concat_frag": 0, "concat_frag_rescanning": 0}

    def counted(name, real):
        def trim_counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return trim_counted

    monkeypatch.setattr(caseplan.assemble, "trim", counted("concat_frag", trim))
    monkeypatch.setattr(oracles, "trim_on_atoms",
                        counted("concat_frag_rescanning", oracles.trim_on_atoms))
    expected = plan("unstack b2 b1,stack b2 b3")
    assert concat_named(problem, pairs, patterns, node_budget=12) == expected
    assert concat_frag_rescanning(problem, pairs, patterns, node_budget=12) == expected
    assert 0 < calls["concat_frag"] < calls["concat_frag_rescanning"]
    assert concat_named(problem, pairs, patterns, node_budget=11) is None
    assert concat_frag_rescanning(problem, pairs, patterns, node_budget=11) is None


@st.composite
def assembly_inputs(draw):
    """A 3-block problem, causal pairs and fragments over a few of its actions.

    The pairs are some of the problem's skeletal pairs and some drawn at
    random; the fragments are slices of a plan that solves the problem under
    its model, where there is one, and random runs, so that some assemblies
    succeed and some fail.
    """
    problem, actions = draw(problem_and_actions())
    solution = solve(problem).plan or ()
    alphabet = list(dict.fromkeys(solution + actions[:draw(st.integers(1, 3))]))
    skeletal = sorted(named_pairs(problem, skeleton(problem).pairs))
    pairs = set(draw(st.lists(st.sampled_from(skeletal), min_size=1, max_size=4))) \
        if skeletal else set()
    pairs |= set(draw(st.lists(st.builds(CausalPair, st.sampled_from(alphabet),
                                         st.sampled_from(alphabet)), max_size=1)))
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        if solution and draw(st.integers(0, 3)):
            i = draw(st.integers(0, len(solution) - 1))
            pieces.append(solution[i:draw(st.integers(i + 1, len(solution)))])
        else:
            pieces.append(tuple(draw(st.lists(st.sampled_from(alphabet), min_size=1,
                                              max_size=4))))
    return problem, frozenset(pairs), tuple(sorted(set(pieces), key=lambda p: (-len(p), p)))


@settings(max_examples=150, deadline=None)
@given(assembly_inputs())
def test_concat_matches_rescanning_reference(inputs):
    problem, pairs, patterns = inputs
    grounding = Grounding.for_problem(problem)
    for budget in (*range(1, 51), 20_000):
        assert concat_named(problem, pairs, patterns, node_budget=budget,
                            grounding=grounding) == \
            concat_frag_rescanning(problem, pairs, patterns, node_budget=budget)


@functools.cache
def short_solution_problems() -> tuple[tuple[PlanningProblem, Plan], ...]:
    """Each 2- or 3-block problem of seeds 0-999 under each model whose
    solution has 3 to 5 steps, with that solution; found once, so that
    examples are drawn among them and none is filtered out."""
    found = []
    for model, n_blocks, seed in itertools.product(MODELS, (2, 3), range(1000)):
        problem = random_blocks_problem(model, n_blocks, random.Random(seed))
        solution = solve(problem).plan
        if solution and 3 <= len(solution) <= 5:
            found.append((problem, solution))
    return tuple(found)


def test_every_model_has_short_solution_problems():
    # a model with none would never be drawn by dead_end_inputs
    found = short_solution_problems()
    for model in MODELS:
        assert any(problem.domain is model for problem, _ in found)


@st.composite
def dead_end_inputs(draw):
    """A 2- or 3-block problem with a 3- to 5-step solution, two causal pairs
    of that solution, the solution as a fragment, and dead-end fragments.

    A dead end holds the consumers of both pairs, so it names both, and it
    starts and ends with actions outside the solution, so it merges with other
    dead ends but never with the solution. Dead ends are longer than the
    solution, so they are tried first. One merged under another then mostly
    fails under the first pair and is charged under the second, and the
    search goes on to the solution, so node counts decide the result at cut
    budgets.
    """
    problem, solution = draw(st.sampled_from(short_solution_problems()))
    actions = action_names(Grounding.for_problem(problem))
    junk = draw(st.lists(st.sampled_from([a for a in actions if a not in solution]),
                         min_size=1, max_size=2, unique=True))
    links = [(i, j) for j in range(len(solution)) for i in range(j)]
    ordered = draw(st.lists(st.sampled_from(links), min_size=2, max_size=2, unique=True))
    pairs = frozenset(CausalPair(solution[i], solution[j]) for i, j in ordered)
    consumers = [solution[j] for _, j in ordered]
    pieces = {solution}
    for _ in range(draw(st.integers(2, 3))):
        inner = draw(st.lists(st.sampled_from(junk + consumers), min_size=len(solution) - 3,
                              max_size=len(solution) - 2))
        for c in consumers:
            inner.insert(draw(st.integers(0, len(inner))), c)
        pieces.add((draw(st.sampled_from(junk)), *inner, draw(st.sampled_from(junk))))
    return problem, pairs, tuple(sorted(pieces, key=lambda p: (-len(p), p)))


@settings(max_examples=50, deadline=None)
@given(dead_end_inputs())
def test_concat_charges_a_failed_fragment_under_every_pair_it_names(inputs):
    problem, pairs, patterns = inputs
    grounding = Grounding.for_problem(problem)
    for budget in range(1, 51):
        assert concat_named(problem, pairs, patterns, node_budget=budget,
                            grounding=grounding) == \
            concat_frag_rescanning(problem, pairs, patterns, node_budget=budget)
