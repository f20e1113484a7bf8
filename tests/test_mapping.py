"""Object mapping: features, scores, exact search, fragment extraction."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caseplan.cli
import caseplan.mapping
from caseplan import (
    CaseFile,
    DegradeSpec,
    best_mapping,
    build_fragments,
    degrade,
    extract_fragments,
    mapping_index,
    mapping_score,
    object_features,
    parse_case,
    parse_domain,
)
from caseplan.cases import MAX_CASE_OBJECTS, case_to_text
from caseplan.mapping import RADIX, CaseIndex
from caseplan.pddl import PddlError, problem_to_pddl
from caseplan.strips import GroundAction, Grounding, PlanningProblem, StripsError, is_subtype

from .conftest import (
    FIXTURES,
    P1_FRAGMENT,
    P2_FRAGMENT,
    atoms,
    count_best_mapping_calls,
    named,
    plan,
    renamed_case,
    typed_instance,
    wide_case_text,
)
from .oracles import (
    _slot_constraints,
    best_mapping_tuple_keys,
    best_mapping_unindexed,
    bruteforce_best_score,
    extract_fragments_by_name,
    mapping_index_tuple_images,
)

P1_MAPPING = {"b4": "d", "b1": "c", "b3": "b", "b2": "a"}
P2_MAPPING = {"b3": "c", "b1": "b", "b2": "a"}


def test_object_features_tower(tower):
    assert object_features(tower, "b") == frozenset({"clear", "ontable"})
    assert object_features(tower, "c") == frozenset({"clear"})
    assert object_features(tower, "a") == frozenset({"ontable"})


def test_object_features_no_unary_atoms(p2):
    # b3 sits mid-tower in p2: it appears only in binary atoms
    assert object_features(p2, "b3") == frozenset()


def test_object_features_unknown_object(tower):
    assert object_features(tower, "zz") == frozenset()


def test_mapping_score_p1(tower, p1):
    assert mapping_score(p1, P1_MAPPING, tower) == 10


def test_mapping_score_empty_mapping(tower, p1):
    # only object-free atoms can match: (handempty) is in both inits
    assert mapping_score(p1, {}, tower) == 1


def test_mapping_score_random_recount(tower, p1):
    rng = random.Random(3)
    for _ in range(50):
        objs = rng.sample(list(p1.objects()), 3)
        images = rng.sample(sorted(tower.objects), 3)
        mapping = dict(zip(objs, images))
        expected = 0
        for case_atoms, target in ((p1.init, tower.init), (p1.goal, tower.goal)):
            mapped = set()
            for atom in case_atoms:
                if all(a in mapping for a in atom.args):
                    mapped.add(type(atom)(atom.predicate,
                                          tuple(mapping[a] for a in atom.args)))
            expected += len(mapped & target)
        assert mapping_score(p1, mapping, tower) == expected


def test_best_mapping_p1(tower, p1):
    mapping = best_mapping(p1, tower)
    assert mapping == P1_MAPPING
    assert mapping_score(p1, mapping, tower) == 10


def test_best_mapping_p2(tower, p2):
    assert best_mapping(p2, tower) == P2_MAPPING


def test_best_mapping_is_injective(tower, p1):
    mapping = best_mapping(p1, tower)
    assert len(set(mapping.values())) == len(mapping)


def test_best_mapping_matches_bruteforce(blocks):
    rng = random.Random(21)
    from caseplan import random_blocks_problem
    for i in range(40):
        problem = random_blocks_problem(blocks, rng.choice([2, 3, 4]), rng)
        source = random_blocks_problem(blocks, rng.choice([2, 3, 4]), rng)
        renames = {o: f"x{k}" for k, o in enumerate(sorted(source.objects))}
        case = CaseFile(
            init=frozenset(type(a)(a.predicate, tuple(renames.get(x, x) for x in a.args))
                           for a in source.init),
            goal=frozenset(type(a)(a.predicate, tuple(renames.get(x, x) for x in a.args))
                           for a in source.goal),
            plan=plan("pickup x0"))
        mapping = best_mapping(case, problem)
        assert mapping_score(case, mapping, problem) == \
            bruteforce_best_score(case, problem)


def test_score_invariant_under_problem_renaming(blocks, tower, p1):
    rng = random.Random(5)
    for _ in range(10):
        perm = dict(zip(sorted(tower.objects), rng.sample(sorted(tower.objects), 4)))
        renamed = PlanningProblem(
            name="renamed", domain=blocks,
            objects={perm[o]: t for o, t in tower.objects.items()},
            init=frozenset(type(a)(a.predicate, tuple(perm[x] for x in a.args))
                           for a in tower.init),
            goal=frozenset(type(a)(a.predicate, tuple(perm[x] for x in a.args))
                           for a in tower.goal))
        base = best_mapping(p1, tower)
        moved = best_mapping(p1, renamed)
        assert mapping_score(p1, moved, renamed) == mapping_score(p1, base, tower)


def named_fragments(problem, fragments) -> list:
    """Fragments of op ids as tuples of named actions."""
    return [named(problem, fragment) for fragment in fragments]


def test_extract_fragments_p1(tower, p1):
    frags = extract_fragments(p1, best_mapping(p1, tower), tower)
    assert len(frags) == 1
    assert named(tower, frags[0]) == P1_FRAGMENT


def test_extract_fragments_p2(tower, p2):
    frags = extract_fragments(p2, best_mapping(p2, tower), tower)
    assert len(frags) == 1
    assert named(tower, frags[0]) == P2_FRAGMENT


def test_foreign_object_splits_fragments(tower, p1):
    # an action on an unmapped 5th object in the middle cuts the plan in two
    case = CaseFile(init=p1.init, goal=p1.goal,
                    plan=p1.plan[:3] + plan("pickup b9") + p1.plan[3:])
    mapping = best_mapping(case, tower)
    assert "b9" not in mapping  # no free problem object remains for it
    frags = extract_fragments(case, mapping, tower)
    assert len(frags) == 2
    assert named(tower, frags[0]) == tuple(a._replace(args=tuple(mapping[x] for x in a.args))
                                           for a in p1.plan[:3])


def test_unknown_action_splits_fragments(tower, p1):
    case = CaseFile(init=p1.init, goal=p1.goal,
                    plan=p1.plan[:2] + plan("warp b1 b2") + p1.plan[2:])
    frags = extract_fragments(case, best_mapping(case, tower), tower)
    assert len(frags) == 2


def typed_driverlog():
    text = (resources.files("caseplan") / "domains" / "driverlog.pddl").read_text()
    domain = parse_domain(text)
    objects = {"t1": "truck", "d1": "driver", "p1": "obj",
               "loca": "location", "locb": "location"}
    problem = PlanningProblem(
        name="dl", domain=domain, objects=objects,
        init=atoms("at t1 loca", "at d1 loca", "at p1 locb", "empty t1",
                   "link loca locb", "link locb loca"),
        goal=atoms("at p1 loca"))
    case = CaseFile(
        init=atoms("at truck0 l0", "at drv0 l0", "empty truck0"),
        goal=atoms("at pkg0 l0"),
        plan=plan("board-truck drv0 truck0 l0"))
    return case, problem


def assert_injective_and_typed(case, problem, mapping):
    slots = _slot_constraints(case, problem)
    assert len(set(mapping.values())) == len(mapping)
    for obj, image in mapping.items():
        assert all(is_subtype(problem.domain.types, problem.objects[image], t)
                   for t in slots[obj])


def test_typed_mapping_respects_slots():
    case, problem = typed_driverlog()
    mapping = best_mapping(case, problem)
    # each case object may only land on a problem object fitting its slots
    assert mapping.get("truck0") == "t1"
    assert mapping.get("drv0") == "d1"
    assert mapping.get("l0") in ("loca", "locb")


def test_budget_exhaustion_still_returns_a_mapping(tower, p1):
    mapping = best_mapping(p1, tower, node_budget=3)
    assert isinstance(mapping, dict)
    score = mapping_score(p1, mapping, tower)
    assert 0 <= score <= 10
    for case, problem in ((p1, tower), typed_driverlog()):
        for budget in range(1, 6):
            assert_injective_and_typed(case, problem,
                                       best_mapping(case, problem, node_budget=budget))


# Typed problems and case libraries on all three vendored domains, against the
# earlier kernel kept in tests/oracles.py.

instances = st.builds(typed_instance, st.sampled_from(["blocks", "driverlog", "depots"]),
                      st.integers(0, 30))


@settings(max_examples=40, deadline=None)
@given(instances)
def test_best_mapping_matches_unindexed_reference(instance):
    _, problem, cases = instance
    index = mapping_index(problem)
    for _, case in cases:
        expected = best_mapping_unindexed(case, problem)
        assert best_mapping(case, problem, index=index) == expected
        assert best_mapping(case, problem) == expected


@settings(max_examples=25, deadline=None)
@given(instances)
def test_budget_never_scores_below_unindexed_reference(instance):
    # the kernel's nodes are an in-order subsequence of the reference's, so at
    # equal budget it gets at least as far
    _, problem, cases = instance
    index = mapping_index(problem)
    for _, case in cases:
        for budget in range(1, 51):
            found = best_mapping(case, problem, node_budget=budget, index=index)
            expected = best_mapping_unindexed(case, problem, node_budget=budget)
            assert mapping_score(case, found, problem) >= \
                mapping_score(case, expected, problem)


@settings(max_examples=25, deadline=None)
@given(instances)
def test_best_mapping_equals_tuple_key_reference_at_full_budget(instance):
    # the class digits and the greedy seed only cut subtrees that cannot beat
    # the best leaf, so the search's first best leaf is the reference's
    _, problem, cases = instance
    index = mapping_index(problem)
    reference_index = mapping_index_tuple_images(problem)
    for _, case in cases:
        assert best_mapping(case, problem, index=index) == \
            best_mapping_tuple_keys(case, problem, index=reference_index)


@settings(max_examples=25, deadline=None)
@given(instances)
def test_budget_never_scores_below_tuple_key_reference(instance):
    # a cut budget may end on another mapping, never on a lower score: the
    # kernel's nodes are an in-order subsequence of the reference's, and the
    # greedy mapping stands in when the search reaches nothing as good
    _, problem, cases = instance
    index = mapping_index(problem)
    reference_index = mapping_index_tuple_images(problem)
    for _, case in cases:
        for budget in range(51):
            found = best_mapping(case, problem, node_budget=budget, index=index)
            expected = best_mapping_tuple_keys(case, problem, node_budget=budget,
                                               index=reference_index)
            assert mapping_score(case, found, problem) >= \
                mapping_score(case, expected, problem)
            assert_injective_and_typed(case, problem, found)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 30))
def test_classless_budget_ends_on_the_tuple_key_reference(seed):
    # blocks has no type classes, so no greedy seed and no class digit: an
    # unmapped position reads as the reference's wildcard, the nodes are the
    # reference's, and every budget ends on its mapping
    _, problem, cases = typed_instance("blocks", seed)
    index = mapping_index(problem)
    assert not index.classes
    reference_index = mapping_index_tuple_images(problem)
    for _, case in cases:
        for budget in [*range(51), 200_000]:
            assert best_mapping(case, problem, node_budget=budget, index=index) == \
                best_mapping_tuple_keys(case, problem, node_budget=budget,
                                        index=reference_index)


def killed_at_root(case, problem, index) -> set:
    """The case atoms, as (target, atom), whose root key is in no image of
    their target: each object stands for the digit of the smallest class of
    the index that holds every object fitting its slots, or 0."""
    ids = {o: i for i, o in enumerate(index.objects)}
    n = len(index.objects)
    types = problem.domain.types
    digit = {}
    for obj, required in _slot_constraints(case, problem).items():
        fit = {ids[o] for o, t in problem.objects.items()
               if all(is_subtype(types, t, r) for r in required)}
        digit[obj] = next((n + 1 + c for c, cls in enumerate(index.classes) if fit <= cls), 0)
    killed = set()
    for target, atoms_ in enumerate((case.init, case.goal)):
        for atom in atoms_:
            pid = index.predicates.get((atom.predicate, len(atom.args)))
            if pid is None:
                continue
            key = 2 * pid + target + sum(digit[a] * RADIX ** (j + 1)
                                         for j, a in enumerate(atom.args))
            if key not in index.images:
                killed.add((target, atom))
    return killed


@settings(max_examples=30, deadline=None)
@given(instances)
def test_typed_root_kills_are_admissible(instance):
    # an atom the class digits kill before the search is matched by none of
    # the reference's mappings, whatever its budget
    _, problem, cases = instance
    index = mapping_index(problem)
    for _, case in cases:
        killed = killed_at_root(case, problem, index)
        for budget in (1, 5, 20, 200_000):
            mapping = best_mapping_unindexed(case, problem, node_budget=budget)
            for target, atom in killed:
                if all(a in mapping for a in atom.args):
                    image = atom._replace(args=tuple(mapping[a] for a in atom.args))
                    assert image not in (problem.init, problem.goal)[target]


def test_zero_budget_returns_the_greedy_mapping():
    # no search node is spent, yet the greedy descent has mapped the case
    case, problem = typed_driverlog()
    mapping = best_mapping(case, problem, node_budget=0)
    assert mapping
    assert_injective_and_typed(case, problem, mapping)
    assert mapping_score(case, mapping, problem) >= 1
    assert best_mapping_tuple_keys(case, problem, node_budget=0) == {}


@settings(max_examples=20, deadline=None)
@given(instances, st.integers(1, 2), st.integers(0, 30), st.sampled_from([1.0, 0.4]))
def test_case_rows_built_on_another_domain_serve_the_target(instance, shift, other_seed,
                                                            completeness):
    # a case's rows are built on first use and kept; they read no domain, so
    # rows first built while mapping onto another domain's problem give the
    # reference mapping and fragments on the target, under any model of it
    domain, problem, library = instance
    names = ["blocks", "driverlog", "depots"]
    other = typed_instance(names[(names.index(domain.name) + shift) % 3], other_seed)[1]
    cases = [parse_case(case_to_text(case)) for _, case in library]
    rows = []
    for case in cases:
        mapping = best_mapping(case, other)
        assert named_fragments(other, extract_fragments(case, mapping, other)) == \
            extract_fragments_by_name(case, mapping, other)
        rows.append(case.mapping_rows)
    model = degrade(domain, DegradeSpec(completeness=completeness, seed=other_seed))
    target = replace(problem, domain=model)
    index = mapping_index(target)
    reference_index = mapping_index_tuple_images(target)
    for case, case_rows in zip(cases, rows):
        fresh = parse_case(case_to_text(case))
        for budget in [*range(1, 51), 200_000]:
            mapping = best_mapping(case, target, node_budget=budget, index=index)
            expected = best_mapping_tuple_keys(fresh, target, node_budget=budget,
                                               index=reference_index)
            if budget == 200_000:
                assert mapping == expected
            else:
                assert mapping_score(case, mapping, target) >= \
                    mapping_score(fresh, expected, target)
            assert named_fragments(target, extract_fragments(case, mapping, target,
                                                             index=index)) == \
                extract_fragments_by_name(fresh, mapping, target)
        assert case.mapping_rows is case_rows


def decoded_images(index) -> tuple[frozenset[tuple], ...]:
    """The integer images of a MappingIndex as (predicate id, *positions)
    tuples per target (init, goal), read digit by digit from the key
    encoding: the lowest digit is 2 * pid + target, and a position is an
    object id, UNSET, or ("class", c) for the digit of type class c."""
    n = len(index.objects)
    arity = {pid: k for (_, k), pid in index.predicates.items()}
    out = (set(), set())
    for key in index.images:
        rest, low = divmod(key, RADIX)
        pid, target = divmod(low, 2)
        args = []
        for _ in range(arity[pid]):
            rest, digit = divmod(rest, RADIX)
            args.append(digit - 1 if digit <= n else ("class", digit - n - 1))
        assert rest == 0
        out[target].add((pid, *args))
    return tuple(frozenset(images) for images in out)


def with_classes(images, classes) -> frozenset[tuple]:
    """Every tuple image, and each variant of it with objects replaced by a
    class that holds them."""
    out = set()
    for pid, *args in images:
        options = [[a, *(("class", c) for c, cls in enumerate(classes) if a in cls)]
                   for a in args]
        out.update((pid, *choice) for choice in itertools.product(*options))
    return frozenset(out)


@settings(max_examples=30, deadline=None)
@given(instances)
def test_integer_images_decode_to_tuple_images(instance):
    _, problem, _ = instance
    index = mapping_index(problem)
    reference = mapping_index_tuple_images(problem)
    assert index.predicates == reference.predicates
    # the classes: distinct fitting sets of types, short of all objects, smallest first
    fitting = set(reference.fitting.values())
    assert all(cls in fitting and 0 < len(cls) < len(index.objects) for cls in index.classes)
    assert len(set(index.classes)) == len(index.classes)
    assert [len(cls) for cls in index.classes] == sorted(len(cls) for cls in index.classes)
    expected = tuple(with_classes(images, index.classes) for images in reference.images)
    assert decoded_images(index) == expected
    # as many keys as tuples: no two images share a key
    assert len(index.images) == sum(len(images) for images in expected)


INDEX_SCRIPT = """
import sys
from importlib import resources
from caseplan import mapping_index, parse_domain, parse_problem

domain = parse_domain((resources.files("caseplan") / "domains" / "driverlog.pddl").read_text())
with open(sys.argv[1]) as f:
    index = mapping_index(parse_problem(f.read(), domain))
print(list(index.predicates.items()))
print(sorted(index.images))
"""


def test_mapping_index_does_not_depend_on_the_hash_seed():
    # (predicate, arity) pairs are numbered in sorted order, not in the order
    # a set of atoms iterates in, which the hash seed decides
    src = os.path.dirname(os.path.dirname(caseplan.mapping.__file__))
    problem = FIXTURES.parent / "driverlog" / "problem.pddl"
    outputs = [subprocess.run([sys.executable, "-c", INDEX_SCRIPT, str(problem)],
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, check=True).stdout
               for seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("[(('at', 2), 0), (('empty', 1), 1), (('link', 2), 2), ")


def test_a_case_at_the_object_bound_maps(tower):
    # mapping recurses once per case object: a case at the bound maps, with
    # pytest's frames on the stack too, and one past it is refused when built
    case = parse_case(wide_case_text(MAX_CASE_OBJECTS))
    assert len(case.objects()) == MAX_CASE_OBJECTS
    mapping = best_mapping(case, tower)
    assert mapping and len(set(mapping.values())) == len(mapping) <= len(tower.objects)
    assert [named(tower, f) for f in build_fragments(tower, [("wide", case)])] == \
        [(GroundAction("pickup", (mapping["o0"],)),)]
    with pytest.raises(PddlError, match=f"a case names {MAX_CASE_OBJECTS + 1} objects; "
                                        f"at most {MAX_CASE_OBJECTS} can be mapped"):
        parse_case(wide_case_text(MAX_CASE_OBJECTS + 1))


@pytest.mark.parametrize("name", ["blocks", "driverlog", "depots"])
def test_index_data_is_read_only(name):
    # the type classes, the narrowing usages, the candidate orders, the op
    # numbering's tables and the image set are tuples, frozensets and
    # read-only mappings, as the README promises
    _, problem, _ = typed_instance(name, 0)
    index = mapping_index(problem)
    assert isinstance(index.classes, tuple)
    assert all(isinstance(cls, frozenset) for cls in index.classes)
    assert all(isinstance(order, tuple) for order in index.orders.values())
    assert all(sorted(order) == list(range(len(index.objects)))
               for order in index.orders.values())
    assert all(isinstance(fit, frozenset) and len(fit) < len(index.objects)
               for fit in index.narrowing.values())
    assert isinstance(index.images, frozenset)
    ops = index.ops
    assert isinstance(ops.names, tuple) and isinstance(ops.bases, tuple)
    positions = [row for _, rows in ops.digits.values() for row in rows]
    assert positions and all(isinstance(pool, tuple) for pool, _, _ in positions)
    for mapping in (index.narrowing, index.orders, ops.digits,
                    *(where for _, where, _ in positions)):
        if not mapping:
            continue
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(AttributeError):
            mapping.pop(key)
    # driverlog: location, locatable, driver, truck, obj; blocks: none
    assert len(index.classes) == {"blocks": 0, "driverlog": 5, "depots": 9}[name]


@settings(max_examples=30, deadline=None)
@given(instances, st.sampled_from([1.0, 0.6, 0.2]), st.integers(0, 30))
def test_the_index_and_every_grounding_share_the_op_numbering(instance, completeness, seed):
    # fragments are cut on the mapping index and assembled on the grounding of
    # the skeleton's model, so the two must give every action the same op id,
    # under the complete model and degraded ones
    domain, problem, _ = instance
    ops = mapping_index(problem).ops
    model = degrade(domain, DegradeSpec(completeness=completeness, seed=seed))
    grounding = Grounding.for_problem(replace(problem, domain=model))
    assert ops.count == len(grounding.ops_ids)
    for op_idx in range(ops.count):
        action = grounding.action(op_idx)
        assert ops.id(*action) == grounding.op_id(action) == op_idx
        assert ops.name(op_idx) == tuple(action)


@settings(max_examples=60, deadline=None)
@given(instances, st.data())
def test_extract_fragments_keeps_exactly_the_actions_of_the_op_table(instance, data):
    # any mapping into the problem's objects, partial, ill-typed and not
    # injective, not only a best one: a step is kept exactly when every
    # argument is mapped and the problem's grounding takes the renamed action,
    # and it is kept as the op id that grounding gives it
    _, problem, library = instance
    grounding = Grounding.for_problem(problem)
    images = st.one_of(st.none(), st.sampled_from(sorted(problem.objects)))
    for _, case in library:
        mapping = {o: image for o in sorted(case.objects())
                   if (image := data.draw(images)) is not None}
        fragments = extract_fragments(case, mapping, problem)
        assert named_fragments(problem, fragments) == \
            extract_fragments_by_name(case, mapping, problem)
        kept = []  # per step: the renamed action's op id, or None where it is no op
        for action in case.plan:
            try:
                renamed = GroundAction(action.name, tuple(mapping[o] for o in action.args))
                kept.append(grounding.op_id(renamed))
            except (KeyError, StripsError):
                kept.append(None)
        assert fragments == [tuple(run) for usable, run in
                             itertools.groupby(kept, lambda i: i is not None) if usable]


@settings(max_examples=30, deadline=None)
@given(instances, st.integers(1, 10 ** 6), st.data())
def test_build_fragments_without_required_maps_every_index_in_library_order(
        instance, min_support, data):
    # nothing required, nothing is cut at any support: each distinct case
    # index is mapped once, its first case, in library order
    _, problem, library = instance
    copies = [(f"copy-{name}", parse_case(case_to_text(case))) for name, case in library]
    cases = data.draw(st.permutations(library + copies))
    first: dict = {}
    for _, case in cases:
        first.setdefault(case.mapping_rows, case)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_best_mapping_calls(patch)
        fragments = build_fragments(problem, cases, min_support=min_support)
    assert len(calls) == len(first)
    assert all(called is case and target is problem
               for (called, target), case in zip(calls, first.values()))
    assert fragments == [f for _, case in cases
                         for f in extract_fragments(case, best_mapping(case, problem), problem)]


def test_build_fragments_builds_one_index(monkeypatch, tower, p1, p2):
    calls = []
    real = caseplan.mapping.mapping_index

    def counted(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(caseplan.mapping, "mapping_index", counted)
    fragments = build_fragments(tower, [("p1", p1), ("p2", p2)])
    assert calls == [tower]
    assert named_fragments(tower, fragments) == [P1_FRAGMENT, P2_FRAGMENT]
    assert build_fragments(tower, []) == []
    assert calls == [tower]


def test_mapping_index_refuses_digits_beyond_the_radix(tmp_path, capsys, blocks, p1):
    # an untyped problem's digits run up to its object count, and a key holds
    # digits below RADIX: 1,019 blocks fit, 1,020 do not
    def table(n):
        names = [f"b{i}" for i in range(n)]
        return PlanningProblem(
            name=f"table{n}", domain=blocks, objects={o: "object" for o in names},
            init=atoms("handempty", *(f"ontable {o}" for o in names),
                       *(f"clear {o}" for o in names)),
            goal=atoms("on b0 b1"))

    fits = table(RADIX - 2)
    assert mapping_score(p1, best_mapping(p1, fits), fits) == 10
    with pytest.raises(ValueError, match="table1020: 1020 objects and 0 type classes"):
        mapping_index(table(RADIX - 1))
    path = tmp_path / "table.pddl"
    path.write_text(problem_to_pddl(table(RADIX - 1)))
    code = caseplan.cli.main(["map", "--domain", str(FIXTURES / "domain.pddl"),
                              "--problem", str(path), "--cases", str(FIXTURES / "cases")])
    captured = capsys.readouterr()
    assert code == caseplan.cli.INPUT_ERROR
    assert captured.out == ""
    assert "error: problem table1020: 1020 objects and 0 type classes" in captured.err


@pytest.mark.parametrize("name", ["blocks", "driverlog", "depots"])
def test_every_key_is_one_cpython_digit(name):
    # a key of 2**30 or more takes two CPython digits, which hash and add
    # slower; the vendored domains' atoms have arity 2 at most
    for seed in range(3):
        _, problem, cases = typed_instance(name, seed)
        assert max(mapping_index(problem).images) < 2 ** 30
        for _, case in cases:
            assert all(mult < 2 ** 30 for depth in case.mapping_rows.depth_rows
                       for _, mult, _ in depth)


# Case indexes: build_fragments maps and cuts one case per distinct index.

def depth_order_renaming(case: CaseFile, rng: random.Random) -> dict[str, str]:
    """Fresh names for the case's objects, drawn at random except that objects
    in as many atoms keep their order: so the depth order (atom count, then
    name) is kept, while the sorted atoms usually come in another order."""
    rows = case.mapping_rows
    labels = rng.sample(range(1000), len(rows.case_objs))
    names = {}
    for _, group in itertools.groupby(range(len(rows.case_objs)),
                                      key=lambda d: len(rows.depth_rows[d])):
        depths = list(group)
        for depth, label in zip(depths, sorted(labels[d] for d in depths)):
            names[rows.case_objs[depth]] = f"o{label:03d}"
    return names


def by_depth(case: CaseFile, mapping: dict[str, str]) -> list[str | None]:
    return [mapping.get(o) for o in case.mapping_rows.case_objs]


@settings(max_examples=30, deadline=None)
@given(instances, st.integers(0, 2 ** 16))
def test_a_renaming_that_keeps_the_depth_order_keeps_the_key_and_the_fragments(instance,
                                                                              seed):
    _, problem, cases = instance
    index = mapping_index(problem)
    rng = random.Random(seed)
    for _, case in cases:
        names = depth_order_renaming(case, rng)
        renamed = renamed_case(case, names)
        assert renamed.mapping_rows.case_objs == \
            tuple(names[o] for o in case.mapping_rows.case_objs)
        assert renamed.mapping_rows == case.mapping_rows
        assert hash(renamed.mapping_rows) == hash(case.mapping_rows)
        # every field but the names follows from the two compared ones
        for name in (f.name for f in fields(CaseIndex) if f.name != "case_objs"):
            assert getattr(renamed.mapping_rows, name) == getattr(case.mapping_rows, name), name
        for budget in (1, 3, 30, 200_000):
            mapping = best_mapping(case, problem, node_budget=budget, index=index)
            moved = best_mapping(renamed, problem, node_budget=budget, index=index)
            assert by_depth(renamed, moved) == by_depth(case, mapping)
            assert extract_fragments(renamed, moved, problem, index=index) == \
                extract_fragments(case, mapping, problem, index=index)


def test_a_different_tie_order_may_change_the_key(monkeypatch, tower):
    # a and b are in three atoms each, so swapping their names swaps their
    # depths and the index changes: the swapped case gets its own build,
    # while a renaming that keeps their order keeps the index
    case = CaseFile(atoms("clear a", "on a b", "ontable b", "handempty"), atoms("on b a"),
                    plan("unstack a b,putdown a,pickup b,stack b a"))
    swapped = renamed_case(case, {"a": "b", "b": "a"})
    kept = renamed_case(case, {"a": "x", "b": "y"})
    assert swapped.mapping_rows.case_objs == case.mapping_rows.case_objs == ("a", "b")
    assert kept.mapping_rows == case.mapping_rows != swapped.mapping_rows
    expected = [f for c in (case, swapped)
                for f in extract_fragments(c, best_mapping(c, tower), tower)]
    calls = count_best_mapping_calls(monkeypatch)
    assert build_fragments(tower, [("case", case), ("swapped", swapped)]) == expected
    assert len(calls) == 2


def test_build_fragments_maps_one_case_per_key(monkeypatch, tower, p1, p2):
    # b1 and b3 are in four atoms each, b2 and b4 in three: the renaming
    # keeps the order within each count, so the depth order and the index,
    # though the atoms sort in another order
    names = {"b1": "d", "b3": "e", "b2": "a", "b4": "c"}
    renamed = renamed_case(p1, names)
    assert sorted(renamed.init) != [a._replace(args=tuple(names[x] for x in a.args))
                                    for a in sorted(p1.init)]
    library = [("p1", p1), ("renamed", renamed), ("p2", p2),
               ("copy", parse_case(case_to_text(p1)))]
    assert len({case.mapping_rows for _, case in library}) == 2
    expected = [f for _, case in library
                for f in extract_fragments(case, best_mapping(case, tower), tower)]
    calls = count_best_mapping_calls(monkeypatch)
    fragments = build_fragments(tower, library)
    assert fragments == expected
    assert named_fragments(tower, fragments) == [P1_FRAGMENT, P1_FRAGMENT, P2_FRAGMENT,
                                                 P1_FRAGMENT]
    assert calls == [(p1, tower), (p2, tower)]
