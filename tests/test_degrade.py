"""Model degradation: exact removal counts, determinism, nesting."""

from __future__ import annotations

import pytest

from caseplan import DegradeSpec, degrade
from caseplan.degrade import removal_slots


def kept_atoms(model):
    out = set()
    for name, schema in model.schemas.items():
        for list_name in ("pre", "add", "delete"):
            for atom in getattr(schema, list_name):
                out.add((name, list_name, atom))
    return out


def test_blocks_has_27_schema_atoms(blocks):
    # Hand count: pickup 3+1+3, putdown 1+3+1, stack 2+3+2, unstack 3+2+3.
    assert blocks.atom_count() == 27
    assert len(removal_slots(blocks)) == 27


def test_completeness_one_is_identity(blocks):
    result = degrade(blocks, DegradeSpec(completeness=1.0, seed=3))
    assert result.schemas == blocks.schemas
    assert result.completeness == 1.0
    # the model itself, so every complete-model problem shares its groundings
    assert result is blocks


def test_removing_nothing_still_records_the_completeness(blocks):
    # a model keeps its own completeness only where degrade returns it as it is
    partial = degrade(blocks, DegradeSpec(completeness=0.6, seed=3))
    assert degrade(partial, DegradeSpec(completeness=0.6, seed=3, scope=())) is partial
    relabelled = degrade(partial, DegradeSpec(completeness=1.0, seed=3))
    assert relabelled.completeness == 1.0 and relabelled.schemas == partial.schemas


def test_completeness_zero_empties_all_lists(blocks):
    result = degrade(blocks, DegradeSpec(completeness=0.0, seed=3))
    for schema in result.schemas.values():
        assert not schema.pre and not schema.add and not schema.delete


def test_exact_removal_count_and_determinism(blocks):
    # ceil(0.2 * 27) = 6 atoms must be gone
    first = degrade(blocks, DegradeSpec(completeness=0.8, seed=7))
    assert blocks.atom_count() - first.atom_count() == 6
    again = degrade(blocks, DegradeSpec(completeness=0.8, seed=7))
    assert again.schemas == first.schemas
    other_seed = degrade(blocks, DegradeSpec(completeness=0.8, seed=8))
    assert blocks.atom_count() - other_seed.atom_count() == 6


def test_nesting_across_completeness_levels(blocks):
    previous = None
    for completeness in (0.2, 0.4, 0.6, 0.8, 1.0):
        model = degrade(blocks, DegradeSpec(completeness=completeness, seed=5))
        atoms = kept_atoms(model)
        if previous is not None:
            assert previous <= atoms
        previous = atoms


def test_structure_is_preserved(blocks):
    result = degrade(blocks, DegradeSpec(completeness=0.3, seed=2))
    assert set(result.schemas) == set(blocks.schemas)
    for name, schema in result.schemas.items():
        assert schema.params == blocks.schemas[name].params
    assert result.predicates == blocks.predicates
    assert result.completeness == 0.3


def test_scope_restricts_removal(blocks):
    result = degrade(blocks, DegradeSpec(completeness=0.0, seed=1, scope=("pre",)))
    for name, schema in result.schemas.items():
        assert not schema.pre
        assert schema.add == blocks.schemas[name].add
        assert schema.delete == blocks.schemas[name].delete


def test_invalid_spec():
    with pytest.raises(ValueError):
        DegradeSpec(completeness=1.2, seed=0)
    with pytest.raises(ValueError):
        DegradeSpec(completeness=0.5, seed=0, scope=("preconditions",))
