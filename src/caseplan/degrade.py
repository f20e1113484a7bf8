"""Produce incomplete domain models by deleting a seeded fraction of schema atoms."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .strips import ActionSchema, Atom, DomainModel

SCOPE_ALL = ("pre", "add", "delete")


@dataclass(frozen=True)
class DegradeSpec:
    """How much of the model to keep, and which atom lists are fair game."""

    completeness: float
    seed: int
    scope: tuple[str, ...] = SCOPE_ALL

    def __post_init__(self) -> None:
        if not 0.0 <= self.completeness <= 1.0:
            raise ValueError(f"completeness {self.completeness} outside [0, 1]")
        for s in self.scope:
            if s not in SCOPE_ALL:
                raise ValueError(f"unknown scope entry {s!r}")


def removal_slots(model: DomainModel, scope: tuple[str, ...] = SCOPE_ALL
                  ) -> list[tuple[str, str, Atom]]:
    """Every (schema, list, atom) occurrence eligible for removal, in canonical order."""
    slots = []
    for name in sorted(model.schemas):
        schema = model.schemas[name]
        for list_name in SCOPE_ALL:
            if list_name not in scope:
                continue
            for atom in sorted(getattr(schema, list_name)):
                slots.append((name, list_name, atom))
    return slots


def degrade(model: DomainModel, spec: DegradeSpec) -> DomainModel:
    """Remove ceil((1 - completeness) * N) schema atoms, uniformly under the seed.

    Removals for decreasing completeness are nested: one shuffled order is
    drawn per seed and a prefix of it is removed, so the model at a higher
    completeness always contains the model at a lower one. Schema names,
    parameters, and declarations are never touched. Where nothing is removed
    and the completeness is the model's own, the model itself is returned, so
    every problem under it shares the groundings it keeps.
    """
    slots = removal_slots(model, spec.scope)
    k = math.ceil((1.0 - spec.completeness) * len(slots))
    if k == 0 and spec.completeness == model.completeness:
        return model
    rng = random.Random(spec.seed)
    order = rng.sample(range(len(slots)), len(slots))
    removed = {slots[i] for i in order[:k]}

    schemas = {}
    for name in model.schemas:
        schema = model.schemas[name]
        kept = {}
        for list_name in SCOPE_ALL:
            atoms = getattr(schema, list_name)
            kept[list_name] = frozenset(
                a for a in atoms if (name, list_name, a) not in removed)
        schemas[name] = ActionSchema(name=schema.name, params=schema.params,
                                     pre=kept["pre"], add=kept["add"],
                                     delete=kept["delete"])
    return replace(model, schemas=schemas, completeness=spec.completeness)
