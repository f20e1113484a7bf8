"""Frequent contiguous subsequence mining over a database of plan fragments.

Because every item here is a single action and occurrences must be
contiguous, sequential pattern mining collapses to frequent substring
mining; patterns are grown by occurrence-list joins on adjacent positions.
Support counts database entries containing a pattern, not occurrences. One
growth pass (:func:`grow_frequent`) serves every higher threshold, which only
filters it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Sequence

from .strips import OpPlan


@dataclass(frozen=True)
class SequenceDB:
    """The action sequences to mine; an entry's id is its position."""

    sequences: tuple[OpPlan, ...]

    @classmethod
    def from_sequences(cls, sequences: Sequence[Sequence[int]]) -> "SequenceDB":
        return cls(tuple(map(tuple, sequences)))


@dataclass(frozen=True)
class FrequentFragmentSet:
    """Maximal frequent patterns, ordered longest first then lexicographically."""

    patterns: tuple[OpPlan, ...]
    supports: Mapping[OpPlan, int]  # read-only copy

    def __post_init__(self) -> None:
        object.__setattr__(self, "supports", MappingProxyType(dict(self.supports)))


class GrownPatterns(NamedTuple):
    """What :func:`grow_frequent` returns: every contiguous pattern whose
    support is at least ``min_support``, with its support."""

    min_support: int
    supports: Mapping[OpPlan, int]  # read-only


def grow_frequent(db: SequenceDB, min_support: int) -> GrownPatterns:
    """The growth pass of :func:`mine_frequent`: every frequent contiguous
    pattern, grown by occurrence-list joins.

    A pattern's support is at most its prefix's, so growing patterns only
    from frequent ones finds them all, and the patterns frequent at a higher
    threshold are exactly these, filtered, with the same supports.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")

    # Occurrence lists for single actions: (sid, position) pairs, in that
    # order; every list grown from one keeps it.
    occ: dict[OpPlan, list[tuple[int, int]]] = {}
    for sid, seq in enumerate(db.sequences):
        for pos, action in enumerate(seq):
            occ.setdefault((action,), []).append((sid, pos))

    def entry_count(positions: list[tuple[int, int]]) -> int:
        # the distinct sids of a list in (sid, position) order
        count, last = 0, -1
        for sid, _ in positions:
            if sid != last:
                count += 1
                last = sid
        return count

    frequent: dict[OpPlan, int] = {}
    level: dict[OpPlan, list[tuple[int, int]]] = {}
    for pattern, positions in occ.items():
        support = entry_count(positions)
        if support >= min_support:
            level[pattern] = positions
            frequent[pattern] = support

    while level:
        grown: dict[OpPlan, list[tuple[int, int]]] = {}
        for pattern, positions in level.items():
            ext: dict[int, list[tuple[int, int]]] = {}
            for sid, pos in positions:
                seq = db.sequences[sid]
                nxt = pos + 1
                if nxt < len(seq):
                    ext.setdefault(seq[nxt], []).append((sid, nxt))
            for action, next_positions in ext.items():
                support = entry_count(next_positions)
                if support >= min_support:
                    grown[pattern + (action,)] = next_positions
                    frequent[pattern + (action,)] = support
        level = grown
    return GrownPatterns(min_support, MappingProxyType(frequent))


def mine_frequent(db: SequenceDB, min_support: int, *,
                  grown: GrownPatterns | None = None) -> FrequentFragmentSet:
    """All maximal contiguous patterns whose support is at least ``min_support``.

    Maximal means not contained contiguously in any other frequent pattern;
    every frequent pattern of the database is a contiguous subsequence of
    some returned pattern.

    ``grown``, when given, is ``grow_frequent(db, s)`` for some ``s`` at most
    ``min_support``, already built: a caller mining one database at several
    thresholds grows it once, at the smallest, and each threshold only
    filters it before the maximality pass.
    """
    if grown is None:
        grown = grow_frequent(db, min_support)
    elif grown.min_support > min_support:
        raise ValueError(f"patterns grown at support {grown.min_support} "
                         f"miss those of support {min_support}")
    frequent = {p: s for p, s in grown.supports.items() if s >= min_support}

    # A frequent pattern is non-maximal exactly when some frequent pattern one
    # action longer contains it, i.e. when it is the head or tail of one.
    non_maximal = set()
    for pattern in frequent:
        if len(pattern) > 1:
            non_maximal.add(pattern[:-1])
            non_maximal.add(pattern[1:])
    maximal = sorted((p for p in frequent if p not in non_maximal),
                     key=lambda p: (-len(p), p))
    return FrequentFragmentSet(patterns=tuple(maximal),
                               supports={p: frequent[p] for p in maximal})
