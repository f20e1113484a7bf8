"""Mining maximal frequent contiguous patterns from a fragment database.

With the two walkthrough fragments, threshold 2 keeps exactly their shared
four-action run; threshold 1 keeps the two whole fragments. All shorter
sub-runs are absorbed by maximality. Fragments and patterns are op ids of
the problem's actions; its grounding names them for printing.
"""

from pathlib import Path

from caseplan import (
    Grounding,
    SequenceDB,
    build_fragments,
    mine_frequent,
    parse_domain,
    parse_problem,
    read_case_library,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "blocks"

domain = parse_domain((FIXTURES / "domain.pddl").read_text())
problem = parse_problem((FIXTURES / "tower.pddl").read_text(), domain)
cases = read_case_library(FIXTURES / "cases")
action = Grounding.for_problem(problem).action

fragments = build_fragments(problem, cases)
db = SequenceDB.from_sequences(fragments)
print("fragment database:")
for sid, seq in enumerate(db.sequences):
    print(f"  #{sid}: " + " ".join(action(i).pddl() for i in seq))

results = {threshold: mine_frequent(db, threshold) for threshold in (2, 1)}
for threshold, result in results.items():
    print()
    print(f"maximal frequent patterns at support >= {threshold}:")
    for pattern in result.patterns:
        print(f"  [{result.supports[pattern]}x] " +
              " ".join(action(i).pddl() for i in pattern))

shared = results[2].patterns[0]
print()
print("support of the shared run:", results[2].supports[shared])
