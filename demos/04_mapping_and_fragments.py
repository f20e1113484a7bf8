"""Mapping recorded cases onto a new problem and cutting out plan fragments.

The mapping maximizes shared init/goal propositions over all injective
object renamings; the renamed plan is then split wherever it mentions an
object the problem does not have. Fragments are op ids of the problem's
actions; its grounding names them for printing.
"""

from pathlib import Path

from caseplan import (
    Grounding,
    best_mapping,
    extract_fragments,
    mapping_score,
    object_features,
    parse_domain,
    parse_problem,
    read_case_library,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "blocks"

domain = parse_domain((FIXTURES / "domain.pddl").read_text())
problem = parse_problem((FIXTURES / "tower.pddl").read_text(), domain)
cases = read_case_library(FIXTURES / "cases")
action = Grounding.for_problem(problem).action

print("object features in the target problem:")
for obj in sorted(problem.objects):
    print(f"  {obj}: {sorted(object_features(problem, obj))}")

for name, case in cases:
    print()
    print(f"case {name}: {len(case.plan)}-action plan over {case.objects()}")
    mapping = best_mapping(case, problem)
    score = mapping_score(case, mapping, problem)
    print(f"  best mapping (score {score}):",
          " ".join(f"{o}->{v}" for o, v in sorted(mapping.items())))
    for fragment in extract_fragments(case, mapping, problem):
        print("  fragment:", " ".join(action(i).pddl() for i in fragment))
