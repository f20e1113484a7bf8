"""Causal pairs from per-goal planning under an incomplete model.

Each goal atom is planned for separately with whatever the degraded model
still believes; the provider/consumer pairs of those little plans become the
landmarks that later steer fragment assembly.
"""

from pathlib import Path

from caseplan import parse_domain, parse_problem, skeleton
from caseplan.causal import single_goal_plans

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "blocks"

incomplete = parse_domain((FIXTURES / "incomplete.pddl").read_text())
problem = parse_problem((FIXTURES / "tower.pddl").read_text(), incomplete)

print("per-goal plans under the incomplete model:")
for atom, result in single_goal_plans(problem):
    steps = " ".join(a.pddl() for a in result.plan) if result.solved else result.status
    print(f"  {atom.pddl():12s} -> {steps}")

print()
print("causal pairs (the skeletal plan):")
for pair in sorted(skeleton(problem)[1]):
    print("  ", pair.pddl())

print()
print("note how (pickup b)(stack b a) only works because the degraded stack")
print("schema lost its (clear ?y) precondition; block c still covers a.")
