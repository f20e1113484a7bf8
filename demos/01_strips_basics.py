"""States, actions, and plan execution on the blocks world.

Parses the complete blocks domain and the four-block tower problem, grounds
two actions to test their preconditions, and executes a full plan step by
step.
"""

from pathlib import Path

from caseplan import GroundAction, execute_plan, grounded, parse_domain, parse_problem

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "blocks"

domain = parse_domain((FIXTURES / "domain.pddl").read_text())
problem = parse_problem((FIXTURES / "tower.pddl").read_text(), domain)

print("initial state:")
for atom in sorted(problem.init):
    print("  ", atom.pddl())
print("goal:", " ".join(a.pddl() for a in sorted(problem.goal)))

pickup_b = grounded(domain, GroundAction("pickup", ("b",)))
pickup_c = grounded(domain, GroundAction("pickup", ("c",)))
print()
print("pickup b needs", " ".join(a.pddl() for a in sorted(pickup_b.pre)))
print("pickup b applicable?", pickup_b.pre <= problem.init)
print("pickup c applicable?", pickup_c.pre <= problem.init,
      " (c sits on a, not on the table)")

plan = [GroundAction("unstack", ("c", "a")), GroundAction("putdown", ("c",)),
        GroundAction("pickup", ("b",)), GroundAction("stack", ("b", "a")),
        GroundAction("pickup", ("c",)), GroundAction("stack", ("c", "b")),
        GroundAction("pickup", ("d",)), GroundAction("stack", ("d", "c"))]

print()
print("executing an eight-step plan:")
for k, action in enumerate(plan, start=1):
    state = execute_plan(problem, tuple(plan[:k])).state
    holding = [a for a in state if a.predicate == "holding"]
    print(f"  after {action.pddl():18s} holding={holding[0].pddl() if holding else '-'}")

result = execute_plan(problem, tuple(plan))
print()
print("plan succeeds:", result.success)
