"""States, actions, and plan execution on the blocks world.

Parses the complete blocks domain and the four-block tower problem, grounds
it, steps two actions from the initial state to test their preconditions,
and executes a full plan step by step.
"""

from pathlib import Path

from caseplan import GroundAction, Grounding, execute_plan, parse_domain, parse_problem

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "blocks"

domain = parse_domain((FIXTURES / "domain.pddl").read_text())
problem = parse_problem((FIXTURES / "tower.pddl").read_text(), domain)

print("initial state:")
for atom in sorted(problem.init):
    print("  ", atom.pddl())
print("goal:", " ".join(a.pddl() for a in sorted(problem.goal)))

grounding = Grounding.for_problem(problem)
init = grounding.encode(problem.init)
(pre_b, _, _), after_b = grounding.step(init, GroundAction("pickup", ("b",)))
_, after_c = grounding.step(init, GroundAction("pickup", ("c",)))
print()
print("pickup b needs", " ".join(a.pddl() for a in sorted(grounding.decode(pre_b))))
print("pickup b applicable?", after_b is not None)
print("pickup c applicable?", after_c is not None,
      " (c sits on a, not on the table)")

plan = [GroundAction("unstack", ("c", "a")), GroundAction("putdown", ("c",)),
        GroundAction("pickup", ("b",)), GroundAction("stack", ("b", "a")),
        GroundAction("pickup", ("c",)), GroundAction("stack", ("c", "b")),
        GroundAction("pickup", ("d",)), GroundAction("stack", ("d", "c"))]

print()
print("executing an eight-step plan:")
for k, action in enumerate(plan, start=1):
    state = execute_plan(problem, tuple(plan[:k]), grounding=grounding).state
    holding = [a for a in state if a.predicate == "holding"]
    print(f"  after {action.pddl():18s} holding={holding[0].pddl() if holding else '-'}")

result = execute_plan(problem, tuple(plan), grounding=grounding)
print()
print("plan succeeds:", result.success)
