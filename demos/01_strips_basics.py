"""States, actions, and plan execution on the blocks world.

Parses the complete blocks domain and the four-block tower problem, grounds
it, numbers two actions and runs each from the initial state to test its
precondition, and executes a full plan step by step.
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
pickup_b = grounding.op_id(GroundAction("pickup", ("b",)))
pickup_c = grounding.op_id(GroundAction("pickup", ("c",)))
pre_b, _, _ = grounding.ops_ids[pickup_b]
print()
print("pickup b needs", " ".join(a.pddl() for a in sorted(grounding.decode(pre_b))))
print("pickup b applicable?", grounding.run([pickup_b], init)[1] == 1)
print("pickup c applicable?", grounding.run([pickup_c], init)[1] == 1,
      " (c sits on a, not on the table)")

plan = [GroundAction("unstack", ("c", "a")), GroundAction("putdown", ("c",)),
        GroundAction("pickup", ("b",)), GroundAction("stack", ("b", "a")),
        GroundAction("pickup", ("c",)), GroundAction("stack", ("c", "b")),
        GroundAction("pickup", ("d",)), GroundAction("stack", ("d", "c"))]

print()
print("executing an eight-step plan:")
state = init
for action in plan:
    state, _ = grounding.run([grounding.op_id(action)], state)
    holding = [a for a in grounding.decode(state) if a.predicate == "holding"]
    print(f"  after {action.pddl():18s} holding={holding[0].pddl() if holding else '-'}")

result = execute_plan(problem, tuple(plan), grounding=grounding)
print()
print("plan succeeds:", result.success)
