"""Smoke check of the benchmark at its smallest sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced, each in its own process, and checks
that the last line has exactly the contract's keys, that every metric
BENCHMARK.json names is printed with its unit, and that no solve failed.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END, ROOT, WORKLOAD_NAMES, run_child


def check_spec(spec: dict) -> list[str]:
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end metrics differ from run.py")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    code, out, err = run_child(workload, 1, 1, trace, smoke=True)
    if code:
        return [f"{where}: exit code {code}\n{err}"]
    result = json.loads(out.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    printed = out.splitlines()
    for name, unit in list(wanted.items()) + [("failed_frac", "frac")]:
        if not any(line.split()[:1] == [name] and unit in line.split() for line in printed):
            problems.append(f"{where}: {name} not printed with unit {unit}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
