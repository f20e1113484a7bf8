"""caseplan benchmark: one workload per process, one caller, measured end to end.

    python3 perfbench/run.py --workload sweep-blocks --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from the seed (repeating the set-up to time
it), runs calls for ``--seconds``, checks every solve, and prints each metric
by name with its unit and sample count. Times are corrected for the
machine's speed at the moment with the reference loop in ``reference.py``;
the uncorrected figures are printed beside them. The last line of standard
output is a JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, which holds the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``. A traced run alternates untraced slices
with slices that have spans around every inter-module call, so the tracing
overhead is known. Results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep-blocks", "stream-driverlog", "nolib-blocks")
SETUP_REPEATS = (3, 25)  # at least 3 set-ups, more while under SETUP_SECONDS
SETUP_SECONDS = 1.0
WINDOWS = 7  # solves_per_s is the median rate over this many parts of a run
MICRO_SECONDS = 0.5

# name -> unit; BENCHMARK.json lists the same metrics (smoke.py checks it).
END_TO_END = {
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "accuracy": "frac",
    "plan_len_mean": "actions",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs and one set-up, to check that the benchmark runs")
    return parser.parse_args(argv)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "caseplan").glob("*.py")))
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "commit": commit[:12], "src_caseplan_lines": src_lines}


def end_to_end(tally, setups: list[float]) -> dict:
    """name -> (value, unit, sample note) for every end-to-end metric."""
    from checks import percentile

    sample = f"n={len(tally.samples_ms)} calls, {tally.completed} solves"
    windows = len(tally.full_windows())
    values = {
        "solves_per_s": (tally.solves_per_s, f"median of {windows} windows, {sample}, "
                         f"uncorrected {tally.raw_solves_per_s:.6g}"),
        "solve_ms_p50": (percentile(tally.latencies_ms, 50),
                         f"{sample}, uncorrected {percentile(tally.samples_ms, 50):.6g}"),
        "solve_ms_p90": (percentile(tally.latencies_ms, 90),
                         f"{sample}, uncorrected {percentile(tally.samples_ms, 90):.6g}"),
        "accuracy": (tally.solved / tally.attempted, f"n={tally.attempted} solves"),
        "plan_len_mean": (statistics.mean(tally.plan_lengths) if tally.plan_lengths else 0.0,
                          f"n={len(tally.plan_lengths)} solved plans"),
        "setup_s": (statistics.median(s for s, _ in setups),
                    f"median of n={len(setups)} set-ups, "
                    f"uncorrected {statistics.median(raw for _, raw in setups):.6g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of this process"),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END.items()}


def h_add_micro(workload, seconds: float, missing: list[str]) -> float:
    """Median µs per ``relaxed_add_heuristic`` call from fixed initial states."""
    import caseplan

    heuristic = getattr(caseplan, "relaxed_add_heuristic", None)
    if heuristic is None:
        missing.append("caseplan:relaxed_add_heuristic")
        return 0.0
    fixed = [(caseplan.Grounding.for_problem(p), p.init, p.goal)
             for p in workload.heuristic_problems()]
    batches = []
    deadline = perf_counter() + seconds
    while len(batches) < 5 or perf_counter() < deadline:
        began = perf_counter()
        for grounding, state, goal in fixed:
            heuristic(state, goal, grounding)
        batches.append((perf_counter() - began) / len(fixed))
    return statistics.median(batches) * 1e6


def run_workload(args) -> int:
    import reference
    from checks import Tally
    from tracing import HOOKS, Tracer, layer_metrics
    from workloads import WORKLOADS

    env = environment()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    setups, library_s = [], []  # setups: (corrected, uncorrected) seconds
    least, most = (1, 1) if args.smoke else SETUP_REPEATS
    while len(setups) < least or (
            len(setups) < most and sum(raw for _, raw in setups) < SETUP_SECONDS):
        began = perf_counter()
        workload.setup()
        took = perf_counter() - began
        spent, loops = reference.sample(reference.SHARE * took)
        setups.append((took / (spent / loops / reference.NOMINAL_S), took))
        library_s.append(workload.library_s)

    if not args.trace:
        tallies = [Tally(workload.digest_prefix, args.seconds / WINDOWS)]
        workload.measure(args.seconds, tallies[0], 0)
        shown = end_to_end(tallies[0], setups)
        metrics = {name: (value, unit) for name, (value, unit, _) in shown.items()}
    else:
        # Untraced and traced slices take turns, so that a slow spell of the
        # machine falls on both sides of trace.overhead_frac alike.
        slice_s = args.seconds / (2 * WINDOWS)
        tallies = [Tally(workload.digest_prefix, slice_s), Tally(0, slice_s)]
        tracer = Tracer()
        following, wall_s = 0, 0.0
        for k in range(2 * WINDOWS):
            traced = k % 2
            if traced:
                tracer.install(HOOKS)
            began = perf_counter()
            try:
                following = workload.measure(slice_s, tallies[traced], following)
            finally:
                if traced:
                    wall_s += perf_counter() - began
                    tracer.uninstall()
        metrics = layer_metrics(tracer, wall_s)
        metrics["search.h_add_us"] = (
            h_add_micro(workload, 0.05 if args.smoke else MICRO_SECONDS, tracer.missing), "us")
        metrics["generators.library_s"] = (statistics.median(library_s), "s")
        metrics["generators.cases"] = (len(workload.inputs[1]), "count")
        untraced = tallies[0].solves_per_s
        metrics["trace.overhead_frac"] = (
            1.0 - tallies[1].solves_per_s / untraced if untraced else 0.0, "frac")
        metrics["trace.missing_hooks"] = (len(tracer.missing), "count")
        shown = {name: (value, unit, "") for name, (value, unit) in metrics.items()}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env: " + " | ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit, note) in shown.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<8} {note}")
    print(f"  {'failed_frac':<30} {failed / attempted:>14.6g} {'frac':<8} "
          f"{failed} of n={attempted} solves")
    print(f"  {'machine slowdown':<30} {tallies[0].mean_slowdown:>14.6g} {'x':<8} "
          f"reference loop time over its nominal {reference.NOMINAL_S * 1e6:g} us")
    print(f"  digest {tallies[0].digest} (first {workload.digest_prefix} solves), "
          f"all {tallies[0].digest_all}")
    if args.trace:
        print(f"  missing hooks: {', '.join(tracer.missing) or 'none'}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")

    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer.write(OUT / f"{args.workload}.spans.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in shown.items()},
              "attempted": attempted, "failed": failed, "failures": problems,
              "digest": tallies[0].digest, "digest_all": tallies[0].digest_all,
              "setups": setups, "slowdown": tallies[0].mean_slowdown,
              "windows": tallies[0].windows, "samples_ms": tallies[0].samples_ms}
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """Run one workload in its own process; returns (exit code, stdout, stderr)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "caseplan" / "__init__.py").is_file():
        print(f"perfbench: caseplan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        code, out, err = run_child(name, args.seed, args.seconds, args.trace, args.smoke)
        print(out, end="")
        print(err, end="", file=sys.stderr)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
