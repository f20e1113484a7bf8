"""Output checks and the per-run tally of solves.

Every solve is re-checked here without the planner's own execution code: a
plan counts as solved only if the small simulator below runs it to the goal
under the complete model, and that verdict must agree with the program's own
(``check_solution`` or the experiment row). Any plan the program returns must
also execute under the incomplete model it was solved with (``execute_plan``):
the pipeline only returns plans that do.
"""

from __future__ import annotations

import hashlib
import statistics

from caseplan import execute_plan

import reference


def simulate(domain, init, goal, plan) -> bool:
    """True iff the plan runs from ``init`` to ``goal`` under ``domain``.

    Atoms are compared as plain ``(predicate, args)`` tuples, so this shares
    no grounding or execution code with the planner.
    """
    state = {tuple(a) for a in init}
    for action in plan:
        schema = domain.schemas.get(action.name)
        if schema is None or len(schema.params) != len(action.args):
            return False
        binding = {var: obj for (var, _), obj in zip(schema.params, action.args)}

        def ground(atoms):
            return {(a.predicate, tuple(binding[x] for x in a.args)) for a in atoms}

        if not ground(schema.pre) <= state:
            return False
        state = (state - ground(schema.delete)) | ground(schema.add)
    return {tuple(a) for a in goal} <= state


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Tally:
    """Everything a run measured and checked, in the order solves completed.

    ``calls_s`` sums the wall time of the timed public calls, which completed
    ``completed`` solves; ``samples_ms`` holds one latency sample per call (per
    solve on the streams, per solve averaged over a whole grid on the sweep).
    After each call the reference loop runs for a small share of the call's
    time. The calls are cut into windows of ``window_s`` seconds of call time.
    A window's slowdown is its mean reference-loop time over
    ``reference.NOMINAL_S``, and every time in the window is divided by it.
    The reported rate is the median over the windows, so that a slow solve
    or a slow spell the loop misses moves only the windows it falls in.
    """

    def __init__(self, digest_prefix: int, window_s: float):
        self.digest_prefix = digest_prefix
        self.window_s = window_s
        self.calls_s = 0.0
        self.samples_ms: list[float] = []
        self.completed = 0
        # [call seconds, solves, first sample, reference seconds, reference loops]
        self.windows: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.solved = 0
        self.plan_lengths: list[int] = []
        self.problems: list[str] = []
        self._prefix = hashlib.sha256()
        self._all = hashlib.sha256()

    def timed(self, seconds: float, solves: int) -> None:
        self.calls_s += seconds
        self.samples_ms.append(seconds * 1000.0 / max(solves, 1))
        self.completed += solves
        if not self.windows or self.windows[-1][0] >= self.window_s:
            self.windows.append([0.0, 0, len(self.samples_ms) - 1, 0.0, 0])
        window = self.windows[-1]
        window[0] += seconds
        window[1] += solves
        spent, loops = reference.sample(reference.SHARE * seconds)
        window[3] += spent
        window[4] += loops

    def _windows(self) -> list[tuple[list, float, list[float]]]:
        """(window, its slowdown, its latency samples) for every window."""
        ends = [w[2] for w in self.windows[1:]] + [len(self.samples_ms)]
        return [(w, w[3] / w[4] / reference.NOMINAL_S, self.samples_ms[w[2]:end])
                for w, end in zip(self.windows, ends)]

    def full_windows(self):
        return [entry for entry in self._windows() if entry[0][0] >= self.window_s]

    @property
    def latencies_ms(self) -> list[float]:
        """Every latency sample divided by its window's slowdown."""
        return [ms / slow for _, slow, samples in self._windows() for ms in samples]

    @property
    def solves_per_s(self) -> float:
        """Median rate over the full windows, or over all calls if under three."""
        full = self.full_windows()
        if len(full) >= 3:
            return statistics.median(w[1] * slow / w[0] for w, slow, _ in full)
        seconds = sum(w[0] / slow for w, slow, _ in self._windows())
        return self.completed / seconds if seconds else 0.0

    @property
    def raw_solves_per_s(self) -> float:
        """Solves per second of call time, without the slowdown correction."""
        return self.completed / self.calls_s if self.calls_s else 0.0

    @property
    def mean_slowdown(self) -> float:
        spent = sum(w[3] for w in self.windows)
        loops = sum(w[4] for w in self.windows)
        return spent / loops / reference.NOMINAL_S if loops else 1.0

    def solve(self, problem_id: str, problem, complete, plan, route,
              program_solved: bool) -> None:
        """Check one solve: ``problem`` carries the model it was solved under."""
        self.attempted += 1
        solved = plan is not None and simulate(complete, problem.init, problem.goal, plan)
        sound = solved == program_solved and (
            plan is None or execute_plan(problem, plan).success)
        if not sound:
            self.failed += 1
            self.problems.append(f"{problem_id}: route {route} unsound")
        if solved:
            self.solved += 1
            self.plan_lengths.append(len(plan))
        text = " ".join(a.pddl() for a in plan) if plan is not None else "-"
        line = f"{problem_id}|{route}|{text}\n".encode()
        if self.attempted <= self.digest_prefix:
            self._prefix.update(line)
        self._all.update(line)

    def error(self, problem_id: str, count: int, err: BaseException) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(f"{problem_id}: {type(err).__name__}: {err}")

    @property
    def digest(self) -> str:
        """Digest of the first ``digest_prefix`` solves, comparable across commits."""
        if self.attempted < self.digest_prefix:
            return "short"
        return self._prefix.hexdigest()[:16]

    @property
    def digest_all(self) -> str:
        return self._all.hexdigest()[:16]
