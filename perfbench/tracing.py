"""Spans around the calls between caseplan's modules, recorded from outside.

Each hook replaces one module attribute through which a layer calls another
(``caseplan.pipeline.build_fragments``, ``caseplan.mapping.best_mapping``, ...)
with a wrapper that records a span: name, start, end, parent span and solve.
Spans stay in memory and are written when the run ends. A hook point that a
later refactor removed is reported as missing and the run goes on without it.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, solve)
        self.stack: list[int] = []
        self.solve = 0
        self.solves = 0
        self.counts: Counter = Counter()
        self.mapped_pairs: set = set()
        self.installed: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, fn, name, observe, starts_solve):
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if starts_solve:
                tracer.solves += 1
                tracer.solve = tracer.solves
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.solve)
                if starts_solve:
                    tracer.solve = 0
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, hooks) -> None:
        for name, targets, observe, starts_solve in hooks:
            for target in targets:
                module_name, _, path = target.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *owners, attr = path.split(".")
                    for part in owners:
                        owner = getattr(owner, part)
                    raw = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name, observe, starts_solve))
                else:
                    wrapped = self.wrap(raw, name, observe, starts_solve)
                setattr(owner, attr, wrapped)
                self.installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self.installed):
            setattr(owner, attr, raw)
        self.installed.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, (name, start, end, parent, solve) in enumerate(self.spans):
                out.write(json.dumps([i, parent, solve, name, start, end]) + "\n")

    def by_name(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return stats


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_outcome(tracer, args, kwargs, outcome):
    tracer.counts[f"route.{outcome.route}"] += 1
    tracer.counts["pairs"] += len(outcome.pairs)


def _note_search(tracer, args, kwargs, result):
    tracer.counts["expansions"] += result.expansions
    tracer.counts["budget"] += result.status == "budget"


def _note_goals(tracer, args, kwargs, results):
    tracer.counts["goals"] += len(results)
    tracer.counts["goals_solved"] += sum(r.solved for _, r in results)


def _note_mapping(tracer, args, kwargs, result):
    case = _arg(args, kwargs, 0, "case")
    problem = _arg(args, kwargs, 1, "problem")
    key = (case, problem.init, problem.goal, tuple(sorted(problem.objects.items())))
    if key in tracer.mapped_pairs:
        tracer.counts["mapping_repeats"] += 1
    else:
        tracer.mapped_pairs.add(key)


def _note_fragments(tracer, args, kwargs, result):
    tracer.counts["fragments"] += len(result)


def _note_patterns(tracer, args, kwargs, result):
    tracer.counts["patterns"] += len(result.patterns)


def _note_concat(tracer, args, kwargs, result):
    tracer.counts["concat_success"] += result is not None


# (span name, "module:attribute" targets, observer, starts a solve). The span
# name's prefix is the layer, named after the caseplan module that does the work.
HOOKS = [
    ("experiment.run_experiment", ["caseplan:run_experiment"], None, False),
    ("pipeline.solve_with_library",
     ["caseplan:solve_with_library", "caseplan.experiment:solve_with_library"],
     _note_outcome, True),
    ("strips.grounding", ["caseplan.strips:Grounding.for_problem"], None, False),
    ("causal.single_goal_plans", ["caseplan.pipeline:single_goal_plans"], _note_goals, False),
    ("causal.extract_causal_pairs", ["caseplan.pipeline:extract_causal_pairs"], None, False),
    ("search.solve", ["caseplan.causal:solve", "caseplan.pipeline:solve"], _note_search, False),
    ("mapping.build_fragments", ["caseplan.pipeline:build_fragments"], _note_fragments, False),
    ("mapping.best_mapping", ["caseplan.mapping:best_mapping"], _note_mapping, False),
    ("mining.from_sequences", ["caseplan.mining:SequenceDB.from_sequences"], None, False),
    ("mining.mine_frequent", ["caseplan.pipeline:mine_frequent"], _note_patterns, False),
    ("assemble.concat_frag", ["caseplan.pipeline:concat_frag"], _note_concat, False),
    ("assemble.trim", ["caseplan.pipeline:trim", "caseplan.assemble:trim"], None, False),
    ("strips.execute_plan",
     ["caseplan.pipeline:execute_plan", "caseplan.assemble:execute_plan",
      "caseplan.search:execute_plan", "caseplan.evaluate:execute_plan"], None, False),
    ("evaluate.check_solution",
     ["caseplan.experiment:check_solution", "caseplan.evaluate:check_solution"], None, False),
]

LAYERS = ("experiment", "pipeline", "causal", "search", "mapping", "mining",
          "assemble", "strips", "evaluate")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced window, as name -> (value, unit)."""
    stats = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return stats[name][0] if name in stats else 0

    def inclusive(name):
        return stats[name][1] if name in stats else 0.0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    layer_self = {layer: sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    solves = calls("pipeline.solve_with_library")
    out = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    out.update({
        "pipeline.route_fragments_frac": (share(counts["route.fragments"], solves), "frac"),
        "pipeline.route_skeletal_frac": (share(counts["route.skeletal"], solves), "frac"),
        "pipeline.route_search_frac": (share(counts["route.search"], solves), "frac"),
        "pipeline.route_none_frac": (share(counts["route.None"], solves), "frac"),
        "causal.goals": (counts["goals"], "count"),
        "causal.goals_solved_frac": (share(counts["goals_solved"], counts["goals"]), "frac"),
        "causal.pairs": (counts["pairs"], "count"),
        "search.calls": (calls("search.solve"), "count"),
        "search.expansions": (counts["expansions"], "count"),
        "search.expansions_per_s": (share(counts["expansions"], inclusive("search.solve")), "1/s"),
        "search.budget_frac": (share(counts["budget"], calls("search.solve")), "frac"),
        "mapping.best_mapping_calls": (calls("mapping.best_mapping"), "count"),
        "mapping.best_mapping_us": (
            1e6 * share(inclusive("mapping.best_mapping"), calls("mapping.best_mapping")), "us"),
        "mapping.repeat_frac": (
            share(counts["mapping_repeats"], calls("mapping.best_mapping")), "frac"),
        "mapping.fragments": (counts["fragments"], "count"),
        "mining.patterns": (counts["patterns"], "count"),
        "assemble.concat_self_s": (self_s("assemble.concat_frag"), "s"),
        "assemble.concat_success_frac": (
            share(counts["concat_success"], calls("assemble.concat_frag")), "frac"),
        "assemble.trim_calls": (calls("assemble.trim"), "count"),
        "assemble.trim_self_s": (self_s("assemble.trim"), "s"),
        "strips.grounding_calls": (calls("strips.grounding"), "count"),
        "strips.grounding_self_s": (self_s("strips.grounding"), "s"),
        "strips.execute_plan_calls": (calls("strips.execute_plan"), "count"),
        "strips.execute_plan_self_s": (self_s("strips.execute_plan"), "s"),
        "evaluate.check_self_s": (self_s("evaluate.check_solution"), "s"),
        "trace.solves": (solves, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.unattributed_s": (wall_s - sum(layer_self.values()), "s"),
    })
    return out
