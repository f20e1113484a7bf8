"""Case-based STRIPS planning with incomplete action models.

The pipeline plans each goal atom separately under the incomplete model to
obtain causal-pair landmarks, maps recorded cases onto the problem to cut
out plan fragments, mines the frequent contiguous fragments, and stitches
them into a solution that the landmarks and the incomplete model both accept.
"""

from .assemble import concat_frag, trim
from .cases import CaseFile, ExperimentRow, parse_case, parse_plan, read_case_library
from .causal import CausalPair, extract_causal_pairs
from .degrade import DegradeSpec, degrade
from .evaluate import EvalReport, evaluate
from .experiment import ExperimentSpec, make_problem_suite, run_experiment
from .generators import generate_case_library, random_blocks_problem
from .mapping import best_mapping, build_fragments, extract_fragments, mapping_index, \
    mapping_score, object_features
from .mining import FrequentFragmentSet, SequenceDB, mine_frequent
from .pddl import PddlError, UnsupportedFeatureError, domain_to_pddl, parse_domain, \
    parse_problem, problem_to_pddl
from .pipeline import PipelineOutcome, skeleton, solve_with_library
from .search import SearchConfig, SolveResult, relaxed_add_heuristic, solve
from .strips import (
    ActionSchema,
    Atom,
    DomainModel,
    ExecutionResult,
    GroundAction,
    Grounding,
    PlanningProblem,
    StripsError,
    execute_plan,
)

__all__ = [
    "ActionSchema", "Atom", "CaseFile", "CausalPair", "DegradeSpec", "DomainModel",
    "EvalReport", "ExecutionResult", "ExperimentRow", "ExperimentSpec",
    "FrequentFragmentSet", "GroundAction", "Grounding", "PddlError",
    "PipelineOutcome", "PlanningProblem", "SearchConfig", "SequenceDB",
    "SolveResult", "StripsError", "UnsupportedFeatureError",
    "best_mapping", "build_fragments", "concat_frag", "degrade", "domain_to_pddl",
    "evaluate", "execute_plan", "extract_causal_pairs", "extract_fragments",
    "generate_case_library", "make_problem_suite", "mapping_index",
    "mapping_score", "mine_frequent", "object_features", "parse_case",
    "parse_domain", "parse_plan", "parse_problem", "problem_to_pddl",
    "random_blocks_problem", "read_case_library", "relaxed_add_heuristic",
    "run_experiment", "skeleton", "solve", "solve_with_library", "trim",
]
