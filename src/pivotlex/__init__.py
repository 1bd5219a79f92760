"""Constraint-based bilingual lexicon induction through a pivot language."""

from .baselines import cartesian_product, inverse_consultation
from .evaluation import (
    GridPoint,
    Metrics,
    TTestReport,
    cross_validate,
    grid_search,
    paired_t_test,
    score,
    t_cdf,
)
from .heuristics import (
    HeuristicSelection,
    PairCandidate,
    generate_candidates,
    lcsr,
)
from .lexicon import (
    BilingualDictionary,
    PairSet,
    ParseError,
    Word,
    invert_dictionary,
    normalize_word,
    parse_dictionary,
    parse_gold_standard,
    write_result_pairs,
)
from .pipeline import (
    HyperParams,
    InducedPair,
    InductionResult,
    MethodDescriptor,
    induce_on_transgraphs,
    parse_method,
    run_cycles,
    run_pipeline,
)
from .polysemy import predicted_precision, sweep
from .transgraph import (
    Transgraph,
    TransgraphSet,
    add_new_edges,
    build_transgraphs,
    component_stats,
    filter_big,
)

__version__ = "0.1.0"

__all__ = [
    "BilingualDictionary",
    "GridPoint",
    "HeuristicSelection",
    "HyperParams",
    "InducedPair",
    "InductionResult",
    "Metrics",
    "MethodDescriptor",
    "PairCandidate",
    "PairSet",
    "ParseError",
    "TTestReport",
    "Transgraph",
    "TransgraphSet",
    "Word",
    "add_new_edges",
    "build_transgraphs",
    "cartesian_product",
    "component_stats",
    "cross_validate",
    "filter_big",
    "generate_candidates",
    "grid_search",
    "induce_on_transgraphs",
    "inverse_consultation",
    "invert_dictionary",
    "lcsr",
    "normalize_word",
    "paired_t_test",
    "parse_dictionary",
    "parse_gold_standard",
    "parse_method",
    "predicted_precision",
    "run_cycles",
    "run_pipeline",
    "score",
    "sweep",
    "t_cdf",
    "write_result_pairs",
]
