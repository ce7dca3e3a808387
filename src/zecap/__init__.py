"""Zero-error codes over channel graphs: construction, verification, rates."""

from .graphs import (BudgetExceededError, ChannelGraph, IndependenceResult,
                     complete, cycle, cycle_power_symmetries,
                     cycle_product_independence, disjoint_union,
                     distinguishable, graph_by_name, independence_number,
                     induced_subgraph, is_automorphism, lift_automorphisms,
                     one_vertex, path, strong_power, strong_product,
                     transitive_automorphisms, zero_graph)
from .numerics import (CompanionMatrix, IntPolynomial, MultipleRootError,
                       RationalFraction, aberth_roots, closed_form_counts,
                       count_walks, linear_recurrence_extend, polynomial_gcd,
                       series_coefficients, smallest_positive_root,
                       spectral_radius, unique_positive_root)
from .varlen import (GeneratorSet, NonUniquelyDecodableError, RateResult,
                     count_concatenations, enumerate_codewords)
from .varlen import rate as generator_set_rate
from .varlen import verify_zero_error as verify_generator_set
from .intermingled import (IntermingledRate, IntermingledVerifyResult,
                           SuccessionRule, TransitionGraph,
                           build_transition_graph, count_sequences, full_rule,
                           rule_from_json, single_open_rule, table_rule,
                           varlen_rule)
from .intermingled import rate as intermingled_rate
from .intermingled import verify_zero_error as verify_intermingled
from .automata import (AmbiguousExpressionError, ChannelSeriesPrefix, Concat,
                       Dfa, Empty, Epsilon, Letter, RationalCode, RationalRate,
                       Star, Union, channel_series_prefix, count_language,
                       generator_series, parse_regex, rational_code_rate,
                       regex_to_dfa)

__version__ = "1.0.0"

__all__ = [
    "AmbiguousExpressionError", "BudgetExceededError", "ChannelGraph",
    "ChannelSeriesPrefix", "CompanionMatrix", "Concat", "Dfa", "Empty",
    "Epsilon", "GeneratorSet", "IndependenceResult", "IntPolynomial",
    "IntermingledRate", "IntermingledVerifyResult", "Letter",
    "MultipleRootError", "NonUniquelyDecodableError", "RateResult",
    "RationalCode", "RationalFraction", "RationalRate", "Star",
    "SuccessionRule", "TransitionGraph", "Union", "aberth_roots",
    "build_transition_graph", "channel_series_prefix",
    "closed_form_counts", "complete", "count_concatenations", "count_language",
    "count_sequences", "count_walks", "cycle", "cycle_power_symmetries",
    "cycle_product_independence", "disjoint_union", "distinguishable",
    "enumerate_codewords", "full_rule", "generator_series",
    "generator_set_rate", "graph_by_name", "independence_number",
    "induced_subgraph", "intermingled_rate", "is_automorphism",
    "lift_automorphisms", "linear_recurrence_extend", "one_vertex",
    "parse_regex", "path", "polynomial_gcd", "rational_code_rate",
    "regex_to_dfa", "rule_from_json", "series_coefficients",
    "single_open_rule", "smallest_positive_root", "spectral_radius",
    "strong_power", "strong_product", "table_rule",
    "transitive_automorphisms", "unique_positive_root", "varlen_rule",
    "verify_generator_set", "verify_intermingled", "zero_graph",
]
