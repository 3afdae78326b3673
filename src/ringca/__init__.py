"""ringca: reversibility analysis and PRNG construction for 1-D d-state
cellular automata under periodic boundary."""

from .debruijn import (DeBruijnGraph, PrimaryRmtSet, ReachabilityVerdict,
                       fixed_point_attractors, next_configuration,
                       parse_configuration, primary_rmt_sets, quiescent_states,
                       rmt_sequence, trivial_reachability)
from .engine import CycleResult, cycle_length, default_palette, evolve, spacetime_raster
from .prng import (Generator, StreamSpec, binary_blocks, decimal_digits,
                   emit_stream, tri_window)
from .rules import (EquivalentRules, FlowReport, Rule, RuleError, eca,
                    equivalent_rules, information_flow, is_balanced, is_linear,
                    min_representative, parse_rule, satisfies_strategy,
                    self_replicating_rmts, wolfram_number)
from .synthesis import (Lcg, StrategySpec, assignment_stages,
                        equivalent_sets_acceptable,
                        filter_randomness_candidates, generate_strategy,
                        iter_strategy, permutation_of, rule_from_permutation,
                        strategy_iii_rules, synthesize_decimal, verify_rule)
from .tree import (Classification, IrrevExpression, ReversibilityCheck,
                   ReversibilityReport, check_reversible, child_node, classify,
                   merge_expressions, restrict_last_levels, reversible_sizes,
                   root_node)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
