import ringca
from ringca.rules import satisfies_strategy

# every public name of the package, modules included; a name that leaves
# or joins ``ringca.__all__`` must be changed here on purpose
PUBLIC_NAMES = [
    "Classification", "CycleResult", "DeBruijnGraph", "EquivalentRules",
    "FlowReport", "Generator", "IrrevExpression", "Lcg", "PrimaryRmtSet",
    "ReachabilityVerdict", "ReversibilityCheck", "ReversibilityReport", "Rule",
    "RuleError", "StrategySpec", "StreamSpec", "assignment_stages",
    "binary_blocks", "check_reversible", "child_node", "classify",
    "cycle_length", "debruijn", "decimal_digits", "default_palette", "eca",
    "emit_stream", "engine", "equivalent_rules", "equivalent_sets_acceptable",
    "evolve", "filter_randomness_candidates", "fixed_point_attractors",
    "generate_strategy", "information_flow", "is_balanced", "is_linear",
    "iter_strategy", "merge_expressions", "min_representative",
    "next_configuration", "parse_configuration", "parse_rule", "permutation_of",
    "primary_rmt_sets", "prng", "quiescent_states", "restrict_last_levels",
    "reversible_sizes", "rmt_sequence", "root_node", "rule_from_permutation",
    "rules", "satisfies_strategy", "self_replicating_rmts", "spacetime_raster",
    "strategy_iii_rules", "synthesis", "synthesize_decimal", "tree",
    "tri_window", "trivial_reachability", "verify_rule", "wolfram_number",
]


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 64
    assert sorted(ringca.__all__) == PUBLIC_NAMES
    assert ringca.satisfies_strategy is satisfies_strategy
