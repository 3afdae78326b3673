"""``classify`` reports of a fixed rule corpus, pinned in a golden file.

The corpus is all 256 ECAs, the distinct rules of the fixed-size table,
200 seeded strategy I and II rules each, and three 10-state permutation
rules.  The file pins every field of ``to_dict()``, including
``unique_nodes`` and ``last_unique_level``.  Rewrite it, only when a
report change is intended, with::

    PYTHONPATH=src python tests/test_tree_golden.py
"""

import json
from pathlib import Path

from ringca.rules import eca, is_balanced, parse_rule
from ringca.synthesis import (StrategySpec, generate_strategy,
                              rule_from_permutation)
from ringca.tree import _ClassifyBuilder, _state_claims, _strictly_irreversible, classify

from conftest import DATA, PERMUTATION_RULES
from test_tree_tables import ROWS

GOLDEN = DATA / "classify_golden.json"


def golden_rules():
    rules = [eca(number) for number in range(256)]
    rules += [parse_rule(text, d, 3)
              for d, text in dict.fromkeys((d, text) for d, _, text, *_ in ROWS)]
    for kind in ("I", "II"):
        rules += generate_strategy(StrategySpec(kind, seed=5), 200)
    rules += [rule_from_permutation(p) for p in PERMUTATION_RULES[:3]]
    return rules


def reports():
    return [[rule.d, rule.m, rule.string, classify(rule).to_dict()]
            for rule in golden_rules()]


def test_classify_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = reports()
    assert len(actual) == len(expected) == 726
    for got, want in zip(actual, expected):
        assert got == want, got[:3]


def test_builder_invariants():
    # claims hold the claims of the current level set, and the smallest
    # claim start is the level at which the node was first built
    for rule in golden_rules():
        if _strictly_irreversible(rule) or not is_balanced(rule):
            continue
        builder = _ClassifyBuilder(rule)
        builder.build()
        for nd in builder.nodes:
            assert _state_claims(nd.levels) <= nd.claims, rule.string
            assert min(s for s, _ in nd.claims) == nd.created_level, rule.string


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, reports())) + "\n]\n")
