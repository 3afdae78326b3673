"""Tree results of fixed rule corpora, pinned in two golden files.

``classify_golden.json`` holds the ``classify`` reports of all 256 ECAs,
the distinct rules of the fixed-size table, 200 seeded strategy I and II
rules each, and three 10-state permutation rules, every field of
``to_dict()``, including ``unique_nodes`` and ``last_unique_level``.
``check_golden.json`` holds ``check_reversible`` at five ring sizes for
200 seeded random balanced rules with d <= 3: the verdict, M and the
last level.  Rewrite both, only when a result change is intended, with::

    PYTHONPATH=src python tests/test_tree_golden.py
"""

import json
import math
import random

from ringca.rules import Rule, eca, is_balanced, parse_rule
from ringca.synthesis import (StrategySpec, generate_strategy,
                              rule_from_permutation)
from ringca.tree import (ReversibilityReport, _ClassifyBuilder, _state_claims,
                         _strictly_irreversible, check_reversible, classify)

from conftest import (DATA, PERMUTATION_RULES, WRONG_AT_11, exact_sets, in_sizes,
                      pair_graph_bijective)
from test_tree_tables import ROWS

GOLDEN = DATA / "classify_golden.json"
CHECK_GOLDEN = DATA / "check_golden.json"
CHECK_SIZES = (5, 7, 11, 13, 30)


def golden_rules():
    rules = [eca(number) for number in range(256)]
    rules += [parse_rule(text, d, 3)
              for d, text in dict.fromkeys((d, text) for d, _, text, *_ in ROWS)]
    for kind in ("I", "II"):
        rules += generate_strategy(StrategySpec(kind, seed=5), 200)
    rules += [rule_from_permutation(p) for p in PERMUTATION_RULES[:3]]
    return rules


def random_tree_rules(count, seed):
    """``count`` seeded random balanced rules with d <= 3 that are not
    strictly irreversible, so that classify builds their trees."""
    rng = random.Random(seed)
    rules = []
    while len(rules) < count:
        d, m = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
        table = [v for v in range(d) for _ in range(d ** (m - 1))]
        rng.shuffle(table)
        rule = Rule(d, m, tuple(table))
        if not _strictly_irreversible(rule):
            rules.append(rule)
    return rules


def reports():
    return [[rule.d, rule.m, rule.string, classify(rule).to_dict()]
            for rule in golden_rules()]


def checks():
    rows = []
    for rule in random_tree_rules(200, 30):
        for n in CHECK_SIZES:
            check = check_reversible(rule, n)
            rows.append([rule.d, rule.m, rule.string, n, check.reversible,
                         check.unique_nodes, check.last_unique_level])
    return rows


def exact_mismatches(rule, report):
    """The sizes n >= m at which ``report`` and the exact sets disagree.

    Past mu + lam and past every start of the report (its offsets, its
    ``irreversible_from`` and its exceptional sizes) both repeat with a
    period that divides lcm(lam, the report's moduli), so one window of
    that length past the largest of them decides every n.
    """
    mu, lam, _ = exact = exact_sets(rule)
    top = max(mu + lam, report.irreversible_from or 0,
              *(e.offset for e in report.expressions),
              *(s + 1 for s in report.exceptional_sizes))
    period = math.lcm(lam, *(e.modulus for e in report.expressions))
    return [n for n in range(rule.m, top + period)
            if report.irreversible_at(n) != in_sizes(exact, n)]


def test_classify_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = reports()
    assert len(actual) == len(expected) == 726
    for got, want in zip(actual, expected):
        assert got == want, got[:3]


def test_builder_invariants():
    # claims hold the claims of the current level set, the smallest claim
    # start is the level at which the node was first built, and every other
    # single point is the anchor of a loop: no occurrence is claimed alone
    for rule in golden_rules():
        if _strictly_irreversible(rule) or not is_balanced(rule):
            continue
        builder = _ClassifyBuilder(rule)
        builder.build()
        for nd in builder.nodes:
            assert _state_claims(nd.levels) <= nd.claims, rule.string
            assert min(s for s, _ in nd.claims) == nd.created_level, rule.string
            anchors = {s for s, p in nd.claims if p} | {nd.created_level}
            assert {s for s, p in nd.claims if not p} <= anchors, rule.string


def test_check_matches_golden():
    expected = json.loads(CHECK_GOLDEN.read_text())
    actual = checks()
    assert len(actual) == len(expected) == 200 * len(CHECK_SIZES)
    for got, want in zip(actual, expected):
        assert got == want, got[:4]
    for d, m, text, n, reversible, *_ in expected:
        assert pair_graph_bijective(parse_rule(text, d, m), n) == reversible, (text, n)


def test_classify_golden_against_exact_sets():
    # every golden report at every n >= m; the tree's one known wrong
    # verdict among them is the only disagreement
    mismatches = set()
    for d, m, text, data in json.loads(GOLDEN.read_text()):
        report = ReversibilityReport.from_dict(data)
        mismatches |= {(text, n) for n in exact_mismatches(parse_rule(text, d, m), report)}
    assert mismatches == {(WRONG_AT_11[0], 11)}


if __name__ == "__main__":
    for path, rows in ((GOLDEN, reports()), (CHECK_GOLDEN, checks())):
        path.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
