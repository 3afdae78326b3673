"""Acceptance suite: one test per criterion, exact expectations.

Each test prints an `ACCEPTANCE <k>: PASS` line (visible with -s) once its
assertions hold.  Criterion 9's permutation-rule half is expected to fail:
the fixture permutation rules provably contain periodic fixed points and
non-trivial predecessors of trivial configurations (see the test docstring
and assertion message); it is kept faithful rather than weakened.
"""

import io
import time

import pytest

from ringca.debruijn import (fixed_point_attractors, primary_rmt_sets,
                             trivial_reachability)
from ringca.engine import cycle_length
from ringca.prng import StreamSpec, binary_blocks, emit_stream
from ringca.rules import (Rule, eca, information_flow, is_balanced,
                          min_representative, parse_rule, wolfram_number)
from ringca.synthesis import (Lcg, StrategySpec, assignment_stages,
                              generate_strategy, rule_from_permutation,
                              satisfies_strategy, synthesize_decimal)
from ringca.tree import (Classification, IrrevExpression, check_reversible,
                         classify, reversible_sizes)

from conftest import PERMUTATION_RULES, brute_force_reversible

FLOW_RULE = "120021120021021120021021210"


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_eca_classification():
    start = time.monotonic()
    reports = {k: classify(eca(k)) for k in range(256)}
    elapsed = time.monotonic() - start

    reversible = {k for k, r in reports.items()
                  if r.classification is Classification.REVERSIBLE}
    min_reps = {wolfram_number(min_representative(eca(k))) for k in reversible}
    assert min_reps == {15, 51, 170, 204}
    for k in (45, 105, 150, 154):
        assert reports[k].classification is Classification.NONTRIVIAL_SEMI, k
    for k in (90, 30):
        assert reports[k].classification is Classification.STRICTLY_IRREVERSIBLE, k
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report("1 (ECA classification)")


def test_criterion_2_expressions():
    r75 = classify(eca(75))
    assert r75.expressions == (IrrevExpression(2, 2),)
    assert reversible_sizes(r75, 9) == {1, 3, 5, 7, 9}
    for k in (105, 150):
        rep = classify(eca(k))
        assert rep.expressions == (IrrevExpression(3, 3),), k
        assert reversible_sizes(rep, 9) == {1, 2, 4, 5, 7, 8}, k
    # brute-force bijectivity for every n <= 9
    for k in (75, 105, 150):
        rep = classify(eca(k))
        for n in range(1, 10):
            assert brute_force_reversible(eca(k), n) == (
                n in reversible_sizes(rep, 9)), (k, n)
    _report("2 (irreversibility expressions)")


def test_criterion_3_fixed_size_decisions():
    start = time.monotonic()
    a = check_reversible(eca(75), 1001)
    assert (a.reversible, a.unique_nodes, a.last_unique_level) == (True, 21, 5)
    b = check_reversible(parse_rule("102012120012102120102102120", 3, 3), 555)
    assert (b.reversible, b.unique_nodes) == (False, 19)
    rule = parse_rule("222122122001001000110210211", 3, 3)
    c = check_reversible(rule, 10005)
    assert (c.reversible, c.unique_nodes) == (True, 585)
    d = check_reversible(rule, 1000000)
    assert (d.reversible, d.unique_nodes) == (False, 39)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report("3 (fixed-size decisions)")


def test_criterion_4_oracle_equivalence():
    rng = Lcg(20260811)
    rules: list[Rule] = []
    for _ in range(250):  # arbitrary tables
        d = 2 + rng.randbelow(2)
        rules.append(Rule(d, 3, tuple(rng.randbelow(d) for _ in range(d ** 3))))
    for _ in range(150):  # balanced tables
        d = 2 + rng.randbelow(2)
        table = [v for v in range(d) for _ in range(d * d)]
        rng.shuffle(table)
        rules.append(Rule(d, 3, tuple(table)))
    for kind in ("I", "II"):  # permutive candidates, many reversible
        rules += generate_strategy(StrategySpec(kind, d=3, m=3, seed=7), 50)
    assert len(rules) >= 500

    disagreements = []
    for rule in rules:
        for n in range(3, 9):
            tree_says = check_reversible(rule, n).reversible
            oracle_says = brute_force_reversible(rule, n)
            if tree_says != oracle_says:
                disagreements.append((rule.string, n, tree_says, oracle_says))
    assert disagreements == []
    _report("4 (oracle equivalence, 500 rules x n in [3,8])")


def test_criterion_5_minimized_tree_bounds():
    worst = 0
    for k in range(256):
        level = classify(eca(k)).last_unique_level
        if level is not None:
            worst = max(worst, level)
    assert worst == 5

    for kind in ("I", "II"):
        for rule in generate_strategy(StrategySpec(kind, d=3, m=3, seed=99), 40):
            result = check_reversible(rule, 10001)
            assert result.unique_nodes <= 1371, rule.string
            assert (result.last_unique_level or 0) <= 19, rule.string
    _report("5 (minimized-tree bounds)")


def test_criterion_6_information_flow():
    flow = information_flow(parse_rule(FLOW_RULE, 3, 3))
    assert (flow.right_changes, flow.left_changes) == (10, 18)
    flow = information_flow(parse_rule("211212112020000020102121201", 3, 3))
    assert (flow.right_changes, flow.left_changes) == (18, 12)
    flow = information_flow(parse_rule("102012102012102102021021012", 3, 3))
    assert (flow.left_changes, flow.right_changes) == (18, 12)
    _report("6 (information flow)")


def test_criterion_7_primary_rmt_sets():
    eca_sets = {frozenset(p.rmts) for p in primary_rmt_sets(2, 3, 4)}
    assert eca_sets == {
        frozenset({0}), frozenset({7}), frozenset({2, 5}),
        frozenset({1, 2, 4}), frozenset({3, 5, 6}), frozenset({1, 3, 6, 4}),
    }
    stages = assignment_stages(10)
    assert [len(stage) for stage in stages[1:]] == [45, 90, 648]
    _report("7 (primary RMT sets)")


def test_criterion_8_cycle_lengths():
    start = time.monotonic()
    rule = parse_rule(FLOW_RULE, 3, 3)
    expected = {5: 170, 7: 1967, 9: 19296, 11: 121275, 13: 1073397}
    for n, cycle in expected.items():
        seed = "0" * (n - 1) + "1"
        result = cycle_length(rule, seed, cycle + 10)
        assert result.cycle_length == cycle, (n, result)
        assert result.tail_length == 0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report("8 (cycle lengths)")


def test_criterion_9_synthesized_rules():
    from ringca.rules import is_linear
    rules = synthesize_decimal(100, seed=20260811)
    assert len(rules) == 100
    for rule in rules:
        assert is_balanced(rule)
        assert satisfies_strategy(rule, "II")
        attractors = fixed_point_attractors(rule, max_len=4)
        assert all(period == 1 for _, period in attractors)
        verdict = trivial_reachability(rule, max_len=4)
        assert not verdict.nontrivial_predecessors()
    assert sum(not is_linear(r) for r in rules) >= 99
    _report("9 (synthesized decimal rules)")


def test_criterion_9_permutation_fixtures():
    """Faithful to the criterion as stated; genuinely unattainable.

    Every rule whose sibling sets are permutations gives each de Bruijn
    node exactly one outgoing self-replicating edge and one outgoing edge
    per value, so those subgraphs are functional graphs and always contain
    cycles.  For the fixture permutation rules those cycles are non-trivial
    (several rules even have all-self-replicating 2-cycles, i.e. genuine
    fixed points (ab)^(n/2)), so the fixed-point/trivial-reachability half
    of the criterion cannot hold.  Balance and the strategy-II predicate do
    hold and are asserted first.
    """
    failures = []
    for perm in PERMUTATION_RULES:
        rule = rule_from_permutation(perm)
        assert is_balanced(rule)
        assert satisfies_strategy(rule, "II")
        attractors = fixed_point_attractors(rule, max_len=4)
        bad_fixed = [p.rmts for p, period in attractors if period >= 2]
        bad_reach = [(s, w.rmts) for s, w in
                     trivial_reachability(rule, max_len=4).nontrivial_predecessors()]
        if bad_fixed or bad_reach:
            failures.append((perm, bad_fixed[:1], bad_reach[:1]))
    print("ACCEPTANCE 9 (permutation fixtures): FAIL (structural impossibility,"
          " see this test's docstring)")
    assert not failures, (
        "permutation rules carry periodic fixed points or "
        f"non-trivial predecessors of trivial configurations: {failures[:3]}")


GOLDEN_STREAM_64 = bytes.fromhex(
    "71d9114a317ff8b4afe0770e9f61976dc36ad2625c80f346a2c0601528aaafa5"
    "85f05e970e29545b75a6f9b6822c24d221b8e8c25c463e04e4489d2a4e4b43a7"
)


def test_criterion_10_prng_stream():
    rule = rule_from_permutation("8135940672")
    seed = "00000000000007"

    # independent oracle: evolve and extract by hand
    from ringca.engine import evolve
    n, w = 101, 14
    start = tuple(int(c) for c in seed) + (0,) * (n - w - 1) + (1,)
    traj = evolve(rule, start, n + 16)
    oracle_values = []
    for t in range(n + 1, n + 17):
        value = 0
        for c in traj[t][:w]:
            value = value * 10 + c
        oracle_values.append(value % (1 << 32))
    oracle_bytes = b"".join(v.to_bytes(4, "big") for v in oracle_values)
    assert oracle_bytes == GOLDEN_STREAM_64

    gen = binary_blocks(rule, 1)
    assert (gen.width, gen.n) == (14, 101)
    gen.seed(seed)
    buf = io.BytesIO()
    written = emit_stream(gen, StreamSpec(32, 16), buf)
    assert written == 64
    assert buf.getvalue() == GOLDEN_STREAM_64

    # determinism: a second run is bit-exact
    gen2 = binary_blocks(rule, 1)
    gen2.seed(seed)
    buf2 = io.BytesIO()
    emit_stream(gen2, StreamSpec(32, 16), buf2)
    assert buf2.getvalue() == buf.getvalue()

    # stream sizes match the formula exactly: 4 bytes an output, so the
    # README's Diehard-sized file of 2,883,584 outputs is 11,534,336 bytes
    for count in (0, 1, 5, 17):
        gen3 = binary_blocks(rule, 1)
        gen3.seed(seed)
        buf3 = io.BytesIO()
        written = emit_stream(gen3, StreamSpec(32, count), buf3)
        assert written == len(buf3.getvalue()) == 4 * count
    _report("10 (PRNG determinism and stream format)")
