import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringca.debruijn import (DeBruijnGraph, fixed_point_attractors,
                             next_configuration, parse_configuration,
                             primary_rmt_sets, quiescent_states, rmt_sequence,
                             trivial_reachability)
from ringca.rules import Rule, eca, parse_rule

from conftest import REJECTED_FILTER_RULE, STRATEGY_I_SAMPLE, STRATEGY_II_SAMPLE


class TestNextConfiguration:
    def test_traversal_example(self):
        rule = parse_rule("201210210201210210201210210", 3, 3)
        out = next_configuration(rule, "1012")
        # the centered map; reading the same cycle from cell 1 gives the
        # traversal order 1200
        assert out == (0, 1, 2, 0)
        assert out[1:] + out[:1] == (1, 2, 0, 0)

    def test_quiescent_stays(self):
        rule = parse_rule("201210210201210210201210210", 3, 3)
        assert next_configuration(rule, "0000") == (0, 0, 0, 0)

    def test_eca_90_by_hand(self):
        # oracle: XOR of the two neighbors, applied cell by cell
        assert next_configuration(eca(90), "00100") == (0, 1, 0, 1, 0)

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            next_configuration(eca(90), "0120")

    @pytest.mark.parametrize("config", ["", ()])
    def test_rejects_empty_ring(self, config):
        with pytest.raises(ValueError, match="at least one cell"):
            next_configuration(eca(90), config)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_windows_formula(self, data):
        """Any radii, including rings shorter than the neighbourhood,
        whose windows wrap the ring more than once."""
        d = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(2, 5).filter(lambda m: d ** m <= 256))
        lr = data.draw(st.integers(0, m - 1))
        rr = m - 1 - lr
        table = tuple(data.draw(st.lists(st.integers(0, d - 1),
                                         min_size=d ** m, max_size=d ** m)))
        rule = Rule(d, m, table, lr=lr)
        n = data.draw(st.integers(1, 12))
        cells = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
        expected = tuple(
            table[sum(cells[(i + off) % n] * d ** (rr - off) for off in range(-lr, rr + 1))]
            for i in range(n))
        assert next_configuration(rule, cells) == expected

    @pytest.mark.parametrize("cells", [(0, 3, 0), (0, -1, 0), (2,)])
    def test_rmt_sequence_rejects_bad_state(self, cells):
        with pytest.raises(ValueError):
            rmt_sequence(eca(90), cells)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rotation_equivariance(self, data):
        d = data.draw(st.integers(2, 4))
        table = tuple(data.draw(st.integers(0, d - 1)) for _ in range(d ** 3))
        rule = Rule(d, 3, table)
        n = data.draw(st.integers(3, 10))
        cells = tuple(data.draw(st.integers(0, d - 1)) for _ in range(n))
        k = data.draw(st.integers(0, n - 1))
        rotated = cells[k:] + cells[:k]
        out = next_configuration(rule, cells)
        assert next_configuration(rule, rotated) == out[k:] + out[:k]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_debruijn_traversal(self, data):
        """Walking the de Bruijn graph along the RMT sequence gives the
        same next configuration as direct rule application."""
        d = data.draw(st.integers(2, 4))
        table = tuple(data.draw(st.integers(0, d - 1)) for _ in range(d ** 3))
        rule = Rule(d, 3, table)
        n = data.draw(st.integers(3, 12))
        cells = tuple(data.draw(st.integers(0, d - 1)) for _ in range(n))
        seq = rmt_sequence(rule, cells)
        graph = DeBruijnGraph(d, 3)
        # consecutive RMTs must chain tail-to-head through the graph
        for r, s in zip(seq, seq[1:] + seq[:1]):
            assert graph.edge_ends(r)[1] == graph.edge_ends(s)[0]
        assert tuple(rule.table[r] for r in seq) == next_configuration(rule, cells)


class TestPrimaryRmtSets:
    def test_eca_sets(self):
        sets = {p.as_set() for p in primary_rmt_sets(2, 3, 4)}
        assert sets == {
            frozenset({0}), frozenset({7}), frozenset({2, 5}),
            frozenset({1, 2, 4}), frozenset({3, 5, 6}), frozenset({1, 3, 6, 4}),
        }

    def test_decimal_singletons(self):
        sets = primary_rmt_sets(10, 3, 1)
        assert [p.rmts for p in sets] == [(111 * s,) for s in range(10)]

    def test_decimal_full_enumeration_counts(self):
        # complete elementary-cycle counts; the staged assignment family
        # used by the synthesis keeps a smaller selection (see synthesis)
        from collections import Counter
        by_card = Counter(p.cardinality for p in primary_rmt_sets(10, 3, 4))
        assert by_card == {1: 10, 2: 45, 3: 330, 4: 2385}

    def test_cycle_adjacency_and_canonical_rotation(self):
        for p in primary_rmt_sets(3, 3, 4):
            assert p.rmts[0] == min(p.rmts)
            for r, s in zip(p.rmts, p.rmts[1:] + p.rmts[:1]):
                assert s // 3 == r % 9  # sibling-successor relation
            # no two members share a sibling set
            assert len({r // 3 for r in p.rmts}) == p.cardinality

    def test_union_covers_all_rmts(self):
        sets = primary_rmt_sets(3, 3, 9)
        assert frozenset().union(*(p.as_set() for p in sets)) == frozenset(range(27))

    def test_configuration_length_decomposition(self):
        """Every RMT sequence splits into primary cycles: some positive
        combination of their cardinalities reaches |x|."""
        rng = random.Random(5)
        cards = sorted({p.cardinality for p in primary_rmt_sets(2, 3, 4)})
        for _ in range(20):
            n = rng.randrange(3, 12)
            reachable = {0}
            for _ in range(n):
                reachable |= {r + c for r in reachable for c in cards if r + c <= n}
            assert n in reachable


def brute_force_cycles(d, m, rmts, max_len):
    """Oracle: extend every walk with distinct nodes from every start node,
    keep those that close, and reduce each to its smallest rotation."""
    num_nodes = d ** (m - 1)
    edge = {(r // d, r % num_nodes): r for r in rmts}
    bound = num_nodes if max_len is None else max_len
    found = set()

    def extend(nodes, walk):
        for head in range(num_nodes):
            r = edge.get((nodes[-1], head))
            if r is None:
                continue
            if head == nodes[0]:
                cycle = walk + (r,)
                found.add(min(cycle[i:] + cycle[:i] for i in range(len(cycle))))
            elif head not in nodes and len(walk) + 1 < bound:
                extend(nodes + (head,), walk + (r,))

    for start in range(num_nodes):
        extend((start,), ())
    return sorted(found, key=lambda c: (len(c), c))


class TestCycleSearch:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        d, m = data.draw(st.sampled_from([(2, 3), (3, 3), (2, 4)]))
        rmts = data.draw(st.sets(st.integers(0, d ** m - 1)))
        max_len = data.draw(st.one_of(st.none(), st.integers(1, 5)))
        assert (DeBruijnGraph(d, m).cycles(rmts, max_len=max_len)
                == brute_force_cycles(d, m, rmts, max_len))

    def test_deep_unbounded_search(self):
        # one cycle through all 1024 nodes of B(10, 2), from the prefer-one
        # de Bruijn sequence (Martin 1934): deeper than the recursion limit
        node, seen, rmts = 0, {0}, []
        while len(seen) < 1024:
            rmt = node * 2 + ((node * 2 + 1) % 1024 not in seen)
            node = rmt % 1024
            seen.add(node)
            rmts.append(rmt)
        rmts.append(node * 2)  # the walk ends at 10...0, one step from 0
        assert DeBruijnGraph(2, 11).cycles(rmts) == [tuple(rmts)]

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_rejects_bound_below_one(self, max_len):
        with pytest.raises(ValueError, match="at least 1"):
            DeBruijnGraph(2, 3).cycles(range(8), max_len=max_len)


class TestFixedPoints:
    def test_strategy_i_sample(self):
        rule = parse_rule(STRATEGY_I_SAMPLE, 3, 3)
        found = {(p.as_set(), period) for p, period in fixed_point_attractors(rule)}
        assert found == {(frozenset({26}), 1), (frozenset({1, 3, 9}), 3)}
        # (001) repeats at multiples of 3; 2^n holds at every size
        def necklace(p):
            return min(tuple(p[i:] + p[:i]) for i in range(len(p)))
        patterns = {necklace(p.pattern()) for p, _ in fixed_point_attractors(rule)}
        assert (2,) in patterns and (0, 0, 1) in patterns

    def test_strategy_ii_sample(self):
        rule = parse_rule(STRATEGY_II_SAMPLE, 3, 3)
        found = [(p.as_set(), period) for p, period in fixed_point_attractors(rule)]
        assert found == [(frozenset({3, 10}), 2)]

    def test_identity_rule(self):
        table = tuple((r // 2) % 2 for r in range(8))
        rule = Rule(2, 3, table)
        cycles = {p.as_set() for p, _ in fixed_point_attractors(rule)}
        assert cycles == {p.as_set() for p in primary_rmt_sets(2, 3, 4)}

    def test_fixed_points_really_fix(self):
        for text in (STRATEGY_I_SAMPLE, STRATEGY_II_SAMPLE):
            rule = parse_rule(text, 3, 3)
            for p, period in fixed_point_attractors(rule):
                for k in (1, 2):
                    cells = p.pattern() * k
                    assert next_configuration(rule, cells) == cells


class TestQuiescent:
    def test_single_zero(self):
        rule = parse_rule(REJECTED_FILTER_RULE, 3, 3)
        assert rule.table[0] == 0 and rule.table[13] == 2 and rule.table[26] == 1
        assert quiescent_states(rule) == {0}

    def test_identity_rule_all(self):
        table = tuple((r // 3) % 3 for r in range(27))
        assert quiescent_states(Rule(3, 3, table)) == {0, 1, 2}

    def test_eca_30(self):
        rule = eca(30)
        assert quiescent_states(rule) == {0}
        assert rule.table[7] == 0  # 1^n maps straight onto 0^n
        assert next_configuration(rule, "111") == (0, 0, 0)


class TestTrivialReachability:
    def test_rejected_rule_witnesses(self):
        rule = parse_rule(REJECTED_FILTER_RULE, 3, 3)
        verdict = trivial_reachability(rule)
        by_state = {}
        for s, w in verdict.reachable_trivials:
            by_state.setdefault(s, set()).add(w.pattern())
        # 1^n is reachable from 2^n and (21100)-repeats
        assert (2,) in by_state[1]
        assert any(len(p) == 5 and sorted(p) == [0, 0, 1, 1, 2] for p in by_state[1])
        # 2^n from 1^n, (10)- and (20)-repeats
        assert (1,) in by_state[2]
        assert {(1, 0), (2, 0)} <= {p for p in by_state[2] if len(p) == 2}
        # 0^n has no predecessor besides itself
        assert 0 not in by_state

    def test_witnesses_evolve_to_target(self):
        rule = parse_rule(REJECTED_FILTER_RULE, 3, 3)
        for s, w in trivial_reachability(rule).reachable_trivials:
            for k in (1, 2):
                cells = w.pattern() * k
                expected = (s,) * len(cells)
                assert next_configuration(rule, cells) == expected

    def test_absent_state_unreachable(self):
        # no RMT maps to state 2, so nothing can precede 2^n
        table = tuple(v % 2 for v in range(27))
        rule = Rule(3, 3, table)
        assert all(s != 2 for s, _ in trivial_reachability(rule).reachable_trivials)

    def test_second_approach_rules_have_no_nontrivial_predecessors(
            self, second_approach_rules):
        for text in second_approach_rules:
            rule = parse_rule(text, 3, 3)
            assert not trivial_reachability(rule).nontrivial_predecessors()


def test_brute_force_next_agrees_with_itertools_oracle():
    """Spot-check the evolution against an independent all-windows oracle."""
    rng = random.Random(11)
    for _ in range(50):
        d = rng.choice([2, 3])
        rule = Rule(d, 3, tuple(rng.randrange(d) for _ in range(d ** 3)))
        n = rng.randrange(1, 9)
        cells = tuple(rng.randrange(d) for _ in range(n))
        expected = tuple(
            rule.table[cells[(i - 1) % n] * d * d + cells[i] * d + cells[(i + 1) % n]]
            for i in range(n))
        assert next_configuration(rule, cells) == expected
