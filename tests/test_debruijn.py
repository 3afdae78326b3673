import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringca import debruijn
from ringca.debruijn import (DeBruijnGraph, fixed_point_attractors,
                             next_configuration, parse_configuration,
                             primary_rmt_sets, quiescent_states, rmt_sequence,
                             stepper, trivial_reachability)
from ringca.rules import Rule, eca, parse_rule
from ringca.synthesis import rule_from_permutation, synthesize_decimal

from conftest import (PERMUTATION_RULES, REJECTED_FILTER_RULE, STRATEGY_I_SAMPLE,
                      STRATEGY_II_SAMPLE)


# (d, m) of the step tests: every table of at most 256 entries for d <= 4
# and m <= 5, the boundary d^m = 256 (2^8, 4^4), and tables too large for
# one byte per RMT (2^9 and d = 5..10 with m = 3)
STEP_SHAPES = sorted(
    {(d, m) for d in range(2, 5) for m in range(2, 6) if d ** m <= 256}
    | {(2, 8), (2, 9)} | {(d, 3) for d in range(5, 11)})


# (d, m) of the class route: tables too large for one byte per RMT whose
# d^(m-1) sibling sets fit a byte
CLASS_SHAPES = [(d, m) for d in range(2, 11) for m in range(2, 10)
                if d ** m > 256 >= d ** (m - 1)]


def few_class_table(rng, d, m, k):
    """A table whose d^(m-1) sibling sets take exactly k distinct maps from
    the incoming cell to the new state."""
    maps = []
    while len(maps) < k:
        sibling_map = tuple(rng.randrange(d) for _ in range(d))
        if sibling_map not in maps:
            maps.append(sibling_map)
    sets = d ** (m - 1)
    choice = list(range(k)) + [rng.randrange(k) for _ in range(sets - k)]
    rng.shuffle(choice)
    return tuple(v for c in choice for v in maps[c])


def all_windows_step(rule, cells):
    """The next configuration, straight from the definition: cell i takes
    the table entry of the RMT of cells i - lr .. i + rr, indices mod n."""
    d, n = rule.d, len(cells)
    return tuple(
        rule.table[sum(cells[(i + off) % n] * d ** (rule.rr - off)
                       for off in range(-rule.lr, rule.rr + 1))]
        for i in range(n))


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

    def test_keeps_the_last_rules_stepper(self, monkeypatch):
        built = []
        ca_stepper = debruijn.stepper

        def counted_stepper(rule, n):
            built.append((rule, n))
            return ca_stepper(rule, n)

        monkeypatch.setattr(debruijn, "stepper", counted_stepper)
        monkeypatch.setattr(debruijn, "_last_step", None)
        rule = rule_from_permutation("8135940672")
        expected = tuple(ca_stepper(rule, 5)(bytes((0, 1, 2, 3, 4))))
        assert next_configuration(rule, "01234") == expected
        assert next_configuration(rule, (0, 1, 2, 3, 4)) == expected
        assert built == [(rule, 5)]
        # one entry: another rule replaces it, and an equal rule hits it
        assert next_configuration(eca(90), "00100") == (0, 1, 0, 1, 0)
        assert next_configuration(eca(90), "00100") == (0, 1, 0, 1, 0)
        assert next_configuration(rule_from_permutation("8135940672"), "01234") == expected
        assert built == [(rule, 5), (eca(90), 5), (rule, 5)]
        # the same rule on another ring size builds one more stepper
        wider = tuple(ca_stepper(rule, 6)(bytes((0, 1, 2, 3, 4, 5))))
        assert next_configuration(rule, "012345") == wider
        assert next_configuration(rule, "012345") == wider
        assert built == [(rule, 5), (eca(90), 5), (rule, 5), (rule, 6)]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_windows_formula(self, data):
        """Any radii, including rings shorter than the neighbourhood,
        whose windows wrap the ring more than once, on every lookup route:
        tables of at most 256 entries (d^m = 256 included) and larger ones,
        every d = 10 rule among them.  Uniform tables reach the class route
        only at 2^9 (``TestClassRoute`` draws its tables)."""
        d, m = data.draw(st.sampled_from(STEP_SHAPES))
        lr = data.draw(st.integers(0, m - 1))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        rule = Rule(d, m, tuple(rng.randrange(d) for _ in range(d ** m)), lr=lr)
        n = data.draw(st.integers(1, 12))
        cells = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
        expected = all_windows_step(rule, cells)
        assert next_configuration(rule, cells) == expected
        # the same step on the byte form of the configuration
        assert stepper(rule, n)(bytes(cells)) == bytes(expected)

    @pytest.mark.parametrize("n", [997, 1000])
    @pytest.mark.parametrize("lr", [0, 1, 2])
    def test_long_ring_matches_all_windows_formula(self, n, lr):
        rng = random.Random(n + lr)
        rule = Rule(3, 3, tuple(rng.randrange(3) for _ in range(27)), lr=lr)
        cells = tuple(rng.randrange(3) for _ in range(n))
        expected = all_windows_step(rule, cells)
        assert next_configuration(rule, cells) == expected
        assert stepper(rule, n)(bytes(cells)) == bytes(expected)

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
        # consecutive RMTs must chain tail-to-head through the graph
        for r, s in zip(seq, seq[1:] + seq[:1]):
            assert r % d ** 2 == s // d
        assert tuple(rule.table[r] for r in seq) == next_configuration(rule, cells)


def largest_fitting_class_count(d, m):
    """The most sibling maps a (d, m) table can have on the class route."""
    return min(256 // d, d ** d, d ** (m - 1))


class TestClassRoute:
    """Tables with more than 256 entries whose sibling sets fall into K
    distinct maps, K d <= 256, step by sibling class; the rest walk."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_windows_formula(self, data):
        d, m = data.draw(st.sampled_from(CLASS_SHAPES))
        k = data.draw(st.integers(1, largest_fitting_class_count(d, m)))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        rule = Rule(d, m, few_class_table(rng, d, m, k), lr=data.draw(st.integers(0, m - 1)))
        n = data.draw(st.integers(1, 12))
        cells = tuple(rng.randrange(d) for _ in range(n))
        step = stepper(rule, n)
        assert step.__name__ == "class_step"
        expected = all_windows_step(rule, cells)
        assert step(bytes(cells)) == bytes(expected)
        assert next_configuration(rule, cells) == expected

    @pytest.mark.parametrize("d, m, k, route", [
        *[(d, m, largest_fitting_class_count(d, m), "class_step")
          for d, m in CLASS_SHAPES],
        # K d just above 256; d = 2 and 3 have at most 4 and 27 maps
        *[(d, m, 256 // d + 1, "step") for d, m in CLASS_SHAPES if d > 3],
    ])
    def test_route_boundary(self, d, m, k, route):
        """The largest class count that fits a byte (K d = 256 exactly at
        d = 4 and 8) and the smallest that does not, for every radius, on
        rings of 1-12 cells and two long rings."""
        rng = random.Random(d * 1000 + m * 100 + k)
        table = few_class_table(rng, d, m, k)
        for lr in range(m):
            rule = Rule(d, m, table, lr=lr)
            for n in [*range(1, 13), 997, 1000]:
                step = stepper(rule, n)
                assert step.__name__ == route, (lr, n)
                cells = tuple(rng.randrange(d) for _ in range(n))
                expected = all_windows_step(rule, cells)
                assert step(bytes(cells)) == bytes(expected), (lr, n)
                assert next_configuration(rule, cells) == expected, (lr, n)

    @pytest.mark.parametrize("perm", PERMUTATION_RULES)
    def test_permutation_rules(self, perm):
        # every permutation-form rule has K = 10 sibling maps
        rule = rule_from_permutation(perm)
        rng = random.Random(perm)
        for n in range(1, 211):
            step = stepper(rule, n)
            assert step.__name__ == "class_step", n
            cells = tuple(rng.randrange(10) for _ in range(n))
            expected = all_windows_step(rule, cells)
            assert step(bytes(cells)) == bytes(expected), n
            assert next_configuration(rule, cells) == expected, n

    def test_decimal_synthesis_rule_walks(self):
        rule = synthesize_decimal(1, seed=3)[0]
        assert all(stepper(rule, n).__name__ == "step" for n in (1, 2, 101))


class TestPrimaryRmtSets:
    def test_eca_sets(self):
        sets = {frozenset(p.rmts) for p in primary_rmt_sets(2, 3, 4)}
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
        assert frozenset().union(*(frozenset(p.rmts) for p in sets)) == frozenset(range(27))

    @pytest.mark.parametrize("d, m", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
    def test_no_cycle_longer_than_node_count(self, d, m):
        # elementary cycles visit each of the d^(m-1) nodes at most once,
        # so a larger bound changes nothing
        nodes = d ** (m - 1)
        sets = primary_rmt_sets(d, m, nodes)
        assert max(p.cardinality for p in sets) == nodes
        for bound in (nodes + 1, 2 * nodes, 10 ** 6):
            assert primary_rmt_sets(d, m, bound) == sets

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

    @staticmethod
    def attach_order(d, m, cycle, rng):
        """Every node of B(m-1, d) once, the nodes of ``cycle`` first, each
        later node with one RMT to an earlier one, preferring the latest:
        a functional graph of long in-trees feeding the one cycle."""
        num_nodes = d ** (m - 1)
        order = [r // d for r in cycle]
        edges = list(cycle)
        pos = {w: i for i, w in enumerate(order)}
        while len(order) < num_nodes:
            w, r = max(((w, w * d + c) for w in range(num_nodes) if w not in pos
                        for c in range(d) if (w * d + c) % num_nodes in pos),
                       key=lambda e: (pos[e[1] % num_nodes], rng.random()))
            pos[w] = len(order)
            order.append(w)
            edges.append(r)
        return pos, edges

    @pytest.mark.parametrize("d, m, cycle", [
        (2, 7, (0,)), (2, 7, (42, 85)), (3, 4, (3, 9, 28)), (3, 4, (40,))])
    def test_in_trees_feeding_one_cycle(self, d, m, cycle):
        rng = random.Random(d * m)
        graph = DeBruijnGraph(d, m)
        pos, edges = self.attach_order(d, m, cycle, rng)
        assert len(edges) == d ** (m - 1)
        assert graph.cycles(edges) == [cycle]
        # more edges from later nodes to earlier ones add no cycle
        num_nodes = d ** (m - 1)
        extra = [r for r in range(d ** m)
                 if pos[r // d] > pos[r % num_nodes] and rng.random() < 0.3]
        more = sorted(set(edges) | set(extra))
        assert graph.cycles(more) == brute_force_cycles(d, m, more, None) == [cycle]
        for max_len in (1, 2, 3):
            assert graph.cycles(more, max_len=max_len) == (
                [cycle] if len(cycle) <= max_len else [])

    def test_long_chain_into_a_loop(self):
        # the prefer-one Hamiltonian cycle of B(10, 2) less its first RMT,
        # plus the loop at 0: 1023 nodes in one chain that ends in the loop
        node, seen, rmts = 0, {0}, []
        while len(seen) < 1024:
            rmt = node * 2 + ((node * 2 + 1) % 1024 not in seen)
            node = rmt % 1024
            seen.add(node)
            rmts.append(rmt)
        rmts.append(node * 2)
        assert DeBruijnGraph(2, 11).cycles(rmts[1:] + [0]) == [(0,)]

    @pytest.mark.parametrize("d, m", [(2, 5), (3, 4), (2, 7)])
    def test_dag(self, d, m):
        num_nodes = d ** (m - 1)
        rng = random.Random(m)
        for _ in range(20):
            rank = rng.sample(range(num_nodes), num_nodes)
            rmts = [r for r in range(d ** m)
                    if rank[r // d] > rank[r % num_nodes] and rng.random() < 0.8]
            assert DeBruijnGraph(d, m).cycles(rmts) == [] == brute_force_cycles(
                d, m, rmts, None)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mostly_acyclic_matches_brute_force(self, data):
        # a DAG of edges down a random node order, plus a few edges of any
        # direction that close cycles through some of its nodes
        d, m = data.draw(st.sampled_from([(2, 5), (3, 4)]))
        num_nodes = d ** (m - 1)
        rank = data.draw(st.permutations(range(num_nodes)))
        down = [r for r in range(d ** m) if rank[r // d] > rank[r % num_nodes]]
        rmts = data.draw(st.sets(st.sampled_from(down)))
        rmts |= data.draw(st.sets(st.integers(0, d ** m - 1), max_size=3))
        max_len = data.draw(st.one_of(st.none(), st.integers(1, 6)))
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

    def test_cycle_count_capped(self, monkeypatch):
        graph = DeBruijnGraph(3, 3)
        full = graph.cycles(range(27))
        assert len(full) == 148
        monkeypatch.setattr(debruijn, "_MAX_CYCLES", 148)
        assert graph.cycles(range(27)) == full
        monkeypatch.setattr(debruijn, "_MAX_CYCLES", 147)
        with pytest.raises(ValueError, match="more than 147 de Bruijn cycles.*--max-cycle"):
            graph.cycles(range(27))
        # a length bound keeps the same search under the cap
        assert graph.cycles(range(27), max_len=3) == [c for c in full if len(c) <= 3]
        with pytest.raises(ValueError, match="--max-cycle"):
            primary_rmt_sets(3, 3, 9)


HAS_CYCLE_SHAPES = [(2, 3), (2, 4), (3, 3), (4, 3)]


def homogeneous_rmts(d, m):
    """The self-loops of B(m-1, d): the RMTs s^m."""
    return {s * (d ** m - 1) // (d - 1) for s in range(d)}


def lists_a_cycle(graph, rmts):
    """``bool(graph.cycles(rmts))``; a search that stops past its cycle cap
    has found cycles."""
    try:
        return bool(graph.cycles(rmts))
    except ValueError:
        return True


class TestHasCycle:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_cycles(self, data):
        d, m = data.draw(st.sampled_from(HAS_CYCLE_SHAPES))
        loops = homogeneous_rmts(d, m)
        rmts = data.draw(st.one_of(st.sets(st.integers(0, d ** m - 1)),
                                   st.sets(st.sampled_from(sorted(loops)))))
        graph = DeBruijnGraph(d, m)
        for edges in (rmts, rmts - loops):
            assert graph.has_cycle(edges) == lists_a_cycle(graph, edges)

    @pytest.mark.parametrize("d, m", HAS_CYCLE_SHAPES)
    def test_empty_and_self_loops(self, d, m):
        graph = DeBruijnGraph(d, m)
        loops = sorted(homogeneous_rmts(d, m))
        assert not graph.has_cycle([])
        for k in range(1, d + 1):
            for chosen in itertools.combinations(loops, k):
                assert graph.has_cycle(chosen)
        # every other RMT, alone or with all of them: cycles but no self-loop
        others = [r for r in range(d ** m) if r not in loops]
        assert graph.has_cycle(others)
        assert not any(graph.has_cycle([r]) for r in others)

    def test_takes_an_iterator(self):
        graph = DeBruijnGraph(2, 3)
        assert graph.has_cycle(r for r in (2, 5))  # 01 -> 10 -> 01
        assert not graph.has_cycle(iter([1, 3]))


class TestFixedPoints:
    def test_strategy_i_sample(self):
        rule = parse_rule(STRATEGY_I_SAMPLE, 3, 3)
        found = {(frozenset(p.rmts), period) for p, period in fixed_point_attractors(rule)}
        assert found == {(frozenset({26}), 1), (frozenset({1, 3, 9}), 3)}
        # (001) repeats at multiples of 3; 2^n holds at every size
        def necklace(p):
            return min(tuple(p[i:] + p[:i]) for i in range(len(p)))
        patterns = {necklace(p.pattern()) for p, _ in fixed_point_attractors(rule)}
        assert (2,) in patterns and (0, 0, 1) in patterns

    def test_strategy_ii_sample(self):
        rule = parse_rule(STRATEGY_II_SAMPLE, 3, 3)
        found = [(frozenset(p.rmts), period) for p, period in fixed_point_attractors(rule)]
        assert found == [(frozenset({3, 10}), 2)]

    def test_identity_rule(self):
        table = tuple((r // 2) % 2 for r in range(8))
        rule = Rule(2, 3, table)
        cycles = {frozenset(p.rmts) for p, _ in fixed_point_attractors(rule)}
        assert cycles == {frozenset(p.rmts) for p in primary_rmt_sets(2, 3, 4)}

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

    @pytest.mark.parametrize("d", range(2, 11))
    def test_against_homogeneous_rmt(self, d):
        # random tables in which each state is quiescent or not at random
        rnd = random.Random(d)
        for m in (2, 3, 4):
            for _ in range(10):
                table = [rnd.randrange(d) for _ in range(d ** m)]
                probe = Rule(d, m, tuple(table))
                for s in range(d):
                    if rnd.random() < 0.5:
                        table[probe.homogeneous_rmt(s)] = s
                rule = Rule(d, m, tuple(table))
                assert quiescent_states(rule) == {
                    s for s in range(d) if rule.table[rule.homogeneous_rmt(s)] == s}

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
