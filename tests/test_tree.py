import hashlib
import itertools
import json
import logging
import math
import random
import tracemalloc
from operator import getitem

import pytest
from hypothesis import given, settings, strategies as st

from ringca import tree
from ringca.cli import run
from ringca.rules import Rule, eca, is_balanced, parse_rule, satisfies_strategy
from ringca.synthesis import (StrategySpec, generate_strategy,
                              rule_from_permutation, synthesize_decimal)
from ringca.tree import (Classification, IrrevExpression, ReversibilityCheck,
                         _BipermutiveBuilder, _ClassifyBuilder, _Context,
                         _Builder, _FixedSizeBuilder,
                         _IrreversibleFound, _Node, _WideNodes, _covers,
                         _state_claims, _strictly_irreversible, check_reversible,
                         child_node, classify, merge_expressions,
                         restrict_last_levels, reversible_sizes, root_node)

from conftest import (PERMUTATION_RULES, STRATEGY_I_SAMPLE, STRATEGY_II_SAMPLE,
                      WRONG_AT_11, brute_force_reversible, in_sizes, label_maps,
                      pair_graph_bijective, pair_rows)
from test_tree_golden import exact_mismatches, golden_rules, random_tree_rules
from test_tree_tables import ROWS


def sets(*groups):
    return tuple(frozenset(g) for g in groups)


class TestNodeOperations:
    def test_root_is_sibling_sets(self):
        assert root_node(eca(75)) == sets({0, 1}, {2, 3}, {4, 5}, {6, 7})

    def test_child_of_eca75_root_branch0(self):
        label, child = child_node(root_node(eca(75)), eca(75), 0)
        assert label == sets((), {2}, {4, 5}, {7})
        assert child == sets((), {4, 5}, {0, 1, 2, 3}, {6, 7})

    def test_child_all_zero_rule_branch1(self):
        rule = parse_rule("00000000", 2, 3)
        label, child = child_node(root_node(rule), rule, 1)
        assert label == sets((), (), (), ())
        assert child == sets((), (), (), ())

    def test_child_three_state_matches_execution_table(self):
        rule = parse_rule("102012120012102120102102120", 3, 3)
        _, child = child_node(root_node(rule), rule, 0)
        assert child == sets(
            {0, 1, 2}, {12, 13, 14}, {21, 22, 23},
            {0, 1, 2}, {12, 13, 14}, {24, 25, 26},
            {0, 1, 2}, {15, 16, 17}, {21, 22, 23},
        )

    def test_restriction_last_level(self):
        # level n-1 keeps one residue class per slot; the ECA 75 node
        # (emptyset, {4,5}, {0..3}, {6,7}) restricts to 3 RMTs all with
        # next state 0: unbalanced, hence the n = 2j+2 expression
        rule = eca(75)
        node = sets((), {4, 5}, {0, 1, 2, 3}, {6, 7})
        restricted = restrict_last_levels(node, rule, 1)
        assert restricted == sets((), {5}, {2}, {7})
        assert {rule.table[r] for s in restricted for r in s} == {0}

    def test_restriction_level_n_minus_2(self):
        rule = eca(75)
        node = sets((), {4, 5}, {0, 1, 2, 3}, {6, 7})
        assert restrict_last_levels(node, rule, 2) == sets((), {4}, {1, 3}, {7})

    def test_restriction_of_empty_node(self):
        empty = sets((), (), (), ())
        assert restrict_last_levels(empty, eca(75), 1) == empty

    def test_child_rejects_short_node(self):
        with pytest.raises(ValueError, match="4 slots"):
            child_node(root_node(eca(30))[:2], eca(30), 1)

    def test_child_rejects_empty_node(self):
        with pytest.raises(ValueError, match="4 slots"):
            child_node((), eca(30), 0)

    def test_child_rejects_rmt_past_range(self):
        node = sets({0, 1}, {2, 3}, {4, 99}, {6, 7})
        with pytest.raises(ValueError, match="RMTs"):
            child_node(node, eca(30), 0)

    def test_restriction_rejects_bad_nodes(self):
        for node in (sets({0, 1}), sets((), (), (), {-1})):
            with pytest.raises(ValueError):
                restrict_last_levels(node, eca(75), 1)

    def test_three_state_execution_row(self):
        # node N_{2.1} of the n=555 run restricts at level n-1 to an
        # unbalanced node: the recorded reason the run stops
        rule = parse_rule("102012120012102120102102120", 3, 3)
        node = sets(
            {12, 13, 14}, {0, 1, 2}, {0, 1, 2},
            {12, 13, 14}, {0, 1, 2}, {0, 1, 2},
            {12, 13, 14}, {0, 1, 2}, {0, 1, 2},
        )
        restricted = restrict_last_levels(node, rule, 1)
        values = [rule.table[r] for s in restricted for r in s]
        assert len(set(values)) < 3 or len(values) != 3


def reference_counts(rule, masks):
    """Per-value RMT multiplicities of a node, bit by bit."""
    counts = [0] * rule.d
    for g in masks:
        for r in range(rule.d ** rule.m):
            if g >> r & 1:
                counts[rule.table[r]] += 1
    return counts


def reference_child(rule, masks, branch):
    """Each slot's RMTs labelled ``branch``, expanded to their sibling sets."""
    d, num_sets = rule.d, rule.d ** (rule.m - 1)
    out = []
    for g in masks:
        child = 0
        for r in range(d ** rule.m):
            if g >> r & 1 and rule.table[r] == branch:
                for j in range(d):
                    child |= 1 << (d * (r % num_sets) + j)
        out.append(child)
    return out


def reference_restrict(rule, masks, iota):
    """Slot k keeps the RMTs r with r mod d^(m-iota) = k div d^(iota-1)."""
    d, m = rule.d, rule.m
    return [sum(1 << r for r in range(d ** m)
                if g >> r & 1 and r % d ** (m - iota) == k // d ** (iota - 1))
            for k, g in enumerate(masks)]


def reference_column(rule, mask):
    """A content's value counts as each slot index k judges it: group 0
    counts all its RMTs, group iota the RMTs that level n - iota keeps in
    slot k, those with r mod d^(m-iota) = k div d^(iota-1)."""
    d, m = rule.d, rule.m
    rmts = [r for r in range(d ** m) if mask >> r & 1]
    by_residue = []
    for iota in range(m):
        step = d ** (m - iota) if iota else 1
        counts = [[0] * d for _ in range(step)]
        for r in rmts:
            counts[r % step][rule.table[r]] += 1
        by_residue.append(counts)
    return [[by_residue[0][0]] + [by_residue[iota][k // d ** (iota - 1)]
                                  for iota in range(1, m)]
            for k in range(d ** (m - 1))]


def check_columns(rule, ctx, sids=None):
    """Every interned content has its judge entry at every slot index, and
    those of the ids ``sids`` (default all) hold their reference counts in
    separate fields and groups."""
    d, m = ctx.d, ctx.m
    assert all(len(table) == len(ctx.masks) for table in ctx.judge)
    for sid in range(len(ctx.masks)) if sids is None else sids:
        mask = ctx.masks[sid]
        column = [table[sid] for table in ctx.judge]
        assert all(entry >> (m * d * ctx.width) == 0 for entry in column)
        assert [unpack_groups(entry, d, m, ctx.width) for entry in column] == \
            reference_column(rule, mask)


def mask_sets(masks):
    """A node of RMT bitmasks as the tuple of its slots' RMT sets."""
    return tuple(frozenset(r for r in range(g.bit_length()) if g >> r & 1)
                 for g in masks)


def reference_ok(counts, total):
    return sum(counts) == total and len(set(counts)) == 1


def unpack_groups(total, d, groups, width):
    """A packed total read as ``groups`` groups of d fields of ``width``
    bits each, group after group."""
    field = (1 << width) - 1
    return [[total >> ((g * d + v) * width) & field for v in range(d)]
            for g in range(groups)]


class TestSlotTables:
    """Memoized per-slot node operations against literal references, on
    byte nodes and on tuple nodes."""

    @staticmethod
    def node_types(ctx, masks):
        """The node of these slot contents as the context makes it, bytes
        while its ids fit a byte, and as a tuple."""
        ids = list(map(ctx.intern, masks))
        return ([bytes(ids)] if ctx.tables is not None else []) + [tuple(ids)]

    @classmethod
    def check_node(cls, rule, ctx, masks, children, groups):
        """Children, tables and judge of one node in every type the
        context can make; a byte node whose children need an id past 255
        raises ``_WideNodes`` once the byte tables are gone."""
        checked = set()
        for gamma in cls.node_types(ctx, masks):
            try:
                kids = ctx.children(gamma)
            except _WideNodes:
                assert type(gamma) is bytes and ctx.tables is None
                assert len(ctx.masks) > 256
                continue
            assert all(type(kid) is type(gamma) for kid in kids)
            for b in range(rule.d):
                assert [ctx.masks[s] for s in kids[b]] == children[b]
            cls.check_tables(rule, ctx, gamma, children)
            cls.check_judge(ctx, gamma, groups)
            checked.add(type(gamma))
        assert tuple in checked

    @staticmethod
    def random_nodes(rule, rng):
        d, num_rmts, num_sets = rule.d, rule.d ** rule.m, rule.d ** (rule.m - 1)
        nodes = [[rng.getrandbits(num_rmts) for _ in range(num_sets)]]
        density = rng.random()
        nodes.append([sum(1 << r for r in range(num_rmts) if rng.random() < density)
                      for _ in range(num_sets)])
        # balanced by construction: c RMTs of every value, in random slots
        balanced = [0] * num_sets
        c = rng.randint(0, num_sets)
        for v in range(d):
            for r in rng.sample([r for r in range(num_rmts) if rule.table[r] == v], c):
                balanced[rng.randrange(num_sets)] |= 1 << r
        nodes.append(balanced)
        return nodes

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_against_reference(self, data):
        d = data.draw(st.integers(2, 4), label="d")
        m = data.draw(st.integers(2, 4), label="m")
        table = data.draw(st.permutations(
            [v for v in range(d) for _ in range(d ** (m - 1))]), label="table")
        rule = Rule(d, m, tuple(table))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        # the shared context sees every node below; a stale or mixed-up
        # memo entry shows as a difference from a fresh context's answer
        shared = _Context(rule)
        root = shared.root()
        assert type(root) is bytes
        nodes = [[shared.masks[s] for s in root]]
        nodes += self.random_nodes(rule, rng)
        nodes += [reference_child(rule, nodes[1 + i % 3], i % d) for i in range(3)]
        for masks in nodes:
            children = [reference_child(rule, masks, b) for b in range(d)]
            restricted = [reference_restrict(rule, masks, i) for i in range(1, m)]
            for i in range(1, m):
                assert (restrict_last_levels(mask_sets(masks), rule, i)
                        == mask_sets(restricted[i - 1]))
            groups = [reference_counts(rule, masks)]
            groups += [reference_counts(rule, g) for g in restricted]
            for ctx in (shared, _Context(rule)):
                self.check_node(rule, ctx, masks, children, groups)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_masks_wide_neighborhoods(self, data):
        # slot contents that are not unions of sibling sets, at m = 4..5,
        # where level n - iota keeps residue k // d**(iota-1) with a span
        # d**(iota-1) > 1 for iota >= 2
        d = data.draw(st.integers(2, 3), label="d")
        m = data.draw(st.integers(4, 5), label="m")
        table = data.draw(st.permutations(
            [v for v in range(d) for _ in range(d ** (m - 1))]), label="table")
        rule = Rule(d, m, tuple(table))
        masks = data.draw(st.lists(st.integers(0, 2 ** d ** m - 1),
                                   min_size=d ** (m - 1), max_size=d ** (m - 1)),
                          label="masks")
        groups = [reference_counts(rule, masks)] + [
            reference_counts(rule, reference_restrict(rule, masks, i))
            for i in range(1, m)]
        children = [reference_child(rule, masks, b) for b in range(d)]
        self.check_node(rule, _Context(rule), masks, children, groups)

    @staticmethod
    def check_tables(rule, ctx, gamma, children):
        """Each id's entry in the child list of a branch is the id of its
        reference child, and every interned id has a judge column, the
        node's ids their reference one."""
        d = ctx.d
        for k, sid in enumerate(gamma):
            assert [ctx.masks[ctx.child_slot[b][sid]] for b in range(d)] == [
                children[b][k] for b in range(d)]
        check_columns(rule, ctx, set(gamma))

    @staticmethod
    def check_judge(ctx, gamma, groups):
        """The node's packed total holds the reference counts of the full
        content (group 0) and of each last level (group iota), with no
        carry between fields or groups, and its verdict follows them."""
        d, m = ctx.d, ctx.m
        verdict = ctx.verdict(gamma)
        total = sum(map(getitem, ctx.judge, gamma))
        assert total >> (m * d * ctx.width) == 0
        assert unpack_groups(total, d, m, ctx.width) == groups
        bad = {i for i in range(1, m) if not reference_ok(groups[i], d ** i)}
        assert verdict == (reference_ok(groups[0], d ** m), bad)

    @pytest.mark.parametrize("rule", [
        Rule(4, 4, tuple(r % 4 for r in range(4 ** 4))),
        rule_from_permutation(PERMUTATION_RULES[0]),
    ], ids=["d4m4", "d10m3"])
    def test_saturated_slots(self, rule):
        # every slot holds all d^m RMTs: each field of the total takes its
        # largest possible count, so any carry would show
        d, m = rule.d, rule.m
        masks = [(1 << d ** m) - 1] * d ** (m - 1)
        groups = [reference_counts(rule, masks)] + [
            reference_counts(rule, reference_restrict(rule, masks, i))
            for i in range(1, m)]
        ctx = _Context(rule)
        for gamma in self.node_types(ctx, masks):
            self.check_judge(ctx, gamma, groups)


class TestCheckReversible:
    def test_eca75_large_odd(self):
        result = check_reversible(eca(75), 1001)
        assert result.reversible
        assert result.unique_nodes == 21
        assert result.last_unique_level == 5

    def test_three_state_555(self):
        rule = parse_rule("102012120012102120102102120", 3, 3)
        result = check_reversible(rule, 555)
        assert not result.reversible
        assert result.unique_nodes == 19

    def test_strategy_rule_both_ways(self):
        rule = parse_rule("222122122001001000110210211", 3, 3)
        yes = check_reversible(rule, 10005)
        assert yes.reversible and yes.unique_nodes == 585
        no = check_reversible(rule, 1000000)
        assert not no.reversible and no.unique_nodes == 39

    def test_unbalanced_rule(self):
        result = check_reversible(parse_rule("00000000", 2, 3), 5)
        assert not result.reversible and result.unique_nodes == 0
        # every unbalanced ECA and random unbalanced tables end at the root,
        # whose generic count is the rule's balance
        rules = [rule for rule in map(eca, range(256)) if not is_balanced(rule)]
        rng = random.Random(16)
        for d, m in [(2, 2), (3, 2), (2, 4), (3, 3)]:
            for _ in range(10):
                rule = eca(0)
                while is_balanced(rule):
                    rule = Rule(d, m, tuple(rng.randrange(d) for _ in range(d ** m)))
                rules.append(rule)
        assert len(rules) == 186 + 40
        for rule in rules:
            for n in range(rule.m, 13):
                assert check_reversible(rule, n) == ReversibilityCheck(
                    n, False, 0, None), (rule.string, n)

    def test_size_below_neighborhood(self):
        with pytest.raises(ValueError):
            check_reversible(eca(75), 2)

    def test_small_sizes_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(40):
            d = rng.choice([2, 3])
            table = [v for v in range(d) for _ in range(d * d)]
            rng.shuffle(table)
            rule = Rule(d, 3, tuple(table))
            for n in range(3, 8):
                assert (check_reversible(rule, n).reversible
                        == brute_force_reversible(rule, n)), (rule.string, n)

    def test_pair_graph_oracle_against_brute_force(self):
        rng = random.Random(4)
        rules = [eca(k) for k in range(256)]
        for _ in range(60):
            d, m = rng.choice([(2, 2), (2, 4), (3, 2), (3, 3)])
            table = [v for v in range(d) for _ in range(d ** (m - 1))]
            rng.shuffle(table)
            rules.append(Rule(d, m, tuple(table)))
        for rule in rules:
            for n in range(rule.m, 9):
                assert (pair_graph_bijective(rule, n)
                        == brute_force_reversible(rule, n)), (rule.string, n)

    def test_large_sizes_against_pair_graph(self):
        rng = random.Random(2026)
        pool = generate_strategy(StrategySpec("I", seed=5), 200)
        pool += generate_strategy(StrategySpec("II", seed=5), 200)
        for _ in range(400):
            d, m = rng.choice([(2, 3), (2, 4), (3, 3)])
            table = [v for v in range(d) for _ in range(d ** (m - 1))]
            rng.shuffle(table)
            pool.append(Rule(d, m, tuple(table)))
        # keep rules bijective at some small size, so both verdicts occur
        rules = [r for r in pool
                 if any(pair_graph_bijective(r, n) for n in range(r.m, 10))]
        verdicts, mismatches = set(), set()
        for rule in rules:
            mismatches |= {(rule.string, n) for n in exact_mismatches(rule, classify(rule))}
            for n in (rng.randint(rule.m, 300), rng.randint(rule.m, 10 ** 5)):
                expected = pair_graph_bijective(rule, n)
                verdicts.add(expected)
                assert check_reversible(rule, n).reversible == expected, \
                    (rule.string, n)
        assert verdicts == {True, False}
        assert mismatches == {(WRONG_AT_11[0], 11)}  # a golden strategy II rule

    @pytest.mark.parametrize("perm", PERMUTATION_RULES[:2])
    def test_ten_state_permutation_rules(self, perm):
        rule = rule_from_permutation(perm)
        for n, pinned in ((11, (True, 811, 9)), (15, (False, 1112, 13)),
                          (21, (False, 1712, 19))):
            result = check_reversible(rule, n)
            assert (result.reversible, result.unique_nodes,
                    result.last_unique_level) == pinned, n

    def test_ten_state_permutation_rule_large_ring(self):
        result = check_reversible(rule_from_permutation(PERMUTATION_RULES[0]), 101)
        assert (result.reversible, result.unique_nodes,
                result.last_unique_level) == (True, 6000, 61)

    def test_ten_state_large_ring_work_counts(self):
        # each slot content is expanded once per branch and no restricted
        # mask is ever interned; work counts pinned, no timing
        rule = rule_from_permutation("8572036419")
        builder = _FixedSizeBuilder(rule, 101)
        ctx = builder.ctx
        interned = []
        intern = ctx.intern

        def counting_intern(mask):
            interned.append(mask)
            return intern(mask)

        ctx.intern = counting_intern
        builder.build()  # the tree and the walk below its last level
        assert (builder.unique_nodes, builder.last_unique_level) == (6000, 61)
        assert all(type(nd.gamma) is bytes for nd in builder.nodes)
        expanded = len(ctx.child_slot[0])
        assert all(len(table) == expanded for table in ctx.child_slot)
        # the root's slots, then d children per expanded content
        assert len(interned) == ctx.num_sets + ctx.d * expanded
        fresh = _Context(rule)
        roots = {fresh.masks[s] for s in fresh.root()}
        children = {ctx.masks[c] for table in ctx.child_slot for c in table}
        assert set(ctx.masks) == roots | children
        filled = sum(map(len, ctx.judge))
        assert (len(ctx.masks), expanded, filled) == (100, 100, 10_000)

    @pytest.mark.parametrize("text,m,n", [
        ("1001010101100101", 4, 5),
        ("1001010101100101", 4, 7),
        ("0010011110101010", 4, 4),
        ("10000011111110010001001001101011", 5, 5),
        ("11100010000110111111011001000001", 5, 5),
        ("1111101111100010010100010100010110100010111010100001111011000100", 6, 6),
    ])
    def test_walk_below_last_built_level(self, text, m, n):
        # these sizes are decided at a level below n - m + 2, which only
        # the walk past the built tree reaches
        rule = parse_rule(text, 2, m)
        assert check_reversible(rule, n).reversible == brute_force_reversible(rule, n)

    def test_two_neighborhood_rules(self):
        rng = random.Random(8)
        for _ in range(30):
            d = rng.choice([2, 3])
            table = [v for v in range(d) for _ in range(d)]
            rng.shuffle(table)
            rule = Rule(d, 2, tuple(table))
            report = classify(rule)
            for n in range(2, 8):
                brute = brute_force_reversible(rule, n)
                assert check_reversible(rule, n).reversible == brute, (rule.string, n)
                assert (not report.irreversible_at(n)) == brute, (rule.string, n)


def balanced_ten_state_rule(seed):
    """A seeded random balanced 10-state rule whose homogeneous RMTs map
    bijectively, so that it is not strictly irreversible."""
    rng = random.Random(seed)
    homogeneous = list(range(10))
    rng.shuffle(homogeneous)
    rest = [v for v in range(10) for _ in range(99)]
    rng.shuffle(rest)
    fill = iter(rest)
    return Rule(10, 3, tuple(homogeneous[r // 111] if r % 111 == 0 else next(fill)
                             for r in range(1000)))


def swapped_permutation_rule(perm, swaps, seed):
    """A permutation-form rule with ``swaps`` seeded pairs of differently
    labelled, non-homogeneous RMTs exchanged: still balanced, with more
    slot contents than the permutation rule and a tree several levels
    deep."""
    rng = random.Random(seed)
    table = list(rule_from_permutation(perm).table)
    for _ in range(swaps):
        while True:
            a, b = rng.sample(range(1000), 2)
            if table[a] != table[b] and a % 111 and b % 111:
                break
        table[a], table[b] = table[b], table[a]
    return Rule(10, 3, tuple(table))


class TestManyContents:
    """Trees that meet more than 256 slot contents, built with tuple nodes.

    The pins were taken from the code before nodes became ``bytes``, when
    every node was a tuple.  The random rule meets its 257th content among
    the root's children.  The swapped rules meet it two levels down, after
    byte nodes have been judged; the check at n = 11 of the second one
    ends before it, with byte nodes, and its classify restarts after
    evidence has been reported, which the restart must forget.
    """

    TRIVIAL_SEMI = {"classification": "trivially-semi-reversible",
                    "expressions": [], "exceptional_sizes": []}
    CASES = [
        # rule, (reversible, M, last level) at n = 11 and 21, classify
        # report, whether the check at n = 11 meets the 257th content
        (balanced_ten_state_rule(0), (False, 1, 0),
         dict(TRIVIAL_SEMI, irreversible_from=2, unique_nodes=11,
              last_unique_level=1), True),
        (swapped_permutation_rule("8572036419", 2, 21), (False, 483, 3),
         dict(TRIVIAL_SEMI, irreversible_from=3, unique_nodes=868,
              last_unique_level=3), True),
        (swapped_permutation_rule("8572036419", 2, 0), (False, 462, 3),
         dict(TRIVIAL_SEMI, irreversible_from=3, unique_nodes=868,
              last_unique_level=3), False),
    ]
    IDS = ["random", "swapped21", "swapped0"]

    @pytest.mark.parametrize("rule,pinned,report,wide_check", CASES, ids=IDS)
    def test_pinned_past_256_contents(self, rule, pinned, report, wide_check):
        for n in (11, 21):
            result = check_reversible(rule, n)
            assert (result.reversible, result.unique_nodes,
                    result.last_unique_level) == pinned, n
        assert classify(rule).to_dict() == report

    @pytest.mark.parametrize("rule,pinned,report,wide_check", CASES, ids=IDS)
    def test_tuple_route_taken(self, rule, pinned, report, wide_check):
        check = _FixedSizeBuilder(rule, 11)
        with pytest.raises(_IrreversibleFound):
            check.build()
        built = _ClassifyBuilder(rule)
        built.build()
        for builder, count, wide in ((check, pinned[1], wide_check),
                                     (built, report["unique_nodes"], True)):
            ctx = builder.ctx
            assert (ctx.tables is None) == wide == (len(ctx.masks) > 256)
            assert builder.unique_nodes == count
            node_type = tuple if wide else bytes
            assert all(type(nd.gamma) is node_type for nd in builder.nodes)
            assert all(type(gamma) is node_type for gamma in builder.index)
        # a fresh context starts with byte nodes, whose children past the
        # 256th content cannot be written
        ctx = _Context(rule)
        level = {ctx.root()}
        assert type(next(iter(level))) is bytes
        with pytest.raises(_WideNodes):
            for _ in range(4):
                level = {kid for gamma in level for kid in ctx.children(gamma)}
        assert ctx.tables is None and type(ctx.root()) is tuple

    @pytest.mark.parametrize("rule,n,node_type", [
        (balanced_ten_state_rule(0), 5, tuple),
        (parse_rule("222122122001001000110210211", 3, 3), None, bytes),
        (parse_rule("1001010101100101", 2, 4), None, bytes),
    ], ids=["wide", "d3", "d2m4"])
    def test_every_interned_content_has_its_column(self, rule, n, node_type):
        # a content's judge column is filled, at every slot index, when it
        # is interned, whether or not a judged node ever holds it; n None
        # builds the classify tree
        builder = _ClassifyBuilder(rule) if n is None else _FixedSizeBuilder(rule, n)
        try:
            builder.build()
        except _IrreversibleFound:
            pass
        assert all(type(nd.gamma) is node_type for nd in builder.nodes)
        check_columns(rule, builder.ctx)

    def test_byte_tables_end_at_the_257th_content(self):
        ctx = _Context(Rule(3, 2, (0, 1, 2) * 3))
        assert ctx.root() == bytes([0, 1, 2])
        others = iter(mask for mask in range(512) if mask not in ctx.ids)
        assert [ctx.intern(next(others)) for _ in range(253)] == list(range(3, 256))
        assert ctx.tables is not None and ctx.root() == bytes([0, 1, 2])
        ctx.intern(next(others))
        assert ctx.tables is None and ctx.root() == (0, 1, 2)


class TestClassify:
    def test_eca75(self):
        report = classify(eca(75))
        assert report.classification is Classification.NONTRIVIAL_SEMI
        assert report.expressions == (IrrevExpression(2, 2),)
        assert report.unique_nodes == 21
        assert report.last_unique_level == 5

    def test_eca90_strict(self):
        assert classify(eca(90)).classification is Classification.STRICTLY_IRREVERSIBLE

    def test_eca51_reversible(self):
        report = classify(eca(51))
        assert report.classification is Classification.REVERSIBLE
        assert report.expressions == ()

    def test_eca150(self):
        report = classify(eca(150))
        assert report.classification is Classification.NONTRIVIAL_SEMI
        assert report.expressions == (IrrevExpression(3, 3),)
        assert report.unique_nodes == 12
        assert report.last_unique_level == 4

    def test_three_state_shift(self):
        report = classify(parse_rule("012012012012012012012012012", 3, 3))
        assert report.classification is Classification.REVERSIBLE
        assert report.unique_nodes == 13
        assert report.last_unique_level == 2

    def test_four_neighborhood(self):
        report = classify(parse_rule("0101101010100101", 2, 4))
        assert report.classification is Classification.NONTRIVIAL_SEMI
        assert report.expressions == (IrrevExpression(7, 7),)
        assert report.unique_nodes == 56

    def test_unbalanced(self):
        report = classify(parse_rule("00000001", 2, 3))
        assert report.classification is Classification.TRIVIAL_SEMI
        assert report.irreversible_from == 3

    def test_equivalent_rules_share_class(self):
        from ringca.rules import equivalent_rules
        for number in (75, 105, 150, 51, 30, 23, 27):
            base = classify(eca(number)).classification
            eq = equivalent_rules(eca(number))
            for member in (eq.reflection, eq.conjugation, eq.conjugation_reflection):
                assert classify(member).classification is base

    def test_report_json_roundtrip(self):
        from ringca.tree import ReversibilityReport
        for number in (75, 90, 51, 23):
            report = classify(eca(number))
            data = json.loads(json.dumps(report.to_dict()))
            assert ReversibilityReport.from_dict(data) == report

    @pytest.mark.parametrize("number, message", [
        (75, "classify: non-trivially-semi-reversible, M 21, last level 5, "
             "levels built 7, stopped at convergence"),
        (27, "classify: trivially-semi-reversible, M 7, last level 2, "
             "levels built 3, stopped at tail bound B = 4"),
        (90, "classify: strictly-irreversible, M 0, last level None, "
             "levels built 0, no tree: strictly irreversible"),
        (1, "classify: trivially-semi-reversible, M 0, last level None, "
            "levels built 0, no tree: unbalanced"),
    ], ids=["convergence", "tail-bound", "strict", "unbalanced"])
    def test_debug_record(self, caplog, number, message):
        with caplog.at_level(logging.DEBUG, logger="ringca.tree"):
            classify(eca(number))
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == message

    def test_silent_by_default(self, caplog):
        classify(eca(75))
        assert not caplog.records


class TestStrictlyIrreversible:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_against_homogeneous_rmt(self, d):
        # random tables, half of them with the homogeneous RMTs mapped
        # onto a permutation of the states
        rnd = random.Random(d)
        for m in (2, 3, 4):
            for _ in range(10):
                table = [rnd.randrange(d) for _ in range(d ** m)]
                probe = Rule(d, m, tuple(table))
                if rnd.random() < 0.5:
                    for s, value in enumerate(rnd.sample(range(d), d)):
                        table[probe.homogeneous_rmt(s)] = value
                rule = Rule(d, m, tuple(table))
                images = {rule.table[rule.homogeneous_rmt(s)] for s in range(d)}
                assert _strictly_irreversible(rule) == (len(images) < d)


class TestReversibleSizes:
    def test_eca105(self):
        report = classify(eca(105))
        assert reversible_sizes(report, 10) == {1, 2, 4, 5, 7, 8, 10}

    def test_eca75(self):
        assert reversible_sizes(classify(eca(75)), 8) == {1, 3, 5, 7}

    def test_reversible_full_range(self):
        assert reversible_sizes(classify(eca(204)), 9) == set(range(1, 10))

    def test_strict_empty(self):
        assert reversible_sizes(classify(eca(30)), 9) == set()

    def test_consistency_with_fixed_size_checks(self):
        rng = random.Random(17)
        rules = [eca(rng.randrange(256)) for _ in range(12)]
        for _ in range(12):
            table = [v for v in range(3) for _ in range(9)]
            rng.shuffle(table)
            rules.append(Rule(3, 3, tuple(table)))
        for rule in rules:
            report = classify(rule)
            good = reversible_sizes(report, 12)
            for n in range(rule.m, 13):
                assert (n in good) == check_reversible(rule, n).reversible, \
                    (rule.string, n)


def reference_tail_bound(evidence):
    """Least B with every n >= B covered, by the residue test and a scan
    up to the largest start plus twice the lcm of the periods."""
    def covered(n):
        return any(n == s or p and n > s and (n - s) % p == 0 for s, p in evidence)

    spans = [(s, p) for s, p in evidence if p]
    lam = math.lcm(*(p for _, p in spans))
    if not spans or not all(any((r - s) % p == 0 for s, p in spans)
                            for r in range(lam)):
        return None
    horizon = max(s for s, _ in spans) + 2 * lam
    uncovered = [n for n in range(1, horizon + 1) if not covered(n)]
    return max(uncovered) + 1 if uncovered else 1


class TestTailBound:
    @given(st.sets(st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=10))
    @settings(max_examples=500)
    def test_against_reference(self, evidence):
        builder = _ClassifyBuilder(eca(75))
        builder.evidence = evidence
        assert builder.tail_bound() == reference_tail_bound(evidence)

    def test_examples(self):
        builder = _ClassifyBuilder(eca(75))
        for evidence, bound in [({(3, 2), (6, 2), (1, 0)}, 5),
                                ({(2, 2), (5, 4)}, None),
                                ({(0, 0), (1, 1)}, 1), (set(), None)]:
            builder.evidence = evidence
            assert builder.tail_bound() == bound, evidence

    def test_classify_evidence(self):
        # the evidence that real trees leave behind
        rng = random.Random(3)
        rules = [eca(number) for number in range(256)]
        for _ in range(40):
            table = [v for v in range(3) for _ in range(9)]
            rng.shuffle(table)
            rules.append(Rule(3, 3, tuple(table)))
        bounded = 0
        for rule in rules:
            if not is_balanced(rule):
                continue
            builder = _ClassifyBuilder(rule)
            builder.build()
            bound = builder.tail_bound()
            assert bound == reference_tail_bound(builder.evidence), rule.string
            bounded += bound is not None
        assert bounded > 20


# rules that hold each state once on every sibling set and on every
# equivalent set (strategies I and II): the 15 fixtures, the four such
# ECAs and two non-linear 3-state rules, reversible at the odd sizes and
# at 19 of the sizes 3..24
BIPERMUTIVE = ([rule_from_permutation(perm) for perm in PERMUTATION_RULES]
               + [eca(k) for k in (90, 105, 150, 165)]
               + [parse_rule(text, 3, 3) for text in ("201120012012201120120012201",
                                                      "201012120120201012012120201")])
BIPERMUTIVE_IDS = (PERMUTATION_RULES + ["eca90", "eca105", "eca150", "eca165"]
                   + ["201120012012201120120012201", "201012120120201012012120201"])


def same_sizes(a, b):
    """Whether two (mu, lam, sizes) triples hold the same sizes: both repeat
    with period lcm(lam, lam') past the larger mu."""
    return all(in_sizes(a, n) == in_sizes(b, n)
               for n in range(max(a[0], b[0]) + math.lcm(a[1], b[1])))


def fixed_size_result(builder):
    """(reversible, M, last level) of a fixed-size builder's check."""
    try:
        builder.build()
        reversible = True
    except _IrreversibleFound:
        reversible = False
    return reversible, builder.unique_nodes, builder.last_unique_level


class TestBipermutive:
    """Every node of a bipermutive rule's tree holds each root content
    once, so the fixed-size check judges last levels only, where claims
    reach them, and gives the plain check's result."""

    @staticmethod
    def root_children_permute(rule):
        """Whether every child of the root holds each root content once,
        and whether every one holds only root contents."""
        ctx = _Context(rule)
        root = ctx.root()
        children = ctx.children(root)
        return (all(sorted(child) == sorted(root) for child in children),
                all(set(child) <= set(root) for child in children))

    def test_predicate_agrees_with_child_lists(self):
        # strategy II holds iff each child slot of the root is one sibling
        # set, and I holds as well iff no child repeats one
        rng = random.Random(29)
        rules = list(BIPERMUTIVE)
        for kind in ("I", "II"):
            for seed in range(20):
                rules += generate_strategy(StrategySpec(kind, seed=seed), 5)
        for d, m in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
            for _ in range(40):
                table = [v for v in range(d) for _ in range(d ** (m - 1))]
                rng.shuffle(table)
                rules.append(Rule(d, m, tuple(table)))
        both = 0
        for rule in rules:
            permute, closed = self.root_children_permute(rule)
            second = satisfies_strategy(rule, "II")
            assert closed == second, rule.string
            assert permute == (second and satisfies_strategy(rule, "I")), rule.string
            both += permute
        assert both > len(BIPERMUTIVE)

    @pytest.mark.parametrize("rule", BIPERMUTIVE, ids=BIPERMUTIVE_IDS)
    def test_nodes_hold_each_root_content_once(self, rule):
        sizes = (11, 23) if rule.d == 10 else (23, 24)
        for n in sizes:
            builder = _BipermutiveBuilder(rule, n)
            fixed_size_result(builder)
            root = sorted(builder.ctx.root())
            assert builder.unique_nodes > 1
            for nd in builder.nodes:
                assert sorted(nd.gamma) == root
                assert builder.ctx.verdict(nd.gamma)[0]  # the generic count

    @pytest.mark.parametrize("rule", BIPERMUTIVE, ids=BIPERMUTIVE_IDS)
    def test_matches_plain_check_and_pair_graph(self, rule):
        exact = label_maps(rule)
        if rule.d < 10:  # a fixture's pair rows take seconds
            assert same_sizes(exact, pair_rows(rule))
        assert exact_mismatches(rule, classify(rule)) == []
        for n in range(rule.m, 25):
            got = fixed_size_result(_BipermutiveBuilder(rule, n))
            assert got == fixed_size_result(_FixedSizeBuilder(rule, n)), n
            assert got[0] != in_sizes(exact, n), n

    def test_label_walks_against_pair_graph(self):
        # label maps against brute force on a fixture, whose pair rows on
        # 10,000 pair nodes cost seconds
        rule = rule_from_permutation(PERMUTATION_RULES[0])
        exact = label_maps(rule)
        for n in range(1, 5):
            assert in_sizes(exact, n) != brute_force_reversible(rule, n), n
        # and against pair rows at every n: on every strategy II rule with
        # d <= 3 and at most four windows, on the bipermutive ones with
        # d = 2, m = 4, and on the affine bipermutive ones with d = 3,
        # m = 3.  Other d = 3, m = 3 strategy II rules can take seconds:
        # one has 549,797 maps at one size.
        shapes = [(2, 2), (2, 3), (3, 2), (2, 4)]
        rules = [Rule(d, m, sum(rows, ())) for d, m in shapes for rows in itertools.product(
            itertools.permutations(range(d)), repeat=d ** (m - 1))]
        rules = [r for r in rules if r.m < 4 or satisfies_strategy(r, "I")]
        rules += [Rule(3, 3, tuple((x * a + y * b + z * c + w) % 3
                                   for a, b, c in itertools.product(range(3), repeat=3)))
                  for x in (1, 2) for y in range(3) for z in (1, 2) for w in range(3)]
        assert len(rules) == 4 + 16 + 216 + 16 + 36
        for rule in rules:
            assert same_sizes(label_maps(rule), pair_rows(rule)), rule.string

    @pytest.mark.parametrize("text, d, n, message", [
        (PERMUTATION_RULES[0], 10, 11,
         "check_reversible(n=11): reversible True, M 811, last level 9, "
         "bipermutive True, judged at last levels 100"),
        (PERMUTATION_RULES[0], 10, 21,
         "check_reversible(n=21): reversible False, M 1712, last level 19, "
         "bipermutive True, judged at last levels 1"),
        (STRATEGY_I_SAMPLE, 3, 25,
         "check_reversible(n=25): reversible True, M 1371, last level 19, "
         "bipermutive False, judged at last levels 1371"),
        (STRATEGY_II_SAMPLE, 3, 20,
         "check_reversible(n=20): reversible False, M 295, last level 6, "
         "bipermutive False, judged at last levels 295"),
    ], ids=["fixture-n11", "fixture-n21", "strategy-i", "strategy-ii"])
    def test_debug_record(self, caplog, text, d, n, message):
        rule = rule_from_permutation(text) if d == 10 else parse_rule(text, d, 3)
        with caplog.at_level(logging.DEBUG, logger="ringca.tree"):
            check_reversible(rule, n)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == message

    def test_silent_by_default(self, caplog):
        check_reversible(rule_from_permutation(PERMUTATION_RULES[0]), 11)
        assert not caplog.records


class TestReportsComplete:
    """Every claim of a node with bad last levels reaches the evidence,
    shifted by each bad iota.  New siblings share their first claims, and
    one report per set of bad iotas stands for all of them."""

    @staticmethod
    def unreported(rule):
        builder = _ClassifyBuilder(rule)
        builder.build()
        missing = [(s + iota, p) for nd in builder.nodes for iota in nd.bad_iotas
                   for s, p in nd.claims if (s + iota, p) not in builder.evidence]
        return missing, sum(bool(nd.bad_iotas) for nd in builder.nodes)

    def test_pinned_rows(self):
        bad_nodes = 0
        for d, text in sorted({(d, text) for d, _, text, *_ in ROWS}):
            missing, bad = self.unreported(parse_rule(text, d, 3))
            assert not missing, text
            bad_nodes += bad
        assert bad_nodes > 1000

    def test_claims_grow_during_expansion(self):
        # the root is its own second child, so its claims gain (0, 1)
        # between its first and third children, both with bad iota 1: the
        # third starts from other claims and needs a report of its own
        missing, bad = self.unreported(parse_rule("100210221", 3, 2))
        assert (missing, bad) == ([], 3)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_balanced_rules(self, data):
        d, m = data.draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]),
                         label="shape")
        table = data.draw(st.permutations(
            [v for v in range(d) for _ in range(d ** (m - 1))]), label="table")
        assert self.unreported(Rule(d, m, tuple(table)))[0] == []


# sha256 of the node states in ``TestNodeState.test_digest``
NODE_STATE_DIGEST = "ca50d3fe0e2c9061d7b77755d1571483e244241aa3aa3b063f6b0400bbd78f07"


def level_list(levels):
    """A node's levels in increasing order."""
    return [l for l in range(levels.bit_length()) if levels >> l & 1]


def level_bits(levels):
    """The level set holding ``levels``."""
    return sum(1 << l for l in set(levels))


def fixed_builder(rule):
    """The builder ``check_reversible`` uses for ``rule``."""
    if satisfies_strategy(rule, "II") and satisfies_strategy(rule, "I"):
        return _BipermutiveBuilder
    return _FixedSizeBuilder


class _PlainBuild(_Builder):
    """The child loop without per-parent sharing: each new child gets its
    own shifted levels and claims and reports its claims, and each known
    child is offered (``_offer``) every level of its parent."""

    def _build(self):
        self.nodes = []
        self.index = {}
        self._new_node(self.ctx.root(), level_bits([0]), {(0, 0)}, created_level=0)
        self._claims_grew(self.nodes[0], self.nodes[0].claims)
        frontier = [0]
        i = 1
        while frontier and not self._done(i):
            next_frontier = []
            for p in frontier:
                parent = self.nodes[p]
                children = []
                for gamma in self.ctx.children(parent.gamma):
                    uid = self.index.get(gamma)
                    if uid is None:
                        shifted = {(s + 1, q) for s, q in parent.claims}
                        uid = self._new_node(
                            gamma, level_bits(l + 1 for l in level_list(parent.levels)),
                            shifted, created_level=i)
                        self._claims_grew(self.nodes[uid], shifted)
                        next_frontier.append(uid)
                    else:
                        self._offer(parent, uid)
                    children.append(uid)
                parent.children = children
            frontier = next_frontier
            i += 1


class _PlainClassify(_ClassifyBuilder, _PlainBuild):
    pass


class _PlainFixedSize(_FixedSizeBuilder, _PlainBuild):
    pass


class _PlainBipermutive(_BipermutiveBuilder, _PlainBuild):
    pass


PLAIN = {_ClassifyBuilder: _PlainClassify, _FixedSizeBuilder: _PlainFixedSize,
         _BipermutiveBuilder: _PlainBipermutive}


class TestNodeState:
    """The builder shares per-parent work among a parent's children: the
    shifted levels and claims, one report per set of bad iotas, and the
    skip of a known child that already holds every shifted level.  The
    plain child loop, which shares nothing, builds the same nodes."""

    @staticmethod
    def state(cls, *args):
        builder = cls(*args)
        try:
            builder.build()
            stopped = None
        except _IrreversibleFound:
            stopped = "irreversible"
        nodes = [(nd.gamma, nd.levels, nd.claims, nd.bad_iotas, nd.children)
                 for nd in builder.nodes]
        return stopped, nodes, getattr(builder, "evidence", None)

    def test_same_nodes_as_plain_loop(self):
        rules = [rule for rule in golden_rules()
                 if is_balanced(rule) and not _strictly_irreversible(rule)]
        rules += random_tree_rules(200, 30)
        builds = 0
        for rule in rules:
            cases = [(_ClassifyBuilder, rule)]
            cases += [(fixed_builder(rule), rule, n) for n in (5, 7, 11, 13, 30)]
            for cls, *args in cases:
                got = self.state(cls, *args)
                assert got == self.state(PLAIN[cls], *args), (rule.string, cls, args)
                builds += 1
        assert len(rules) > 350 and builds == 6 * len(rules)

    def test_digest(self):
        """Every node's state, in the classify build of each golden rule
        that builds a tree and in its fixed-size builds at n = 5, 11 and
        30, hashes to the digest recorded before level sets were
        bitmasks."""
        digest = hashlib.sha256()
        builds = 0
        for rule in golden_rules():
            if not is_balanced(rule) or _strictly_irreversible(rule):
                continue
            cases = [(_ClassifyBuilder, rule)]
            cases += [(fixed_builder(rule), rule, n) for n in (5, 11, 30)]
            for cls, *args in cases:
                builder = cls(*args)
                try:
                    builder.build()
                    stopped = None
                except _IrreversibleFound:
                    stopped = "irreversible"
                nodes = [(nd.gamma, level_list(nd.levels), sorted(nd.claims),
                          None if nd.bad_iotas is None else sorted(nd.bad_iotas),
                          nd.children) for nd in builder.nodes]
                evidence = sorted(getattr(builder, "evidence", ()))
                digest.update(repr((rule.string, cls.__name__, args[1:], stopped,
                                    nodes, evidence)).encode())
                builds += 1
        assert builds == 4 * 216
        assert digest.hexdigest() == NODE_STATE_DIGEST


class TestLoopRule:
    """The module docstring's loop rule on hand-made nodes, each created
    at its least level, with no bad last levels."""

    @staticmethod
    def builder(*level_sets):
        builder = _ClassifyBuilder(eca(90))
        builder.evidence = set()
        builder.nodes = [_Node(None, level_bits(levels), _state_claims(level_bits(levels)),
                               frozenset(), min(levels)) for levels in level_sets]
        return builder

    def test_loop_two_and_odd_loop_reach_every_later_level(self):
        # met at 5, 7 and 8, the node recurs at 5 + 2a + 3b: every level
        # from 7 on, which the two loops as separate claims would miss at
        # 10, 12, 16, ...
        builder = self.builder({5, 7})
        builder._record_occurrence(0, 8)
        nd = builder.nodes[0]
        assert level_list(nd.levels) == [7, 8]
        assert all(_covers(nd.claims, n) for n in range(7, 60))

    def test_self_loop_makes_children_self_loops(self):
        # a parent at every level from 3 on puts its child at every level
        # from 4 on; offered 4 and 5 alone, a child met at level 1 would
        # claim the loops 3 and 4 and miss level 6
        builder = self.builder({3}, {1})
        builder.nodes[0].children = [1, 1]
        builder._record_occurrence(0, 4)
        child = builder.nodes[1]
        assert level_list(child.levels) == [4, 5]
        assert all(_covers(child.claims, n) for n in range(4, 60))


# a d = 3 rule whose fixed-size check at n = 10^6 and classify each build
# 9,837 unique nodes
LARGE_D3 = "120012012012120102201201210"


class TestNodeCap:
    """A tree that outgrows ``_MAX_NODES`` raises ``TreeSizeError``, which
    the CLI reports on one line with exit code 1."""

    @pytest.fixture(autouse=True)
    def cap(self, monkeypatch):
        monkeypatch.setattr(tree, "_MAX_NODES", 1000)

    def test_check_and_classify_raise(self):
        rule = parse_rule(LARGE_D3, 3, 3)
        with pytest.raises(tree.TreeSizeError, match="^more than 1000 unique nodes$"):
            check_reversible(rule, 10 ** 6)
        with pytest.raises(tree.TreeSizeError, match="^more than 1000 unique nodes$"):
            classify(rule)

    def test_cli_error_line(self, capsys):
        code = run(["check", "--d", "3", "--m", "3", "--rule", LARGE_D3,
                    "--size", "1000000"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (1, "", "error: more than 1000 unique nodes\n")


class TestNodeMemory:
    """Peak traced bytes per unique node.  Level sets as ints and claims
    shared by new siblings keep a node at about 380 bytes in the d = 3
    tree and 750 in the d = 10 one; the bounds sit below the 740 and
    1,160 that level sets and claims copied per node as sets took."""

    @staticmethod
    def peak_per_node(fn):
        tracemalloc.start()
        try:
            try:
                nodes = fn().unique_nodes
            except tree.TreeSizeError:
                nodes = tree._MAX_NODES
            return tracemalloc.get_traced_memory()[1] / nodes
        finally:
            tracemalloc.stop()

    def test_d3_tree(self):
        rule = parse_rule(LARGE_D3, 3, 3)
        assert self.peak_per_node(lambda: check_reversible(rule, 10 ** 6)) < 600

    def test_d10_tree(self, monkeypatch):
        # this rule's tree at n = 11 passes 500,000 nodes; the first
        # 10,000 show the cost of one
        rule, = synthesize_decimal(1, seed=20260811)
        monkeypatch.setattr(tree, "_MAX_NODES", 10_000)
        assert self.peak_per_node(lambda: check_reversible(rule, 11)) < 950


class TestWrongVerdictsAt11:
    @pytest.mark.parametrize("text", WRONG_AT_11)
    def test_oracles_agree(self, text):
        rule = parse_rule(text, 3, 3)
        assert brute_force_reversible(rule, 11)
        assert pair_graph_bijective(rule, 11)

    @pytest.mark.xfail(strict=True, reason="tree says irreversible at n = 11")
    @pytest.mark.parametrize("text", WRONG_AT_11)
    def test_tree_verdicts(self, text):
        rule = parse_rule(text, 3, 3)
        assert (check_reversible(rule, 11).reversible,
                classify(rule).irreversible_at(11)) == (True, False)


class TestMergeExpressions:
    def test_subset_dropped(self):
        merged = merge_expressions([
            IrrevExpression(2, 2), IrrevExpression(2, 4), IrrevExpression(2, 6)])
        assert merged == (IrrevExpression(2, 2),)

    def test_multiple_of_modulus_dropped(self):
        merged = merge_expressions([IrrevExpression(3, 3), IrrevExpression(6, 9)])
        assert merged == (IrrevExpression(3, 3),)

    def test_incomparable_kept(self):
        exprs = [IrrevExpression(2, 4), IrrevExpression(3, 3)]
        assert set(merge_expressions(exprs)) == set(exprs)

    @given(st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 12)), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_merge_preserves_covered_sizes(self, pairs):
        exprs = [IrrevExpression(m, o) for m, o in pairs]
        merged = merge_expressions(exprs)
        for n in range(1, 60):
            assert any(e.covers(n) for e in exprs) == \
                   any(e.covers(n) for e in merged)
