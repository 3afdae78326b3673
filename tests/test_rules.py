import time

import pytest
from hypothesis import given, settings, strategies as st

from ringca.rules import (FlowReport, Rule, RuleError, eca, equivalent_rules,
                          information_flow, is_balanced, is_linear,
                          min_representative, parse_rule,
                          self_replicating_rmts, wolfram_number)

from conftest import FLOW_RULE, STRATEGY_I_SAMPLE, STRATEGY_II_SAMPLE


class TestParse:
    def test_eca_90(self):
        rule = parse_rule("01011010", 2, 3)
        assert rule.table[1] == rule.table[3] == rule.table[4] == rule.table[6] == 1
        assert rule.table[0] == rule.table[2] == rule.table[5] == rule.table[7] == 0
        assert rule == eca(90)
        assert rule.string == "01011010"

    def test_all_zero(self):
        rule = parse_rule("00000000", 2, 3)
        assert all(v == 0 for v in rule.table)

    def test_three_state(self):
        rule = parse_rule("201210210201210210201210210", 3, 3)
        assert rule.table[0] == 0   # R(0,0,0)
        assert rule.table[1] == 1   # R(0,0,1)

    def test_bad_length(self):
        with pytest.raises(RuleError, match="27"):
            parse_rule("0120", 3, 3)

    @pytest.mark.parametrize("d, m", [(2, 10 ** 9), (10, 5000)])
    def test_huge_neighborhood_rejected_by_length(self, d, m):
        # the length check must answer without computing d^m, which takes
        # seconds for m = 10^9 and cannot be printed for either case
        start = time.perf_counter()
        with pytest.raises(RuleError, match=rf"d={d}, m={m} must have d\^m digits"):
            parse_rule("0", d, m)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("d, m, problem", [
        (11, 3, "state count"), (1, 3, "state count"),
        (2, 1, "neighborhood size"), (2, -5, "neighborhood size")])
    def test_bad_dims_before_length(self, d, m, problem):
        with pytest.raises(RuleError, match=problem):
            parse_rule("01", d, m)

    def test_bad_digit_names_position(self):
        with pytest.raises(RuleError, match="position 3"):
            parse_rule("01091010", 2, 3)

    def test_radii(self):
        rule = parse_rule("0101101010100101", 2, 4)
        assert (rule.lr, rule.rr) == (1, 2)
        assert rule.rmt_digits(0b0100)[rule.lr] == 1


class TestTableEntries:
    """A table entry outside [0, d) is named with its RMT, the first such
    entry when there are several."""

    def test_late_entry_too_large(self):
        table = (0, 1, 2) * 8 + (0, 1, 3)
        with pytest.raises(RuleError, match=r"^table entry 3 at RMT 26 is not a state < 3$"):
            Rule(3, 3, table)

    def test_negative_entry_before_large_one(self):
        table = [0] * 16
        table[5], table[9] = -1, 2
        with pytest.raises(RuleError, match=r"^table entry -1 at RMT 5 is not a state < 2$"):
            Rule(2, 4, tuple(table))

    def test_list_table(self):
        table = [1] * 16
        table[11] = 4
        with pytest.raises(RuleError, match=r"^table entry 4 at RMT 11 is not a state < 4$"):
            Rule(4, 2, table)
        table[11] = 3
        assert Rule(4, 2, table).table == tuple(table)


class TestBalanced:
    def test_balanced_three_state(self):
        assert is_balanced(parse_rule("201210210201210210201210210", 3, 3))

    def test_all_zero_unbalanced(self):
        assert not is_balanced(parse_rule("00000000", 2, 3))

    def test_eca_90_balanced(self):
        # four 1s and four 0s, counted by hand
        assert sorted(eca(90).table) == [0, 0, 0, 0, 1, 1, 1, 1]
        assert is_balanced(eca(90))


def reference_is_linear(rule):
    """Additivity by definition: R(a + b) = R(a) + R(b) for every pair
    of RMTs, added digit by digit mod d."""
    d, m = rule.d, rule.m

    def add(a, b):
        out, mult = 0, 1
        for _ in range(m):
            out += (a + b) % d * mult
            a, b, mult = a // d, b // d, mult * d
        return out

    return all(rule.table[add(a, b)] == (rule.table[a] + rule.table[b]) % d
               for a in range(rule.num_rmts) for b in range(rule.num_rmts))


class TestLinear:
    def test_ecas_against_reference(self):
        linear = [n for n in range(256) if is_linear(eca(n))]
        assert linear == [n for n in range(256) if reference_is_linear(eca(n))]
        assert linear == [0, 60, 90, 102, 150, 170, 204, 240]

    @given(st.integers(2, 5), st.integers(2, 3), st.data())
    def test_against_reference(self, d, m, data):
        # a linear table from random unit images, then maybe one entry off
        units = data.draw(st.lists(st.integers(0, d - 1), min_size=m, max_size=m))
        table = [sum(r // d ** k % d * u for k, u in enumerate(units)) % d
                 for r in range(d ** m)]
        r = data.draw(st.integers(0, d ** m - 1))
        table[r] = (table[r] + data.draw(st.integers(0, d - 1))) % d
        rule = Rule(d, m, tuple(table))
        assert is_linear(rule) == reference_is_linear(rule)

    def test_eca_90_linear(self):
        # oracle: R(x,y,z) = x + z mod 2, checked digit-wise over all pairs
        rule = eca(90)
        assert all(rule.table[r] == ((r >> 2) ^ (r & 1)) for r in range(8))
        assert is_linear(rule)

    def test_flow_rule_nonlinear_witness(self):
        rule = parse_rule(FLOW_RULE, 3, 3)
        # RMTs 4 and 5 add digit-wise to RMT 6, and values disagree
        assert (rule.table[4] + rule.table[5]) % 3 != rule.table[6]
        assert not is_linear(rule)

    def test_zero_rule_linear(self):
        assert is_linear(parse_rule("0" * 27, 3, 3))


class TestSelfReplicating:
    def test_strategy_ii_sample(self):
        rule = parse_rule(STRATEGY_II_SAMPLE, 3, 3)
        assert self_replicating_rmts(rule) == {2, 3, 7, 10, 14, 15, 19, 22, 24}

    def test_identity_rule(self):
        table = tuple((r // 3) % 3 for r in range(27))
        rule = Rule(3, 3, table)
        assert self_replicating_rmts(rule) == set(range(27))

    def test_strategy_i_sample(self):
        rule = parse_rule(STRATEGY_I_SAMPLE, 3, 3)
        assert self_replicating_rmts(rule) == {1, 3, 5, 6, 9, 11, 16, 22, 26}


class TestInformationFlow:
    def test_flow_rule(self):
        flow = information_flow(parse_rule(FLOW_RULE, 3, 3))
        assert (flow.right_changes, flow.left_changes) == (10, 18)
        assert flow.total_rmts == 27

    def test_strategy_i_sample(self):
        flow = information_flow(parse_rule(STRATEGY_I_SAMPLE, 3, 3))
        assert (flow.right_changes, flow.left_changes) == (18, 12)

    def test_strategy_ii_sample(self):
        flow = information_flow(parse_rule(STRATEGY_II_SAMPLE, 3, 3))
        assert (flow.left_changes, flow.right_changes) == (18, 12)

    def test_identity_rule_no_flow(self):
        table = tuple((r // 3) % 3 for r in range(27))
        flow = information_flow(Rule(3, 3, table))
        assert flow.left_changes == flow.right_changes == 0

    def test_bounds(self):
        for text in (FLOW_RULE, STRATEGY_I_SAMPLE, STRATEGY_II_SAMPLE):
            flow = information_flow(parse_rule(text, 3, 3))
            assert 0 <= flow.left_changes <= 27 - 9
            assert 0 <= flow.right_changes <= 27 - 9

    # every radius: lr moves the middle digit, and with it which RMTs are
    # self-replicating
    @pytest.mark.parametrize("d, m, lr", [
        (d, m, lr) for d, m in [(2, 3), (3, 3), (2, 4), (4, 2)] for lr in range(m)])
    @given(st.data())
    @settings(max_examples=40)
    def test_matches_per_set_reference(self, d, m, lr, data):
        table = data.draw(st.lists(st.integers(0, d - 1), min_size=d ** m, max_size=d ** m))
        rule = Rule(d, m, tuple(table), lr=lr)
        assert self_replicating_rmts(rule) == reference_self_replicating_rmts(rule)
        assert information_flow(rule) == reference_information_flow(rule)


def reference_self_replicating_rmts(rule):
    """The definition, RMT by RMT through the middle of ``rmt_digits``."""
    return {r for r in range(rule.num_rmts) if rule.table[r] == rule.rmt_digits(r)[rule.lr]}


def reference_information_flow(rule):
    """The scores set by set: distinct values of the non-self-replicating
    members of each sibling set and of each equivalent set."""
    selfrep = reference_self_replicating_rmts(rule)

    def score(members):
        return len({rule.table[r] for r in members if r not in selfrep})

    left = sum(score(rule.sibling_set(j)) for j in range(rule.num_sets))
    right = sum(score(rule.equivalent_set(i)) for i in range(rule.num_sets))
    return FlowReport(left_changes=left, right_changes=right, total_rmts=rule.num_rmts)


class TestEquivalence:
    def test_reflection_matches_table_row(self):
        rule = parse_rule(STRATEGY_I_SAMPLE, 3, 3)
        refl = equivalent_rules(rule).reflection
        assert refl.string == "201201102120102120102201201"

    @given(st.integers(min_value=0, max_value=255))
    def test_involutions(self, number):
        rule = eca(number)
        eq = equivalent_rules(rule)
        assert equivalent_rules(eq.reflection).reflection == rule
        assert equivalent_rules(eq.conjugation).conjugation == rule
        cr = eq.conjugation_reflection
        assert equivalent_rules(cr).conjugation_reflection == rule

    def test_eca_15_class(self):
        # brute-force check: every member of 15's class is reversible n <= 6
        from conftest import brute_force_reversible
        rule = eca(15)
        eq = equivalent_rules(rule)
        members = {wolfram_number(r) for r in
                   (rule, eq.reflection, eq.conjugation, eq.conjugation_reflection)}
        assert members == {15, 85}
        for number in members:
            for n in range(3, 7):
                assert brute_force_reversible(eca(number), n)
        assert wolfram_number(min_representative(eca(85))) == 15


class TestSetGeometry:
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4))
    def test_partitions(self, d, m):
        table = tuple(0 for _ in range(d ** m))
        rule = Rule(d, m, table)
        sibl = [frozenset(rule.sibling_set(j)) for j in range(rule.num_sets)]
        equi = [frozenset(rule.equivalent_set(i)) for i in range(rule.num_sets)]
        universe = frozenset(range(d ** m))
        assert frozenset().union(*sibl) == universe
        assert frozenset().union(*equi) == universe
        assert sum(len(s) for s in sibl) == d ** m
        assert sum(len(s) for s in equi) == d ** m

    @pytest.mark.parametrize("d, m", [(2, 3), (3, 5), (10, 3), (10, 2)])
    def test_homogeneous_rmt(self, d, m):
        rule = Rule(d, m, (0,) * d ** m)
        for s in range(d):
            assert rule.rmt_digits(rule.homogeneous_rmt(s)) == (s,) * m
