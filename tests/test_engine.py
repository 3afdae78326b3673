import logging
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from ringca import engine
from ringca.debruijn import as_cells, next_configuration, stepper
from ringca.engine import (CycleResult, cycle_length, default_palette, evolve,
                           spacetime_raster)
from ringca.rules import Rule, eca, parse_rule
from ringca.synthesis import rule_from_permutation

from conftest import FLOW_RULE


class TestEvolve:
    def test_single_step(self):
        rule = parse_rule("201210210201210210201210210", 3, 3)
        traj = evolve(rule, "1012", 1)
        assert traj == [(1, 0, 1, 2), (0, 1, 2, 0)]

    def test_zero_steps(self):
        assert evolve(eca(90), "01011", 0) == [(0, 1, 0, 1, 1)]

    def test_complement_rule_period_two(self):
        rule = eca(51)  # next state = 1 - middle cell
        traj = evolve(rule, "01101", 2)
        assert traj[1] == tuple(1 - c for c in traj[0])
        assert traj[2] == traj[0]

    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError):
            evolve(eca(90), "012", 1)

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError, match="at least one cell"):
            evolve(eca(90), "", 3)


def _reference_cycle_length(rule, start, max_steps):
    """The dict search that Brent's method replaced: remember the step of
    every configuration seen until one repeats."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    cells = as_cells(start, rule.d)
    seen = {cells: 0}
    for step in range(1, max_steps + 1):
        cells = next_configuration(rule, cells)
        if cells in seen:
            entry = seen[cells]
            return CycleResult(
                cycle_length=step - entry,
                tail_length=entry,
                truncated=False,
                steps_used=step,
            )
        seen[cells] = step
    return CycleResult(cycle_length=None, tail_length=None,
                       truncated=True, steps_used=max_steps)


@st.composite
def _orbit_starts(draw):
    """A random rule, with d^(2m-1) on either side of 256, and a start."""
    d = draw(st.integers(2, 4))
    m = draw(st.integers(2, 4 if d == 2 else 3))
    table = tuple(draw(st.lists(st.integers(0, d - 1),
                                min_size=d ** m, max_size=d ** m)))
    rule = Rule(d, m, table, lr=draw(st.integers(0, m - 1)))
    n = draw(st.integers(1, 12 if d == 2 else 9))
    # half the starts repeat a block of q | n cells: their rotation
    # period divides q, and so does that of every configuration after them
    block = n
    if draw(st.booleans()):
        block = draw(st.sampled_from([q for q in range(1, n + 1) if n % q == 0]))
    return rule, tuple(draw(st.lists(st.integers(0, d - 1),
                                     min_size=block, max_size=block))) * (n // block)


class TestCycleLength:
    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError, match="at least one cell"):
            cycle_length(eca(90), "", 5)

    @given(_orbit_starts(), st.integers(1, 10 ** 9))
    # the identity: G²(x) is a rotation of both G(x) and x
    @example((Rule(3, 3, tuple(r // 3 % 3 for r in range(27))), (0, 1, 2, 0)), 1)
    # tail 1 and class cycle 5, met through G(start)
    @example((eca(30), (0,) * 7 + (1,)), 1)
    # tail 0, class cycle 3 and cycle 9, met through G(start); the
    # budgets tried include max_steps == cycle
    @example((eca(9), (0,) * 5 + (1,)), 1)
    # 4^5 > 256, so a move is two calls of G: tail 0 and an odd class
    # cycle of 3, met through G(start)
    @example((parse_rule("3210222311132310231311133302103122113332"
                         "022322302023000001330300", 4, 3), (2, 3, 0, 0, 0)), 1)
    # the same, with tail 3 and class cycle 17, met through the tortoise
    @example((parse_rule("0201331232220202202113202311112211110011"
                         "310131231010313201013022", 4, 3), (3, 0, 3, 2, 3)), 1)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, orbit, budget):
        rule, start = orbit
        full = _reference_cycle_length(rule, start, rule.d ** len(start) + 1)
        first_repeat = full.steps_used
        budgets = {first_repeat - 1, first_repeat, first_repeat + 1,
                   budget % (2 * first_repeat + 2) + 1}
        for max_steps in sorted(b for b in budgets if b >= 1):
            assert (cycle_length(rule, start, max_steps)
                    == _reference_cycle_length(rule, start, max_steps)), max_steps

    @pytest.mark.parametrize("d, m", [(d, m) for d in range(2, 7) for m in range(2, 5)
                                      if d ** (2 * m - 1) <= 256])
    def test_squared_is_two_steps(self, d, m):
        rng = random.Random(10 * d + m)
        for lr in range(m):
            rule = Rule(d, m, tuple(rng.randrange(d) for _ in range(d ** m)), lr=lr)
            squared = engine._squared(rule)
            assert (squared.m, squared.lr, squared.rr) == (2 * m - 1, 2 * lr, 2 * rule.rr)
            for n in range(1, 13):
                step, leap = stepper(rule, n), stepper(squared, n)
                for _ in range(4):
                    cells = bytes(rng.randrange(d) for _ in range(n))
                    assert leap(cells) == step(step(cells)), (rule, cells)

    def test_memory_bounded_in_steps(self):
        # the criterion-8 orbit at n = 11: 121,275 steps, tail 0
        rule = parse_rule(FLOW_RULE, 3, 3)
        tracemalloc.start()
        try:
            result = cycle_length(rule, "0" * 10 + "1", 121_285)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.cycle_length == 121_275
        assert peak < 1 << 20, f"peak {peak} bytes"

    def test_steps_by_rotation_class(self, monkeypatch):
        # the n = 13 criterion-8 orbit is 13 laps of its class cycle: the
        # search steps through one lap, not through 1,073,397 configurations,
        # and takes two steps a call
        calls = 0
        ca_step = engine.stepper

        def counted_stepper(rule, n):
            step = ca_step(rule, n)

            def counted(cells):
                nonlocal calls
                calls += 1
                return step(cells)
            return counted

        monkeypatch.setattr(engine, "stepper", counted_stepper)
        result = cycle_length(parse_rule(FLOW_RULE, 3, 3), "0" * 12 + "1", 1_073_407)
        assert result == CycleResult(cycle_length=1_073_397, tail_length=0,
                                     truncated=False, steps_used=1_073_397)
        assert calls < 1_073_397 // 26 + 100

    def test_memory_linear_in_ring_size(self):
        # a table of the rotations of a 50,000-cell ring would take 2.5 GB
        rule = parse_rule(FLOW_RULE, 3, 3)
        rng = random.Random(7)
        start = bytes(rng.randrange(3) for _ in range(50_000))
        tracemalloc.start()
        try:
            result = cycle_length(rule, start, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.truncated
        assert peak < 8 << 20, f"peak {peak} bytes"

    @pytest.mark.parametrize("digits, d, start, max_steps, message", [
        (FLOW_RULE, 3, "0" * 12 + "1", 1_073_407,
         "cycle_length(n=13, max_steps=1073407): 82588 steps, class cycle 82569, "
         "rotation 8, rotation period 13, tail 0"),
        ("01101110", 2, "0000000001", 100,  # ECA 110: cycle 25 = 5 · 10/gcd(10, 8)
         "cycle_length(n=10, max_steps=100): 31 steps, class cycle 5, "
         "rotation 8, rotation period 10, tail 4"),
        (FLOW_RULE, 3, "0000001", 10,
         "cycle_length(n=7, max_steps=10): 35 steps, class cycle None, "
         "rotation None, rotation period None, tail None"),
    ], ids=["flow-n13", "eca110-n10", "flow-n7-truncated"])
    def test_debug_record(self, caplog, digits, d, start, max_steps, message):
        rule = parse_rule(digits, d, 3)
        with caplog.at_level(logging.DEBUG, logger="ringca.engine"):
            cycle_length(rule, start, max_steps)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == message

    # permutation 8135940672 from 0...01: results recorded before the
    # d = 10 step moved to sibling classes, step counts since its moves
    # take two calls of G
    @pytest.mark.parametrize("n, max_steps, result, message", [
        (101, 400, CycleResult(cycle_length=None, tail_length=None,
                               truncated=True, steps_used=400),
         "cycle_length(n=101, max_steps=400): 1211 steps, class cycle None, "
         "rotation None, rotation period None, tail None"),
        (9, 200_000, CycleResult(cycle_length=85_023, tail_length=5_220,
                                 truncated=False, steps_used=90_243),
         "cycle_length(n=9, max_steps=200000): 45734 steps, class cycle 9447, "
         "rotation 1, rotation period 9, tail 5220"),
    ], ids=["n101-truncated", "n9"])
    def test_permutation_rule_pinned(self, caplog, n, max_steps, result, message):
        rule = rule_from_permutation("8135940672")
        with caplog.at_level(logging.DEBUG, logger="ringca.engine"):
            assert cycle_length(rule, "0" * (n - 1) + "1", max_steps) == result
        (record,) = caplog.records
        assert record.getMessage() == message

    def test_quiescent_fixed_point(self):
        rule = parse_rule(FLOW_RULE, 3, 3)
        result = cycle_length(rule, "00000", 10)
        assert (result.cycle_length, result.tail_length) == (1, 0)

    def test_small_ring(self):
        rule = parse_rule(FLOW_RULE, 3, 3)
        result = cycle_length(rule, "00001", 1000)
        assert result.cycle_length == 170
        assert result.tail_length == 0
        assert not result.truncated

    def test_truncation(self):
        rule = parse_rule(FLOW_RULE, 3, 3)
        result = cycle_length(rule, "0000001", 10)
        assert result.truncated
        assert result.cycle_length is None

    def test_reverify_by_evolution(self):
        rule = parse_rule(FLOW_RULE, 3, 3)
        result = cycle_length(rule, "000012", 10000)
        traj = evolve(rule, "000012", result.tail_length + result.cycle_length)
        entry = traj[result.tail_length]
        again = evolve(rule, entry, result.cycle_length)
        assert again[-1] == entry

    @given(st.integers(0, 255), st.integers(3, 7))
    @settings(max_examples=30, deadline=None)
    def test_tail_plus_cycle_bounded_by_state_count(self, number, n):
        rule = eca(number)
        result = cycle_length(rule, (0,) * (n - 1) + (1,), 2 ** n + 1)
        assert not result.truncated
        assert result.tail_length + result.cycle_length <= 2 ** n

    @given(st.integers(0, 3 ** 5 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reversible_size_trajectories_are_purely_cyclic(self, index):
        # a bijective global map permutes the configurations: no tails
        rule = parse_rule(FLOW_RULE, 3, 3)  # reversible at odd sizes
        start = tuple((index // 3 ** k) % 3 for k in range(5))
        result = cycle_length(rule, start, 3 ** 5 + 1)
        assert result.tail_length == 0


class TestRaster:
    def test_header_and_size(self):
        data = spacetime_raster(eca(90), "00100", 3)
        header, rest = data.split(b"\n", 1)
        assert header == b"P6"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"5 4"
        maxval, body = rest.split(b"\n", 1)
        assert maxval == b"255"
        assert len(body) == 5 * 4 * 3

    def test_single_row_is_start_colors(self):
        palette = default_palette(3)
        assert palette == ((0, 0, 255), (0, 255, 0), (255, 0, 0))
        data = spacetime_raster(parse_rule(FLOW_RULE, 3, 3), "012", 0)
        body = data.split(b"\n", 3)[3]
        assert body == bytes((0, 0, 255, 0, 255, 0, 255, 0, 0))

    def test_decimal_palette_order(self):
        palette = default_palette(10)
        assert palette[0] == (0, 0, 255)      # blue
        assert palette[1] == (0, 255, 0)      # green
        assert palette[2] == (255, 0, 0)      # red
        assert palette[3] == (255, 255, 0)    # yellow
        assert palette[4] == (0, 255, 255)    # cyan
        assert palette[5] == (255, 0, 255)    # magenta
        assert palette[6] == (255, 165, 0)    # orange
        assert palette[7] == (192, 192, 192)  # light gray
        assert palette[8] == (0, 0, 0)        # black
        assert palette[9] == (255, 255, 255)  # white

    def test_palette_size_enforced(self):
        with pytest.raises(ValueError):
            spacetime_raster(eca(90), "010", 1, palette=[(0, 0, 0)])

    @pytest.mark.parametrize("rule", [eca(110), parse_rule(FLOW_RULE, 3, 3),
                                      rule_from_permutation("8135940672")])
    def test_matches_per_cell_rendering(self, rule):
        rng = random.Random(rule.d)
        start = tuple(rng.randrange(rule.d) for _ in range(17))
        palette = default_palette(rule.d)
        body = bytearray()
        for row in evolve(rule, start, 9):
            for cell in row:
                body.extend(palette[cell])
        assert spacetime_raster(rule, start, 9) == b"P6\n17 10\n255\n" + body

    def test_time_runs_downward(self):
        data = spacetime_raster(eca(51), "01", 1)
        body = data.split(b"\n", 3)[3]
        white, black = (255, 255, 255), (0, 0, 0)
        assert body == bytes(white + black + black + white)
