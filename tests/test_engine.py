import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ringca.debruijn import as_cells, next_configuration
from ringca.engine import (CycleResult, cycle_length, default_palette, evolve,
                           spacetime_raster)
from ringca.rules import Rule, eca, parse_rule

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


class TestCycleLength:
    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError, match="at least one cell"):
            cycle_length(eca(90), "", 5)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, data):
        d = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(2, 3))
        table = tuple(data.draw(st.lists(st.integers(0, d - 1),
                                         min_size=d ** m, max_size=d ** m)))
        rule = Rule(d, m, table, lr=data.draw(st.integers(0, m - 1)))
        n = data.draw(st.integers(1, 9))
        start = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
        full = _reference_cycle_length(rule, start, d ** n + 1)
        first_repeat = full.steps_used
        budgets = {first_repeat - 1, first_repeat, first_repeat + 1,
                   data.draw(st.integers(1, 2 * first_repeat + 2))}
        for max_steps in sorted(b for b in budgets if b >= 1):
            assert (cycle_length(rule, start, max_steps)
                    == _reference_cycle_length(rule, start, max_steps)), max_steps

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

    def test_time_runs_downward(self):
        data = spacetime_raster(eca(51), "01", 1)
        body = data.split(b"\n", 3)[3]
        white, black = (255, 255, 255), (0, 0, 0)
        assert body == bytes(white + black + black + white)
