import io

import pytest

from ringca.engine import evolve
from ringca.prng import (Generator, GeneratorStateError, StreamSpec,
                         binary_blocks, decimal_digits, emit_stream,
                         tri_window)
from ringca.rules import parse_rule
from ringca.synthesis import rule_from_permutation

from conftest import FLOW_RULE


@pytest.fixture(scope="module")
def tri_rule():
    return parse_rule(FLOW_RULE, 3, 3)


@pytest.fixture(scope="module")
def dec_rule():
    return rule_from_permutation("8135940672")


class TestGeometry:
    def test_tri_window_20_needs_51_cells(self, tri_rule):
        assert tri_window(tri_rule, 20).n == 51

    def test_width_below_one_rejected(self, tri_rule):
        with pytest.raises(ValueError, match="width"):
            tri_window(tri_rule, -1)

    def test_tri_window_odd_and_scaled(self, tri_rule):
        gen = tri_window(tri_rule, 30)
        assert gen.n % 2 == 1 and gen.n >= 75

    def test_decimal_ring_size(self, dec_rule):
        assert decimal_digits(dec_rule, 3).n == 101
        assert decimal_digits(dec_rule, 10).n == 201

    def test_binary_blocks(self, dec_rule):
        gen = binary_blocks(dec_rule, 2)
        assert gen.width == 28 and gen.n == 201
        assert gen.bits_per_output == 64

    def test_tri_word_width(self, tri_rule):
        assert tri_window(tri_rule, 20).bits_per_output == 32


class TestOutputs:
    def test_unseeded_raises(self, tri_rule):
        with pytest.raises(GeneratorStateError):
            tri_window(tri_rule, 20).next()

    def test_seed_length_checked(self, tri_rule):
        with pytest.raises(ValueError):
            tri_window(tri_rule, 20).seed("012")

    def test_tri_range(self, tri_rule):
        gen = tri_window(tri_rule, 20)
        gen.seed("0" * 20)
        values = [gen.next() for _ in range(50)]
        assert all(0 <= v < 3 ** 20 for v in values)
        assert len(set(values)) > 1

    def test_binary_range(self, dec_rule):
        gen = binary_blocks(dec_rule, 1)
        gen.seed("0" * 14)
        assert all(0 <= gen.next() < 2 ** 32 for _ in range(30))

    def test_decimal_range(self, dec_rule):
        gen = decimal_digits(dec_rule, 4)
        gen.seed("0042")
        assert all(0 <= gen.next() < 10 ** 4 for _ in range(30))

    def test_first_output_matches_evolution_oracle(self, tri_rule):
        """Independent path: evolve the seeded ring n+1 steps and read the
        window digits as a base-3 number."""
        width = 20
        gen = tri_window(tri_rule, width)
        gen.seed("0" * width)
        n = gen.n
        start = (0,) * width + (0,) * (n - width - 1) + (1,)
        traj = evolve(tri_rule, start, n + 3)
        for t in range(n + 1, n + 4):
            expected = 0
            for c in traj[t][:width]:
                expected = expected * 3 + c
            assert gen.next() == expected

    def test_determinism(self, dec_rule):
        a = binary_blocks(dec_rule, 1)
        b = binary_blocks(dec_rule, 1)
        a.seed("00000000000007")
        b.seed("00000000000007")
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]


class TestStream:
    def test_empty_stream(self, dec_rule):
        gen = binary_blocks(dec_rule, 1)
        gen.seed("0" * 14)
        buf = io.BytesIO()
        written = emit_stream(gen, StreamSpec(32, 0), buf)
        assert written == 0 and buf.getvalue() == b""

    def test_length_formula(self, dec_rule):
        for count, bits in ((5, 32), (3, 64)):
            blocks = bits // 32
            gen = binary_blocks(dec_rule, blocks)
            gen.seed("0" * gen.width)
            spec = StreamSpec(bits, count)
            buf = io.BytesIO()
            written = emit_stream(gen, spec, buf)
            assert written == spec.byte_length == (count * bits + 7) // 8
            assert len(buf.getvalue()) == written

    def test_partial_byte_zero_padded(self, tri_rule):
        # 3 outputs of 13 bits = 39 bits -> 5 bytes, last bit padding 0
        gen = Generator(tri_rule, "tri", 8, 21)
        gen.seed("0" * 8)
        buf = io.BytesIO()
        emit_stream(gen, StreamSpec(13, 3), buf)
        data = buf.getvalue()
        assert len(data) == 5
        assert data[-1] & 1 == 0

    def test_msb_first_packing(self, dec_rule):
        gen = binary_blocks(dec_rule, 1)
        gen.seed("00000000000007")
        values = [gen.next() for _ in range(4)]
        gen2 = binary_blocks(dec_rule, 1)
        gen2.seed("00000000000007")
        buf = io.BytesIO()
        emit_stream(gen2, StreamSpec(32, 4), buf)
        assert buf.getvalue() == b"".join(v.to_bytes(4, "big") for v in values)

    def test_value_too_wide_rejected(self, tri_rule):
        gen = tri_window(tri_rule, 20)
        gen.seed("2" * 20)
        with pytest.raises(ValueError):
            emit_stream(gen, StreamSpec(8, 40), io.BytesIO())
