import hashlib
import io
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ringca.engine import evolve, trajectory
from ringca.prng import (Generator, GeneratorStateError, StreamSpec,
                         binary_blocks, decimal_digits, decimal_text,
                         emit_stream, tri_window)
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

    @pytest.mark.parametrize("modulus", [1000, 3, 1, 0, -8])
    def test_modulus_not_a_power_of_two_rejected(self, tri_rule, modulus):
        # 1000 would get 9 bits and fail mid-stream on an output >= 512
        with pytest.raises(ValueError, match="power of two"):
            Generator(tri_rule, "x", 3, 21, modulus=modulus)

    @pytest.mark.parametrize("bits", [1, 9, 32])
    def test_modulus_sets_output_width(self, tri_rule, bits):
        gen = Generator(tri_rule, "x", 3, 21, modulus=1 << bits)
        assert gen.bits_per_output == bits


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

    @pytest.mark.parametrize("scheme", ["tri", "dec", "bin"])
    def test_outputs_match_evolution_windows(self, tri_rule, dec_rule, scheme):
        """Fifty outputs against the windows of an independent trajectory,
        read as base-d numbers by Horner's rule (and reduced mod the
        modulus for ``bin``)."""
        gen, seed = {
            "tri": (tri_window(tri_rule, 20), "01201201201201201201"),
            "dec": (decimal_digits(dec_rule, 12), "314159265358"),
            "bin": (binary_blocks(dec_rule, 1), "27182818284590"),
        }[scheme]
        gen.seed(seed)
        start = tuple(map(int, seed)) + (0,) * (gen.n - gen.width - 1) + (1,)
        traj = evolve(gen.rule, start, gen.n + 50)
        for config in traj[gen.n + 1:]:
            expected = horner(config[:gen.width], gen.rule.d)
            if gen.modulus is not None:
                expected %= gen.modulus
            assert gen.next() == expected

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("scheme", ["tri", "dec", "bin1", "bin2", "wide"])
    def test_outputs_equal_calls_of_next(self, tri_rule, dec_rule, scheme, count):
        """``outputs(count)`` gives what ``count`` calls of ``next`` give
        and leaves the ring where they leave it.  ``wide`` reads windows of
        700 digits, which convert only in chunks under the lowest limit the
        interpreter can set on string conversions."""
        def seeded():
            gen, seed = {
                "tri": (tri_window(tri_rule, 20), "01201201201201201201"),
                "dec": (decimal_digits(dec_rule, 12), "314159265358"),
                "bin1": (binary_blocks(dec_rule, 1), "27182818284590"),
                "bin2": (binary_blocks(dec_rule, 2), "2718281828459045235360287471"),
                "wide": (Generator(dec_rule, "dec", 700, 703),
                         "".join(str(i * i % 10) for i in range(700))),
            }[scheme]
            gen.seed(seed)
            return gen

        block, single = seeded(), seeded()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert block.outputs(count) == [single.next() for _ in range(count)]
            assert block.cells == single.cells
            assert block.outputs(2) == [single.next(), single.next()]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_window_wider_than_int_digit_limit(self, tri_rule):
        """4400 trits: more digits than int() converts by default on 3.11."""
        width, n = 4400, 4401
        gen = Generator(tri_rule, "tri", width, n)
        seed = "".join(str(i * i % 3) for i in range(width))
        gen.seed(seed)
        start = tuple(map(int, seed)) + (1,)
        configs = trajectory(tri_rule, start, n + 3)  # n + 4 rings of 4401 cells
        for t, config in enumerate(configs):
            if t > n:
                assert gen.next() == horner(config[:width], 3)

    @pytest.mark.parametrize("value", [
        0, 9, 10 ** 640 - 1, 10 ** 640, 10 ** 640 + 7, 5 * 10 ** 1280,
        2 ** 14000 - 1])
    def test_decimal_text(self, value):
        # chunks of 640 digits below the first are zero-padded, and each
        # converts under the lowest limit the interpreter can be set to
        expected = str(value)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = decimal_text(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == expected

    def test_determinism(self, dec_rule):
        a = binary_blocks(dec_rule, 1)
        b = binary_blocks(dec_rule, 1)
        a.seed("00000000000007")
        b.seed("00000000000007")
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]


def horner(digits, d):
    value = 0
    for c in digits:
        value = value * d + c
    return value


class StubGenerator:
    """Hands out fixed values in order, as ``emit_stream`` asks for them."""

    def __init__(self, values):
        self.values = iter(values)

    def next(self):
        return next(self.values)

    def outputs(self, count):
        return [next(self.values) for _ in range(count)]


def packed_by_bit_string(values, bits):
    """Reference packing: MSB-first bit strings, zero-padded to a byte."""
    text = "".join(format(v, f"0{bits}b") for v in values)
    text += "0" * (-len(text) % 8)
    return bytes(int(text[i:i + 8], 2) for i in range(0, len(text), 8))


# sha256 of the first 4 KiB of four streams, recorded before the step and
# the packing moved to byte strings (bin1: before the d = 10 step moved to
# sibling classes)
STREAM_PINS = {
    "tri": "78be0698aa60e72a6ec5ec0018bc38f09a27ba99284dee19aa38da40073432dd",
    "bin": "eedbc7a0ad8983ad272432e4133186fac1ac3bf44d5eb2675bd06e66d7493ca0",
    "bin1": "2612ad04b9ceac27a8b16f21d093015c38416d64fb0121b8439b058aab64a299",
    "dec": "ca8d1f9c25c11bca48cc4ac673aa55fe6542e3fa86f5c05c3754836ae92e8f20",
}


class TestStream:
    @pytest.mark.parametrize("scheme", sorted(STREAM_PINS))
    def test_first_4kib_pinned(self, tri_rule, scheme):
        gen, seed = {
            "tri": (tri_window(tri_rule, 20), "01201201201201201201"),
            "bin": (binary_blocks(rule_from_permutation("8135940672"), 2),
                    "0123456789012345678901234567"),
            "bin1": (binary_blocks(rule_from_permutation("8135940672"), 1),
                     "01234567890123"),
            "dec": (decimal_digits(rule_from_permutation("5102847369"), 12),
                    "314159265358"),
        }[scheme]
        gen.seed(seed)
        bits = gen.bits_per_output
        buf = io.BytesIO()
        emit_stream(gen, StreamSpec(bits, math.ceil(4096 * 8 / bits)), buf)
        assert hashlib.sha256(buf.getvalue()[:4096]).hexdigest() == STREAM_PINS[scheme]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_packing_matches_bit_strings(self, data):
        bits = data.draw(st.integers(1, 70))
        values = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=20))
        buf = io.BytesIO()
        written = emit_stream(StubGenerator(values), StreamSpec(bits, len(values)), buf)
        assert buf.getvalue() == packed_by_bit_string(values, bits)
        assert written == len(buf.getvalue()) == (len(values) * bits + 7) // 8

    @pytest.mark.parametrize("bits", [13, 32])
    def test_blocks_pack_like_bit_strings(self, dec_rule, bits):
        """601 outputs span three blocks; at 13 bits the last one ends
        within a byte."""
        def seeded():
            gen = Generator(dec_rule, "bin", 14, 101, modulus=1 << bits)
            gen.seed("27182818284590")
            return gen

        gen = seeded()
        values = [gen.next() for _ in range(601)]
        buf = io.BytesIO()
        written = emit_stream(seeded(), StreamSpec(bits, 601), buf)
        assert buf.getvalue() == packed_by_bit_string(values, bits)
        assert written == len(buf.getvalue())

    def test_stream_memory_bounded(self, dec_rule):
        """4 MiB of ``bin`` output into a sink that drops it: outputs are
        made and written a block at a time, so the traced peak stays under
        a bound that does not depend on the count."""
        class Sink:
            def write(self, data):
                return len(data)

        gen = binary_blocks(dec_rule, 2)
        gen.seed("0" * 28)
        spec = StreamSpec(64, 4 * 2 ** 20 // 8)
        tracemalloc.start()
        try:
            written = emit_stream(gen, spec, Sink())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert written == 4 * 2 ** 20
        assert peak < 512 * 1024, f"peak {peak} bytes"

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
            assert written == (count * bits + 7) // 8
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
