"""Window-based pseudo-random number generation from CA evolution.

A generator runs an n-cell CA and reads its outputs from a fixed window of
w cells at the left end of the ring.  The window holds the seed; the other
cells start as 0...01, and the first n configurations are discarded before
any output is produced.  Three schemes fix (w, n) and the output value:

* ``tri``     3-state rule, window of w trits read as a base-3 integer;
              n is the smallest odd number >= max(2.5 w, 51).
* ``dec``     10-state rule, window of w digits read as a base-10 integer;
              n = (w // 10 + 1) * 100 + 1.
* ``bin``     10-state rule, w = 14 b digits; the window value is reduced
              mod 2^(32 b), giving a 32 b-bit output; n = 100 b + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import BinaryIO

# next_configuration stays bound here: perfbench's traced run rebinds
# prng.next_configuration, so the name must exist in this module
from .debruijn import next_configuration, parse_configuration, stepper  # noqa: F401
from .rules import Rule


class GeneratorStateError(RuntimeError):
    """Output requested from an unseeded generator."""


def _round_up_byte(bits: int) -> int:
    return ((bits + 7) // 8) * 8


class Generator:
    """Sequential window PRNG over one CA.  Not safe for concurrent use."""

    def __init__(self, rule: Rule, scheme: str, width: int, n: int,
                 modulus: int | None = None):
        if width < 1:
            raise ValueError(f"window width must be at least 1, got {width}")
        if width >= n:
            raise ValueError("window must be shorter than the ring")
        self.rule = rule
        self.scheme = scheme
        self.width = width
        self.n = n
        self.modulus = modulus
        self.cells: tuple[int, ...] | None = None
        self._step = stepper(rule)  # seed validates the cells it trusts
        raw_bits = width * math.log2(rule.d)
        if modulus is not None:
            self.bits_per_output = modulus.bit_length() - 1
        else:
            self.bits_per_output = _round_up_byte(math.ceil(raw_bits))

    def seed(self, seed_digits: str) -> None:
        """Load the window and burn the first n configurations."""
        window = parse_configuration(seed_digits, self.rule.d)
        if len(window) != self.width:
            raise ValueError(
                f"seed must supply {self.width} digits, got {len(window)}")
        rest = (0,) * (self.n - self.width - 1) + (1,)
        cells = window + rest
        for _ in range(self.n):
            cells = self._step(cells)
        self.cells = cells

    def next(self) -> int:
        """Advance one step and read the window."""
        if self.cells is None:
            raise GeneratorStateError("generator has not been seeded")
        self.cells = self._step(self.cells)
        value = 0
        d = self.rule.d
        for c in self.cells[: self.width]:
            value = value * d + c
        if self.modulus is not None:
            value %= self.modulus
        return value


def tri_window(rule: Rule, width: int = 20) -> Generator:
    """3-state scheme; width 20 gives 32-bit-sized outputs (max 3^20 - 1)."""
    if rule.d != 3:
        raise ValueError("tri scheme needs a 3-state rule")
    n = max(math.ceil(2.5 * width), 51)
    if n % 2 == 0:
        n += 1
    return Generator(rule, "tri", width, n)


def decimal_digits(rule: Rule, width: int) -> Generator:
    """10-state scheme emitting w-digit decimal values."""
    if rule.d != 10:
        raise ValueError("dec scheme needs a 10-state rule")
    n = (width // 10 + 1) * 100 + 1
    return Generator(rule, "dec", width, n)


def binary_blocks(rule: Rule, blocks: int = 1) -> Generator:
    """10-state scheme emitting 32*b-bit values (window 14*b digits)."""
    if rule.d != 10:
        raise ValueError("bin scheme needs a 10-state rule")
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    width = 14 * blocks
    n = 100 * blocks + 1
    return Generator(rule, "bin", width, n, modulus=1 << (32 * blocks))


@dataclass(frozen=True)
class StreamSpec:
    """Fixed-width packing of generator outputs into a byte stream.

    Each output is written MSB-first in ``bits_per_output`` bits; outputs
    are concatenated and the final partial byte is zero-padded, so
    ``count`` outputs occupy ceil(count * bits / 8) bytes.
    """

    bits_per_output: int
    count: int

    @property
    def byte_length(self) -> int:
        return (self.count * self.bits_per_output + 7) // 8


def emit_stream(gen: Generator, spec: StreamSpec, out: BinaryIO) -> int:
    """Write ``spec.count`` outputs to ``out``; returns bytes written."""
    bits = spec.bits_per_output
    limit = 1 << bits
    buffer = 0
    buffered = 0
    written = 0
    for _ in range(spec.count):
        value = gen.next()
        if value >= limit:
            raise ValueError(
                f"output {value} does not fit in {bits} bits")
        buffer = (buffer << bits) | value
        buffered += bits
        while buffered >= 8:
            buffered -= 8
            out.write(bytes(((buffer >> buffered) & 0xFF,)))
            buffer &= (1 << buffered) - 1
            written += 1
    if buffered:
        out.write(bytes(((buffer << (8 - buffered)) & 0xFF,)))
        written += 1
    return written
