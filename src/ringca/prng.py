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
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from typing import BinaryIO

# next_configuration stays bound here: perfbench's traced run rebinds
# prng.next_configuration, so the name must exist in this module
from .debruijn import next_configuration, parse_configuration, stepper  # noqa: F401
from .rules import Rule


class GeneratorStateError(RuntimeError):
    """Output requested from an unseeded generator."""


def _round_up_byte(bits: int) -> int:
    return ((bits + 7) // 8) * 8


# cell states 0..9 (check_dims caps d at 10) as their ASCII digits
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# int() of a longer digit string, or str() of a longer int, may raise under
# the interpreter's limit on string conversions (3.11+); 640 is the lowest
# limit it can be set to
_INT_DIGITS = 640
_INT_CHUNK = 10 ** _INT_DIGITS
# outputs per block of a stream: each block is made by one ``outputs`` call
# and written by one write, and a stream's memory grows with the block, not
# with the stream; a multiple of 8, so that every full block fills whole bytes
_BLOCK = 256


def _window_value(digits: bytes, d: int) -> int:
    """The base-d value of an ASCII digit string, in chunks int() accepts."""
    value = 0
    for at in range(0, len(digits), _INT_DIGITS):
        chunk = digits[at:at + _INT_DIGITS]
        value = value * d ** len(chunk) + int(chunk, d)
    return value


def digit_text(cells: bytes) -> str:
    """Cell states as a string of their ASCII digits."""
    return cells.translate(_DIGITS).decode()


def decimal_text(value: int) -> str:
    """A non-negative int as decimal digits, in chunks str() accepts."""
    chunks = []
    while value >= _INT_CHUNK:
        value, low = divmod(value, _INT_CHUNK)
        chunks.append(f"{low:0{_INT_DIGITS}d}")
    chunks.append(str(value))
    return "".join(reversed(chunks))


class Generator:
    """Sequential window PRNG over one CA.  Not safe for concurrent use."""

    def __init__(self, rule: Rule, scheme: str, width: int, n: int,
                 modulus: int | None = None):
        if width < 1:
            raise ValueError(f"window width must be at least 1, got {width}")
        if width >= n:
            raise ValueError("window must be shorter than the ring")
        if modulus is not None and (modulus < 2 or modulus & (modulus - 1)):
            raise ValueError(
                f"modulus must be a power of two >= 2, got {modulus}")
        self.rule = rule
        self.scheme = scheme
        self.width = width
        self.n = n
        self.modulus = modulus
        self.cells: bytes | None = None
        self._step = stepper(rule, n)  # seed validates the cells it trusts
        # the window's base-d value from its ASCII digits: int(digits, d)
        self._convert = int if width <= _INT_DIGITS else _window_value
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
        cells = bytes(window) + bytes(self.n - self.width - 1) + b"\1"
        for _ in range(self.n):
            cells = self._step(cells)
        self.cells = cells

    def outputs(self, count: int) -> list[int]:
        """Advance ``count`` steps, reading the window after each: the
        next ``count`` outputs."""
        if self.cells is None:
            raise GeneratorStateError("generator has not been seeded")
        step, width, cells = self._step, self.width, self.cells
        windows = []
        keep = windows.append
        for _ in range(count):
            cells = step(cells)
            keep(cells[:width])
        self.cells = cells
        digits = map(bytes.translate, windows, repeat(_DIGITS))
        values = map(self._convert, digits, repeat(self.rule.d))
        if self.modulus is not None:
            values = map(operator.mod, values, repeat(self.modulus))
        return list(values)

    def next(self) -> int:
        """Advance one step and read the window."""
        return self.outputs(1)[0]


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


def blocks(gen: Generator, count: int) -> Iterator[list[int]]:
    """The next ``count`` outputs of ``gen`` in lists of at most ``_BLOCK``,
    one ``outputs`` call each."""
    for left in range(count, 0, -_BLOCK):
        yield gen.outputs(min(left, _BLOCK))


def emit_stream(gen: Generator, spec: StreamSpec, out: BinaryIO) -> int:
    """Write ``spec.count`` outputs to ``out``; returns bytes written.

    Outputs are asked for and written in blocks of at most ``_BLOCK``, one
    write a block; a block with an output too wide is not written.  A full
    block ends on a byte boundary, since ``_BLOCK`` is a multiple of 8, so
    only the last block is zero-padded.  Outputs of whole bytes are joined
    as bytes; others are packed into one integer."""
    bits = spec.bits_per_output
    limit = 1 << bits
    written = 0
    for values in blocks(gen, spec.count):
        if max(values) >= limit:
            value = next(v for v in values if v >= limit)
            raise ValueError(
                f"output {value} does not fit in {bits} bits")
        if bits % 8:
            packed = 0
            for value in values:
                packed = (packed << bits) | value
            pad = -len(values) * bits % 8
            block = (packed << pad).to_bytes((len(values) * bits + pad) // 8, "big")
        else:
            block = b"".join(map(int.to_bytes, values, repeat(bits // 8), repeat("big")))
        out.write(block)
        written += len(block)
    return written
