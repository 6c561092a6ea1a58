"""Portable seeded randomness for maze carving and exploration draws.

SplitMix64: the state walks by a fixed odd increment and every output is
finalized with two xor-shift-multiply rounds. Used instead of
``random.Random`` so that a 64-bit seed pins the exact stream in any
language that reimplements these ten lines, keeping generated layouts and
action sequences reproducible across implementations. The maze carver
takes its draws from ``SplitMix64.block``, which computes many outputs
with a few operations on big ints, and applies ``randbelow``'s
rejection itself, so both give one stream.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

MASK64 = (1 << 64) - 1

INCREMENT = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# ``block`` works in chunks of this many outputs, one 128-bit lane each,
# so its ints stay at 16 KiB whatever the count, and two constants of this
# size serve every block.
_CHUNK = 1024


@lru_cache(maxsize=1)
def _lane_constants() -> tuple:
    """``(mask, steps)``: lane j - 1 holds 2**64 - 1 and ``j * INCREMENT``, j = 1.._CHUNK."""
    mask = (b"\xff" * 8 + bytes(8)) * _CHUNK
    steps = b"".join((j * INCREMENT).to_bytes(16, "little") for j in range(1, _CHUNK + 1))
    return int.from_bytes(mask, "little"), int.from_bytes(steps, "little")


class SplitMix64:
    """One independent 64-bit stream per instance."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + INCREMENT) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def block(self, count: int) -> array:
        """The next ``count`` outputs of ``next_u64``, computed a chunk at a time.

        Each output of a chunk has its own 128-bit lane of one int: lane
        j - 1 starts as the state ``j`` increments past the chunk's
        first, and every xor-shift and multiply acts on the whole int.
        Each lane is masked back to 64 bits before each multiply, so a
        product fills its lane and never carries into the next one; a
        right shift moves the next lane's low bits only into this lane's
        top half, which the mask clears. The outputs are the low halves
        of the lanes, read back as little-endian bytes on any host.
        Advances ``state`` by ``count``.
        """
        s = self.state
        self.state = (s + count * INCREMENT) & MASK64
        full, steps = _lane_constants()
        lanes = array("Q")
        for start in range(0, count, _CHUNK):
            k = min(_CHUNK, count - start)
            mask = full >> ((_CHUNK - k) << 7)  # k lanes
            base = (s + start * INCREMENT) & MASK64
            z = int.from_bytes((base.to_bytes(8, "little") + bytes(8)) * k, "little")
            z = (z + (steps & mask)) & mask
            z = ((z ^ (z >> 30)) & mask) * MIX1 & mask
            z = ((z ^ (z >> 27)) & mask) * MIX2 & mask
            z ^= z >> 31
            lanes.frombytes(z.to_bytes(k << 4, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes[::2]

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound); rejection-sampled, no modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (MASK64 + 1) - (MASK64 + 1) % bound  # the largest multiple of bound up to 2**64
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound
