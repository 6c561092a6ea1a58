"""Portable seeded randomness for maze carving and exploration draws.

SplitMix64: the state walks by a fixed odd increment and every output is
finalized with two xor-shift-multiply rounds. Used instead of
``random.Random`` so that a 64-bit seed pins the exact stream in any
language that reimplements these ten lines, keeping generated layouts and
action sequences reproducible across implementations. The maze carver
draws ``randbelow`` inline from a local copy of the state, with these
constants and ``rejection_limit``, so both give one stream.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

INCREMENT = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def rejection_limit(bound: int) -> int:
    """The largest multiple of ``bound`` up to 2**64; ``randbelow`` rejects draws from it on."""
    return (MASK64 + 1) - (MASK64 + 1) % bound


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

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound); rejection-sampled, no modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = rejection_limit(bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound
