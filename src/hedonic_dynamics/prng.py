"""Portable 64-bit PRNG (splitmix64) so seeded runs replay identically everywhere.

The Python stdlib Mersenne Twister would work, but its stream is only stable
as long as every consumer draws in exactly the same pattern; splitmix64 is
tiny, well known, and its raw output is pinned down by published reference
vectors, which makes trace files reproducible across versions and languages.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise ValueError("seed must fit in 64 bits")
        self.state = seed

    def next_raw(self) -> int:
        """Next 64-bit output word."""
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling (no modulo bias).

        ``next_raw`` is inlined with the state in a local: this is the draw
        every generator and seeded policy makes, so the call and attribute
        traffic per draw is worth saving.  The stream is unchanged.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        state = self.state
        while True:
            state = (state + _GAMMA) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                self.state = state
                return z % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.below(den) < num

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates, drawing as ``below(i + 1)`` would."""
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            bound = i + 1
            limit = (1 << 64) - ((1 << 64) % bound)
            while True:
                state = (state + _GAMMA) & _MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                z ^= z >> 31
                if z < limit:
                    break
            j = z % bound
            items[i], items[j] = items[j], items[i]
        self.state = state
