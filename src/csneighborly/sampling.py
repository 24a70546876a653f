"""Deterministic pseudorandom sampling.

All sampled verification passes draw from SplitMix64, a tiny documented
generator, so a (seed, parameters) pair reproduces the exact same sample on
any platform and Python version.  Bounded draws use plain modulo reduction;
the negligible bias is irrelevant for verification sampling and keeps the
reduction trivially reproducible.  ``draws`` is the one place a sweep's
generator is made: each sweep derives its seed word from the user's seed
and the sweep's shape, and reads its draws in generator order.
"""

from __future__ import annotations

from itertools import repeat

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: state += 0x9E3779B97F4A7C15; output = mix(state)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from range(n) via modulo reduction."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n


def draws(word: int, bounds: tuple, count: int):
    """count draws, with replacement, from SplitMix64(word): each a tuple
    with one value from range(b) for each bound b.  zip takes its values
    left to right, so they come in generator order, bound by bound."""
    below = SplitMix64(word).below
    return zip(*(map(below, repeat(bound, count)) for bound in bounds))


def block_sample_seed(seed: int, d: int, k: int, l: int) -> int:
    """Per-block derived seed: seed*2^24 + d*2^12 + k*2^6 + l."""
    return (seed << 24) + (d << 12) + (k << 6) + l
