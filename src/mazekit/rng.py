"""Seeded randomness for every stochastic step in the toolkit.

All randomness flows through SplitMix64, a 64-bit mixing generator small
enough to restate in a few lines in any language.  Given the same seed the
stream is identical everywhere, which is what makes generated corpora and
dataset splits byte-reproducible.  A draw adds ``GOLDEN_GAMMA`` to the
64-bit state and returns ``mix64`` of the new state; ``next_u64`` is one
draw.  ``randbelow`` takes its draws itself, in one call, and reads the
rejection limit of a small ``n`` (the carve, endpoint and trace draws) from
``_LIMITS``.  ``randbelow(1)`` still takes one draw, so the stream moves as
it always has, but skips the mix, whose value it would not use.

``take(n)`` makes n draws at once: draw k of seed s is ``mix64(s + k *
GOLDEN_GAMMA)``, so the n states fill the 128-bit lanes of one int and one
``mix64`` mixes them all.  No lane carries into the next: each is masked to
64 bits before each multiply, and a 64x64-bit product is below 2**128.

Reference sequence (seed 0): the first three draws are
0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .core import SHAPE_CACHE

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_SMALL_N = 256
_LIMITS = (0,) + tuple(MASK64 + 1 - ((MASK64 + 1) % n) for n in range(1, _SMALL_N))  # indexed by n
_LANES = 1024  # ``take`` works in blocks of at most this many lanes: 48 KB of constants
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)  # of a lane int's native bytes


def mix64(x: int, mask: int = MASK64) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value, or each 64-bit lane ``mask`` sets."""
    x &= mask
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    return x ^ (x >> 31)


@lru_cache(maxsize=SHAPE_CACHE)
def _lanes(n: int) -> tuple[int, int, int]:
    """n 128-bit lanes holding, in lane k: 1, (k+1) * GOLDEN_GAMMA, and 2**64 - 1."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    return ones, sum((k + 1) * GOLDEN_GAMMA << 128 * k for k in range(n)), ones * MASK64


def derive_seed(master: int, index: int) -> int:
    """Seed for the index-th item of a batch.

    Equals the (index+1)-th draw of a SplitMix64 stream seeded with
    ``master``, so per-item work can run in any order or in parallel
    without changing results.
    """
    return mix64((master + (index + 1) * GOLDEN_GAMMA) & MASK64)


class SplitMix64:
    """Deterministic stream of 64-bit values with small sampling helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        return mix64(self._state)

    def take(self, n: int) -> list[int]:
        """The next n draws, as n ``next_u64`` calls would return them."""
        draws = []
        for start in range(0, n, _LANES):
            size = min(_LANES, n - start)
            ones, ramp, masks = _lanes(size)
            lanes = mix64((self._state + start * GOLDEN_GAMMA) * ones + ramp, masks)
            draws += memoryview(lanes.to_bytes(16 * size, sys.byteorder)).cast("Q")[_LOW_WORDS].tolist()
        self._state = (self._state + n * GOLDEN_GAMMA) & MASK64
        return draws

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection sampling kills modulo bias.

        Draws the way ``next_u64`` does, without the call.  ``n == 1`` takes
        one draw unmixed: its limit is 2**64, so no draw is rejected, and
        every draw is 0 mod 1.
        """
        if n < 2:
            if n < 1:
                raise ValueError("randbelow() requires n >= 1")
            self._state = (self._state + GOLDEN_GAMMA) & MASK64
            return 0
        limit = _LIMITS[n] if n < _SMALL_N else MASK64 + 1 - ((MASK64 + 1) % n)
        state = self._state
        while True:
            state = (state + GOLDEN_GAMMA) & MASK64
            x = mix64(state)
            if x < limit:
                self._state = state
                return x % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() on empty sequence")
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating from the last index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
