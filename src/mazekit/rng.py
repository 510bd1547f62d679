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

Reference sequence (seed 0): the first three draws are
0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_SMALL_N = 256
_LIMITS = (0,) + tuple(MASK64 + 1 - ((MASK64 + 1) % n) for n in range(1, _SMALL_N))  # indexed by n


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


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
