"""SplitMix64's reference points: the seed-0 draws the module docstring and
the README cite, ``derive_seed`` as a draw of the master stream, and
``randbelow``'s rejection on both sides of its precomputed limit table."""

import pytest

from mazekit import rng
from mazekit.rng import SplitMix64, derive_seed


def test_seed_zero_reference_draws():
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("master", [0, 1, 7, 0xC0FFEE, 2**64 - 1])
def test_derive_seed_is_a_draw_of_the_master_stream(master):
    stream = SplitMix64(master)
    assert [stream.next_u64() for _ in range(40)] == [derive_seed(master, i) for i in range(40)]


def test_limit_table_is_the_largest_multiple_of_n():
    for n in range(1, rng._SMALL_N):
        assert rng._LIMITS[n] == 2**64 - 2**64 % n


class StubRng(SplitMix64):
    """Hands out fixed draws and counts them."""

    __slots__ = ("draws", "values")

    def __init__(self, values) -> None:
        super().__init__(0)
        self.values, self.draws = list(values), 0

    def next_u64(self) -> int:
        self.draws += 1
        return self.values.pop(0)


# (n, its rejection limit): one n from the table, one past it
@pytest.mark.parametrize("n, limit", [(3, 2**64 - 1), (2**63 + 1, 2**63 + 1)])
def test_randbelow_rejects_draws_at_or_above_the_limit(n, limit):
    second = limit - 1  # the largest accepted draw
    stub = StubRng([limit, second, 0])
    assert stub.randbelow(n) == second % n
    assert stub.draws == 2


@pytest.mark.parametrize("n", [0, -1])
def test_randbelow_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="requires n >= 1"):
        SplitMix64(0).randbelow(n)
