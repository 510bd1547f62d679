"""SplitMix64's reference points: the seed-0 draws the module docstring and
the README cite, ``derive_seed`` as a draw of the master stream,
``randbelow``'s rejection on both sides of its precomputed limit table, on
real streams whose first draw is placed through ``unmix64``, and ``take``
as that many ``next_u64`` calls."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazekit import rng
from mazekit.rng import GOLDEN_GAMMA, MASK64, SplitMix64, derive_seed, mix64
from reference import CountingRng, reference_randbelow, unmix64


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


@given(st.integers(0, MASK64))
def test_unmix64_inverts_mix64(x):
    assert unmix64(mix64(x)) == x
    assert mix64(unmix64(x)) == x


def seed_whose_first_draw_is(value: int) -> int:
    return (unmix64(value) - GOLDEN_GAMMA) & MASK64


@given(st.integers(0, MASK64), st.lists(st.sampled_from(["next_u64", "randbelow"]), max_size=20))
def test_counting_rng_counts_every_draw(seed, calls):
    stream = CountingRng(seed)
    for call in calls:
        stream.next_u64() if call == "next_u64" else stream.randbelow(1)
    assert stream.draws == len(calls)


# (n, its rejection limit): one n from the table, one past it
@pytest.mark.parametrize("n, limit", [(3, 2**64 - 1), (2**63 + 1, 2**63 + 1)])
def test_randbelow_rejects_draws_at_or_above_the_limit(n, limit):
    # a first draw at the limit is rejected: the result is the first accepted
    # draw of the reference stream, and the stream stops where it does
    seed = seed_whose_first_draw_is(limit)
    ref = SplitMix64(seed)
    assert ref.next_u64() == limit
    accepted = next(x for x in iter(ref.next_u64, None) if x < limit)
    stream = CountingRng(seed)
    assert stream.randbelow(n) == accepted % n
    assert stream._state == ref._state
    assert stream.draws >= 2
    # a first draw just below the limit is taken at once
    below = CountingRng(seed_whose_first_draw_is(limit - 1))
    assert below.randbelow(n) == (limit - 1) % n
    assert below.draws == 1


@settings(max_examples=300)
@given(st.integers(0, MASK64), st.integers(1, 300) | st.integers(2**32, 2**64))
def test_randbelow_matches_the_next_u64_loop(seed, n):
    """One draw is one ``GOLDEN_GAMMA`` step and one mix, ``n == 1`` included."""
    stream, ref = SplitMix64(seed), SplitMix64(seed)
    assert stream.randbelow(n) == reference_randbelow(ref, n)
    assert stream._state == ref._state


@pytest.mark.parametrize("n", [0, -1])
def test_randbelow_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="requires n >= 1"):
        SplitMix64(0).randbelow(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MASK64), st.integers(0, 2100))
@example(MASK64, 0)
@example(MASK64, 2100)
@example(0, rng._LANES)
def test_take_matches_next_u64_calls(seed, n):
    """A block of lanes is the next n draws, across block edges too, and moves the state n draws."""
    stream, ref = SplitMix64(seed), SplitMix64(seed)
    assert stream.take(n) == [ref.next_u64() for _ in range(n)]
    assert stream._state == ref._state


def test_take_caches_constants_per_block():
    """A long take is built in blocks of at most ``_LANES`` lanes, so its cached constants never outgrow one block."""
    rng._lanes.cache_clear()
    SplitMix64(0).take(2 * rng._LANES + 52)
    assert rng._lanes.cache_info().currsize == 2
