"""The policy word stream: ``integers(0, 2**32, dtype=np.uint32)`` word for word from raw batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrel.seeding import BATCH, uint32s

BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937)

# 1 draws nothing; at 2**31 + 1 about half of all draws are rejected and
# redrawn, at 3 * 2**30 a quarter; 2**32 takes a bare 32-bit word
BOUNDS = (1, 2, 3, 10, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)

LONG_RUN = 3 * 2 * BATCH + 1  # several read-ahead batches of 64-bit words


def lemire(next_uint32, n):
    """``integers(0, n)`` for ``1 <= n <= 2**32``, as numpy draws it from 32-bit words
    (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS 2019)."""
    if n == 1:
        return 0  # numpy draws nothing for a one-value range
    m = next_uint32() * n
    if m % 2**32 < n:
        threshold = (2**32 - n) % n
        while m % 2**32 < threshold:
            m = next_uint32() * n
    return m // 2**32


def twins(bits, seed, buffered):
    rng, twin = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
    if buffered:  # a 64-bit generator keeps the high half of a word buffered
        assert rng.integers(0, 3) == twin.integers(0, 3)
    return rng, twin


def words(twin, count):
    return [int(twin.integers(0, 2**32, dtype=np.uint32)) for _ in range(count)]


class TestUint32s:
    @pytest.mark.parametrize("bits", BIT_GENERATORS)
    @pytest.mark.parametrize("buffered", [False, True])
    def test_every_bit_generator_matches_uint32_integers(self, bits, buffered):
        rng, twin = twins(bits, 99, buffered)
        next_uint32 = uint32s(rng)
        assert [next_uint32() for _ in range(LONG_RUN)] == words(twin, LONG_RUN)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**64 - 1), buffered=st.booleans(),
           count=st.integers(1, 2 * BATCH + 3))
    def test_matches_uint32_integers_on_a_twin(self, seed, buffered, count):
        rng, twin = twins(np.random.PCG64, seed, buffered)
        next_uint32 = uint32s(rng)
        assert [next_uint32() for _ in range(count)] == words(twin, count)


class TestPolicyStream:
    """The sampling policies draw ``integers(0, n)`` by Lemire's method on ``uint32s``."""

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**64 - 1),
        buffered=st.booleans(),
        picks=st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=1200),
    )
    def test_matches_integers_on_a_twin(self, seed, buffered, picks):
        rng, twin = twins(np.random.PCG64, seed, buffered)
        next_uint32 = uint32s(rng)
        got = [lemire(next_uint32, n) for n in picks]
        assert got == [int(twin.integers(0, n)) for n in picks]

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("buffered", [False, True])
    def test_long_runs_cross_batches(self, bound, buffered):
        # several read-ahead batches of one bound, rejections included
        rng, twin = twins(np.random.PCG64, 1234, buffered)
        next_uint32 = uint32s(rng)
        assert [lemire(next_uint32, bound) for _ in range(LONG_RUN)] == [
            int(twin.integers(0, bound)) for _ in range(LONG_RUN)]

    def test_reads_nothing_until_a_draw_needs_it(self):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        next_uint32 = uint32s(rng)
        assert rng.bit_generator.state == before
        next_uint32()
        assert rng.bit_generator.state != before

    @pytest.mark.parametrize("bits", BIT_GENERATORS)
    def test_every_bit_generator_draws_as_integers(self, bits):
        next_uint32 = uint32s(np.random.Generator(bits(99)))
        twin = np.random.Generator(bits(99))
        picks = [BOUNDS[i % len(BOUNDS)] for i in range(2000)]
        assert [lemire(next_uint32, n) for n in picks] == [int(twin.integers(0, n)) for n in picks]
