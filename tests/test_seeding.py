"""The policy word stream: ``rng.integers(0, n)`` draw for draw from raw batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrel.seeding import BATCH, bounded_draws

# 1 draws nothing; at 2**31 + 1 about half of all draws are rejected and
# redrawn, at 3 * 2**30 a quarter; 2**32 takes a bare 32-bit half
BOUNDS = (1, 2, 3, 10, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


def twins(seed, buffered):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # leaves the high half of a word buffered in the generator
        assert rng.integers(0, 3) == twin.integers(0, 3)
    return rng, twin


class TestPolicyStream:
    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**64 - 1),
        buffered=st.booleans(),
        picks=st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=1200),
    )
    def test_matches_integers_on_a_twin(self, seed, buffered, picks):
        rng, twin = twins(seed, buffered)
        below = bounded_draws(rng)
        got = [below(n) for n in picks]
        assert got == [int(twin.integers(0, n)) for n in picks]

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("buffered", [False, True])
    def test_long_runs_cross_batches(self, bound, buffered):
        # several read-ahead batches of one bound, rejections included
        rng, twin = twins(1234, buffered)
        below = bounded_draws(rng)
        count = 3 * 2 * BATCH + 1
        assert [below(bound) for _ in range(count)] == [
            int(twin.integers(0, bound)) for _ in range(count)]

    def test_reads_nothing_until_a_draw_needs_it(self):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        below = bounded_draws(rng)
        assert below(1) == 0
        assert rng.bit_generator.state == before
        below(5)
        assert rng.bit_generator.state != before


class TestBoundedDraws:
    @pytest.mark.parametrize("bits", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
        # draws native 32-bit words, so it keeps numpy's own call
        np.random.MT19937,
    ])
    def test_every_bit_generator_draws_as_integers(self, bits):
        below = bounded_draws(np.random.Generator(bits(99)))
        twin = np.random.Generator(bits(99))
        picks = [BOUNDS[i % len(BOUNDS)] for i in range(2000)]
        assert [below(n) for n in picks] == [int(twin.integers(0, n)) for n in picks]
