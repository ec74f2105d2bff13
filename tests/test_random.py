"""The samplers' streams: a seeded stream serves, from numpy blocks, the
values that scalar calls on `default_rng(seed)` return; a caller's Generator
passes through; a seed that is not a nonnegative integer is refused."""

import numpy as np
import pytest

from cat0lab import Model, UsageError, sample_boundary
from cat0lab._random import BLOCK, generator

# 56 small seeds and 4 large ones, up to the largest a config may give
SEEDS = [*range(56), 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 63 - 1]
# past three block boundaries of the stream
DRAWS = 3 * BLOCK + 17


def test_stream_doubles_are_the_scalar_random_calls():
    for seed in SEEDS:
        stream, ref = generator(seed), np.random.default_rng(seed)
        assert [stream.random() for _ in range(DRAWS)] == [ref.random() for _ in range(DRAWS)]


def _assert_integers_match(ranges, draws):
    for seed in SEEDS:
        stream, ref = generator(seed), np.random.default_rng(seed)
        for i in range(draws):
            lo, hi = ranges[i % len(ranges)]
            assert stream.integers(lo, hi) == ref.integers(lo, hi), (seed, i, lo, hi)


def test_stream_integers_are_the_scalar_integers_calls_over_mixed_ranges():
    # k = 1 draws nothing, in numpy and in the stream alike
    _assert_integers_match([(0, 3), (4, 8), (0, 1), (1, 7), (-3, 5), (7, 8), (0, 6)], DRAWS)


def test_stream_integers_redraw_as_numpy_does_on_wide_ranges():
    # numpy's Lemire draw rejects a word whose low word falls below
    # (2**32 - k) % k: about half of them at k = 2**31 + 1, a quarter at
    # k = 3 * 2**30, so the redraw runs many times per block
    _assert_integers_match([(0, 2 ** 31 + 1), (5, 5 + 3 * 2 ** 30)], BLOCK + 17)


def test_a_generator_or_a_stream_passes_through():
    rng = np.random.default_rng(3)
    assert generator(rng) is rng
    stream = generator(3)
    assert generator(stream) is stream


@pytest.mark.parametrize("lo, hi", [(3, 3), (5, 2), (0, 2 ** 32), (-1, 2 ** 32)],
                         ids=["empty", "reversed", "2**32", "above-2**32"])
def test_stream_integers_reject_ranges_outside_one_word(lo, hi):
    with pytest.raises(UsageError):
        generator(1).integers(lo, hi)


@pytest.mark.parametrize("seed", [True, 1.0, "1", None, -1],
                         ids=["bool", "float", "string", "none", "negative"])
def test_samplers_reject_a_seed_that_is_no_nonnegative_integer(seed):
    # the parent sampled True as seed 1, failed a float, a string and None
    # with an AttributeError from inside the kernel, and -1 with numpy's
    # ValueError
    with pytest.raises(UsageError):
        sample_boundary(Model.H2, 2, seed)
