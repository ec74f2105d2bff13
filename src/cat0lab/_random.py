"""The random streams of every sampler.

`generator(seed_or_rng)` is a block stream over `np.random.default_rng(seed)`
for a nonnegative int seed, and a Generator (or stream) unchanged, so a caller
that draws from its own Generator between the samplers' draws sees numpy's
sequence; any other seed raises UsageError.  The stream serves each scalar
draw from a block of BLOCK, one numpy call per block: `random()` the doubles
of `Generator.random(BLOCK)`, and `integers(lo, hi)` numpy's own 32-bit
Lemire draw on raw uint32 words: with k = hi - lo in [1, 2**32), a word times
k keeps its high word, a word whose low word is below (2**32 - k) % k is drawn
again, and a k of 1 draws nothing.  Each draw equals, bit for bit, the scalar
call on `default_rng(seed)` while a stream serves one kind of draw (the other
kind's block is taken ahead); no sampler mixes them.

`uniform(rng, lo, hi)` is numpy's own formula for `rng.uniform(lo, hi)`:
lo + (hi - lo) * u, with u the one double of `rng.random()`.  It consumes
the same double and gives the same bits, without the argument handling that
makes `Generator.uniform` cost about three times as much per scalar draw.
The identity assumes numpy computes low + range * u without FMA contraction.
"""

import numpy as np

from .errors import UsageError

# a block of 512 takes about 12 us (doubles) or 20 us (words): its call
# overhead adds a few ns to each draw, and a short stream's one block costs
# about what default_rng does
BLOCK = 512
_WORD = 1 << 32


class _Stream:
    __slots__ = ("_rng", "_doubles", "_words")

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._doubles = self._words = iter(())

    def random(self) -> float:
        for u in self._doubles:
            return u
        self._doubles = iter(self._rng.random(BLOCK).tolist())
        return next(self._doubles)

    def _word(self) -> int:
        for w in self._words:
            return w
        self._words = iter(self._rng.integers(0, _WORD, size=BLOCK, dtype=np.uint32).tolist())
        return next(self._words)

    def integers(self, lo: int, hi: int) -> int:
        k = hi - lo
        if not 1 <= k < _WORD:
            raise UsageError(f"integers draws from a range of 1 to 2**32 - 1 values, not {k}")
        if k == 1:
            return lo
        threshold = (_WORD - k) % k
        m = self._word() * k
        while m & (_WORD - 1) < threshold:
            m = self._word() * k
        return lo + (m >> 32)


def generator(seed_or_rng):
    if isinstance(seed_or_rng, (np.random.Generator, _Stream)):
        return seed_or_rng
    if (isinstance(seed_or_rng, bool) or not isinstance(seed_or_rng, (int, np.integer))
            or seed_or_rng < 0):
        raise UsageError(f"a seed must be a nonnegative integer or a Generator, "
                         f"not {seed_or_rng!r}")
    return _Stream(int(seed_or_rng))


def uniform(rng, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()
