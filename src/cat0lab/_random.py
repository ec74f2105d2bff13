"""The random streams of every sampler.

`generator(seed_or_rng)` is a fresh Generator for an int seed, else the
given Generator.

`uniform(rng, lo, hi)` is numpy's own formula for `rng.uniform(lo, hi)`:
lo + (hi - lo) * u, with u the one double of `rng.random()`.  It consumes
the same double and gives the same bits, without the argument handling that
makes `Generator.uniform` cost about three times as much per scalar draw.
The identity assumes numpy computes low + range * u without FMA contraction.
"""

import numpy as np


def generator(seed_or_rng):
    if isinstance(seed_or_rng, (int, np.integer)):
        return np.random.default_rng(int(seed_or_rng))
    return seed_or_rng


def uniform(rng, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()
