"""The uniform draw of every sampler.

`uniform(rng, lo, hi)` is numpy's own formula for `rng.uniform(lo, hi)`:
lo + (hi - lo) * u, with u the one double of `rng.random()`.  It consumes
the same double and gives the same bits, without the argument handling that
makes `Generator.uniform` cost about three times as much per scalar draw.
The identity assumes numpy computes low + range * u without FMA contraction.
"""


def uniform(rng, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()
