"""Seeded random generators for points and isometries, used by the cocycle
experiment and the property-based checks."""

from __future__ import annotations

import numpy as np

from .models import KERNELS, Isometry, Model, Point


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, (int, np.integer)):
        return np.random.default_rng(int(seed_or_rng))
    return seed_or_rng


def random_point(model: Model, rng) -> Point:
    return Point(model, KERNELS[model].random_point(_rng(rng)))


def random_isometry(model: Model, rng) -> Isometry:
    return Isometry(model, KERNELS[model].random_isometry(_rng(rng)))


def random_axial(model: Model, rng) -> Isometry:
    return Isometry(model, KERNELS[model].random_axial(_rng(rng)))
