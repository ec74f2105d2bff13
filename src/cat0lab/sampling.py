"""Seeded random generators for tagged points and isometries, used by the
property-based checks."""

from __future__ import annotations

from ._random import generator
from .models import KERNELS, Isometry, Model, Point


def random_point(model: Model, rng) -> Point:
    return Point(model, KERNELS[model].random_point(generator(rng)))


def random_isometry(model: Model, rng) -> Isometry:
    return Isometry(model, KERNELS[model].random_isometry(generator(rng)))
