"""Metric kernels for the four model spaces.

Every function is a pure map on immutable values; mixing points from
different models raises UsageError.  The tree model is vertex granular, so
its geodesic parameters must be integers.
"""

from __future__ import annotations

import math

from .errors import UsageError
from .models import (
    KERNELS,
    TOLERANCE,
    BoundaryPoint,
    Model,
    Point,
    same_model,
)


def model_basepoint(model: Model) -> Point:
    return Point(model, KERNELS[model].BASEPOINT)


def distance(p: Point, q: Point) -> float:
    model = same_model(p, q)
    return float(KERNELS[model].dist(p.data, q.data))


def geodesic_point(p: Point, q: Point, t: float) -> Point:
    """Point at arclength t from p on the unique geodesic [p, q]: the point
    at t on the ray from p through q, whose first d(p, q) are [p, q]."""
    d = distance(p, q)
    if t < -TOLERANCE or t > d + TOLERANCE:
        raise UsageError(f"parameter {t} outside [0, {d}]")
    t = min(max(t, 0.0), d)
    if t == 0.0 or d <= TOLERANCE:
        return p
    return ray_point(p, direction(p, q), t)


def ray_point(x: Point, xi: BoundaryPoint, t: float) -> Point:
    """Point at arclength t >= 0 on the ray from x in the class of xi."""
    model = same_model(x, xi)
    if t < 0:
        raise UsageError("ray parameter must be nonnegative")
    return Point(model, KERNELS[model].ray_point(x.data, xi.data, t))


def angle_of_sides(a: float, b: float, c: float) -> float:
    """Angle between the sides a and b of a Euclidean triangle with third
    side c."""
    if a <= TOLERANCE or b <= TOLERANCE:
        raise UsageError("comparison angle needs both sides nondegenerate")
    cosv = (a * a + b * b - c * c) / (2.0 * a * b)
    return math.acos(max(-1.0, min(1.0, cosv)))


def direction(x: Point, y: Point) -> BoundaryPoint:
    """Boundary coordinate of the ray from x through y, two points that
    `points_equal` calls distinct."""
    kernel = KERNELS[same_model(x, y)]
    if kernel.dist(x.data, y.data) <= TOLERANCE:
        raise UsageError("direction needs two distinct points")
    return BoundaryPoint(x.model, kernel.direction(x.data, y.data))
