"""Boundary machinery: horofunctions, angles at infinity, Tits distances,
the visual metric over all pairs of a point set (`boundary_distances`,
which charts each point once), and seeded boundary samples.

Closed forms are implemented per model; the horofunction limit oracle
recomputes the defining limit directly (in multiprecision arithmetic for
the hyperbolic factors, where desk-scale parameters leave the float64
exponent range) and is kept independent of the closed forms it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import angle_of_sides
from .models import (
    KERNELS,
    BoundaryPoint,
    Model,
    Point,
    same_model,
    tolerance,
)


def horofunction(xi: BoundaryPoint, x: Point, z: Point) -> float:
    """Busemann function of xi normalised to vanish at the basepoint x."""
    model = same_model(xi, x, z)
    return float(KERNELS[model].horofunction(xi.data, x.data, z.data))


def horofunction_limit_oracle(xi: BoundaryPoint, x: Point, z: Point, t: float) -> float:
    """d(ray(t), z) - t along the ray from x toward xi; converges to the
    horofunction as t grows.  Used as the independent check of the closed
    forms above."""
    model = same_model(xi, x, z)
    if t < 0:
        raise UsageError("ray parameter must be nonnegative")
    return KERNELS[model].busemann_limit(xi.data, x.data, z.data, t)


DEFAULT_T_GRID = tuple(float(2 ** k) for k in range(0, 9))


@dataclass(frozen=True)
class AngleLimit:
    value: float
    monotone_defect: float
    grid: tuple
    values: tuple


def angles_at_infinity(x: Point, points) -> list[AngleLimit]:
    """`angle_at_infinity` at x for the pairs points[i], points[j], i < j, in
    row order (the condensed triangle of `boundary_distances`).  Each point's
    ray point and its distance to x are taken once per grid radius, and each
    pair's comparison angle is read from those values."""
    kernel = KERNELS[same_model(x, *points)]
    dist, tol = kernel.dist, tolerance()
    charts = []
    for b in points:
        rays = [kernel.ray_point(x.data, b.data, t) for t in DEFAULT_T_GRID]
        charts.append([(p, float(dist(x.data, p))) for p in rays])
    out = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if kernel.boundary_eq(points[i].data, points[j].data, tol):
                out.append(AngleLimit(0.0, 0.0, (), ()))
                continue
            vals = [angle_of_sides(a, b, float(dist(p, q)))
                    for (p, a), (q, b) in zip(charts[i], charts[j])]
            defect = 0.0
            for a, b in zip(vals, vals[1:]):
                defect = max(defect, a - b)
            out.append(AngleLimit(vals[-1], defect, DEFAULT_T_GRID, tuple(vals)))
    return out


def angle_at_infinity(x: Point, xi: BoundaryPoint, eta: BoundaryPoint) -> AngleLimit:
    """Angle at x between two boundary points, via comparison angles of ray
    points on an increasing grid; the limit value is the last grid value and
    the report carries the worst monotonicity violation.  The one pair case
    of `angles_at_infinity`."""
    return angles_at_infinity(x, [xi, eta])[0]


def tits_distance(xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """Closed-form Tits (length-metric) distance between boundary points;
    +inf between distinct ends of the visibility models."""
    model = same_model(xi, eta)
    return KERNELS[model].tits(xi.data, eta.data, tolerance())


def tits_ball_is_trivial(xi: BoundaryPoint) -> bool:
    """True when the closed Tits ball of radius pi around xi is just {xi}."""
    return KERNELS[xi.model].TITS_BALL_TRIVIAL


def boundary_distances(x: Point, points, others=None, r0: float = 1.0) -> list:
    """Visual distances at x between boundary points, each charted once:
    with `others` None, d(points[i], points[j]) for i < j in row order (the
    condensed triangle of scipy's `pdist`), otherwise the rows
    [d(p, q) for q in others] for p in points (as `cdist`).

    Continuous models take the chordal distance between ray points at
    radius r0.  The tree takes exp(-(xi|eta)_x); the chordal construction is
    not separating there because projections are vertex granular.
    """
    model = same_model(x, *points, *(others or ()))
    if r0 < 0:
        raise UsageError("ray parameter must be nonnegative")
    kernel = KERNELS[model]
    dist = kernel.chart_dist
    charts = [kernel.boundary_chart(x.data, b.data, r0) for b in points]
    if others is None:
        return [dist(p, q) for i, p in enumerate(charts) for q in charts[i + 1:]]
    other_charts = [kernel.boundary_chart(x.data, b.data, r0) for b in others]
    return [[dist(p, q) for q in other_charts] for p in charts]


def boundary_metric(x: Point, xi: BoundaryPoint, eta: BoundaryPoint,
                    r0: float = 1.0) -> float:
    """A metric on the boundary compatible with the visual topology: the one
    pair case of `boundary_distances`."""
    return boundary_distances(x, [xi], [eta], r0)[0][0]


def sample_boundary(model: Model, count: int, rng) -> list[BoundaryPoint]:
    """Seeded sample of boundary points, spread across each model's boundary."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    kernel = KERNELS[model]
    return [BoundaryPoint(model, kernel.random_boundary(rng, tolerance()))
            for _ in range(count)]
