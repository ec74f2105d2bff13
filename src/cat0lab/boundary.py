"""Boundary machinery: horofunctions, angles at infinity, Tits distances,
the visual metric over all pairs of a point set (`boundary_distances`,
which charts each point once), and seeded boundary samples.

Closed forms are implemented per model; the horofunction limit oracle
recomputes the defining limit directly (in multiprecision arithmetic for
the hyperbolic factors, where desk-scale parameters leave the float64
exponent range) and is kept independent of the closed forms it checks.
"""

from __future__ import annotations

from ._random import generator
from .errors import UsageError
from .geometry import angle_of_sides
from .models import (
    KERNELS,
    TOLERANCE,
    BoundaryPoint,
    Model,
    Point,
    same_model,
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


# The comparison angle at x of two ray points at radius t does not decrease
# in t and tends to the angle at infinity; this radius stands for the limit.
ANGLE_RADIUS = 2.0 ** 8
CHART_RADIUS = 1.0  # where the continuous models chart the visual metric


def angles_at_infinity(x: Point, points) -> list[float]:
    """`angle_at_infinity` at x for the pairs points[i], points[j], i < j, in
    row order (the condensed triangle of `boundary_distances`).  Each point's
    ray point at `ANGLE_RADIUS` and its distance to x are taken once, and each
    pair's comparison angle is read from those values; equal points are at
    angle 0."""
    kernel = KERNELS[same_model(x, *points)]
    dist = kernel.dist
    rays = [kernel.ray_point(x.data, b.data, ANGLE_RADIUS) for b in points]
    sides = [float(dist(x.data, p)) for p in rays]
    return [0.0 if kernel.boundary_eq(points[i].data, points[j].data, TOLERANCE)
            else angle_of_sides(sides[i], sides[j], float(dist(rays[i], rays[j])))
            for i in range(len(points)) for j in range(i + 1, len(points))]


def angle_at_infinity(x: Point, xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """Angle at x between two boundary points: the comparison angle of their
    ray points at radius `ANGLE_RADIUS`.  The one pair case of
    `angles_at_infinity`."""
    return angles_at_infinity(x, [xi, eta])[0]


def tits_distance(xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """Closed-form Tits (length-metric) distance between boundary points;
    +inf between distinct ends of the visibility models."""
    model = same_model(xi, eta)
    return KERNELS[model].tits(xi.data, eta.data, TOLERANCE)


def tits_ball_is_trivial(xi: BoundaryPoint) -> bool:
    """True when the closed Tits ball of radius pi around xi is just {xi}."""
    return KERNELS[xi.model].TITS_BALL_TRIVIAL


def boundary_distances(x: Point, points, others=None) -> list:
    """Visual distances at x between boundary points, each charted once:
    with `others` None, d(points[i], points[j]) for i < j in row order (the
    condensed triangle of scipy's `pdist`), otherwise the rows
    [d(p, q) for q in others] for p in points (as `cdist`).

    Continuous models take the chordal distance between ray points at
    radius `CHART_RADIUS`.  The tree takes exp(-(xi|eta)_x); the chordal construction is
    not separating there because projections are vertex granular.
    """
    kernel = KERNELS[same_model(x, *points, *(others or ()))]
    dist = kernel.chart_dist
    charts = [kernel.boundary_chart(x.data, b.data, CHART_RADIUS) for b in points]
    if others is None:
        return [dist(p, q) for i, p in enumerate(charts) for q in charts[i + 1:]]
    other_charts = [kernel.boundary_chart(x.data, b.data, CHART_RADIUS) for b in others]
    return [[dist(p, q) for q in other_charts] for p in charts]


def boundary_metric(x: Point, xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """A metric on the boundary compatible with the visual topology: the one
    pair case of `boundary_distances`."""
    return boundary_distances(x, [xi], [eta])[0][0]


def sample_boundary(model: Model, count: int, rng) -> list[BoundaryPoint]:
    """Seeded sample of boundary points, spread across each model's boundary."""
    rng = generator(rng)
    kernel = KERNELS[model]
    return [BoundaryPoint(model, kernel.random_boundary(rng)) for _ in range(count)]


def sample_boundary_away(x: Point, avoid: BoundaryPoint, min_dist: float, count: int,
                         rng) -> list[BoundaryPoint]:
    """The first `count` points of the seeded boundary sample at visual
    distance >= min_dist from `avoid` at x, drawn `count` at a time, or
    UsageError when 200 * count draws do not hold them."""
    rng = generator(rng)
    pts: list[BoundaryPoint] = []
    for _ in range(200):
        batch = sample_boundary(avoid.model, count, rng)
        pts += [b for b, (d,) in zip(batch, boundary_distances(x, batch, [avoid]))
                if d >= min_dist]
        if len(pts) >= count:
            return pts[:count]
    raise UsageError(f"could not sample {count} boundary points away from {avoid.data}")
