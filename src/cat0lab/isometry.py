"""Isometries of the model spaces: group operations, classification,
axes, the rank-one predicate, North-South contraction constants, and the
shell independence score, which the rank-one audit does not read (it
decides independence exactly, through the kernels' `independent`)."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, UsageError
from .models import (
    KERNELS,
    TOLERANCE,
    BoundaryPoint,
    Isometry,
    Point,
    same_model,
)
from .geometry import distance, model_basepoint

KIND_AXIAL = "axial"


class IsometryClass(NamedTuple):
    kind: str
    translation_length: float


class NorthSouthResult(NamedTuple):
    k0: int
    attained: bool
    cap: int
    samples: int
    max_gaps: tuple  # largest distance to g+ at each power 1..k0


def apply(g: Isometry, p: Point) -> Point:
    model = same_model(g, p)
    return Point(model, KERNELS[model].apply(g.data, p.data))


def apply_boundary(g: Isometry, xi: BoundaryPoint) -> BoundaryPoint:
    model = same_model(g, xi)
    return BoundaryPoint(model, KERNELS[model].apply_boundary(g.data, xi.data))


def compose(g: Isometry, h: Isometry) -> Isometry:
    model = same_model(g, h)
    return Isometry(model, KERNELS[model].compose(g.data, h.data))


def inverse(g: Isometry) -> Isometry:
    return Isometry(g.model, KERNELS[g.model].inverse(g.data))


def power(g: Isometry, k: int) -> Isometry:
    from .models import identity

    if k < 0:
        return power(inverse(g), -k)
    out = identity(g.model)
    for _ in range(k):
        out = compose(out, g)
    return out


def classify(g: Isometry) -> IsometryClass:
    return IsometryClass(*KERNELS[g.model].classify(g.data, TOLERANCE))


def _require_axial(g: Isometry) -> IsometryClass:
    cls = classify(g)
    if cls.kind != KIND_AXIAL:
        raise DomainError(f"operation needs an axial isometry, got {cls.kind}")
    return cls


def axis_endpoints(g: Isometry) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Repelling and attracting boundary fixed points (g-, g+) of an axial g."""
    _require_axial(g)
    minus, plus = KERNELS[g.model].axis_endpoints(g.data, TOLERANCE)
    return BoundaryPoint(g.model, minus), BoundaryPoint(g.model, plus)


def is_rank_one(g: Isometry) -> bool:
    """True when some (hence any) axis of g bounds no flat half-plane.

    Closed forms per model: hyperbolic-plane and tree axes are always
    contracting; every Euclidean line and every product axis lies in a flat
    plane, so those are never rank one.
    """
    return classify(g).kind == KIND_AXIAL and KERNELS[g.model].RANK_ONE


def independence_score(g1: Isometry, g2: Isometry, x: Point, big_m: int) -> float:
    """min d(g1^m x, g2^n x) over nonzero exponents with max(|m|, |n|) =
    big_m, which grows with big_m exactly when the pair acts properly (the
    two axes are genuinely independent)."""
    _require_axial(g1)
    _require_axial(g2)
    same_model(g1, g2, x)
    if big_m < 1:
        raise UsageError("exponent bound must be at least 1")
    orbit1 = {m: apply(power(g1, m), x) for m in range(-big_m, big_m + 1) if m != 0}
    orbit2 = {n: apply(power(g2, n), x) for n in range(-big_m, big_m + 1) if n != 0}
    best = math.inf
    for m, pm in orbit1.items():
        for n, pn in orbit2.items():
            if max(abs(m), abs(n)) == big_m:
                best = min(best, distance(pm, pn))
    return best


def north_south_constant(g: Isometry, eps_plus: float, eps_minus: float,
                         samples: int, seed: int, cap: int = 10 ** 6) -> NorthSouthResult:
    """Smallest power k such that every sampled boundary point at visual
    distance >= eps_minus from g- lands within eps_plus of g+ under g^k,
    with the largest visual distance to g+ at each power up to k.  Visual
    distances are taken at the model basepoint."""
    from .boundary import boundary_distances, sample_boundary_away

    if not is_rank_one(g):
        raise DomainError("North-South contraction needs a rank one isometry")
    gm, gp = axis_endpoints(g)
    x0 = model_basepoint(g.model)
    current = sample_boundary_away(x0, gm, eps_minus, samples, seed)
    max_gaps = []
    for k in range(1, cap + 1):
        current = [apply_boundary(g, b) for b in current]
        gaps = [row[0] for row in boundary_distances(x0, current, [gp])]
        max_gaps.append(max(gaps, default=0.0))
        if all(d < eps_plus for d in gaps):
            return NorthSouthResult(k0=k, attained=True, cap=cap, samples=samples,
                                    max_gaps=tuple(max_gaps))
    return NorthSouthResult(k0=cap, attained=False, cap=cap, samples=samples,
                            max_gaps=tuple(max_gaps))
