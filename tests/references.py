"""References the tests check the package against; no experiment calls them.

* `project_to_ball`, the closest-point projection onto a ball: it is
  1-Lipschitz in a CAT(0) space.
* `comparison_angle`, the angle of the Euclidean comparison triangle: it
  grows along geodesics in a CAT(0) space.
* `commutator_trace`, tr(g h g^-1 h^-1) of two H2 matrices in exact
  rationals: two axial g and h share a fixed point at infinity exactly
  when it is 2.
* `cylinder_words`, the reduced words of one length in the order of the
  T4 hitting bins, listed by filtering all words rather than by the
  kernel's mixed-radix digits.
* `reference_ray_gaps`, the tracking gaps of `_h2.mp_ray_gaps` computed
  the long way: the product in mpmath, the digits from a dense float
  re-walk, and the ray points from their circle parameters.
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp

from cat0lab import BoundaryPoint, UsageError, _h2, distance, geodesic_point, ray_point
from cat0lab.geometry import angle_of_sides
from cat0lab.models import same_model


def project_to_ball(center, r: float, target):
    """Closest-point projection onto the closed ball B(center, r), extended
    to boundary points by evaluating the ray from the center at radius r."""
    if not r > 0:
        raise UsageError("ball radius must be positive")
    if isinstance(target, BoundaryPoint):
        same_model(center, target)
        return ray_point(center, target, r)
    if distance(center, target) <= r:
        return target
    return geodesic_point(center, target, r)


def comparison_angle(x, y, z) -> float:
    """Angle at x of the Euclidean comparison triangle for (x, y, z)."""
    same_model(x, y, z)
    return angle_of_sides(distance(x, y), distance(x, z), distance(y, z))


def commutator_trace(g, h) -> Fraction:
    """tr(g h g^-1 h^-1) of two H2 matrix payloads, in exact rationals."""
    def mul(m, n):
        return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
                m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])

    def inv(m):
        det = m[0] * m[3] - m[1] * m[2]
        return (m[3] / det, -m[1] / det, -m[2] / det, m[0] / det)

    g, h = (tuple(map(Fraction, m)) for m in (g, h))
    c = mul(mul(g, h), mul(inv(g), inv(h)))
    return c[0] + c[3]


@functools.cache
def cylinder_words(length: int) -> list[str]:
    """The reduced words of a length over "aAbB", in the order of the T4
    hitting bins: lexicographic, with the letters ranked a < A < b < B."""
    words = ("".join(w) for w in itertools.product("aAbB", repeat=length))
    return [w for w in words if not any(p in w for p in ("aA", "Aa", "bB", "Bb"))]


def _mp_at(p, q):
    """Whether p and q agree to 1e-30 of their size in each coordinate: the
    rounding of a product back at the identity leaves its image this close."""
    return all(abs(u - v) <= mp.mpf("1e-30") * (1 + abs(u) + abs(v)) for u, v in zip(p, q))


def _mp_direction(xr, xim, yr, yi):
    """Boundary endpoint (mpf, or float inf) of the ray from x through y; a
    y at x, which gives no direction, takes the downward ray."""
    if abs(yr - xr) <= mp.mpf("1e-30") * (1 + abs(xr) + abs(yr)):
        return math.inf if yi > xim and not _mp_at((yr, yi), (xr, xim)) else xr
    c = (xr * xr + xim * xim - yr * yr - yi * yi) / (2 * (xr - yr))
    r = mp.sqrt((xr - c) ** 2 + xim * xim)

    def arc(zr, zi):
        dx = zr - c
        rho = mp.sqrt(dx * dx + zi * zi)
        return zi / (rho + dx) if dx >= 0 else (rho - dx) / zi

    return c - r if arc(yr, yi) > arc(xr, xim) else c + r


def reference_ray_gaps(mats, increments, x: complex, lam: float, steps, rise: float = 0.0,
                       dps=None):
    """`_h2.mp_ray_gaps` as it was computed before the integer product: the
    float atoms multiplied in mpmath at `dps` digits, by default those of
    the larger of lam N and the largest distance of a dense float re-walk."""
    increments = increments.tolist()
    steps = [int(k) for k in steps if int(k) > 0]
    n = max(steps)
    want = set(steps)
    if dps is None:
        depth = max(_h2.orbit(mats, x, increments, range(1, len(increments) + 1),
                              math.inf)[0], default=0.0)
        dps = int((max(lam * n, depth) + 80.0) / math.log(10.0)) + 40
    with mp.workdps(dps):
        one, zero = mp.mpf(1), mp.mpf(0)
        a, b, c, d = one, zero, zero, one
        atoms = [tuple(mp.mpf(e) for e in m) for m in mats]
        xr, xim = mp.mpf(x.real), mp.mpf(x.imag)
        images = {}
        for k in range(1, n + 1):
            e, f, g, h = atoms[increments[k - 1]]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            if k in want:
                den = (c * xr + d) ** 2 + (c * xim) ** 2
                wr = ((a * xr + b) * (c * xr + d) + a * c * xim * xim) / den
                wi = (a * d - b * c) * xim / den
                images[k] = (wr, wi)
        wr_n, wi_n = images[n]
        xi_dir = _mp_direction(xr, xim, wr_n, wi_n)
        alpha = math.atan2(rise, float(_h2._mp_dist(xr, xim, wr_n, wi_n, mp)))
        cos_a = mp.mpf(math.cos(alpha))
        gaps = {}
        for k in steps:
            wr, wi = images[k]
            t = mp.mpf(lam) * k * cos_a
            if _mp_at((wr, wi), (xr, xim)):
                # the exact gap, which may lie halfway between two doubles
                gaps[k] = float(abs(t))
                continue
            pr, pi = _h2._mp_ray(xr, xim, xi_dir, t, mp)
            gaps[k] = float(_h2._mp_dist(pr, pi, wr, wi, mp))
        return gaps, alpha
