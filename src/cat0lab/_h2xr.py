"""Product kernel for the hyperbolic plane times a real line.

Points are pairs (z, h) with z in the upper half-plane and h a real height.
The squared distance is the sum of the squared factor distances.  Boundary
directions are pairs (xi, alpha) with xi a boundary point of the hyperbolic
factor and alpha in [-pi/2, pi/2] the slope toward the +R direction; the
two vertical directions alpha = +-pi/2, and only they, have no horizontal
component (xi = None).  Isometries are pairs (matrix, vertical shift).
Every operation on the hyperbolic factor calls `_h2`; this module adds the
height, the shift or the slope.

This module is the H2xR entry of the kernel table in `models.KERNELS`; see
`_e2` for the shared function names.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import _h2
from ._random import uniform
from .errors import UsageError, bin_count, finite, real

HALF_PI = math.pi / 2.0

BASEPOINT = (complex(0.0, 1.0), 0.0)
IDENTITY = (_h2.IDENTITY, 0.0)
RANK_ONE = False  # every axis lies in a flat plane
TITS_BALL_TRIVIAL = False


# -- values and codecs --------------------------------------------------------

def point(coords):
    x, y, height = coords
    return (_h2.point((x, y)), finite(height))


def isometry(matrix, shift: float):
    return (_h2.isometry(matrix), finite(shift))


def isometry_key(g, r):
    m, s = g
    return ("H2xR",) + tuple(r(e) for e in m) + (r(s),)


def boundary_to_json(b) -> dict:
    xi, alpha = b
    return {"xi": None if xi is None else _h2.num_out(xi), "alpha": alpha}


# -- geometry -----------------------------------------------------------------


def dist(p, q) -> float:
    return math.hypot(_h2.dist(p[0], q[0]), p[1] - q[1])


def ray_point(x, b, t: float):
    xi, alpha = b
    if xi is None:
        return (x[0], x[1] + t * (1.0 if alpha > 0 else -1.0))
    zh = _h2.ray_point(x[0], xi, t * math.cos(alpha))
    return (zh, x[1] + t * math.sin(alpha))


def direction(x, y):
    """Boundary direction of the ray from x through y (x != y)."""
    dh = _h2.dist(x[0], y[0])
    dv = y[1] - x[1]
    if dh == 0.0:
        return (None, HALF_PI if dv > 0 else -HALF_PI)
    return (_h2.direction(x[0], y[0]), math.atan2(dv, dh))


def horofunction(b, x, z) -> float:
    xi, alpha = b
    vert = math.sin(alpha) * (x[1] - z[1])
    if xi is None:
        return vert
    return math.cos(alpha) * _h2.horofunction(xi, x[0], z[0]) + vert


def busemann_limit(b, x, z, t: float) -> float:
    """d(ray(t), z) - t in multiprecision arithmetic."""
    import mpmath as mp

    xi, alpha = b
    with mp.workdps(_h2.busemann_dps(t)):
        tt = mp.mpf(t)
        dv = mp.mpf(x[1]) + tt * mp.sin(mp.mpf(alpha)) - mp.mpf(z[1])
        if xi is None:
            dh = mp.mpf(_h2.dist(x[0], z[0]))
        else:
            dh = _h2.mp_ray_dist(xi, x[0], z[0], tt * mp.cos(mp.mpf(alpha)), mp)
        return float(mp.sqrt(dh * dh + dv * dv) - tt)


# -- isometries: data = (matrix, shift) --------------------------------------

def apply(iso, p):
    m, shift = iso
    return (_h2.apply(m, p[0]), p[1] + shift)


def apply_boundary(iso, b):
    xi, alpha = b
    if xi is None:
        return b
    return (_h2.apply_boundary(iso[0], xi), alpha)


def compose(g, h):
    return (_h2.compose(g[0], h[0]), g[1] + h[1])


def inverse(g):
    return (_h2.inverse(g[0]), -g[1])


def classify(g, tol: float) -> tuple[str, float]:
    mat, shift = g
    hk = _h2.kind(mat, tol)
    if hk == "axial":
        return "axial", math.hypot(_h2.translation_length(mat), shift)
    if hk in ("identity", "elliptic"):
        if abs(shift) <= tol:
            return hk, 0.0
        return "axial", abs(shift)
    return "parabolic", 0.0


def axis_endpoints(g, tol: float):
    mat, shift = g
    if _h2.kind(mat, tol) == "axial":
        am, ap = _h2.axis_endpoints(mat, tol)
        alpha = math.atan2(shift, _h2.translation_length(mat))
        return (am, -alpha), (ap, alpha)
    s = HALF_PI if shift > 0 else -HALF_PI
    return (None, -s), (None, s)


# -- boundary -----------------------------------------------------------------

def boundary_eq(b1, b2, tol: float) -> bool:
    xi1, a1 = b1
    xi2, a2 = b2
    if (xi1 is None) != (xi2 is None):
        return False
    if xi1 is None:
        return abs(a1 - a2) <= tol
    return _h2.boundary_eq(xi1, xi2, tol) and abs(a1 - a2) <= tol


def tits(b1, b2, tol: float) -> float:
    xi1, a1 = b1
    xi2, a2 = b2
    same_fiber = (xi1 is None and xi2 is None) or (
        xi1 is not None and xi2 is not None and _h2.boundary_eq(xi1, xi2, tol)
    )
    if same_fiber:
        return abs(a1 - a2)
    # angle between (cos a1, sin a1) and (-cos a2, sin a2) in the flat plane
    # spanned by the geodesic joining the two horizontal ends and the line
    c = -math.cos(a1) * math.cos(a2) + math.sin(a1) * math.sin(a2)
    return math.acos(max(-1.0, min(1.0, c)))


# the visual metric: the distance between the ray points at radius r0
boundary_chart = ray_point
chart_dist = dist


def boundary(xi, alpha: float):
    alpha = real(alpha)
    if not -HALF_PI <= alpha <= HALF_PI:
        raise UsageError("slope must lie in [-pi/2, pi/2]")
    if (xi is None) != (abs(alpha) == HALF_PI):
        raise UsageError("an end has a horizontal component exactly when its slope is not +-pi/2")
    return (None if xi is None else _h2.boundary(xi), alpha)


# -- samplers -----------------------------------------------------------------

def random_point(rng):
    return point((uniform(rng, -3, 3), math.exp(uniform(rng, -1.5, 1.5)),
                  uniform(rng, -4, 4)))


def random_isometry(rng):
    return isometry(_h2.random_sl2(rng), uniform(rng, -2, 2))


def random_boundary(rng):
    xi = _h2.random_boundary(rng)
    alpha = uniform(rng, -HALF_PI * 0.999, HALF_PI * 0.999)
    return boundary(xi, alpha)


# -- hitting bins: H2 circle arcs x k_alpha slope bands, then the two poles -------

def bin_params(k_xi: int = 8, k_alpha: int = 4) -> dict:
    # circle arcs and slope arcs alike: at least one of each
    k_xi, k_alpha = _h2.bin_params(k_xi)["count"], _h2.bin_params(k_alpha)["count"]
    return {"kind": "product", "k_xi": k_xi, "k_alpha": k_alpha,
            "count": bin_count(k_xi * k_alpha + 2)}


def bin_index(params, b) -> int:
    k_xi, k_alpha = params["k_xi"], params["k_alpha"]
    xi, alpha = b
    if xi is None:
        return k_xi * k_alpha + (0 if alpha > 0 else 1)
    j = min(int((alpha + HALF_PI) / (math.pi / k_alpha)), k_alpha - 1)
    return _h2.bin_index({"count": k_xi}, xi) * k_alpha + j


def bin_sample(params, i: int, rng):
    k_xi, k_alpha = params["k_xi"], params["k_alpha"]
    if i >= k_xi * k_alpha:
        return boundary(None, HALF_PI if i == k_xi * k_alpha else -HALF_PI)
    bi, bj = divmod(i, k_alpha)
    xi = _h2.bin_sample({"count": k_xi}, bi, rng)
    wa = math.pi / k_alpha
    alpha = uniform(rng, -HALF_PI + bj * wa, -HALF_PI + (bj + 1) * wa)
    alpha = max(-HALF_PI + 1e-9, min(HALF_PI - 1e-9, alpha))
    return boundary(xi, alpha)


# -- orbit walker ---------------------------------------------------------------

def orbit(atoms, base, increments, stored, xi=None):
    """The left product Z_k = Z_{k-1} w_k: the distances d(Z_k x, x) at the
    steps k of the increasing sequence `stored`, which lie in 1..n, as a
    float array, and the reads at step 0 and at those steps: a list of the
    states (H2 state, height), or with a boundary point `xi` a float array
    of the horofunction values h_xi(Z_k x) with basepoint x.  The H2 factor
    walks in `_h2`, which reads its states or its own horofunction values;
    the height is the running sum of the shifts, read at the stored steps."""
    heights = np.empty(len(stored) + 1)
    j, ahead, due = 0, iter(stored), 0
    for k, h in enumerate(itertools.accumulate((atoms[i][1] for i in increments),
                                               initial=0.0)):
        if k == due:
            heights[j] = h
            j += 1
            due = next(ahead, -1)
    mats = [g[0] for g in atoms]
    if xi is None:
        dh, states = _h2.orbit(mats, base[0], increments, stored)
        reads = list(zip(states, heights.tolist()))
    else:
        # a vertical xi reads no H2 value; the one at infinity is the cheapest
        h2_xi = _h2.INF if xi[0] is None else xi[0]
        dh, values = _h2.orbit(mats, base[0], increments, stored, h2_xi)
        reads = np.fromiter((_horofunction(xi, v, h) for v, h in zip(values, heights)),
                            float, len(heights))
    dists = np.fromiter((math.hypot(d, h) for d, h in zip(dh, heights[1:])), float, len(dh))
    return dists, reads


# Below this many paths, m runs of `orbit` beat one `orbit_paths` (n = 2000).
BATCH_MIN_PATHS = 14


def orbit_paths(atoms, base, increments):
    """`orbit` for m paths at once, read at the last step only: the H2
    factor walks in `_h2.orbit_paths`, and the heights are running sums down
    the columns, which add in the order of the scalar running sum."""
    dh, states = _h2.orbit_paths([g[0] for g in atoms], base[0], increments)
    shifts = np.array([g[1] for g in atoms])
    heights = np.zeros(increments.shape[1])
    # 64 rows at a time: the shifts of a whole (n, m) block would cost more
    # memory than the walk itself
    for first in range(0, len(increments), 64):
        steps = shifts.take(increments[first:first + 64])
        steps[0] += heights
        heights = np.cumsum(steps, axis=0, out=steps)[-1]
    heights = heights.tolist()
    return [math.hypot(d, h) for d, h in zip(dh, heights)], list(zip(states, heights))


def snapshot_point(snap, base):
    st, h = snap
    return (_h2.snapshot_point(st, base[0]), base[1] + h)


def snapshot_boundary(snap, base, b):
    xi, alpha = b
    if xi is None:
        return b
    return (_h2.snapshot_boundary(snap[0], base[0], xi), alpha)


def _horofunction(b, h2_value, height: float) -> float:
    """h_b at the point of relative height `height` over an H2 point whose
    horofunction toward b's H2 part is `h2_value` (unread for vertical b)."""
    xi, alpha = b
    vert = math.sin(alpha) * (-height)
    if xi is None:
        return vert
    return math.cos(alpha) * h2_value + vert


def snapshot_horofunction(snap, base, b) -> float:
    st, h = snap
    xi = b[0]
    return _horofunction(b, None if xi is None else _h2.snapshot_horofunction(st, base[0], xi), h)


def tracking_gaps(atoms, increments, snaps, base, lam: float) -> dict:
    """Product distances d(gamma(lam k), Z_k x): `_h2.mp_ray_gaps` tracks
    the horizontal factor on its integer product along the slope of the
    final recorded step, and the heights come from the snapshots."""
    heights = {k: s[1] + base[1] for k, s in snaps.items()}
    rise = heights[max(heights)] - base[1]
    gaps, alpha = _h2.mp_ray_gaps([g[0] for g in atoms], increments, base[0], lam,
                                  list(snaps), rise)
    return {k: math.hypot(dh, (base[1] + lam * k * math.sin(alpha)) - heights[k])
            for k, dh in gaps.items()}
