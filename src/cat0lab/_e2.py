"""Euclidean-plane kernel.

Points are complex numbers, boundary points are angles in [0, 2pi), and
isometries are pairs (rotation angle, translation vector) acting by
z -> e^{i a} z + v.  Only orientation-preserving isometries are modelled.

Like `_h2`, `_t4` and `_h2xr`, this module is one entry of the kernel table
in `models.KERNELS`: the public functions unwrap their model-tagged
arguments, call the function of the same name here on the raw payloads, and
re-tag the result.  `models` reads a JSON point, boundary object and
isometry payload by passing their keys to `point`, `boundary` and
`isometry` as arguments.  A hitting-bin scheme is the dict of
`bin_params`, which the report writes as its bins descriptor.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._random import uniform
from .errors import UsageError, bin_count, finite

TWO_PI = 2.0 * math.pi

BASEPOINT = complex(0.0, 0.0)
IDENTITY = (0.0, complex(0.0, 0.0))
RANK_ONE = False  # every line lies in a flat plane
TITS_BALL_TRIVIAL = False


def wrap_angle(theta: float) -> float:
    """theta mod 2pi in [0, 2pi): a tiny negative angle, which the shift by
    2pi rounds up to exactly 2pi, is 0."""
    t = math.fmod(theta, TWO_PI)
    t = t + TWO_PI if t < 0 else t
    return 0.0 if t == TWO_PI else t


def circle_gap(a: float, b: float) -> float:
    """Arc distance between two angles, in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)


# -- values and codecs --------------------------------------------------------

def point(coords) -> complex:
    x, y = coords
    return complex(finite(x), finite(y))


def boundary(theta: float) -> float:
    return wrap_angle(finite(theta))


def isometry(angle: float, v) -> tuple[float, complex]:
    x, y = v
    return (wrap_angle(finite(angle)), complex(finite(x), finite(y)))


def boundary_eq(theta1: float, theta2: float, tol: float) -> bool:
    return circle_gap(theta1, theta2) <= tol


def isometry_key(g, r):
    a, v = g
    return ("E2", r(math.cos(a)), r(math.sin(a)), r(v.real), r(v.imag))


def boundary_to_json(theta: float) -> dict:
    return {"theta": theta}


# -- geometry -----------------------------------------------------------------

def dist(p: complex, q: complex) -> float:
    return abs(p - q)


def ray_point(x: complex, theta: float, t: float) -> complex:
    return x + t * cmath.exp(1j * theta)


def direction(x: complex, y: complex) -> float:
    """Angle of the ray from x through y (x != y)."""
    return boundary(cmath.phase(y - x))


def horofunction(theta: float, x: complex, z: complex) -> float:
    return ((x - z) * cmath.exp(-1j * theta)).real


def busemann_limit(theta: float, x: complex, z: complex, t: float) -> float:
    """d(ray(t), z) - t = (2 t a + |w|^2) / (|w + t u| + t), with w = x - z,
    u = e^{i theta} and a = Re(w u*), which does not cancel at large t; both
    sides are divided by s = max(t, |w|), so no term overflows."""
    w, u = x - z, cmath.exp(1j * theta)
    s = max(t, abs(w))
    if s == 0.0:
        return 0.0
    v, r = w / s, t / s
    return s * (2.0 * r * (v * u.conjugate()).real + abs(v) ** 2) / (abs(v + r * u) + r)


# -- isometries: data = (alpha, v) with v complex ---------------------------

def apply(iso, p: complex) -> complex:
    alpha, v = iso
    return cmath.exp(1j * alpha) * p + v


def apply_boundary(iso, theta: float) -> float:
    alpha, _ = iso
    return boundary(theta + alpha)


def compose(g, h):
    a1, v1 = g
    a2, v2 = h
    return (wrap_angle(a1 + a2), cmath.exp(1j * a1) * v2 + v1)


def inverse(g):
    a, v = g
    return (wrap_angle(-a), -cmath.exp(-1j * a) * v)


def classify(g, tol: float) -> tuple[str, float]:
    alpha, v = g
    if circle_gap(alpha, 0.0) <= tol:
        if abs(v) <= tol:
            return "identity", 0.0
        return "axial", abs(v)
    return "elliptic", 0.0


def axis_endpoints(g, tol: float):
    _, v = g
    theta = wrap_angle(math.atan2(v.imag, v.real))
    return boundary(theta + math.pi), boundary(theta)


# -- boundary -----------------------------------------------------------------

def tits(theta1: float, theta2: float, tol: float) -> float:
    return circle_gap(theta1, theta2)


# the visual metric: the distance between the ray points at radius r0
boundary_chart = ray_point
chart_dist = dist


# -- samplers -----------------------------------------------------------------

def random_point(rng) -> complex:
    return point((uniform(rng, -5, 5), uniform(rng, -5, 5)))


def random_isometry(rng):
    return isometry(uniform(rng, 0, 2 * math.pi), (uniform(rng, -3, 3), uniform(rng, -3, 3)))


def random_boundary(rng) -> float:
    return boundary(uniform(rng, 0.0, 2.0 * math.pi))


# -- hitting bins: k equal arcs of angle -----------------------------------------

def bin_params(k: int = 16) -> dict:
    if int(k) < 1:
        raise UsageError("a bin scheme needs at least one arc")
    return {"kind": "angle", "count": bin_count(k)}


def bin_index(params, theta: float) -> int:
    k = params["count"]
    return min(int(theta / (TWO_PI / k)), k - 1)


def bin_sample(params, i: int, rng) -> float:
    w = TWO_PI / params["count"]
    return boundary(uniform(rng, i * w, (i + 1) * w))


# -- orbit walker ---------------------------------------------------------------

def orbit(atoms, base: complex, increments, stored, xi=None):
    """The left product Z_k = Z_{k-1} w_k, kept as (e^{ia}, v): the
    distances d(Z_k x, x) at the steps k of the increasing sequence
    `stored`, as a float array, and the reads at step 0 and at those steps:
    a list of the states, or with a boundary point `xi` a float array of the
    horofunction values h_xi(Z_k x) with basepoint x, taken from each state
    as `snapshot_horofunction` does."""
    rots = [(complex(math.cos(a), math.sin(a)), v) for a, v in atoms]
    u, w = complex(1.0, 0.0), complex(0.0, 0.0)
    dists = np.empty(len(stored))
    reads = [None] * (len(stored) + 1) if xi is None else np.empty(len(stored) + 1)
    reads[0] = (u, w) if xi is None else snapshot_horofunction((u, w), base, xi)
    j, ahead = 0, iter(stored)
    due = next(ahead, 0)
    for k, i in enumerate(increments, start=1):
        r, v = rots[i]
        u, w = u * r, u * v + w
        if k == due:
            dists[j] = abs(u * base + w - base)
            j += 1
            reads[j] = (u, w) if xi is None else snapshot_horofunction((u, w), base, xi)
            due = next(ahead, 0)
    return dists, reads


# Below this many paths, m runs of `orbit` beat one `orbit_paths` (n = 2000).
BATCH_MIN_PATHS = 40


def orbit_paths(atoms, base: complex, increments):
    """`orbit` for m paths at once, read at the last step only: the terminal
    distances d(Z_n x, x) and states of the columns of the (n, m) array
    `increments`, n >= 1.  The products are CPython's complex ones,
    (ac - bd, ad + bc), on the real rows (Re u, Im u, Re w, Im w): the new
    rows are Re u * (Re r, Im r, Re v, Im v) + Im u * (-Im r, Re r, -Im v,
    Re v), plus w on the last two, and ac + b(-d) is ac - bd exactly."""
    rows = []
    for a, v in atoms:
        c, s = math.cos(a), math.sin(a)
        rows.append((c, s, v.real, v.imag, -s, c, -v.imag, v.real))
    rots = np.array(rows).T
    st = np.zeros((4, increments.shape[1]))
    st[0] = 1.0
    for inc in increments:
        g = rots.take(inc, axis=1)
        new = st[0] * g[:4] + st[1] * g[4:]
        new[2:] += st[2:]
        st = new
    snaps = [(complex(a, b), complex(c, d)) for a, b, c, d in zip(*st.tolist())]
    return [abs(u * base + w - base) for u, w in snaps], snaps


def snapshot_point(snap, base: complex) -> complex:
    u, w = snap
    return u * base + w


def snapshot_boundary(snap, base: complex, theta: float) -> float:
    u, _ = snap
    return wrap_angle(theta + math.atan2(u.imag, u.real))


def snapshot_horofunction(snap, base: complex, theta: float) -> float:
    return horofunction(theta, base, snapshot_point(snap, base))


def tracking_gaps(atoms, increments, snaps, base: complex, lam: float) -> dict:
    """d(gamma(lam k), Z_k x) for the snapshots {k: snapshot}, along the ray
    from x toward the last snapshot's orbit point, which is not x."""
    theta = direction(base, snapshot_point(snaps[max(snaps)], base))
    return {k: dist(ray_point(base, theta, lam * k), snapshot_point(s, base))
            for k, s in snaps.items()}
