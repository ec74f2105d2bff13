"""Upper half-plane kernel.

Points are complex numbers with positive imaginary part.  Boundary points
are extended reals (math.inf plays the role of the single point at
infinity).  Isometries are real 2x2 matrices with determinant one acting
by Mobius transformations; M and -M are identified and stored with the
first nonzero entry positive.

Geodesics are vertical lines and semicircles centred on the real axis.  A
ray from x toward a finite xi is read in the frame
S(z) = (-1/(z - xi) - u) / v, with u + iv = 1/(xi - x), which takes xi to
infinity and x to i.  S maps the ray onto i e^t, so the ray is
S^-1(i e^t) = xi - 1/(u + i v e^t) in closed form.  The tracking gaps read
the orbit in the same frame.

Products of many isometries leave the float64 range long before desk-scale
walk lengths are exhausted, so a walk keeps its product as a float matrix
with a separate power-of-two exponent, rescaled exactly every few steps.
The stored steps read it as a Frobenius-normalised matrix with a log-scale
factor (`State` tuples below), and all orbit statistics (the distance to
the basepoint, and the orbit points and horofunction values that
`snapshot_point` and `snapshot_horofunction` read) are extracted from that
representation in log space.

This module is the H2 entry of the kernel table in `models.KERNELS`; see
`_e2` for the shared function names; `_h2xr` calls it for its H2 factor.
"""

from __future__ import annotations

import math

import numpy as np

from ._random import uniform
from .errors import DomainError, UsageError, bin_count, finite, real

INF = math.inf
_TINY = 5e-324  # smallest positive subnormal: floor for imaginary parts
_HUGE = math.nextafter(INF, 0.0)  # largest finite float: ceiling for imaginary parts
_NORMAL = 2.0 ** -1022  # smallest positive normal float

Mat = tuple[float, float, float, float]

IDENTITY: Mat = (1.0, 0.0, 0.0, 1.0)

BASEPOINT = complex(0.0, 1.0)
RANK_ONE = True  # every axis is contracting
TITS_BALL_TRIVIAL = True


def sign_normalize(m: Mat) -> Mat:
    for e in m:
        if e != 0.0:
            return m if e > 0 else (-m[0], -m[1], -m[2], -m[3])
    raise UsageError("zero matrix is not an isometry")


def mat_mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(m: Mat) -> Mat:
    a, b, c, d = m
    return (d, -b, -c, a)


# -- values and codecs --------------------------------------------------------

def point(coords) -> complex:
    x, y = coords
    y = finite(y)
    if not y > 0:
        raise UsageError("upper half-plane points need a positive second coordinate")
    return complex(finite(x), y)


def boundary(xi) -> float:
    # JSON has no infinity: a boundary object names the point "inf" or "-inf"
    xi = real(float(xi) if xi in ("inf", "-inf") else xi)
    if math.isnan(xi):  # +-inf both stand for the point at infinity
        raise UsageError("a boundary point must be a real number or infinity")
    return xi


def isometry(matrix) -> Mat:
    a, b, c, d = matrix
    m = (real(a), real(b), real(c), real(d))
    det = m[0] * m[3] - m[1] * m[2]
    if not _NORMAL <= det < INF:
        # the float products overflow, underflow, or cancel on large entries
        # such as those of a long product of normalised matrices: scale the
        # entries by the power of two of the largest, which is exact and
        # leaves the normalised matrix as it is, and decide on the exact value
        if all(map(math.isfinite, m)) and any(m):
            from fractions import Fraction

            k = math.frexp(max(map(abs, m)))[1]
            m = tuple(math.ldexp(e, -k) for e in m)
            det = float(Fraction(m[0]) * Fraction(m[3]) - Fraction(m[1]) * Fraction(m[2]))
        if not det > 0:
            raise UsageError("matrix must have positive determinant")
    s = 1.0 / math.sqrt(det)
    # a NaN entry fails the determinant test, but an infinite one can pass it
    return sign_normalize(tuple(finite(e) * s for e in m))


def boundary_eq(x1: float, x2: float, tol: float) -> bool:
    if math.isinf(x1) or math.isinf(x2):
        return math.isinf(x1) and math.isinf(x2)
    return abs(x1 - x2) <= tol * max(1.0, abs(x1), abs(x2))


def isometry_key(g: Mat, r):
    return ("H2",) + tuple(r(e) for e in g)


def num_out(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def boundary_to_json(xi: float) -> dict:
    return {"xi": num_out(xi)}


def mobius(m: Mat, z: complex) -> complex:
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def apply_boundary(m: Mat, xi: float) -> float:
    a, b, c, d = m
    if math.isinf(xi):
        return a / c if c != 0.0 else INF
    den = c * xi + d
    if den == 0.0:
        return INF
    return (a * xi + b) / den


def apply(m: Mat, z: complex) -> complex:
    w = mobius(m, z)
    if not w.imag > 0:
        w = complex(w.real, _TINY)
    return w


def compose(g: Mat, h: Mat) -> Mat:
    # both factors are normalised SL(2,R) matrices, so the product is one
    # too; recomputing a*d - b*c would cancel to zero on long products
    return sign_normalize(mat_mul(g, h))


def inverse(g: Mat) -> Mat:
    return sign_normalize(mat_inv(g))


def dist(p: complex, q: complex) -> float:
    """2 asinh(|p - q| / (2 sqrt(y y'))) (Beardon 1983, Thm 7.2.1): it keeps the
    digits of a short distance, and it squares nothing, so it cannot overflow."""
    return 2.0 * math.asinh(abs(p - q) / (2.0 * math.sqrt(p.imag * q.imag)))


def ray_point(x: complex, xi: float, t: float) -> complex:
    """The point at arclength t on the ray from x toward xi, S^-1(i e^t) in
    the frame S of the module docstring.  While v e^t <= |u + iv| it is read
    as x plus a difference that `expm1` keeps, and beyond as xi minus a term
    scaled by e^-t, which neither overflows nor cancels."""
    if math.isinf(xi):
        try:  # e^t nears the float range at t = 709.78: log space from 700
            y = x.imag * math.exp(t) if t <= 700.0 else math.exp(math.log(x.imag) + t)
        except OverflowError:
            y = _HUGE
        return complex(x.real, min(y, _HUGE))
    w = 1.0 / (xi - x)
    u, v = w.real, w.imag
    e = math.exp(-t)
    if v <= abs(w) * e:
        z = x + complex(0.0, v * math.expm1(t)) / (w * complex(u, v / e))
    else:
        a = u * e
        z = xi - complex(a, -v) * (e / (a * a + v * v))
    return complex(z.real, max(z.imag, _TINY))


def direction(x: complex, y: complex) -> float:
    """Boundary endpoint of the ray from x through y (x != y).  The real part
    is monotone along a semicircle, so the ray ends on the side of y.  Of
    the endpoints c +- r, the larger in modulus is c + sign(c) r, and the
    other their product c^2 - r^2 divided by it, which does not cancel."""
    if x.real == y.real:
        return INF if y.imag > x.imag else x.real
    nx, ny, dx = abs(x) ** 2, abs(y) ** 2, x.real - y.real
    c = (nx - ny) / (2.0 * dx)
    big = c + math.copysign(abs(x - c), c)
    small = (nx * y.real - ny * x.real) / dx / big
    return min(big, small) if y.real < x.real else max(big, small)


# -- classification ----------------------------------------------------------

def trace_abs(m: Mat) -> float:
    return abs(m[0] + m[3])


def is_identity(m: Mat, tol: float) -> bool:
    a, b, c, d = m
    return abs(a - 1) <= tol and abs(b) <= tol and abs(c) <= tol and abs(d - 1) <= tol


def translation_length(m: Mat) -> float:
    t = trace_abs(m)
    if t <= 2.0:
        return 0.0
    return 2.0 * math.acosh(t / 2.0)


def kind(m: Mat, tol: float) -> str:
    if is_identity(m, tol):
        return "identity"
    t = trace_abs(m)
    if t < 2.0 - tol:
        return "elliptic"
    if t <= 2.0 + tol:
        return "parabolic"
    return "axial"


def axis_endpoints(m: Mat, tol: float) -> tuple[float, float]:
    """Boundary fixed points of an axial matrix, as (repelling, attracting):
    the roots q / c (infinity when c = 0) and -b / q of c z^2 + (d - a) z - b,
    with q = ((a - d) + sign(a - d) disc) / 2, disc^2 = (a - d)^2 + 4 b c, so
    neither cancels.  The root z with the larger eigenvalue c z + d (at q / c,
    (tr + sign(a - d) disc) / 2) attracts."""
    a, b, c, d = m
    if kind(m, tol) != "axial":
        raise DomainError("fixed boundary points require an axial isometry")
    s = math.copysign(1.0, a - d)
    q = 0.5 * ((a - d) + s * math.sqrt(max((a - d) ** 2 + 4.0 * b * c, 0.0)))
    z1 = q / c if c != 0.0 else INF
    z2 = -b / q
    return (z2, z1) if s * (a + d) > 0 else (z1, z2)


def independent(g: Mat, h: Mat) -> bool:
    """True when the axial g and h share no fixed point at infinity, that is
    tr[g, h] != 2 (Beardon, The Geometry of Discrete Groups, 1983), decided
    on Python ints for the integer multiples G, H of `_int_matrix`."""
    big_g, big_h = _int_matrix(g), _int_matrix(h)
    a, b, c, d = mat_mul(big_g, big_h)
    e, f, p, q = mat_mul(big_h, big_g)
    # tr(G H adj G adj H) = tr(GH adj(HG)), and det GH = det G det H
    return a * q - b * p - c * f + d * e != 2 * (a * d - b * c)


def horofunction(xi: float, x: complex, z: complex) -> float:
    if math.isinf(xi):
        return math.log(x.imag) - math.log(z.imag)
    qx = ((x.real - xi) ** 2 + x.imag ** 2) / x.imag
    qz = ((z.real - xi) ** 2 + z.imag ** 2) / z.imag
    return math.log(qz) - math.log(qx)


def classify(m: Mat, tol: float) -> tuple[str, float]:
    k = kind(m, tol)
    return k, (translation_length(m) if k == "axial" else 0.0)


# -- boundary -----------------------------------------------------------------

def tits(x1: float, x2: float, tol: float) -> float:
    return 0.0 if boundary_eq(x1, x2, tol) else INF


# the visual metric: the distance between the ray points at radius r0
boundary_chart = ray_point
chart_dist = dist


# -- samplers -----------------------------------------------------------------

def random_sl2(rng) -> Mat:
    """Random well-conditioned real matrix of determinant one (Iwasawa form)."""
    theta = uniform(rng, 0, 2 * math.pi)
    t = uniform(rng, -1.2, 1.2)
    s = uniform(rng, -1.5, 1.5)
    ct, st = math.cos(theta), math.sin(theta)
    et = math.exp(t / 2)
    k = (ct, -st, st, ct)
    a = (et, 0.0, 0.0, 1.0 / et)
    nmat = (1.0, s, 0.0, 1.0)
    return mat_mul(mat_mul(k, a), nmat)


def random_point(rng) -> complex:
    return point((uniform(rng, -3, 3), math.exp(uniform(rng, -1.5, 1.5))))


def random_isometry(rng) -> Mat:
    return isometry(random_sl2(rng))


def random_boundary(rng) -> float:
    phi = uniform(rng, -math.pi, math.pi)
    return boundary(INF if abs(phi) > math.pi - 1e-12 else math.tan(phi / 2.0))


# -- hitting bins: k equal arcs of the half-angle chart phi = 2 atan(xi) ----------

def bin_params(k: int = 16) -> dict:
    if int(k) < 1:
        raise UsageError("a bin scheme needs at least one arc")
    return {"kind": "circle", "count": bin_count(k)}


def bin_index(params, xi: float) -> int:
    k = params["count"]
    phi = math.pi if math.isinf(xi) else 2.0 * math.atan(xi)
    w = 2.0 * math.pi / k
    return min(int((phi + math.pi) / w), k - 1)


def bin_sample(params, i: int, rng) -> float:
    w = 2.0 * math.pi / params["count"]
    phi = uniform(rng, -math.pi + i * w, -math.pi + (i + 1) * w)
    return boundary(INF if abs(phi) >= math.pi - 1e-12 else math.tan(phi / 2.0))


# -- orbit states --------------------------------------------------------------
# The walk keeps the product Z_k as a float matrix p and an integer exponent
# e, the true matrix being 2^e * p, so a step is the matrix product alone.
# Every `renorm_period(atoms)` steps p is rescaled by the binary exponent of
# its largest |entry|, which is exact.  The stored steps read the product as
# a state (m, s), which stands for the true matrix e^s * m with ||m||_F = 1
# and true determinant one, i.e. det m = e^{-2s}; `snapshot` takes it from
# the canonical rescale, so a state does not depend on the renorm schedule.
# An entry more than 2^-1074 below the largest |entry| flushes to zero, as
# in a unit-norm matrix; between rescales the largest |entry| stays within
# 2^(+-_RENORM_BITS) of one, which can bring that limit up to 2^-1010.

State = tuple[Mat, float]

_LN2 = math.log(2.0)
_RENORM_BITS = 64


def frob(m: Mat) -> float:
    return math.sqrt(m[0] ** 2 + m[1] ** 2 + m[2] ** 2 + m[3] ** 2)


def renorm_period(atoms) -> int:
    """Steps between rescales.  One step by a determinant-one g moves the
    largest |entry| of the product by at most a factor 2 ||g||_F either way
    (g^{-1} has the norm of g), so this many steps move it by at most
    2^_RENORM_BITS."""
    growth = math.log2(2.0 * max(math.hypot(*g) for g in atoms))
    return max(1, int(_RENORM_BITS / growth))


def rescale(p: Mat, e: int) -> tuple[Mat, int]:
    """(2^-k p, e + k) for the binary exponent k of the largest |entry|,
    which then lies in [1/2, 1)."""
    a, b, c, d = p
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    return (math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k), math.ldexp(d, -k)), e + k


def snapshot(p: Mat, e: int) -> State:
    """The state (m, s) of the product 2^e * p."""
    p, e = rescale(p, e)
    f = frob(p)
    return (p[0] / f, p[1] / f, p[2] / f, p[3] / f), e * _LN2 + math.log(f)


def _acosh_log(log_u: float) -> float:
    """acosh(exp(log_u)) without overflow."""
    if log_u < 700.0:
        return math.acosh(max(1.0, math.exp(log_u)))
    return log_u + math.log(2.0)


def point_frame(x: complex) -> tuple[Mat, Mat]:
    """(T, T^{-1}) with T in SL(2,R) mapping i to x."""
    ry = math.sqrt(x.imag)
    t: Mat = (ry, x.real / ry, 0.0, 1.0 / ry)
    return t, mat_inv(t)


def state_dist_to_base(st: State, frame: tuple[Mat, Mat]) -> float:
    t, tinv = frame
    n = mat_mul(mat_mul(tinv, st[0]), t)
    log_u = 2.0 * st[1] + 2.0 * math.log(frob(n)) - math.log(2.0)
    return _acosh_log(log_u)


def state_position(st: State, x: complex) -> tuple[float, float]:
    """(real part, log imaginary part) of the orbit point e^s m . x."""
    m, s = st
    re = mobius(m, x).real
    den = abs(m[2] * x + m[3])
    log_im = math.log(x.imag) - 2.0 * s - 2.0 * math.log(den)
    return re, log_im


def snapshot_point(st: State, x: complex) -> complex:
    re, log_im = state_position(st, x)
    im = math.exp(log_im) if log_im > -744.0 else _TINY
    return complex(re, max(im, _TINY))


def _log_add(la: float, lb: float) -> float:
    if la == -INF:
        return lb
    if lb == -INF:
        return la
    hi, lo = (la, lb) if la >= lb else (lb, la)
    return hi + math.log1p(math.exp(lo - hi))


def snapshot_horofunction(st: State, x: complex, xi: float) -> float:
    """h_xi with basepoint x, evaluated at the orbit point of x."""
    re, log_im = state_position(st, x)
    if math.isinf(xi):
        return math.log(x.imag) - log_im
    dx2 = (re - xi) ** 2
    log_num = _log_add(math.log(dx2) if dx2 > 0 else -INF, 2.0 * log_im)
    cx = math.log(((x.real - xi) ** 2 + x.imag ** 2) / x.imag)
    return log_num - log_im - cx


def orbit(atoms, base: complex, increments, stored, xi=None):
    """The left product Z_k = Z_{k-1} w_k, kept as a power-of-two scaled
    matrix: the distances d(Z_k x, x) at the steps k of the increasing
    sequence `stored`, and the reads at step 0 and at those steps: the
    states, or with a boundary point `xi` the horofunction values
    h_xi(Z_k x) with basepoint x, taken from each state, which is then
    dropped."""
    frame = point_frame(base)
    period = renorm_period(atoms)
    p, e = IDENTITY, 0
    st = snapshot(p, e)
    dists, reads = [], [st if xi is None else snapshot_horofunction(st, base, xi)]
    ahead = iter(stored)
    due = next(ahead, 0)
    for k, i in enumerate(increments, start=1):
        p = mat_mul(p, atoms[i])
        if k % period == 0:
            p, e = rescale(p, e)
        if k == due:
            st = snapshot(p, e)
            dists.append(state_dist_to_base(st, frame))
            reads.append(st if xi is None else snapshot_horofunction(st, base, xi))
            due = next(ahead, 0)
    return dists, reads


# Below this many paths, m runs of `orbit` beat one `orbit_paths` (n = 2000).
BATCH_MIN_PATHS = 16


def orbit_paths(atoms, base: complex, increments):
    """`orbit` for m paths at once, read at the last step only: the terminal
    distances d(Z_n x, x) and states of the columns of the (n, m) array
    `increments`, n >= 1.  The matrices are (2, 2, m) arrays, with the
    scalar loop's products and rescales in the same order; the states are
    taken by the scalar `snapshot`."""
    period = renorm_period(atoms)
    m = increments.shape[1]
    p = np.repeat(np.reshape(IDENTITY, (2, 2, 1)), m, axis=2)
    e = np.zeros(m, dtype=np.int64)
    mats = np.reshape(np.array(atoms, dtype=float).T, (2, 2, -1))
    for k, inc in enumerate(increments, start=1):
        g = mats.take(inc, axis=2)
        p = p[:, :1] * g[:1] + p[:, 1:] * g[1:]
        if k % period == 0:
            scale = np.frexp(np.abs(p).max(axis=(0, 1)))[1]
            p = np.ldexp(p, -scale)
            e += scale
    snaps = [snapshot(q, ek) for q, ek
             in zip(zip(*np.reshape(p, (4, m)).tolist()), e.tolist())]
    frame = point_frame(base)
    return [state_dist_to_base(snap, frame) for snap in snaps], snaps


def snapshot_boundary(st: State, x: complex, xi: float) -> float:
    return apply_boundary(st[0], xi)


def tracking_gaps(atoms, increments, snaps, base: complex, lam: float) -> dict:
    """d(gamma(lam k), Z_k x) at the snapshot steps k (see mp_ray_gaps)."""
    return mp_ray_gaps(atoms, increments, base, lam, list(snaps))[0]


# -- multiprecision kernel ----------------------------------------------------
# Desk-scale limits (t around 1e4) and deep orbit tracking leave the float64
# exponent/mantissa range.  The Busemann limits are redone in mpmath with
# digits adapted to t; the tracking gaps run on an integer matrix product
# capped at digits adapted to the depth, and use mpmath for arithmetic, one
# square root and a final 60-digit evaluation.  mpmath uses gmpy2 when it is
# installed and its pure-Python backend otherwise; the digits are the same.

def _mp_ray(xr, xim, xi, tt, mp):
    """Ray point from (xr, xim) toward boundary coordinate xi at arclength tt.

    xi is either float inf or an mpf; full input precision is kept."""
    if isinstance(xi, float) and math.isinf(xi):
        return xr, xim * mp.exp(tt)
    b = mp.mpf(xi)
    if abs(xr - b) <= mp.mpf("1e-30") * (1 + abs(xr) + abs(b)):
        return xr, xim * mp.exp(-tt)
    c = (xr * xr + xim * xim - b * b) / (2 * (xr - b))
    r = abs(b - c)
    dx = xr - c
    rho = mp.sqrt(dx * dx + xim * xim)
    tan_half = xim / (rho + dx) if dx >= 0 else (rho - dx) / xim
    s = mp.log(tan_half) + (tt if b < c else -tt)
    u = mp.exp(s)
    den = 1 + u * u
    return c + r * (1 - u * u) / den, r * 2 * u / den


def _mp_dist(pr, pi, qr, qi, mp):
    arg = 1 + ((pr - qr) ** 2 + (pi - qi) ** 2) / (2 * pi * qi)
    if arg < 1:
        return mp.mpf(0)
    return mp.acosh(arg)


def busemann_dps(t: float) -> int:
    """Digits for d(ray(t), z) - t: 60 beyond those of t, which it cancels."""
    return int(60 + math.log10(1.0 + t))


def mp_ray_dist(xi: float, x: complex, z: complex, tt, mp):
    """d(ray(tt), z) as an mpf, for the ray from x toward xi and an mpf tt."""
    pr, pi = _mp_ray(mp.mpf(x.real), mp.mpf(x.imag), xi, tt, mp)
    return _mp_dist(pr, pi, mp.mpf(z.real), mp.mpf(z.imag), mp)


def busemann_limit(xi: float, x: complex, z: complex, t: float) -> float:
    """d(ray(t), z) - t evaluated in arbitrary precision arithmetic."""
    import mpmath as mp

    with mp.workdps(busemann_dps(t)):
        tt = mp.mpf(t)
        return float(mp_ray_dist(xi, x, z, tt, mp) - tt)


def _int_matrix(g: Mat) -> tuple[int, int, int, int]:
    """g times the power of two that clears its entries' denominators."""
    ratios = [v.as_integer_ratio() for v in g]
    den = max(q for _, q in ratios)
    return tuple(p * (den // q) for p, q in ratios)


def _int_product(ints, log_dets, increments, want, cap: int, state):
    """The left product of the integer atoms, exact until an entry passes
    `cap` bits and then shifted right, all four entries together (the Mobius
    action ignores scale): the matrices at the steps in `want`, the largest
    log2(4 top^2 / det) over the steps, top the largest |entry|, which bounds
    d(Z_k i, i) / ln 2 as cosh d(M i, i) = |M|_F^2 / (2 det M), and the state
    (k, the product through step k before its cap, its log2 det, the bound and
    matrices kept so far) at the first shift, or the last step: a run at a
    larger cap is exact up to there too, and resumes from it."""
    k, (a, b, c, d), log_det, worst, kept = state
    kept, first, n = dict(kept), None, len(increments)
    while True:
        bits = max(a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length())
        if bits > cap:
            first = first or (k, (a, b, c, d), log_det, worst, dict(kept))
            s = bits - cap
            a, b, c, d = a >> s, b >> s, c >> s, d >> s
            bits, log_det = cap, log_det - 2 * s
        worst = max(worst, 2 * bits - log_det)
        if k in want:
            kept[k] = (a, b, c, d)
        if k == n:
            return kept, worst + 2.0, first or (k, (a, b, c, d), log_det, worst, kept)
        i = increments[k]
        e, f, g, h = ints[i]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        log_det += log_dets[i]
        k += 1


def _mp_image(m, det, xr, xim):
    """(Re, Im) of m . x for a real matrix m of determinant det > 0."""
    a, b, c, d = m
    den = (c * xr + d) ** 2 + (c * xim) ** 2
    return ((a * xr + b) * (c * xr + d) + a * c * xim * xim) / den, det * xim / den


def _mp_at(p, q) -> bool:
    """Whether the mpf points p and q agree to 1e-30 of their size in each
    coordinate: a walk back at its start, Z_k = 1, leaves Z_k x this close
    to x once the integer product of `mp_ray_gaps` has shifted."""
    return all(abs(u - v) <= 1e-30 * (1 + abs(u) + abs(v)) for u, v in zip(p, q))


def _mp_gap(w, t, mp):
    """d(i e^t, w) as 2 asinh(|w - i e^t| / (2 sqrt(e^t Im w))), which keeps
    the digits of a short gap."""
    et = mp.exp(t)
    return 2 * mp.asinh(mp.sqrt((w[0] ** 2 + (w[1] - et) ** 2) / (4 * et * w[1])))


def mp_ray_gaps(mats, increments, x: complex, lam: float, steps, rise: float = 0.0):
    """(gaps, alpha): d(gamma(lam k cos alpha), Z_k x) at the given steps, for
    the ray gamma from x toward direction(x, Z_N x) at the final recorded
    step N (down, should Z_N x be x), and the slope alpha = atan2(rise, d(x, Z_N x)) of a product
    model whose path rises by `rise` in its other factor.

    Float64 cannot hold the transverse position of a deep hyperbolic orbit,
    so the product runs on Python ints, each atom scaled to an integer
    matrix, exact until an entry passes C bits and shifted right from then
    on.  C is the bit count of (max(lam N, depth) + 80) / ln 10 + 40 digits:
    a path that outruns lam N by some hundred nats otherwise cancels its
    orbit coordinates to zero.  The depth bounds d(Z_k x, x) over every
    step, from the entries' bit lengths; the first product caps at the
    digits of lam N, and resumes from its first shift at a larger cap if the
    depth needs more.  At those digits the real Mobius map S taking the ray
    to i e^t maps the orbit; d(i e^t, S Z_k x) is evaluated at 60 digits."""
    import mpmath as mp

    steps = [int(k) for k in steps if int(k) > 0]
    n = max(steps)
    ints = [_int_matrix(g) for g in mats]
    log_dets = [math.log2(a * d - b * c) for a, b, c, d in ints]
    increments = increments[:n].tolist()
    dps, depth = 0, lam * n
    state = (1, ints[increments[0]], log_dets[increments[0]], 0.0, {})
    while (need := int((max(lam * n, depth) + 80.0) / math.log(10.0)) + 40) > dps:
        dps = need
        kept, bound, state = _int_product(ints, log_dets, increments, set(steps),
                                          int(dps * math.log2(10.0)) + 1, state)
        # d(Z x, x) <= d(Z i, i) + 2 d(x, i)
        depth = bound * _LN2 + 2.0 * dist(x, BASEPOINT)
    with mp.workdps(dps):
        xr, xim = mp.mpf(x.real), mp.mpf(x.imag)
        dets = {k: a * d - b * c for k, (a, b, c, d) in kept.items()}
        yr, yi = _mp_image(kept[n], dets[n], xr, xim)
        # S takes xi = direction(x, Z_N x) to infinity and x to i:
        # S(z) = (-1/(z - xi) - u) / v with u + iv = -1/(x - xi).  A Z_N x at
        # x has no direction: its ray goes down, xi = x_r
        if _mp_at((yr, yi), (xr, xim)):
            xi = xr
        elif abs(yr - xr) > mp.mpf("1e-30") * (1 + abs(xr) + abs(yr)):
            c = (xr * xr + xim * xim - yr * yr - yi * yi) / (2 * (xr - yr))
            r = mp.sqrt((xr - c) ** 2 + xim * xim)
            xi = c - r if yr < xr else c + r
        else:
            xi = None if yi > xim else xr
        if xi is None:  # S(z) = (z - x_r) / x_im
            s, det_s = (1, -xr, 0, xim), xim
        else:
            q = (xr - xi) ** 2 + xim * xim
            u, v = (xi - xr) / q, xim / q
            s, det_s = (-u, u * xi - 1, v, -v * xi), v
        ws = {k: _mp_image(mat_mul(s, m), det_s * dets[k], xr, xim) for k, m in kept.items()}
        with mp.workdps(60):
            alpha = math.atan2(rise, float(_mp_gap(ws[n], 0, mp)))
            cos_a = mp.mpf(math.cos(alpha))
            gaps = {}
            for k in steps:
                t = mp.mpf(lam) * k * cos_a
                # a Z_k x at x, S Z_k x at i, is t away: t = lam k cos alpha can
                # lie halfway between two doubles, and only the exact t, not
                # the asinh form's, rounds to the even one
                gaps[k] = float(abs(t) if _mp_at(ws[k], (0, 1)) else _mp_gap(ws[k], t, mp))
    return gaps, alpha
