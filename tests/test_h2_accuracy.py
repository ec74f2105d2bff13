"""Accuracy of the H2 orbit kernels against exact atom products, and of
the tracking gaps against their mpmath reference.

Every float is a dyadic rational, so an atom times a power of two is an
integer matrix with the same Mobius action, and the product of a path is
exact in Python ints.  Its distance cosh d(P i, i) = |P|_F^2 / (2 det P) is
then evaluated in mpmath at 60 digits.
"""

import math
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat0lab import (
    StepDistribution,
    _h2,
    _h2xr,
    direction,
    distance,
    geodesic_point,
    h2_isometry,
    h2_point,
    ray_point,
)
from cat0lab.walk import draw_increments

from references import _mp_direction, reference_ray_gaps

BASE = complex(0.0, 1.0)
# the escape workload's H2 atoms; times 2 they are integer matrices
WORKLOAD_ATOMS = [h2_isometry(*m).data for m in
                  ((2, 0, 0, 0.5), (0.5, 0, 0, 2), (1, 1, 1, 2), (2, -1, -1, 1))]
# a bound on the relative error of a distance on the seeded paths below,
# which err by at most 1.1e-14.  A path that strays far and comes back
# amplifies the rounding of any float product: among 600 paths of the
# escape workload's H2 drift one errs by about 1e-12, while the median
# lies below 1e-15
REL_TOL = 5e-14


def _integer_atom(g):
    ratios = [Fraction(v) for v in g]
    scale = max(r.denominator for r in ratios)  # a power of two
    return [int(r * scale) for r in ratios]


def exact_distance(atoms, increments) -> float:
    ints = [_integer_atom(g) for g in atoms]
    a, b, c, d = 1, 0, 0, 1
    for i in increments:
        e, f, g, h = ints[i]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    with mp.workdps(60):
        cosh = mp.mpf(a * a + b * b + c * c + d * d) / (2 * mp.mpf(a * d - b * c))
        return float(mp.acosh(cosh))


def _workload_paths(n, count):
    spec = StepDistribution.uniform([h2_isometry(*g) for g in WORKLOAD_ATOMS])
    return np.stack([draw_increments(spec, n, 11, i) for i in range(count)], axis=1)


def test_orbit_distances_match_the_exact_product():
    n, stored = 2000, (250, 1000, 2000)
    increments = _workload_paths(n, 40)
    worst = 0.0
    for path in increments.T.tolist():
        dists, _ = _h2.orbit(WORKLOAD_ATOMS, BASE, path, stored)
        for k, d in zip(stored, dists):
            exact = exact_distance(WORKLOAD_ATOMS, path[:k])
            worst = max(worst, abs(d - exact) / exact)
    assert worst <= REL_TOL


def test_orbit_paths_distances_match_the_exact_product():
    increments = _workload_paths(500, 40)
    dists, _ = _h2.orbit_paths(WORKLOAD_ATOMS, BASE, increments)
    for d, path in zip(dists, increments.T.tolist()):
        exact = exact_distance(WORKLOAD_ATOMS, path)
        assert abs(d - exact) <= REL_TOL * exact


def _check_diagonal_walk(k, n):
    # diag(2^k, 2^-k) moves i by 2k ln 2 a step; the small entry of the
    # product soon lies more than 2^-1074 below the large one and flushes
    atoms = [(2.0 ** k, 0.0, 0.0, 2.0 ** -k), (2.0 ** -k, 0.0, 0.0, 2.0 ** k)]
    expected = [2 * j * k * math.log(2) for j in range(1, n + 1)]
    for i in (0, 1):
        steps = [i] * n
        dists, _ = _h2.orbit(atoms, BASE, steps, range(1, n + 1))
        assert dists == pytest.approx(expected, rel=1e-15)
        dists, _ = _h2.orbit_paths(atoms, BASE, np.array([steps, steps]).T)
        assert dists == pytest.approx(expected[-1:] * 2, rel=1e-15)


@pytest.mark.parametrize("k", [300, 500])
def test_diagonal_walks_keep_their_distance_when_the_small_entry_flushes(k):
    _check_diagonal_walk(k, 6)


@pytest.mark.parametrize("k", [601, 700, 1000])
def test_diagonal_walks_with_atoms_beyond_the_square_range(k):
    # entries above 2^512 have no float square: no Frobenius norm of the
    # unscaled product may be taken
    _check_diagonal_walk(k, 6)


def test_atoms_near_1e150_walk_without_overflow():
    # one step moves the largest entry by about 2^500: a renormalisation
    # every 16 steps would overflow long before the next one
    big = _h2.isometry((1e150, 3e149, 0.0, 1e-150))
    atoms = [big, _h2.isometry((1e-150, 0.0, -2e149, 1e150)), WORKLOAD_ATOMS[2]]
    rng = np.random.default_rng(3)
    increments = rng.integers(0, len(atoms), size=(40, 8))
    dists, _ = _h2.orbit_paths(atoms, BASE, increments)
    for path, batched in zip(increments.T.tolist(), dists):
        exact = exact_distance(atoms, path)
        single, _ = _h2.orbit(atoms, BASE, path, [len(path)])
        assert math.isfinite(batched) and single == [batched]
        assert abs(batched - exact) <= REL_TOL * exact


def _nondyadic_atoms(rng):
    # normalised random matrices: their entries have 53-bit denominators
    gs = [_h2.random_isometry(rng) for _ in range(2)]
    return gs + [_h2.inverse(g) for g in gs]


@pytest.mark.parametrize("model", ["H2", "H2xR"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ray_gaps_equal_the_mpmath_reference(model, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    atoms = WORKLOAD_ATOMS if data.draw(st.booleans()) else _nondyadic_atoms(rng)
    x = _h2.random_point(rng)
    n = data.draw(st.integers(1, 300))
    increments = rng.integers(0, len(atoms), size=n)
    steps = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=12)))
    lam = data.draw(st.floats(0.05, 1.0))
    rise = data.draw(st.sampled_from([0.0, 0.3]))
    if model == "H2":
        got = _h2.mp_ray_gaps(atoms, increments, x, lam, steps, rise)
        assert got == reference_ray_gaps(atoms, increments, x, lam, steps, rise)
        return
    # H2xR reads the rise from the heights of its snapshots
    base = (x, float(rng.normal()))
    snaps = {k: (None, float(rng.normal())) for k in steps}
    snaps[steps[-1]] = (None, rise)
    product_atoms = [(g, 0.0) for g in atoms]
    got = _h2xr.tracking_gaps(product_atoms, increments, snaps, base, lam)
    with mock.patch.object(_h2, "mp_ray_gaps", reference_ray_gaps):
        assert got == _h2xr.tracking_gaps(product_atoms, increments, snaps, base, lam)


@pytest.mark.parametrize("x", [BASE, complex(-1.4214497012487866, 2.9622400846515253)])
def test_a_gap_back_at_x_halfway_between_doubles_rounds_to_even(x):
    # Z_6 is the identity, and 0.05 * 6 lies exactly halfway between 0.3 and
    # the next double up: a gap evaluated to any finite digits, not exactly,
    # may land on either side of it
    increments = np.array([1, 1, 0, 0, 0, 1])
    gaps, _ = _h2.mp_ray_gaps(WORKLOAD_ATOMS, increments, x, 0.05, [6])
    assert gaps == {6: 0.30000000000000004}
    assert (gaps, 0.0) == reference_ray_gaps(WORKLOAD_ATOMS, increments, x, 0.05, [6])


def test_a_walk_back_at_its_start_takes_the_downward_ray():
    # g g g^-1 g^-1 is a scalar matrix, but the 53-bit entries of g outgrow
    # the product's digits, which leave Z_4 x off x on a side of their own:
    # a ray toward it went up, where the exact product at 400 digits goes down
    rng = np.random.default_rng(436146288)
    atoms = _nondyadic_atoms(rng)
    x = _h2.random_point(rng)
    increments = np.array([0, 0, 2, 2])
    gaps = _h2.mp_ray_gaps(atoms, increments, x, 1.0, [1, 2, 3, 4])
    assert gaps[0][4] == 4.0
    assert gaps == reference_ray_gaps(atoms, increments, x, 1.0, [1, 2, 3, 4], dps=400)


def test_ray_gaps_of_nondyadic_atoms_at_n_5000_equal_the_reference():
    atoms = _nondyadic_atoms(np.random.default_rng(5))
    increments = np.random.default_rng(7).integers(0, 4, size=5000)
    steps = range(500, 5001, 500)
    assert (_h2.mp_ray_gaps(atoms, increments, BASE, 0.18, steps)
            == reference_ray_gaps(atoms, increments, BASE, 0.18, steps))


def test_a_rerun_product_resumes_from_the_first_shift(monkeypatch):
    # the H2 track path of the trajectory workload at seed 2: the depth
    # raises the cap from 4233 to 4306 bits, and the rerun starts where the
    # first product first shifted, at step 4614, not at step 1
    spec = StepDistribution.uniform([h2_isometry(*g) for g in WORKLOAD_ATOMS])
    increments = draw_increments(spec, 5000, 960369029, 0)
    calls = []
    original = _h2._int_product

    def recorded(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(_h2, "_int_product", recorded)
    _h2.mp_ray_gaps(WORKLOAD_ATOMS, increments, BASE, 0.5523962980489479,
                    range(500, 5001, 500))
    (first_args, first), (args, resumed) = calls
    assert (first_args[4], args[4]) == (4233, 4306)
    assert first_args[5][0] == 1 and args[5] is first[2] and args[5][0] == 4614
    assert resumed == original(*args[:5], first_args[5])


def _ray_error(x, xi, t) -> float:
    """Hyperbolic distance from `_h2.ray_point` to the circle-form
    `_h2._mp_ray` at 300 digits."""
    z = _h2.ray_point(x, xi, t)
    with mp.workdps(300):
        b = xi if math.isinf(xi) else mp.mpf(xi)
        pr, pi = _h2._mp_ray(mp.mpf(x.real), mp.mpf(x.imag), b, mp.mpf(t), mp)
        gap = mp.sqrt((pr - z.real) ** 2 + (pi - z.imag) ** 2)
        return float(2 * mp.asinh(gap / (2 * mp.sqrt(pi * z.imag))))


RAY_TS = (1e-6, 0.01, 1.0, 5.0, 30.0, 100.0, 256.0)


def test_ray_points_match_the_multiprecision_circle_form():
    # |Re x| <= 50, Im x in [e^-6, e^6] and |xi| in [1e-3, 1e9], both
    # log-uniform, with the vertical rays xi = inf and xi = Re x
    rng = np.random.default_rng(2801)
    cases = []
    for _ in range(400):
        x = complex(rng.uniform(-50, 50), math.exp(rng.uniform(-6, 6)))
        xi = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 9))
        cases += [(x, xi, t) for t in RAY_TS]
    x = complex(0.3, 2.0)
    cases += [(x, xi, t) for xi in (math.inf, x.real) for t in RAY_TS]
    assert max(_ray_error(*case) for case in cases) <= 1e-7


def test_a_geodesic_to_a_far_point_ends_at_it():
    # a far endpoint: a ray read from its circle's centre and radius (both
    # about 5e7) cancels there
    p, q = h2_point(0, 1), h2_point(1e8, 1)
    d = distance(p, q)
    for end in (geodesic_point(p, q, d), ray_point(p, direction(p, q), d)):
        assert _h2.dist(end.data, q.data) <= 1e-7


def test_direction_keeps_the_digits_of_a_small_endpoint():
    # x and y at scales 1e-8 to 1e8, and two rays whose small endpoint a
    # difference c - r of the large circle read 7.6e-6 and 0.25 off: from i
    # toward 1e-6 + 1e-9 i, and from 1e8 + i toward i; and two nearly
    # vertical rays, from i toward 1e-13 + 0.5 i and toward -1e-13 + 2 i,
    # whose endpoints 1.3e-13 and -3e13 a vertical reading gets wrong
    rng = np.random.default_rng(2701)
    cases = [(1j, 1e-6 + 1e-9j), (1e8 + 1j, 1j), (1j, 1e-13 + 0.5j), (1j, -1e-13 + 2j)]
    for _ in range(2000):
        x, y = (complex(rng.uniform(-1, 1), math.exp(rng.uniform(-3, 3)))
                * 10.0 ** rng.uniform(-8, 8) for _ in range(2))
        cases.append((x, y))
    worst = 0.0
    with mp.workdps(60):
        for x, y in cases:
            want = _mp_direction(*map(mp.mpf, (x.real, x.imag, y.real, y.imag)))
            worst = max(worst, float(abs(_h2.direction(x, y) - want) / abs(want)))
    assert worst <= 1e-12


def _mp_fixed_points(m):
    """(repelling, attracting) roots of c z^2 + (d - a) z - b = 0 at 60
    digits: the one of larger eigenvalue |c z + d| attracts (|a| at infinity)."""
    with mp.workdps(60):
        a, b, c, d = map(mp.mpf, m)
        disc = mp.sqrt((a - d) ** 2 + 4 * b * c)
        if c == 0:
            return (-b / (a - d), math.inf) if abs(a) > abs(d) else (math.inf, -b / (a - d))
        roots = sorted(((a - d + disc) / (2 * c), (a - d - disc) / (2 * c)),
                       key=lambda z: abs(c * z + d))
        return tuple(roots)


def test_fixed_points_match_the_multiprecision_roots():
    # random axial matrices; matrices a small lower-left entry c away from
    # diagonal, whose finite fixed point a |c| <= tol branch read as
    # infinity; and matrices with a = d, fixing k and -k
    rng = np.random.default_rng(2702)
    mats = [_h2.random_isometry(rng) for _ in range(1500)]
    mats += [_h2.isometry((t, rng.uniform(-2, 2), 10.0 ** rng.uniform(-14, -2)
                           * rng.choice((-1.0, 1.0)), 1.0 / t))
             for t in np.exp(rng.uniform(0.1, 2.0, 1500))]
    mats += [_h2.isometry((math.cosh(t), k * math.sinh(t), math.sinh(t) / k, math.cosh(t)))
             for t, k in zip(rng.uniform(-2, 2, 200), 10.0 ** rng.uniform(-3, 3, 200))]
    worst = 0.0
    for m in mats:
        if _h2.kind(m, 1e-9) != "axial":
            continue
        for got, want in zip(_h2.axis_endpoints(m, 1e-9), _mp_fixed_points(m)):
            if math.isinf(want):
                assert math.isinf(got)
            else:
                worst = max(worst, float(abs(got - want) / abs(want)))
    assert worst <= 1e-12
