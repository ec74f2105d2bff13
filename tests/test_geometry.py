import math
import sys

import pytest
from scipy.integrate import quad

from cat0lab import (
    Model,
    UsageError,
    apply,
    direction,
    distance,
    e2_boundary,
    e2_point,
    geodesic_point,
    h2_boundary,
    h2_isometry,
    h2_point,
    h2xr_boundary,
    h2xr_point,
    model_basepoint,
    points_equal,
    ray_point,
    sample_boundary,
    t4_point,
)
from cat0lab.sampling import random_point

from conftest import ALL_MODELS
from references import comparison_angle, project_to_ball


def test_h2_vertical_distance_is_log_ratio():
    assert distance(h2_point(0, 1), h2_point(0, math.e)) == pytest.approx(1.0)
    # and a far horizontal pair, whose squared difference 1e320 overflows
    far = 2.0 * math.asinh(5e159)
    assert distance(h2_point(0, 1), h2_point(1e160, 1)) == pytest.approx(far)
    assert distance(h2xr_point(0, 1, 0), h2xr_point(1e160, 1, 0)) == pytest.approx(far)


def test_h2_distance_matches_arclength_quadrature():
    # independent oracle: integrate |dz|/y along the circular geodesic
    # through (0,1) and (1,1): center 1/2, radius sqrt(5)/2
    c, r = 0.5, math.hypot(0.5, 1.0)
    phi1 = math.atan2(1.0, 0.0 - c)
    phi2 = math.atan2(1.0, 1.0 - c)
    length, err = quad(lambda phi: 1.0 / math.sin(phi), phi2, phi1)
    assert err < 1e-10
    d = distance(h2_point(0, 1), h2_point(1, 1))
    assert d == pytest.approx(length, abs=1e-9)
    assert d == pytest.approx(0.9624236501192069, abs=1e-6)
    assert d == pytest.approx(math.acosh(1.5), abs=1e-12)


def test_t4_adjacent_words_distance_one():
    assert distance(t4_point("ab"), t4_point("abb")) == 1.0


def test_distance_axioms_sampled(rng):
    for model in ALL_MODELS:
        for _ in range(500):
            p, q, r = (random_point(model, rng) for _ in range(3))
            dpq = distance(p, q)
            assert dpq == pytest.approx(distance(q, p), abs=1e-9)
            assert dpq >= 0
            assert distance(p, r) <= dpq + distance(q, r) + 1e-9
            assert distance(p, p) == 0.0


def test_distance_zero_iff_equal(rng):
    for model in ALL_MODELS:
        p = random_point(model, rng)
        q = random_point(model, rng)
        assert distance(p, p) == 0.0
        if p.data != q.data:
            assert distance(p, q) > 0
    # 1e-8 apart, where an acosh form acosh(1 + x) of the metric rounds to
    # 0: the distance and equality keep its digits
    p, q = h2_point(0, 1), h2_point(1e-8, 1)
    assert distance(p, q) == pytest.approx(1e-8, rel=1e-12)
    assert not points_equal(p, q, 1e-12)
    assert points_equal(p, q, 1.1e-8)
    assert not points_equal(h2xr_point(0, 1, 0), h2xr_point(1e-8, 1, 0), 1e-12)


def test_points_equal_is_isometry_invariant():
    # 0.05 apart near the real axis although their coordinates differ by
    # 5e-10; z -> 1e8 z maps them to (0, 1) and (0.05, 1), as far apart
    p, q = h2_point(0, 1e-8), h2_point(5e-10, 1e-8)
    g = h2_isometry(1e4, 0, 0, 1e-4)
    assert distance(p, q) == pytest.approx(distance(apply(g, p), apply(g, q)))
    assert not points_equal(p, q)
    assert not points_equal(apply(g, p), apply(g, q))


def test_geodesic_point_examples():
    assert points_equal(geodesic_point(e2_point(0, 0), e2_point(2, 0), 1.0),
                        e2_point(1, 0))
    assert points_equal(geodesic_point(h2_point(0, 1), h2_point(0, math.e ** 2), 1.0),
                        h2_point(0, math.e), 1e-12)
    assert geodesic_point(t4_point(""), t4_point("abab"), 2).data == "ab"
    # points within the tolerance have no direction; the start stands for [p, q]
    p = e2_point(0, 0)
    assert geodesic_point(p, e2_point(5e-10, 0), 3e-10) == p


def test_geodesic_point_contract_sampled(rng):
    for model in ALL_MODELS:
        for _ in range(200):
            p, q = random_point(model, rng), random_point(model, rng)
            d = distance(p, q)
            if d == 0:
                continue
            t = float(rng.integers(0, int(d) + 1)) if model is Model.T4 else rng.uniform(0, d)
            m = geodesic_point(p, q, t)
            assert distance(p, m) == pytest.approx(t, abs=1e-8)
            assert distance(p, m) + distance(m, q) == pytest.approx(d, abs=1e-8)


def test_geodesic_point_zero_returns_start(rng):
    for model in ALL_MODELS:
        p, q = random_point(model, rng), random_point(model, rng)
        assert points_equal(geodesic_point(p, q, 0.0), p)


def test_geodesic_point_domain_errors():
    with pytest.raises(UsageError):
        geodesic_point(e2_point(0, 0), e2_point(1, 0), 2.0)
    with pytest.raises(UsageError):
        geodesic_point(e2_point(0, 0), e2_point(1, 0), -0.5)
    with pytest.raises(UsageError):
        geodesic_point(t4_point(""), t4_point("ab"), 0.5)


def test_ray_point_examples():
    assert points_equal(ray_point(e2_point(0, 0), e2_boundary(0), 3.0), e2_point(3, 0))
    assert points_equal(ray_point(h2_point(0, 1), h2_boundary(math.inf), 2.0),
                        h2_point(0, math.e ** 2), 1e-12)
    # product ray splits with speeds (cos a, sin a); verified by distance
    x = h2xr_point(0, 1, 0)
    out = ray_point(x, h2xr_boundary(math.inf, math.pi / 4), math.sqrt(2))
    assert points_equal(out, h2xr_point(0, math.e, 1), 1e-9)
    assert distance(x, out) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_ray_points_toward_infinity_saturate_at_the_largest_float():
    # e^t leaves the float range above t = 709.78; a ray point stays finite
    top = sys.float_info.max
    for t in (800.0, 1e6):
        assert ray_point(h2_point(0, 1), h2_boundary(math.inf), t).data.imag == top
        product = ray_point(h2xr_point(0, 1, 0), h2xr_boundary(math.inf, 0.0), t)
        assert product.data[0].imag == top
    # a low start keeps its finite point e^t y
    low = ray_point(h2_point(0, 1e-300), h2_boundary(math.inf), 720.0).data.imag
    assert low == pytest.approx(math.exp(720.0 - 300.0 * math.log(10.0)), rel=1e-12)


def test_ray_point_negative_parameter_rejected():
    with pytest.raises(UsageError):
        ray_point(e2_point(0, 0), e2_boundary(0), -1.0)


def test_ray_spacing_consistency(rng):
    for model in ALL_MODELS:
        x = model_basepoint(model)
        for xi in sample_boundary(model, 20, rng):
            s = float(rng.integers(0, 6)) if model is Model.T4 else rng.uniform(0, 5)
            t = float(rng.integers(0, 6)) if model is Model.T4 else rng.uniform(0, 5)
            d = distance(ray_point(x, xi, s), ray_point(x, xi, t))
            assert d == pytest.approx(abs(s - t), abs=1e-8)


def test_ray_direction_roundtrip(rng):
    for model in ALL_MODELS:
        x = model_basepoint(model)
        for xi in sample_boundary(model, 25, rng):
            t = float(rng.integers(1, 8)) if model is Model.T4 else rng.uniform(0.3, 6)
            y = ray_point(x, xi, t)
            assert points_equal(ray_point(x, direction(x, y), t), y, 1e-6)


def test_project_to_ball_examples():
    assert points_equal(project_to_ball(e2_point(0, 0), 1.0, e2_point(5, 0)),
                        e2_point(1, 0))
    assert points_equal(project_to_ball(e2_point(0, 0), 2.0, e2_boundary(math.pi / 2)),
                        e2_point(0, 2), 1e-12)
    # d((0,1),(0,5)) = log 5 > 1, so the projection moves distance 1 upward
    assert points_equal(project_to_ball(h2_point(0, 1), 1.0, h2_point(0, 5)),
                        h2_point(0, math.e), 1e-9)


def test_project_to_ball_inside_is_identity(rng):
    for model in ALL_MODELS:
        x = model_basepoint(model)
        p = geodesic_point(x, random_point(model, rng), 1.0) if distance(
            x, random_point(model, rng)) > 1 else x
        assert points_equal(project_to_ball(x, 5.0, p), p)


def test_projection_is_one_lipschitz_sampled(rng):
    for model in ALL_MODELS:
        x = model_basepoint(model)
        for _ in range(300):
            u, v = random_point(model, rng), random_point(model, rng)
            pu = project_to_ball(x, 2.0, u)
            pv = project_to_ball(x, 2.0, v)
            assert distance(pu, pv) <= distance(u, v) + 1e-9


def test_comparison_angle_examples():
    assert comparison_angle(e2_point(0, 0), e2_point(1, 0), e2_point(0, 1)) == pytest.approx(
        math.pi / 2)
    p = h2_point(0.4, 1.3)
    q = h2_point(2, 0.7)
    assert comparison_angle(p, q, q) == 0.0


def test_comparison_angle_degenerate_rejected():
    with pytest.raises(UsageError):
        comparison_angle(e2_point(0, 0), e2_point(0, 0), e2_point(1, 0))


def test_h2_angle_below_euclidean_and_monotone():
    x = h2_point(0, 1)
    y = h2_point(1, 1)
    z = h2_point(-1, 1)
    a = distance(x, y)
    b = distance(x, z)
    c = distance(y, z)
    hyp_angle = comparison_angle(x, y, z)
    # Euclidean configuration with the same coordinates
    euc_angle = comparison_angle(e2_point(0, 1), e2_point(1, 1), e2_point(-1, 1))
    assert 0 < hyp_angle < math.pi
    assert hyp_angle < euc_angle
    # comparison angles decrease as both points slide toward x
    angles = []
    for s in (1.0, 0.75, 0.5, 0.25, 0.1):
        ys = geodesic_point(x, y, s * a)
        zs = geodesic_point(x, z, s * b)
        angles.append(comparison_angle(x, ys, zs))
    for early, late in zip(angles, angles[1:]):
        assert late <= early + 1e-9


def test_comparison_angle_monotonicity_sampled(rng):
    for model in ALL_MODELS:
        for _ in range(40):
            x = random_point(model, rng)
            y = random_point(model, rng)
            z = random_point(model, rng)
            dy, dz = distance(x, y), distance(x, z)
            if dy < 1 or dz < 1:
                continue
            fractions = [1.0, 0.5, 0.25] if model is not Model.T4 else None
            if model is Model.T4:
                params = [(int(dy), int(dz)), (max(1, int(dy) // 2), max(1, int(dz) // 2))]
            else:
                params = [(f * dy, f * dz) for f in fractions]
            angles = [comparison_angle(x, geodesic_point(x, y, s), geodesic_point(x, z, t))
                      for s, t in params]
            for early, late in zip(angles, angles[1:]):
                assert late <= early + 1e-9


def test_cat0_midpoint_comparison_sampled(rng):
    # midpoints of two sides are at most half the third side apart
    for model in ALL_MODELS:
        for _ in range(300):
            x, y, z = (random_point(model, rng) for _ in range(3))
            dy, dz = distance(x, y), distance(x, z)
            if model is Model.T4:
                if int(dy) % 2 or int(dz) % 2:
                    continue
            m1 = geodesic_point(x, y, dy / 2)
            m2 = geodesic_point(x, z, dz / 2)
            assert distance(m1, m2) <= distance(y, z) / 2 + 1e-9


def test_direction_examples():
    assert direction(e2_point(0, 0), e2_point(3, 3)).data == pytest.approx(math.pi / 4)
    assert direction(h2_point(0, 1), h2_point(0, 7)).data == math.inf
    b = direction(t4_point(""), t4_point("abba"))
    assert b.data[0].startswith("abb")


def test_direction_needs_distinct_points():
    with pytest.raises(UsageError):
        direction(e2_point(1, 2), e2_point(1, 2))


def test_direction_takes_points_that_points_equal_calls_distinct():
    # 1e-8 apart, where an acosh form of the distance reads 0: the ray
    # runs along the unit circle toward 1
    x, y = h2_point(0, 1), h2_point(1e-8, 1)
    assert not points_equal(x, y)
    assert direction(x, y).data == pytest.approx(1.0, abs=1e-7)


def test_h2xr_direction_reads_a_short_hyperbolic_step():
    # equal hyperbolic and vertical steps of 1e-8 make slope pi/4, not the
    # vertical that an H2 factor distance read as 0 would make
    b = direction(h2xr_point(0, 1, 0), h2xr_point(1e-8, 1, 1e-8))
    assert b.data[0] == pytest.approx(1.0, abs=1e-7)
    assert b.data[1] == pytest.approx(math.pi / 4, abs=1e-7)


def test_model_mismatch_raises():
    with pytest.raises(UsageError):
        distance(e2_point(0, 0), h2_point(0, 1))
    with pytest.raises(UsageError):
        ray_point(e2_point(0, 0), h2_boundary(0.0), 1.0)
