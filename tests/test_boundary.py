import math

import numpy as np
import pytest

from cat0lab import (
    Model,
    angle_at_infinity,
    boundary_metric,
    boundary_points_equal,
    distance,
    e2_boundary,
    e2_point,
    h2_boundary,
    h2_point,
    h2xr_boundary,
    h2xr_point,
    horofunction,
    horofunction_limit_oracle,
    model_basepoint,
    ray_point,
    sample_boundary,
    t4_boundary,
    t4_point,
    tits_ball_is_trivial,
    tits_distance,
)
from cat0lab.models import KERNELS, boundary_from_json, boundary_to_json
from cat0lab.sampling import random_point

from conftest import ALL_MODELS


def test_horofunction_vanishes_at_basepoint(rng):
    for model in ALL_MODELS:
        x = random_point(model, rng)
        for xi in sample_boundary(model, 10, rng):
            assert horofunction(xi, x, x) == 0.0


def test_horofunction_h2_vertical_example():
    xi = h2_boundary(math.inf)
    x, z = h2_point(0, 1), h2_point(0, math.e)
    assert horofunction(xi, x, z) == pytest.approx(-1.0)
    # independent check through the defining limit at t = 1e4
    assert horofunction_limit_oracle(xi, x, z, 1e4) == pytest.approx(-1.0, abs=1e-6)


def test_horofunction_e2_example():
    assert horofunction(e2_boundary(0), e2_point(0, 0), e2_point(5, 0)) == pytest.approx(-5.0)


def test_horofunction_limit_oracle_e2_flat():
    out = horofunction_limit_oracle(e2_boundary(0), e2_point(0, 0), e2_point(0, 1), 1e4)
    assert abs(out) <= 1e-4


def test_horofunction_t4_exact_beyond_confluence():
    xi = t4_boundary("ab", "a")
    x, z = t4_point(""), t4_point("B")
    h = horofunction(xi, x, z)
    for t in (10, 25, 60):
        assert horofunction_limit_oracle(xi, x, z, t) == h


def oracle_config(model, rng):
    """Desk-scale configuration: the finite-t truncation of the limit is
    O(|z-x|^2 / t) in the flat factors, so keep |z-x| small enough that the
    t = 1e4 evaluation sits well inside the 1e-3 band."""
    if model is Model.E2:
        return e2_point(rng.uniform(-1, 1), rng.uniform(-1, 1)), e2_point(
            rng.uniform(-1, 1), rng.uniform(-1, 1))
    if model is Model.H2xR:
        x = h2xr_point(rng.uniform(-1.5, 1.5), math.exp(rng.uniform(-1, 1)),
                       rng.uniform(-1, 1))
        z = h2xr_point(rng.uniform(-1.5, 1.5), math.exp(rng.uniform(-1, 1)),
                       rng.uniform(-1, 1))
        return x, z
    return random_point(model, rng), random_point(model, rng)


def test_horofunction_matches_limit_oracle_sampled(rng):
    for model in ALL_MODELS:
        for _ in range(30):
            x, z = oracle_config(model, rng)
            xi = sample_boundary(model, 1, rng)[0]
            t = 40 if model is Model.T4 else 1e4
            closed = horofunction(xi, x, z)
            lim = horofunction_limit_oracle(xi, x, z, t)
            assert closed == pytest.approx(lim, abs=1e-3)


def test_limit_oracle_is_the_defining_difference_at_small_t(rng):
    # at small t nothing cancels, so d(ray(t), z) - t read directly is the
    # reference; t = 5e-324 is where w / t overflows in an unscaled E2 form
    for model in ALL_MODELS:
        ts = (0, 1, 3) if model is Model.T4 else (0.0, 5e-324, 0.5, 3.0)
        for _ in range(10):
            x, z = oracle_config(model, rng)
            xi = sample_boundary(model, 1, rng)[0]
            assert horofunction_limit_oracle(xi, x, x, 0.0) == 0.0
            for t in ts:
                direct = distance(ray_point(x, xi, t), z) - t
                assert horofunction_limit_oracle(xi, x, z, t) == pytest.approx(direct, abs=1e-9)


def test_horofunction_is_one_lipschitz(rng):
    for model in ALL_MODELS:
        for _ in range(400):
            x = random_point(model, rng)
            z = random_point(model, rng)
            w = random_point(model, rng)
            xi = sample_boundary(model, 1, rng)[0]
            dh = abs(horofunction(xi, x, z) - horofunction(xi, x, w))
            assert dh <= distance(z, w) + 1e-9


def test_horofunction_basepoint_change_bound(rng):
    for model in ALL_MODELS:
        for _ in range(150):
            x = random_point(model, rng)
            x2 = random_point(model, rng)
            z = random_point(model, rng)
            xi = sample_boundary(model, 1, rng)[0]
            gap = abs(horofunction(xi, x, z) - horofunction(xi, x2, z))
            assert gap <= distance(x, x2) + 1e-9


def test_angle_at_infinity_examples():
    x = e2_point(0, 0)
    out = angle_at_infinity(x, e2_boundary(0), e2_boundary(math.pi / 2))
    assert out == pytest.approx(math.pi / 2, abs=1e-12)
    assert angle_at_infinity(x, e2_boundary(1.0), e2_boundary(1.0)) == 0.0
    h = angle_at_infinity(h2_point(0, 1), h2_boundary(0.0), h2_boundary(math.inf))
    assert h == pytest.approx(math.pi, abs=1e-9)


def test_angle_at_infinity_below_tits(rng):
    for model in ALL_MODELS:
        x = model_basepoint(model)
        pts = sample_boundary(model, 8, rng)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                ang = angle_at_infinity(x, pts[i], pts[j])
                dt = tits_distance(pts[i], pts[j])
                assert ang <= dt + 1e-6
                if model is Model.E2:
                    assert ang == pytest.approx(dt, abs=1e-9)


def test_tits_distance_examples():
    assert tits_distance(e2_boundary(0), e2_boundary(math.pi / 2)) == pytest.approx(math.pi / 2)
    assert tits_distance(h2_boundary(0.0), h2_boundary(1.0)) == math.inf
    assert tits_distance(h2_boundary(0.5), h2_boundary(0.5)) == 0.0
    b1 = h2xr_boundary(0.0, math.pi / 4)
    b2 = h2xr_boundary(1.0, math.pi / 4)
    assert tits_distance(b1, b2) == pytest.approx(math.pi / 2)


def test_tits_h2xr_matches_flat_plane_vectors(rng):
    # the closed form must equal the angle between (cos a1, sin a1) and
    # (-cos a2, sin a2) computed directly in the flat plane
    for _ in range(100):
        a1 = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        a2 = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        b1 = h2xr_boundary(0.0, a1)
        b2 = h2xr_boundary(1.0, a2)
        u = np.array([math.cos(a1), math.sin(a1)])
        v = np.array([-math.cos(a2), math.sin(a2)])
        expected = math.acos(max(-1.0, min(1.0, float(np.dot(u, v)))))
        assert tits_distance(b1, b2) == pytest.approx(expected, abs=1e-12)


def test_tits_h2xr_same_fiber_and_poles():
    assert tits_distance(h2xr_boundary(0.3, 0.2), h2xr_boundary(0.3, -0.4)) == pytest.approx(0.6)
    up = h2xr_boundary(None, math.pi / 2)
    down = h2xr_boundary(None, -math.pi / 2)
    assert tits_distance(up, down) == pytest.approx(math.pi)
    assert tits_distance(up, h2xr_boundary(0.0, 0.0)) == pytest.approx(math.pi / 2)


def test_tits_axioms_on_finite_sectors(rng):
    for model in (Model.E2, Model.H2xR):
        pts = sample_boundary(model, 12, rng)
        for a in pts:
            for b in pts:
                assert tits_distance(a, b) == pytest.approx(tits_distance(b, a), abs=1e-12)
                for c in pts:
                    assert tits_distance(a, c) <= (
                        tits_distance(a, b) + tits_distance(b, c) + 1e-9)


def test_tits_lower_semicontinuity_smoke():
    # the tail infimum may undershoot only by the convergence allowance 2/n
    xi, eta = e2_boundary(0.3), e2_boundary(1.9)
    vals = [tits_distance(e2_boundary(0.3 + 1 / n), e2_boundary(1.9 - 1 / n))
            for n in range(10, 60)]
    assert min(vals[25:]) >= tits_distance(xi, eta) - (2 / 35 + 1e-9)
    # hyperbolic approximants of distinct ends stay at infinite Tits distance
    h_vals = [tits_distance(h2_boundary(1 / n), h2_boundary(2.0)) for n in range(10, 40)]
    assert all(math.isinf(v) for v in h_vals)


def test_tits_ball_trivial_table():
    assert tits_ball_is_trivial(h2_boundary(0.2)) is True
    assert tits_ball_is_trivial(t4_boundary("a", "b")) is True
    assert tits_ball_is_trivial(e2_boundary(0.0)) is False
    assert tits_ball_is_trivial(h2xr_boundary(0.0, 0.0)) is False


def test_boundary_metric_properties(rng):
    x = e2_point(0, 0)
    assert boundary_metric(x, e2_boundary(0.7), e2_boundary(0.7)) == 0.0
    assert boundary_metric(x, e2_boundary(0), e2_boundary(math.pi)) == pytest.approx(2.0)
    for model in ALL_MODELS:
        base = model_basepoint(model)
        pts = sample_boundary(model, 10, rng)
        for a in pts:
            for b in pts:
                dab = boundary_metric(base, a, b)
                assert dab == pytest.approx(boundary_metric(base, b, a), abs=1e-12)
                for c in pts:
                    assert boundary_metric(base, a, c) <= (
                        dab + boundary_metric(base, b, c) + 1e-9)


def test_boundary_json_roundtrip(rng):
    for model in ALL_MODELS:
        for b in sample_boundary(model, 15, rng):
            b2 = boundary_from_json(boundary_to_json(b))
            assert boundary_points_equal(b, b2, 1e-12)
    inf_b = h2_boundary(math.inf)
    assert boundary_points_equal(boundary_from_json(boundary_to_json(inf_b)), inf_b)


def test_boundary_to_json_writes_the_constructors_arguments(rng):
    # boundary_from_json calls the kernel's constructor on the written keys,
    # so they give back the stored value exactly
    pts = [b for model in ALL_MODELS for b in sample_boundary(model, 15, rng)]
    pts += [h2_boundary(math.inf), h2_boundary(-math.inf), e2_boundary(-1e-17),
            h2xr_boundary(None, math.pi / 2), h2xr_boundary(None, -math.pi / 2)]
    for b in pts:
        kernel = KERNELS[b.model]
        assert kernel.boundary(**kernel.boundary_to_json(b.data)) == b.data
