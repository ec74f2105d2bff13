import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from cat0lab import (
    DomainError,
    Model,
    StepDistribution,
    _h2,
    apply,
    apply_boundary,
    axis_endpoints,
    boundary_points_equal,
    classify,
    compose,
    direction,
    distance,
    e2_boundary,
    e2_isometry,
    e2_point,
    h2_boundary,
    h2_isometry,
    h2_point,
    h2xr_isometry,
    identity,
    independence_score,
    inverse,
    is_rank_one,
    model_basepoint,
    north_south_constant,
    points_equal,
    power,
    ray_point,
    t4_isometry,
    t4_point,
)
from cat0lab.models import isometry_from_json
from cat0lab.sampling import random_isometry, random_point

from conftest import ALL_MODELS, standard_h2_pair
from references import commutator_trace


def test_apply_examples():
    assert points_equal(apply(e2_isometry(0, (1, 0)), e2_point(0, 0)), e2_point(1, 0))
    assert points_equal(apply(h2_isometry(1, 1, 0, 1), h2_point(0, 1)), h2_point(1, 1))
    assert apply(t4_isometry("a"), t4_point("b")).data == "ab"


def test_isometries_preserve_distance_sampled(rng):
    for model in ALL_MODELS:
        for _ in range(2500):
            g = random_isometry(model, rng)
            p, q = random_point(model, rng), random_point(model, rng)
            assert abs(distance(apply(g, p), apply(g, q)) - distance(p, q)) <= 1e-9


def test_apply_boundary_examples():
    assert apply_boundary(h2_isometry(2, 0, 0, 0.5), h2_boundary(1.0)).data == pytest.approx(4.0)
    assert apply_boundary(e2_isometry(math.pi / 2, (0, 0)),
                          e2_boundary(0)).data == pytest.approx(math.pi / 2)
    g = h2xr_isometry([1, 1, 1, 2], 0.7)
    from cat0lab import h2xr_boundary

    b = h2xr_boundary(0.5, 0.3)
    img = apply_boundary(g, b)
    assert img.data[1] == 0.3  # the product action preserves the slope


def test_boundary_equivariance_with_rays(rng):
    from cat0lab import sample_boundary

    for model in ALL_MODELS:
        x = model_basepoint(model)
        for xi in sample_boundary(model, 8, rng):
            g = random_isometry(model, rng)
            gxi = apply_boundary(g, xi)
            for t in (2, 5):
                y = apply(g, ray_point(x, xi, t))
                # the image ray is the ray toward the image boundary point
                assert points_equal(ray_point(apply(g, x), gxi, t), y, 1e-6)
                if model is not Model.T4:
                    got = direction(apply(g, x), y)
                    assert boundary_points_equal(got, gxi, 1e-6)


def test_compose_inverse_group_axioms(rng):
    for model in ALL_MODELS:
        e = identity(model)
        for _ in range(60):
            g = random_isometry(model, rng)
            h = random_isometry(model, rng)
            p = random_point(model, rng)
            assert points_equal(apply(compose(g, h), p), apply(g, apply(h, p)), 1e-8)
            assert points_equal(apply(compose(g, e), p), apply(g, p), 1e-9)
            assert points_equal(apply(compose(g, inverse(g)), p), p, 1e-8)


def test_compose_examples():
    assert compose(t4_isometry("ab"), t4_isometry("B")).data == "a"
    ginv = inverse(h2_isometry(2, 0, 0, 0.5))
    assert ginv.data == pytest.approx((0.5, 0, 0, 2))


def test_classify_h2_axial_matches_numeric_minimization():
    g = h2_isometry(2, 0, 0, 0.5)
    cls = classify(g)
    assert cls.kind == "axial"
    assert cls.translation_length == pytest.approx(2 * math.log(2), abs=1e-12)

    def displacement(v):
        p = h2_point(v[0], math.exp(v[1]))
        return distance(p, apply(g, p))

    best = min(
        minimize(displacement, x0, method="Nelder-Mead").fun
        for x0 in ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5])
    )
    assert best == pytest.approx(cls.translation_length, abs=1e-5)


def test_classify_h2_parabolic_and_elliptic():
    assert classify(h2_isometry(1, 1, 0, 1)).kind == "parabolic"
    assert classify(h2_isometry(1, 1, 0, 1)).translation_length == 0.0
    c, s = math.cos(0.4), math.sin(0.4)
    assert classify(h2_isometry(c, -s, s, c)).kind == "elliptic"
    assert classify(identity(Model.H2)).kind == "identity"


def test_classify_t4_conjugate_matches_enumeration():
    g = t4_isometry("abA")
    cls = classify(g)
    assert cls.kind == "axial"
    assert cls.translation_length == 1.0
    # brute force: minimum displacement over all vertices within word length 4
    words = [""]
    frontier = [""]
    for _ in range(4):
        nxt = []
        for w in frontier:
            for ch in "aAbB":
                if w and w[-1] == ch.swapcase():
                    continue
                nxt.append(w + ch)
        words.extend(nxt)
        frontier = nxt
    best = min(distance(t4_point(w), apply(g, t4_point(w))) for w in words)
    assert best == cls.translation_length


def test_classify_e2_cases():
    assert classify(e2_isometry(0, (3, 4))).translation_length == pytest.approx(5.0)
    assert classify(e2_isometry(0, (3, 4))).kind == "axial"
    assert classify(e2_isometry(1.0, (3, 4))).kind == "elliptic"
    assert classify(identity(Model.E2)).kind == "identity"


def test_classify_h2xr_cases():
    axial = h2xr_isometry([2, 0, 0, 0.5], 1.0)
    cls = classify(axial)
    assert cls.kind == "axial"
    assert cls.translation_length == pytest.approx(math.hypot(2 * math.log(2), 1.0))
    vertical = h2xr_isometry([1, 0, 0, 1], 2.5)
    assert classify(vertical).kind == "axial"
    assert classify(vertical).translation_length == pytest.approx(2.5)
    c, s = math.cos(0.3), math.sin(0.3)
    elliptic_shift = h2xr_isometry([c, -s, s, c], 1.0)
    assert classify(elliptic_shift).kind == "axial"
    parabolic_shift = h2xr_isometry([1, 1, 0, 1], 1.0)
    assert classify(parabolic_shift).kind == "parabolic"


def test_classify_inverse_preserves_class(rng):
    for model in ALL_MODELS:
        for _ in range(50):
            g = random_isometry(model, rng)
            a, b = classify(g), classify(inverse(g))
            assert a.kind == b.kind
            assert a.translation_length == pytest.approx(b.translation_length, abs=1e-9)


AXIALS = {
    Model.E2: [e2_isometry(0, v) for v in ((1.5, 0.7), (-0.3, 0.2), (2.4, -1.9))],
    Model.H2: [h2_isometry(math.exp(s), 0, 0, math.exp(-s)) for s in (0.2, 0.7, 1.0)],
    Model.T4: [t4_isometry(w) for w in ("a", "ab", "abA", "abaB")],
    Model.H2xR: [h2xr_isometry([math.exp(s), 0, 0, math.exp(-s)], h)
                 for s, h in ((0.2, 1.1), (1.0, 0.4), (0.7, -1.6))],
}


def test_translation_length_of_powers(rng):
    # conjugates h a h^-1 of axials a of several translation lengths by
    # random isometries h
    for model in ALL_MODELS:
        for a in AXIALS[model]:
            for _ in range(4):
                h = random_isometry(model, rng)
                g = compose(compose(h, a), inverse(h))
                cls = classify(g)
                assert cls.kind == "axial"
                for k in range(2, 6):
                    assert classify(power(g, k)).translation_length == pytest.approx(
                        k * cls.translation_length, rel=1e-8)


def test_axis_endpoints_examples():
    gm, gp = axis_endpoints(h2_isometry(2, 0, 0, 0.5))
    assert gm.data == pytest.approx(0.0)
    assert gp.data == math.inf
    tm, tp = axis_endpoints(t4_isometry("a"))
    assert tp.data == ("", "a")
    assert tm.data == ("", "A")
    em, ep = axis_endpoints(e2_isometry(0, (1, 0)))
    assert ep.data == pytest.approx(0.0)
    assert em.data == pytest.approx(math.pi)


def test_axis_endpoints_fixed_and_attracting(rng):
    g, h = standard_h2_pair()
    for iso in (g, h, t4_isometry("abb"), e2_isometry(0, (2, 1)),
                h2xr_isometry([2, 0, 0, 0.5], 0.4)):
        gm, gp = axis_endpoints(iso)
        assert boundary_points_equal(apply_boundary(iso, gm), gm, 1e-8)
        assert boundary_points_equal(apply_boundary(iso, gp), gp, 1e-8)
    # forward orbit direction approaches the attracting endpoint
    x = h2_point(0.3, 2.0)
    _, gp = axis_endpoints(h)
    from cat0lab import boundary_metric

    x0 = model_basepoint(Model.H2)
    gaps = [boundary_metric(x0, direction(x, apply(power(h, k), x)), gp)
            for k in (3, 6, 9)]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 1e-3


def test_axis_endpoints_requires_axial():
    with pytest.raises(DomainError):
        axis_endpoints(h2_isometry(1, 1, 0, 1))
    with pytest.raises(DomainError):
        axis_endpoints(e2_isometry(1.0, (0, 0)))


def test_rank_one_truth_table():
    assert is_rank_one(h2_isometry(2, 0, 0, 0.5)) is True
    assert is_rank_one(t4_isometry("ab")) is True
    assert is_rank_one(e2_isometry(0, (1, 0))) is False
    assert is_rank_one(h2xr_isometry([2, 0, 0, 0.5], 0.3)) is False
    assert is_rank_one(h2_isometry(1, 1, 0, 1)) is False  # parabolic


def test_independence_score_t4_exhaustive():
    # d(a^m, b^n) = |m| + |n|; with max(|m|, |n|) = 5 the minimum is 5 + 1
    score = independence_score(t4_isometry("a"), t4_isometry("b"), t4_point(""), 5)
    assert score == 6.0


def test_independence_score_same_element_zero():
    # the shell max(|m|, |n|) = 3 holds m = n = 3
    g = h2_isometry(2, 0, 0, 0.5)
    assert independence_score(g, g, h2_point(0, 1), 3) == 0.0


def test_independence_shell_trend():
    g, h = standard_h2_pair()
    x = h2_point(0, 1)
    scores = [independence_score(g, h, x, m) for m in (2, 4, 8)]
    assert scores[0] < scores[1] < scores[2]
    dependent = [independence_score(g, power(g, 2), x, m) for m in (2, 4, 8)]
    assert max(dependent) == 0.0


# SL(2, Z) letters and their inverses (lower case): S, T, and the two axial
# P and Q.  A word w P^j w^-1 or w Q^j w^-1 is axial.
SL2Z_LETTERS = {"S": (0, -1, 1, 0), "s": (0, 1, -1, 0), "T": (1, 1, 0, 1), "t": (1, -1, 0, 1),
                "P": (2, 1, 1, 1), "p": (1, -1, -1, 2), "Q": (1, 1, 1, 2), "q": (2, -1, -1, 1)}
axial_words = st.builds(lambda w, core, j: w + core * j + w[::-1].swapcase(),
                        st.text("SsTt", max_size=4), st.sampled_from("PQ"), st.integers(1, 2))


def sl2z_isometry(word: str):
    m = (1, 0, 0, 1)
    for ch in word:
        m = _h2.mat_mul(m, SL2Z_LETTERS[ch])
    return _h2.isometry(m)


@settings(max_examples=200, deadline=None)
@given(axial_words, axial_words, st.integers(1, 3), st.booleans())
def test_h2_independence_is_the_commutator_trace_test(u, v, k, invert):
    # integer atoms are stored exactly, so the kernel's test must agree with
    # the rational commutator trace; a power of g shares both its fixed points
    g, h = sl2z_isometry(u), sl2z_isometry(v)
    assert _h2.independent(g, h) is (commutator_trace(g, h) != 2)
    g_k = sl2z_isometry((u[::-1].swapcase() if invert else u) * k)
    assert commutator_trace(g, g_k) == 2
    assert _h2.independent(g, g_k) is False


def test_north_south_h2_finite_and_monotone():
    g = h2_isometry(2, 0, 0, 0.5)
    res = north_south_constant(g, 0.1, 0.01, 80, 7, cap=5000)
    assert res.attained
    # k0 is the first power whose largest gap to g+ falls below eps_plus
    assert len(res.max_gaps) == res.k0 >= 2
    assert res.max_gaps[-1] < 0.1 <= res.max_gaps[-2]
    looser = north_south_constant(g, 0.1, 0.2, 80, 7, cap=5000)
    assert looser.k0 <= res.k0
    squared = north_south_constant(power(g, 2), 0.1, 0.01, 80, 7, cap=5000)
    assert squared.k0 <= res.k0


def test_north_south_t4():
    res = north_south_constant(t4_isometry("a"), 0.01, 0.1, 60, 3, cap=1000)
    assert res.attained
    assert res.k0 >= 5  # needs at least five shared letters with the forward end


def test_north_south_rejects_non_rank_one():
    with pytest.raises(DomainError):
        north_south_constant(e2_isometry(0, (1, 0)), 0.1, 0.1, 10, 0)
    with pytest.raises(DomainError):
        north_south_constant(h2xr_isometry([2, 0, 0, 0.5], 0.0), 0.1, 0.1, 10, 0)


@pytest.mark.parametrize("model, payload, data", [
    ("E2", {"angle": 0.5, "v": [1.5, -2]}, (0.5, complex(1.5, -2.0))),
    ("H2", {"matrix": [2, 0, 0, 0.5]}, (2.0, 0.0, 0.0, 0.5)),
    ("T4", {"word": "abAAa"}, "abA"),
    ("H2xR", {"matrix": [-1, -1, -1, -2], "shift": -0.75}, ((1.0, 1.0, 1.0, 2.0), -0.75)),
], ids=["E2", "H2", "T4", "H2xR"])
def test_isometry_json_readers_parse_each_model(model, payload, data):
    # the config's form of an isometry and of a step distribution's atoms
    tagged = {"model": model, "payload": payload}
    assert isometry_from_json(tagged).data == data
    spec = StepDistribution.from_json(
        {"model": model, "atoms": [{"isometry": tagged, "p": 0.25},
                                   {"isometry": tagged, "p": 0.75}]})
    assert spec.model is Model(model)
    assert [(g.data, p) for g, p in spec.atoms] == [(data, 0.25), (data, 0.75)]
