import math
import tracemalloc

import numpy as np
import pytest

from cat0lab import (
    DistributionError,
    Model,
    StepDistribution,
    UsageError,
    apply,
    compose,
    distance,
    e2_isometry,
    h2_boundary,
    h2_point,
    identity,
    inverse,
    points_equal,
    sample_walk,
    t4_boundary,
    t4_isometry,
    t4_point,
    validate_distribution,
)
from cat0lab import walk
from cat0lab.walk import draw_increments

from conftest import standard_h2_pair


def test_distribution_invariants():
    with pytest.raises(DistributionError):
        StepDistribution(Model.T4, ((t4_isometry("a"), 0.5),))
    with pytest.raises(DistributionError):
        StepDistribution(Model.T4, ((t4_isometry("a"), 0.5), (t4_isometry("b"), -0.5)))
    with pytest.raises(DistributionError):
        StepDistribution(Model.T4, ((e2_isometry(0, (1, 0)), 1.0),))


def test_admissibility_examples(t4_uniform):
    rep = validate_distribution(t4_uniform, 1)
    assert rep.certified and rep.symmetric_closure_hit
    free_half = StepDistribution.uniform([t4_isometry("a"), t4_isometry("b")])
    assert validate_distribution(free_half, 10).certified is False
    g, h = standard_h2_pair()
    spec = StepDistribution.uniform([g, inverse(g), h, inverse(h)])
    assert validate_distribution(spec, 1).certified is True


def test_admissibility_needs_depth():
    # inverses appear only as products: a^-1 = a^3 for the order-4 rotation
    rot = e2_isometry(math.pi / 2, (1, 0))
    spec = StepDistribution.uniform([rot])
    assert validate_distribution(spec, 2).certified is False
    assert validate_distribution(spec, 3).certified is True


def test_zero_step_walk(t4_uniform):
    tr = sample_walk(t4_uniform, t4_point(""), 0, 5)
    assert list(tr.steps) == [0]
    assert tr.point(0).data == ""
    assert tr.base_distances.tolist() == [0.0]


def test_determinism_bitwise(h2_spec):
    x = h2_point(0, 1)
    t1 = sample_walk(h2_spec, x, 300, 12, path_index=3)
    t2 = sample_walk(h2_spec, x, 300, 12, path_index=3)
    assert np.array_equal(t1.increments, t2.increments)
    assert t1.snapshots == t2.snapshots
    assert np.array_equal(t1.base_distances, t2.base_distances)
    t3 = sample_walk(h2_spec, x, 300, 12, path_index=4)
    assert not np.array_equal(t1.increments, t3.increments)


def test_atom_frequencies_within_three_sigma(t4_uniform):
    tr = sample_walk(t4_uniform, t4_point(""), 100000, 1, steps=[100000])
    freqs = np.bincount(tr.increments, minlength=4) / 100000
    sigma = math.sqrt(0.25 * 0.75 / 100000)
    assert np.all(np.abs(freqs - 0.25) <= 3 * sigma)


def test_increment_displacement_multiset(t4_uniform, h2_spec):
    # consecutive-position distances match the atom displacements exactly
    x = t4_point("")
    tr = sample_walk(t4_uniform, x, 120, 9)
    pos = [tr.point(i) for i in range(121)]
    walked = [distance(pos[k], pos[k + 1]) for k in range(120)]
    atoms = [apply(g, x) for g in t4_uniform.isometries]
    expected = [distance(x, atoms[i]) for i in tr.increments]
    assert walked == expected

    # float positions resolve consecutive displacements only at shallow depth
    xh = h2_point(0, 1)
    trh = sample_walk(h2_spec, xh, 25, 9)
    posh = [trh.point(i) for i in range(26)]
    walkedh = sorted(distance(posh[k], posh[k + 1]) for k in range(25))
    expectedh = sorted(distance(xh, apply(h2_spec.isometries[i], xh))
                       for i in trh.increments)
    assert np.allclose(walkedh, expectedh, atol=1e-6)


def test_positions_follow_left_products(t4_uniform):
    x = t4_point("b")
    tr = sample_walk(t4_uniform, x, 40, 2)
    z = identity(Model.T4)
    for k in range(1, 41):
        z = compose(z, t4_uniform.isometries[int(tr.increments[k - 1])])
        assert points_equal(tr.point(k), apply(z, x))


def test_base_distance_matches_positions(h2_spec):
    x = h2_point(0.3, 1.7)
    tr = sample_walk(h2_spec, x, 150, 4)
    for k in (10, 60, 150):
        assert tr.base_distances[k] == pytest.approx(
            distance(x, tr.point(k)), abs=1e-7)


def test_thinning_keeps_endpoints(h2_spec):
    x = h2_point(0, 1)
    tr = sample_walk(h2_spec, x, 103, 7, steps=[*range(20, 104, 20), 103])
    assert list(tr.steps) == [0, 20, 40, 60, 80, 100, 103]
    assert len(tr.snapshots) == len(tr.steps)
    assert len(tr.base_distances) == len(tr.steps)


def test_walk_stores_exactly_the_named_steps(h2_spec):
    x = h2_point(0, 1)
    assert list(sample_walk(h2_spec, x, 10, 7, steps=[3, 7]).steps) == [0, 3, 7]
    for outside in ([11], [-1]):
        with pytest.raises(UsageError):
            sample_walk(h2_spec, x, 10, 7, steps=outside)


def test_subadditivity_in_expectation(t4_uniform):
    x = t4_point("")

    def mean_dist(n, seed0, m=120):
        vals = [sample_walk(t4_uniform, x, n, 77, path_index=seed0 * 1000 + i).base_distances[-1]
                for i in range(m)]
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(m))

    for n, m_len in ((50, 50), (50, 100), (100, 100)):
        total, se_t = mean_dist(n + m_len, 1)
        first, se_f = mean_dist(n, 2)
        second, se_s = mean_dist(m_len, 3)
        bound = first + second + 3 * math.sqrt(se_t ** 2 + se_f ** 2 + se_s ** 2)
        assert total <= bound


def test_draw_increments_matches_probabilities():
    spec = StepDistribution(Model.T4, ((t4_isometry("a"), 0.5),
                                       (t4_isometry("A"), 1 / 6),
                                       (t4_isometry("b"), 1 / 6),
                                       (t4_isometry("B"), 1 / 6)))
    inc = draw_increments(spec, 60000, 5)
    freqs = np.bincount(inc, minlength=4) / 60000
    for f, p in zip(freqs, (0.5, 1 / 6, 1 / 6, 1 / 6)):
        assert f == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / 60000))


@pytest.mark.parametrize("probabilities, u", [((0.3, 0.3, 0.4 - 5e-13), 0.9999999999999),
                                              ((0.1,) * 10, 1 - 2 ** -53)])
def test_a_uniform_above_a_sum_rounded_below_one_draws_the_last_atom(
        monkeypatch, probabilities, u):
    # a distribution may sum to within 1e-12 of 1, so its cumulative sum can
    # end at or below a uniform draw; that draw belongs to the last atom
    words = ("a", "A", "b", "B", "ab", "aB", "Ab", "AB", "ba", "bA")
    spec = StepDistribution(Model.T4, tuple(
        (t4_isometry(w), p) for w, p in zip(words, probabilities)))
    assert np.cumsum(probabilities)[-1] <= u
    monkeypatch.setattr(walk, "_uniforms", lambda seed, path_index, n: np.full(n, u))
    last = len(probabilities) - 1
    assert draw_increments(spec, 4, 0).tolist() == [last] * 4
    trace = sample_walk(spec, t4_point(""), 4, 0)
    assert trace.point(4) == t4_point(words[last] * 4)


@pytest.mark.parametrize("model", [Model.H2, Model.T4], ids=lambda m: m.value)
def test_dense_read_toward_xi_holds_no_python_object_per_step(model, h2_spec, t4_uniform):
    # the increments, the steps, the distances and the horofunction values
    # are float and integer arrays: a per-step list of Python floats alone
    # would cost 32 bytes a step
    n = 100_000
    if model is Model.H2:
        spec, x, xi = h2_spec, h2_point(0, 1), h2_boundary(5.0)
    else:
        spec, x, xi = t4_uniform, t4_point(""), t4_boundary("ab", "a")
    tracemalloc.start()
    try:
        tr = sample_walk(spec, x, n, 3, steps=None, xi=xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tr.horofunctions) == n + 1
    assert peak <= 80 * n
