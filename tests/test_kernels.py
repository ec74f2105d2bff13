"""The kernel table: one module per model, all with the same names."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat0lab import (
    BinScheme,
    BoundaryPoint,
    Model,
    StepDistribution,
    UsageError,
    _e2,
    _h2,
    _h2xr,
    _t4,
    angle_at_infinity,
    angles_at_infinity,
    apply,
    boundary_distances,
    boundary_metric,
    boundary_points_equal,
    cocycle_residual,
    distance,
    geodesic_point,
    horofunction,
    ray_point,
    sample_boundary,
    sample_terminals,
    sample_walk,
    t4_isometry,
    walk,
)
from cat0lab.geometry import model_basepoint
from cat0lab.models import KERNELS
from cat0lab.sampling import random_isometry, random_point

from references import comparison_angle, cylinder_words

TABLE = (
    # values and codecs
    "BASEPOINT", "IDENTITY", "point", "boundary", "isometry",
    "boundary_eq", "isometry_key", "boundary_to_json",
    # geometry
    "dist", "ray_point", "direction", "horofunction",
    "busemann_limit",
    # the group and axes
    "apply", "apply_boundary", "compose", "inverse", "classify", "axis_endpoints",
    "RANK_ONE",
    # boundary
    "tits", "boundary_chart", "chart_dist", "TITS_BALL_TRIVIAL",
    # samplers and bins
    "random_point", "random_isometry", "random_boundary",
    "bin_params", "bin_index", "bin_sample",
    # walks
    "orbit", "orbit_paths", "BATCH_MIN_PATHS", "snapshot_point", "snapshot_horofunction",
    "snapshot_boundary", "tracking_gaps",
)


def test_every_model_has_a_kernel():
    assert set(KERNELS) == set(Model)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_kernel_exposes_the_whole_table(model):
    missing = [name for name in TABLE if not hasattr(KERNELS[model], name)]
    assert missing == []


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_rank_one_kernels_and_only_they_decide_independence(model):
    # the rank-one audit pairs only rank-one atoms, on their kernel's test
    kernel = KERNELS[model]
    assert callable(getattr(kernel, "independent", None)) is kernel.RANK_ONE


INCREMENTS = [0, 1, 2, 2, 0, 1]


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_walker_snapshot_point_matches_dist_to_base(model):
    kernel = KERNELS[model]
    rng = np.random.default_rng(5)
    atoms = [kernel.random_isometry(rng) for _ in range(3)]
    dists, snaps = kernel.orbit(atoms, kernel.BASEPOINT, INCREMENTS, [len(INCREMENTS)])
    p = kernel.snapshot_point(snaps[-1], kernel.BASEPOINT)
    assert float(kernel.dist(kernel.BASEPOINT, p)) == pytest.approx(dists[-1],
                                                                    rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_snapshot_boundary_is_the_image_under_the_atom_product(model):
    kernel = KERNELS[model]
    rng = np.random.default_rng(11)
    atoms = [kernel.random_isometry(rng) for _ in range(3)]
    _, snaps = kernel.orbit(atoms, kernel.BASEPOINT, INCREMENTS, [len(INCREMENTS)])
    product = kernel.IDENTITY
    for i in INCREMENTS:
        product = kernel.compose(product, atoms[i])
    for _ in range(5):
        b = kernel.random_boundary(rng)
        image = kernel.snapshot_boundary(snaps[-1], kernel.BASEPOINT, b)
        assert kernel.boundary_eq(image, kernel.apply_boundary(product, b), 1e-9)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), atom_count=st.integers(1, 4),
       draws=st.lists(st.integers(0, 3), max_size=30))
def test_orbit_states_are_the_atom_products(model, seed, atom_count, draws):
    # every step is stored, so snaps[k] is the state of Z_k = w_1 ... w_k
    kernel = KERNELS[model]
    rng = np.random.default_rng(seed)
    atoms = [kernel.random_isometry(rng) for _ in range(atom_count)]
    increments = [d % atom_count for d in draws]
    n = len(increments)
    dists, snaps = kernel.orbit(atoms, kernel.BASEPOINT, increments, range(1, n + 1))
    assert len(dists) == n and len(snaps) == n + 1
    for k, d in enumerate(dists, start=1):
        p = kernel.snapshot_point(snaps[k], kernel.BASEPOINT)
        assert float(kernel.dist(kernel.BASEPOINT, p)) == pytest.approx(d, rel=1e-9, abs=1e-9)
    # the image under w_1 ... w_k is applied one atom at a time: composing
    # thirty hyperbolic atoms into one float matrix loses its determinant
    b = kernel.random_boundary(rng)
    for k in range(n + 1):
        expected = b
        for i in reversed(increments[:k]):
            expected = kernel.apply_boundary(atoms[i], expected)
        image = kernel.snapshot_boundary(snaps[k], kernel.BASEPOINT, b)
        assert kernel.boundary_eq(image, expected, 1e-9)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), atom_count=st.integers(1, 4),
       n=st.integers(0, 30), data=st.data())
def test_walk_distances_sit_at_the_stored_steps(model, seed, atom_count, n, data):
    # base_distances[i] belongs to step steps[i], as point(i) does, and
    # storing a step never changes the walk: every stored value is the one
    # the every-step walk stores at that step
    steps = data.draw(st.none() | st.sets(st.integers(0, n)))
    rng = np.random.default_rng(seed)
    spec = StepDistribution.uniform([random_isometry(model, rng) for _ in range(atom_count)])
    x = model_basepoint(model)
    tr = sample_walk(spec, x, n, seed, steps=steps)
    every = sample_walk(spec, x, n, seed)
    assert list(every.steps) == list(range(n + 1))
    assert list(tr.steps) == sorted({0, *(every.steps if steps is None else steps)})
    assert len(tr.base_distances) == len(tr.steps) == len(tr.snapshots)
    assert list(tr.base_distances) == [every.base_distances[k] for k in tr.steps]
    assert list(tr.snapshots) == [every.snapshots[k] for k in tr.steps]
    for i, d in enumerate(tr.base_distances):
        assert float(distance(x, tr.point(i))) == pytest.approx(d, rel=1e-9, abs=1e-9)


def _special_boundary(model, x, rng):
    """A boundary point the random samplers rarely give: H2's point at
    infinity, a vertical H2xR direction, and for T4 an end x eta with eta
    a short ray from the root, which the walk x^{-1} Z_k x from the root
    steps on and off."""
    if model is Model.H2:
        return BoundaryPoint(model, math.inf)
    if model is Model.H2xR:
        return BoundaryPoint(model, (None, math.copysign(_h2xr.HALF_PI, rng.random() - 0.5)))
    if model is Model.T4:
        prefix = _t4.random_word(rng, int(rng.integers(0, 3)))
        eta = _t4.boundary(prefix, _t4.random_word(rng, 1, prefix)[-1])
        return BoundaryPoint(model, _t4.boundary_action(x.data, eta))
    return sample_boundary(model, 1, rng)[0]


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), atom_count=st.integers(1, 4),
       n=st.integers(0, 40), special=st.booleans(), data=st.data())
def test_walk_read_toward_xi_holds_the_snapshot_horofunctions(model, seed, atom_count, n,
                                                              special, data):
    # the kernel reads h_xi inside its walk loop; at every stored step it is
    # what snapshot_horofunction reads off the state that walk would store,
    # with the same distances and no state kept
    steps = data.draw(st.none() | st.sets(st.integers(0, n)))
    rng = np.random.default_rng(seed)
    if model is Model.T4 and special:
        spec = StepDistribution.uniform([t4_isometry(w) for w in "aAbB"])
    else:
        spec = StepDistribution.uniform([random_isometry(model, rng) for _ in range(atom_count)])
    x = random_point(model, rng)
    xi = _special_boundary(model, x, rng) if special else sample_boundary(model, 1, rng)[0]
    read = sample_walk(spec, x, n, seed, steps=steps, xi=xi)
    stored = sample_walk(spec, x, n, seed, steps=steps)
    assert read.snapshots == () and read.xi == xi
    assert list(read.steps) == list(stored.steps)
    assert list(read.base_distances) == list(stored.base_distances)
    assert list(read.horofunctions) == [walk.snapshot_horofunction(model, snap, x, xi)
                                        for snap in stored.snapshots]


def test_t4_match_length_follows_the_stack_below_and_back_onto_the_ray():
    # the ray of xi = aaa... from the root; the walk climbs it to aaa, pops
    # below the match length, steps off the ray to aab and back, climbs to
    # aaa again and pops down to the root and past it
    xi = ("", "a")
    increments = [0, 0, 0, 1, 2, 3, 0, 1, 1, 1, 2, 3, 0]  # a a a A b B a A A A b B a
    stored = range(1, len(increments) + 1)
    dists, values = _t4.orbit(list("aAbB"), "", increments, stored, xi)
    assert values == [0.0, -1.0, -2.0, -3.0, -2.0, -1.0, -2.0, -3.0, -2.0, -1.0, 0.0, 1.0,
                      0.0, -1.0]
    assert dists == [1.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    _, words = _t4.orbit(list("aAbB"), "", increments, stored)
    assert values == [float(_t4.snapshot_horofunction(w, "", xi)) for w in words]
    # from a basepoint off the ray, the same walk read toward the same end
    base = "Bab"
    _, values = _t4.orbit(list("aAbB"), base, increments, stored, xi)
    _, words = _t4.orbit(list("aAbB"), base, increments, stored)
    assert values == [float(_t4.snapshot_horofunction(w, base, xi)) for w in words]


def _terminals_by_path(spec, x, n, seed, m):
    dists, snaps = [], []
    for i in range(m):
        tr = sample_walk(spec, x, n, seed, path_index=i, steps=(n,))
        dists.append(tr.base_distances[-1])
        snaps.append(tr.snapshots[-1])
    return dists, snaps


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), atom_count=st.integers(1, 4),
       n=st.integers(0, 60), side=st.sampled_from([-1, 1]), offset=st.integers(0, 8))
def test_sample_terminals_are_the_single_path_ends(model, seed, atom_count, n, side, offset):
    # m lies on either side of the kernel's crossover, so both the batched
    # orbit_paths and the one-path-at-a-time loop are compared, with ==
    m = max(KERNELS[model].BATCH_MIN_PATHS + (offset if side > 0 else -1 - offset), 0)
    rng = np.random.default_rng(seed)
    weights = rng.random(atom_count) + 0.1
    spec = StepDistribution(model, tuple(
        (random_isometry(model, rng), float(w)) for w in weights / weights.sum()))
    x = random_point(model, rng)
    dists, snaps = sample_terminals(spec, x, n, seed, m)
    expected_dists, expected_snaps = _terminals_by_path(spec, x, n, seed, m)
    assert dists.tolist() == expected_dists
    assert snaps == expected_snaps


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_sample_terminals_are_the_single_path_ends_at_full_length(model):
    # the length and path count of the escape benchmark's drift configs
    rng = np.random.default_rng(2000)
    spec = StepDistribution.uniform([random_isometry(model, rng) for _ in range(4)])
    x = random_point(model, rng)
    dists, snaps = sample_terminals(spec, x, 2000, 17, 200)
    expected_dists, expected_snaps = _terminals_by_path(spec, x, 2000, 17, 200)
    assert dists.tolist() == expected_dists
    assert snaps == expected_snaps


def test_h2xr_batched_heights_end_where_the_running_sum_does():
    # the scalar running sum starts from 0.0, so -0.0 shifts sum to 0.0
    atoms = [(_h2.IDENTITY, -0.0), (_h2.isometry((2, 0, 0, 0.5)), -0.0)]
    increments = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.uint8)
    _, snaps = _h2xr.orbit_paths(atoms, _h2xr.BASEPOINT, increments)
    for path, (_, h) in zip(increments.T.tolist(), snaps):
        _, states = _h2xr.orbit(atoms, _h2xr.BASEPOINT, path, [len(path)])
        assert math.copysign(1.0, h) == math.copysign(1.0, states[-1][1]) == 1.0


def test_h2xr_boundary_is_vertical_exactly_at_the_poles():
    up, down = _h2xr.HALF_PI, -_h2xr.HALF_PI
    with pytest.raises(UsageError):
        _h2xr.boundary(0.3, up)
    assert _h2xr.boundary(None, down) == (None, down)
    # a slope just below the pole is a finite end, so it needs its xi
    assert _h2xr.boundary(0.3, up - 1e-12) == (0.3, up - 1e-12)
    with pytest.raises(UsageError):
        _h2xr.boundary(None, up - 1e-12)
    with pytest.raises(UsageError):
        _h2xr.boundary(None, math.nextafter(up, 4.0))


def _is_reduced_by_letters(word):
    # the letter loop is_reduced replaced, kept as the reference
    return all(ch in _t4.ALPHABET for ch in word) and all(
        word[i] != _t4.inv_letter(word[i + 1]) for i in range(len(word) - 1))


def _mul_by_letters(u, v):
    # the letter loop mul replaced, kept as the reference
    out = list(u)
    for ch in v:
        if out and out[-1] == _t4.inv_letter(ch):
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


# reduced words, and words of any letters, some outside the alphabet
WORDS = st.one_of(
    st.lists(st.sampled_from("aAbB"), max_size=40).map(lambda w: _t4.reduce_word("".join(w))),
    st.text(alphabet="aAbBcC", max_size=12))


@settings(max_examples=300, deadline=None)
@given(u=WORDS, v=WORDS, k=st.integers(0, 40))
def test_t4_word_readers_match_their_letter_loops(u, v, k):
    # boundary validation reads is_reduced on words of any letters; mul
    # takes reduced words only
    assert _t4.is_reduced(u) == _is_reduced_by_letters(u)
    assert _t4.is_reduced(v) == _is_reduced_by_letters(v)
    if _t4.is_reduced(v):
        assert _t4.mul(u, v) == _mul_by_letters(u, v)
    # a reduced word that starts by undoing up to k letters of u
    w = _mul_by_letters("", _t4.inv_word(u)[:k] + v)
    assert _t4.mul(u, w) == _mul_by_letters(u, w)


def _gromov_by_ray_vertices(x, b1, b2):
    # the vertex-by-vertex walk gromov_product replaced, kept as the reference
    if _t4.boundary_eq(b1, b2):
        return math.inf
    cap = len(x) + len(b1[0]) + len(b2[0]) + 2 * math.lcm(len(b1[1]), len(b2[1])) + 4
    k = 0
    while k <= cap and _t4.ray_vertex(x, b1, k + 1) == _t4.ray_vertex(x, b2, k + 1):
        k += 1
    return float(k)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shared=st.integers(0, 40),
       base=st.integers(0, 80), climb=st.integers(0, 5), along=st.integers(0, 2))
def test_t4_gromov_product_matches_the_ray_vertex_walk(seed, shared, base, climb, along):
    rng = np.random.default_rng(seed)
    b1 = _t4.random_boundary(rng)
    # a second end that follows b1 for `shared` letters and may then leave
    # it (or stay: equal ends have an infinite product)
    head = _t4.word_prefix(b1, shared)
    turn = _t4.random_word(rng, 2, head)[len(head):]
    b2 = _t4.boundary(head + turn[0], turn[1])
    # a base word far along either ray, or anywhere, then a few letters off
    start = _t4.word_prefix((b1, b2)[along], base) if along < 2 else ""
    x = _t4.random_word(rng, climb if along < 2 else base, start)
    for u, v in ((b1, b2), (b2, b1), (b1, b1)):
        assert _t4.gromov_product(x, u, v) == _gromov_by_ray_vertices(x, u, v)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_sample_terminals_are_the_single_path_ends_across_path_blocks(model):
    # more paths than one batched block holds, on short walks
    rng = np.random.default_rng(1024)
    spec = StepDistribution.uniform([random_isometry(model, rng) for _ in range(3)])
    x = random_point(model, rng)
    m = walk._PATH_BLOCK + 3
    dists, snaps = sample_terminals(spec, x, 7, 5, m)
    expected_dists, expected_snaps = _terminals_by_path(spec, x, 7, 5, m)
    assert dists.tolist() == expected_dists
    assert snaps == expected_snaps


def _metric_by_ray_points(x, a, b):
    # the per-pair metric the boundary charts replaced, kept as the reference:
    # the distance between the ray points at radius 1, read by `dist`
    # (Gromov products on T4)
    kernel = KERNELS[x.model]
    if x.model is Model.T4:
        g = _t4.gromov_product(x.data, a.data, b.data)
        return 0.0 if math.isinf(g) else math.exp(-g)
    return kernel.dist(kernel.ray_point(x.data, a.data, 1.0),
                       kernel.ray_point(x.data, b.data, 1.0))


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 7),
       other_count=st.integers(0, 4))
def test_boundary_distances_are_the_pair_metrics(model, seed, count, other_count):
    # each entry of the pairwise table is the one-pair metric, compared with ==
    rng = np.random.default_rng(seed)
    x = random_point(model, rng)
    points = sample_boundary(model, count, rng)
    others = sample_boundary(model, other_count, rng)
    if points:
        # a repeated point puts zero distances in both tables
        points.append(points[0])
        others.append(points[-1])
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1:]]
    condensed = boundary_distances(x, points)
    assert condensed == [boundary_metric(x, a, b) for a, b in pairs]
    assert condensed == [_metric_by_ray_points(x, a, b) for a, b in pairs]
    rows = boundary_distances(x, points, others)
    assert rows == [[boundary_metric(x, a, b) for b in others] for a in points]
    assert rows == [[_metric_by_ray_points(x, a, b) for b in others] for a in points]


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 6))
def test_angles_at_infinity_are_the_pair_angles(model, seed, count):
    # each pair's comparison angle of ray points at radius 2^8, compared with ==
    rng = np.random.default_rng(seed)
    x = random_point(model, rng)
    points = sample_boundary(model, count, rng)
    if points:
        points.append(points[0])
    limits = angles_at_infinity(x, points)
    pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1:]]
    assert limits == [angle_at_infinity(x, a, b) for a, b in pairs]
    for (a, b), limit in zip(pairs, limits):
        if not boundary_points_equal(a, b):
            assert limit == comparison_angle(x, ray_point(x, a, 2.0 ** 8),
                                             ray_point(x, b, 2.0 ** 8))


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_comparison_angles_of_ray_points_do_not_decrease(model, seed):
    # the angle at infinity is the limit of a non-decreasing function of the
    # radius (Bridson-Haefliger II.9.8), so one radius stands for the limit
    rng = np.random.default_rng(seed)
    x = random_point(model, rng)
    a, b = sample_boundary(model, 2, rng)
    angles = [comparison_angle(x, ray_point(x, a, 2.0 ** k), ray_point(x, b, 2.0 ** k))
              for k in range(9)]
    assert all(later >= earlier - 1e-9 for earlier, later in zip(angles, angles[1:]))


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), atom_count=st.integers(1, 4),
       draws=st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_isometries_preserve_distance(model, seed, atom_count, draws):
    # g = w_1 ... w_k is applied one atom at a time, as in the orbit test
    rng = np.random.default_rng(seed)
    atoms = [random_isometry(model, rng) for _ in range(atom_count)]
    p, q = random_point(model, rng), random_point(model, rng)
    gp, gq = p, q
    for i in reversed([d % atom_count for d in draws]):
        gp, gq = apply(atoms[i], gp), apply(atoms[i], gq)
    if model is Model.T4:
        assert distance(gp, gq) == distance(p, q)
    else:
        assert distance(gp, gq) == pytest.approx(distance(p, q), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_busemann_cocycle_identity_holds(model, seed):
    # h_xi(g1 g2 x) = h_{g1^-1 xi}(g2 x) + h_xi(g1 x), all based at x
    rng = np.random.default_rng(seed)
    g1, g2 = random_isometry(model, rng), random_isometry(model, rng)
    xi = sample_boundary(model, 1, rng)[0]
    x = random_point(model, rng)
    h = horofunction(xi, x, apply(g1, apply(g2, x)))
    assert cocycle_residual(g1, g2, xi, x) <= 1e-9 * (1.0 + abs(h))


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.0, 1.0))
def test_geodesic_triangles_satisfy_the_cat0_comparison(model, seed, frac):
    # m on [q, r] at t = d(q, m): d(p, m) is at most |p' m'| in the Euclidean
    # comparison triangle, whose square Stewart's theorem gives as
    # ((a - t) d(p, q)^2 + t d(p, r)^2) / a - t (a - t) with a = d(q, r)
    rng = np.random.default_rng(seed)
    p, q, r = (random_point(model, rng) for _ in range(3))
    a, pq, pr = distance(q, r), distance(p, q), distance(p, r)
    if model is Model.T4:
        a, pq, pr, t = int(a), int(pq), int(pr), round(frac * a)
        d = int(distance(p, geodesic_point(q, r, t)))
        assert a * d * d <= (a - t) * pq * pq + t * pr * pr - t * (a - t) * a
        return
    t = frac * a
    d = distance(p, geodesic_point(q, r, t))
    comparison = pq if a == 0 else math.sqrt(
        max(0.0, ((a - t) * pq * pq + t * pr * pr) / a - t * (a - t)))
    assert d <= comparison + 1e-9 * (1.0 + d)


# -- the samplers draw what rng.uniform would ------------------------------------
# Each reference below is a sampler as written with rng.uniform(lo, hi); the
# kernels draw lo + (hi - lo) * rng.random(), numpy's own formula for it.

def _ref_sl2(rng):
    theta, t, s = rng.uniform(0, 2 * math.pi), rng.uniform(-1.2, 1.2), rng.uniform(-1.5, 1.5)
    ct, st_, et = math.cos(theta), math.sin(theta), math.exp(t / 2)
    return _h2.mat_mul(_h2.mat_mul((ct, -st_, st_, ct), (et, 0.0, 0.0, 1.0 / et)),
                       (1.0, s, 0.0, 1.0))


def _ref_xi(phi):
    return math.inf if abs(phi) > math.pi - 1e-12 else math.tan(phi / 2.0)


REFERENCE_SAMPLERS = {
    Model.E2: {
        "random_point": lambda rng: _e2.point((rng.uniform(-5, 5), rng.uniform(-5, 5))),
        "random_isometry": lambda rng: _e2.isometry(
            rng.uniform(0, 2 * math.pi), (rng.uniform(-3, 3), rng.uniform(-3, 3))),
        "random_boundary": lambda rng: _e2.boundary(rng.uniform(0.0, 2.0 * math.pi)),
    },
    Model.H2: {
        "random_point": lambda rng: _h2.point((rng.uniform(-3, 3),
                                               math.exp(rng.uniform(-1.5, 1.5)))),
        "random_isometry": lambda rng: _h2.isometry(_ref_sl2(rng)),
        "random_boundary": lambda rng: _ref_xi(rng.uniform(-math.pi, math.pi)),
    },
    Model.H2xR: {
        "random_point": lambda rng: _h2xr.point(
            (rng.uniform(-3, 3), math.exp(rng.uniform(-1.5, 1.5)), rng.uniform(-4, 4))),
        "random_isometry": lambda rng: _h2xr.isometry(_ref_sl2(rng), rng.uniform(-2, 2)),
        "random_boundary": lambda rng: _h2xr.boundary(
            _ref_xi(rng.uniform(-math.pi, math.pi)),
            rng.uniform(-math.pi / 2 * 0.999, math.pi / 2 * 0.999)),
    },
}


@pytest.mark.parametrize("model", list(REFERENCE_SAMPLERS), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", [0, 1, 2 ** 40 + 3])
def test_continuous_samplers_match_their_uniform_references(model, seed):
    kernel, ref = KERNELS[model], REFERENCE_SAMPLERS[model]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        for name in ("random_point", "random_isometry"):
            assert getattr(kernel, name)(rng) == ref[name](ref_rng)
        assert kernel.random_boundary(rng) == ref["random_boundary"](ref_rng)
    # the streams end in the same state
    assert rng.random() == ref_rng.random()


def _ref_sample_in_bin(scheme, i, rng):
    if scheme.kind == "angle":
        w = 2.0 * math.pi / scheme.count
        return _e2.boundary(rng.uniform(i * w, (i + 1) * w))
    if scheme.kind == "circle":
        w = 2.0 * math.pi / scheme.count
        phi = rng.uniform(-math.pi + i * w, -math.pi + (i + 1) * w)
        return math.inf if abs(phi) >= math.pi - 1e-12 else math.tan(phi / 2.0)
    if scheme.kind == "cylinder":
        word = cylinder_words(scheme.params["length"])[i]
        letters = [ch for ch in "aAbB" if ch != word[-1].swapcase()]
        return _t4.boundary(word, letters[int(rng.integers(0, 3))])
    k_xi, k_alpha = scheme.params["k_xi"], scheme.params["k_alpha"]
    if i >= k_xi * k_alpha:
        return (None, math.pi / 2 if i == k_xi * k_alpha else -math.pi / 2)
    bi, bj = divmod(i, k_alpha)
    w = 2.0 * math.pi / k_xi
    phi = rng.uniform(-math.pi + bi * w, -math.pi + (bi + 1) * w)
    wa = math.pi / k_alpha
    alpha = rng.uniform(-math.pi / 2 + bj * wa, -math.pi / 2 + (bj + 1) * wa)
    alpha = max(-math.pi / 2 + 1e-9, min(math.pi / 2 - 1e-9, alpha))
    xi = math.inf if abs(phi) >= math.pi - 1e-12 else math.tan(phi / 2.0)
    return _h2xr.boundary(xi, alpha)


@pytest.mark.parametrize("scheme", [BinScheme.of(Model.E2, 16), BinScheme.of(Model.H2, 16),
                                    BinScheme.of(Model.E2, 3), BinScheme.of(Model.H2, 5),
                                    BinScheme.of(Model.H2xR, 8, 4),
                                    BinScheme.of(Model.H2xR, 3, 5),
                                    BinScheme.of(Model.T4, 1), BinScheme.of(Model.T4, 2)],
                         ids=lambda s: f"{s.kind}-{s.count}")
def test_sample_in_bin_matches_its_uniform_reference(scheme):
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(20):
        for i in range(scheme.count):
            got = KERNELS[scheme.model].bin_sample(scheme.params, i, rng)
            assert got == _ref_sample_in_bin(scheme, i, ref_rng)
    assert rng.random() == ref_rng.random()


# the report's histogram.bins block, captured before the bin layouts moved
# into the kernels
BIN_DESCRIPTORS = [
    (BinScheme.default(Model.E2), {"model": "E2", "kind": "angle", "count": 16}),
    (BinScheme.default(Model.H2), {"model": "H2", "kind": "circle", "count": 16}),
    (BinScheme.default(Model.T4),
     {"model": "T4", "kind": "cylinder", "length": 2, "count": 12}),
    (BinScheme.default(Model.H2xR),
     {"model": "H2xR", "kind": "product", "k_xi": 8, "k_alpha": 4, "count": 34}),
    (BinScheme.of(Model.H2xR, 3, 5),
     {"model": "H2xR", "kind": "product", "k_xi": 3, "k_alpha": 5, "count": 17}),
]


@pytest.mark.parametrize("scheme, descriptor", BIN_DESCRIPTORS,
                         ids=[f"{s.model.value}-{s.count}" for s, _ in BIN_DESCRIPTORS])
def test_bin_descriptor_and_count_are_pinned(scheme, descriptor):
    assert scheme.count == descriptor["count"]
    assert scheme.descriptor() == descriptor


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(0, 6))
def test_t4_bin_index_is_the_position_in_the_word_list(seed, length):
    rng = np.random.default_rng(seed)
    params, words = _t4.bin_params(length), cylinder_words(length)
    assert params["count"] == len(words)
    for _ in range(5):
        b = _t4.random_boundary(rng)
        assert _t4.bin_index(params, b) == words.index(_t4.word_prefix(b, length))
