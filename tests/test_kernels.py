"""The kernel table: one module per model, all with the same names."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat0lab import (
    Model,
    StepDistribution,
    _t4,
    apply,
    boundary_distances,
    boundary_metric,
    cocycle_residual,
    distance,
    horofunction,
    sample_boundary,
    sample_terminals,
    sample_walk,
    walk,
)
from cat0lab.geometry import model_basepoint
from cat0lab.models import KERNELS
from cat0lab.sampling import random_isometry, random_point

TABLE = (
    # values and codecs
    "BASEPOINT", "IDENTITY", "point", "boundary", "isometry", "points_equal",
    "boundary_eq", "isometry_key", "point_from_json", "boundary_to_json",
    "boundary_from_json", "isometry_to_json", "isometry_from_json",
    # geometry
    "dist", "geodesic_point", "ray_point", "direction", "horofunction",
    "busemann_limit",
    # the group and axes
    "apply", "apply_boundary", "compose", "inverse", "classify", "axis_endpoints",
    "axis_position", "RANK_ONE",
    # boundary
    "tits", "boundary_chart", "chart_dist", "geodesic_witness", "TITS_BALL_TRIVIAL",
    "VERTEX_GRANULAR",
    # samplers and bins
    "random_point", "random_isometry", "random_axial", "random_boundary",
    "ball_point", "default_bins",
    # walks
    "orbit", "orbit_paths", "BATCH_MIN_PATHS", "snapshot_point", "snapshot_horofunction",
    "snapshot_boundary", "CSV_COLUMNS", "csv_row", "tracking_gaps",
)


def test_every_model_has_a_kernel():
    assert set(KERNELS) == set(Model)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_kernel_exposes_the_whole_table(model):
    missing = [name for name in TABLE if not hasattr(KERNELS[model], name)]
    assert missing == []


INCREMENTS = [0, 1, 2, 2, 0, 1]


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_walker_snapshot_point_matches_dist_to_base(model):
    kernel = KERNELS[model]
    rng = np.random.default_rng(5)
    atoms = [kernel.random_isometry(rng) for _ in range(3)]
    dists, snaps = kernel.orbit(atoms, kernel.BASEPOINT, INCREMENTS, {len(INCREMENTS)})
    p = kernel.snapshot_point(snaps[-1], kernel.BASEPOINT)
    assert float(kernel.dist(kernel.BASEPOINT, p)) == pytest.approx(dists[-1],
                                                                    rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_snapshot_boundary_is_the_image_under_the_atom_product(model):
    kernel = KERNELS[model]
    rng = np.random.default_rng(11)
    atoms = [kernel.random_isometry(rng) for _ in range(3)]
    _, snaps = kernel.orbit(atoms, kernel.BASEPOINT, INCREMENTS, {len(INCREMENTS)})
    product = kernel.IDENTITY
    for i in INCREMENTS:
        product = kernel.compose(product, atoms[i])
    for _ in range(5):
        b = kernel.random_boundary(rng, 1e-9)
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
    dists, snaps = kernel.orbit(atoms, kernel.BASEPOINT, increments, set(range(1, n + 1)))
    assert len(dists) == n and len(snaps) == n + 1
    for k, d in enumerate(dists, start=1):
        p = kernel.snapshot_point(snaps[k], kernel.BASEPOINT)
        assert float(kernel.dist(kernel.BASEPOINT, p)) == pytest.approx(d, rel=1e-9, abs=1e-9)
    # the image under w_1 ... w_k is applied one atom at a time: composing
    # thirty hyperbolic atoms into one float matrix loses its determinant
    b = kernel.random_boundary(rng, 1e-9)
    for k in range(n + 1):
        expected = b
        for i in reversed(increments[:k]):
            expected = kernel.apply_boundary(atoms[i], expected)
        image = kernel.snapshot_boundary(snaps[k], kernel.BASEPOINT, b)
        assert kernel.boundary_eq(image, expected, 1e-9)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), atom_count=st.integers(1, 4),
       n=st.integers(0, 30), thin=st.integers(1, 35))
def test_walk_distances_sit_at_the_stored_steps(model, seed, atom_count, n, thin):
    # base_distances[i] belongs to step steps[i], as point(i) does
    rng = np.random.default_rng(seed)
    spec = StepDistribution.uniform([random_isometry(model, rng) for _ in range(atom_count)])
    x = model_basepoint(model)
    tr = sample_walk(spec, x, n, seed, thin=thin)
    assert len(tr.base_distances) == len(tr.steps) == len(tr.snapshots)
    for i, d in enumerate(tr.base_distances):
        assert float(distance(x, tr.point(i))) == pytest.approx(d, rel=1e-9, abs=1e-9)


def _terminals_by_path(spec, x, n, seed, m):
    dists, snaps = [], []
    for i in range(m):
        tr = sample_walk(spec, x, n, seed, path_index=i, thin=max(n, 1))
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
    assert _t4.is_reduced(u) == _is_reduced_by_letters(u)
    assert _t4.mul(u, v) == _mul_by_letters(u, v)
    # a reduced word that starts by undoing up to k letters of u
    w = _mul_by_letters("", _t4.inv_word(u)[:k] + v)
    assert _t4.mul(u, w) == _mul_by_letters(u, w)


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


def _metric_by_ray_points(x, a, b, r0):
    # the per-pair metric the boundary charts replaced, kept as the reference
    kernel = KERNELS[x.model]
    if x.model is Model.T4:
        g = _t4.gromov_product(x.data, a.data, b.data)
        return 0.0 if math.isinf(g) else math.exp(-g)
    return kernel.dist(kernel.ray_point(x.data, a.data, r0),
                       kernel.ray_point(x.data, b.data, r0))


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 7),
       other_count=st.integers(0, 4), r0=st.floats(0.0, 3.0))
def test_boundary_distances_are_the_pair_metrics(model, seed, count, other_count, r0):
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
    condensed = boundary_distances(x, points, r0=r0)
    assert condensed == [boundary_metric(x, a, b, r0) for a, b in pairs]
    assert condensed == [_metric_by_ray_points(x, a, b, r0) for a, b in pairs]
    rows = boundary_distances(x, points, others, r0)
    assert rows == [[boundary_metric(x, a, b, r0) for b in others] for a in points]
    assert rows == [[_metric_by_ray_points(x, a, b, r0) for b in others] for a in points]


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
