import math

import numpy as np
import pytest

from cat0lab import (
    BinScheme,
    DomainError,
    HittingHistogram,
    Model,
    StepDistribution,
    boundary_metric,
    cocycle_residual,
    convergence_profile,
    dirac_concentration,
    drift_estimate,
    e2_boundary,
    e2_point,
    h2_boundary,
    h2_isometry,
    h2_point,
    hitting_measure,
    horofunction_gap,
    hypotheses_audit,
    identity,
    inverse,
    pi_convergence_check,
    power,
    rankone_audit,
    sample_boundary,
    sample_walk,
    stationarity_defect,
    t4_boundary,
    t4_isometry,
    t4_point,
    theil_sen,
    tracking_error,
)
from cat0lab.errors import UsageError
from cat0lab.models import KERNELS
from cat0lab.oracles import tree_drift_expected, tree_hitting_cylinders, uniform_tree_probs
from cat0lab.sampling import random_isometry, random_point

from references import cylinder_words


def test_drift_deterministic_axial_equals_translation_length():
    g = h2_isometry(2, 0, 0, 0.5)
    det = StepDistribution(Model.H2, ((g, 1.0),))
    x = h2_point(0, 1)  # on the axis
    rep = drift_estimate(det, x, 50, 3, 0)
    assert rep.lambda_hat == pytest.approx(2 * math.log(2), abs=1e-9)
    assert rep.std_error <= 1e-12
    # off the axis the deviation is at most 2 d(x, axis) / n
    x_off = h2_point(3.0, 1.0)
    from cat0lab import distance

    d_axis = distance(x_off, h2_point(0, math.hypot(3, 1)))
    rep_off = drift_estimate(det, x_off, 80, 2, 0)
    assert abs(rep_off.lambda_hat - 2 * math.log(2)) <= 2 * d_axis / 80 + 1e-9


def test_drift_basepoint_change_bound(h2_spec):
    x = h2_point(0, 1)
    z = h2_point(1.5, 0.6)
    n = 150
    from cat0lab import distance

    for i in range(5):
        tx = sample_walk(h2_spec, x, n, 31, path_index=i, steps=[n])
        tz = sample_walk(h2_spec, z, n, 31, path_index=i, steps=[n])
        assert abs(tx.base_distances[-1] - tz.base_distances[-1]) <= 2 * distance(x, z) + 1e-7


def test_drift_tree_matches_birth_death_oracle(t4_uniform):
    rep = drift_estimate(t4_uniform, t4_point(""), 400, 120, 5)
    assert rep.lambda_hat == pytest.approx(tree_drift_expected(400), abs=4 * rep.std_error)


def test_drift_estimates_an_uncertified_support():
    # the support generates only a semigroup, so the CLI gate refuses it; the
    # estimator certifies nothing and returns its estimate
    spec = StepDistribution.uniform([t4_isometry("a"), t4_isometry("b")])
    rep = drift_estimate(spec, t4_point(""), 50, 5, 0)
    assert rep.lambda_hat == pytest.approx(1.0)  # free semigroup walk never backtracks


def test_drift_horofunction_speed(h2_spec):
    rep = drift_estimate(h2_spec, h2_point(0, 1), 400, 60, 9,
                         horofunction_xi=h2_boundary(5.0))
    assert rep.horofunction_lambda == pytest.approx(rep.lambda_hat, rel=0.05)


def test_drift_report_consistency(t4_uniform):
    rep = drift_estimate(t4_uniform, t4_point(""), 100, 40, 2)
    assert rep.lambda_hat == pytest.approx(float(np.mean(rep.per_sample_terminal)))
    assert rep.std_error == pytest.approx(
        float(np.std(rep.per_sample_terminal, ddof=1)) / math.sqrt(40))


def test_convergence_profile_deterministic_constant():
    g = h2_isometry(2, 0, 0, 0.5)
    det = StepDistribution(Model.H2, ((g, 1.0),))
    tr = sample_walk(det, h2_point(0, 1), 30, 0, steps=[3, 9, 15, 21, 27, 30])
    prof = convergence_profile(tr)
    assert all(v == 0.0 for v in prof.cauchy_tail)
    assert all(b.data == math.inf for b in prof.boundary_coords)


def test_convergence_profile_tail_nonincreasing(h2_spec):
    tr = sample_walk(h2_spec, h2_point(0, 1), 300, 3, steps=range(20, 301, 20))
    prof = convergence_profile(tr)
    tail = prof.cauchy_tail
    assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))


def test_convergence_profile_h2_settles_e2_wanders(h2_spec, e2_centered):
    settled = 0
    for i in range(10):
        tr = sample_walk(h2_spec, h2_point(0, 1), 600, 100 + i, steps=range(300, 601, 30))
        prof = convergence_profile(tr)
        if prof.cauchy_tail and prof.cauchy_tail[0] <= 1e-2:
            settled += 1
    assert settled >= 9
    wandered = 0
    for i in range(10):
        tr = sample_walk(e2_centered, e2_point(0, 0), 600, 200 + i,
                         steps=range(300, 601, 30))
        prof = convergence_profile(tr)
        if prof.cauchy_tail and prof.cauchy_tail[0] > 1e-2:
            wandered += 1
    assert wandered >= 5


def test_hitting_single_atom_unit_mass():
    g = t4_isometry("a")
    det = StepDistribution(Model.T4, ((g, 1.0),))
    bins = BinScheme.of(Model.T4, 1)
    hist = hitting_measure(det, t4_point(""), 30, 20, bins, 0)
    idx = cylinder_words(1).index("a")
    assert hist.masses[idx] == 1.0


def test_hitting_uniform_tree_cylinders(t4_uniform):
    bins = BinScheme.of(Model.T4, 1)
    hist = hitting_measure(t4_uniform, t4_point(""), 150, 600, bins, 3)
    sigma = math.sqrt(0.25 * 0.75 / 600)
    for m in hist.masses:
        assert m == pytest.approx(0.25, abs=3.5 * sigma)


def test_hitting_biased_tree_asymmetry():
    spec = StepDistribution(Model.T4, ((t4_isometry("a"), 0.5),
                                       (t4_isometry("A"), 1 / 6),
                                       (t4_isometry("b"), 1 / 6),
                                       (t4_isometry("B"), 1 / 6)))
    bins = BinScheme.of(Model.T4, 1)
    hist = hitting_measure(spec, t4_point(""), 150, 600, bins, 4)
    words = cylinder_words(1)
    mass_a = hist.masses[words.index("a")]
    mass_inv = hist.masses[words.index("A")]
    assert mass_a > mass_inv + 3 * math.sqrt(0.25 / 600)
    # oracle comparison: exact first-letter masses from the recursion
    cyl = tree_hitting_cylinders({"a": 0.5, "A": 1 / 6, "b": 1 / 6, "B": 1 / 6}, 1)
    se = math.sqrt(0.25 / 600)
    assert mass_a == pytest.approx(cyl["a"], abs=4 * se)


def test_biased_tree_drift_matches_the_hitting_oracle():
    # by the letter reversal of the free group, the drift of a nearest-
    # neighbour tree walk is 1 - 2 sum_g p_g q_{g^-1}, with q the exact
    # first-letter hitting masses; m is above the T4 crossover, so the
    # batched kernel walks these non-uniform letters
    probs = {"a": 0.4, "A": 0.1, "b": 0.3, "B": 0.2}
    spec = StepDistribution(Model.T4, tuple(
        (t4_isometry(k), p) for k, p in probs.items()))
    q = tree_hitting_cylinders(probs, 1)
    lam = 1.0 - 2.0 * sum(p * q[g.swapcase()] for g, p in probs.items())
    assert lam == pytest.approx(0.63231, abs=1e-5)
    m = 400
    assert m >= KERNELS[Model.T4].BATCH_MIN_PATHS
    rep = drift_estimate(spec, t4_point(""), 2000, m, 11)
    assert abs(rep.lambda_hat - lam) <= 5 * rep.std_error


def test_tree_cylinder_oracle_uniform_case():
    cyl1 = tree_hitting_cylinders(uniform_tree_probs(), 1)
    assert all(v == pytest.approx(0.25) for v in cyl1.values())
    cyl2 = tree_hitting_cylinders(uniform_tree_probs(), 2)
    assert len(cyl2) == 12
    assert all(v == pytest.approx(0.25 / 3) for v in cyl2.values())
    assert sum(cyl2.values()) == pytest.approx(1.0)


def test_stationarity_identity_spec_zero():
    ident = StepDistribution(Model.E2, ((identity(Model.E2), 1.0),))
    bins = BinScheme.of(Model.E2, 8)
    hist = HittingHistogram(bins, tuple([0.125] * 8), 0, 0)
    assert stationarity_defect(ident, hist, 16, seed=0) == 0.0


def test_stationarity_exact_tree_measure_small_defect(t4_uniform):
    # the exact hitting measure is stationary; the defect is pure binning error
    cyl = tree_hitting_cylinders(uniform_tree_probs(), 2)
    bins = BinScheme.of(Model.T4, 2)
    hist = HittingHistogram(bins, tuple(cyl[w] for w in cylinder_words(2)), 0, 0)
    assert stationarity_defect(t4_uniform, hist, 48, seed=2) <= 0.03


def test_stationarity_biased_tree_oracle():
    # within-bin uniform tails carry a systematic binning error of about
    # 0.057 here; the exact conditional-tail pushforward below certifies that
    # the recursion measure itself is stationary to rounding
    probs = {"a": 0.5, "A": 1 / 6, "b": 1 / 6, "B": 1 / 6}
    spec = StepDistribution(Model.T4, tuple(
        (t4_isometry(k), p) for k, p in probs.items()))
    cyl = tree_hitting_cylinders(probs, 2)
    bins = BinScheme.of(Model.T4, 2)
    hist = HittingHistogram(bins, tuple(cyl[w] for w in cylinder_words(2)), 0, 0)
    assert stationarity_defect(spec, hist, 48, seed=2) <= 0.08


def test_stationarity_exact_with_conditional_tails():
    # mu * nu = nu holds exactly when bins are refined by the true
    # conditional tail law (one extra cylinder level)
    from cat0lab import apply_boundary, t4_boundary
    from cat0lab._t4 import word_prefix

    probs = {"a": 0.5, "A": 1 / 6, "b": 1 / 6, "B": 1 / 6}
    spec = StepDistribution(Model.T4, tuple(
        (t4_isometry(k), p) for k, p in probs.items()))
    bins = BinScheme.of(Model.T4, 2)
    cyl2 = tree_hitting_cylinders(probs, 2)
    cyl3 = tree_hitting_cylinders(probs, 3)
    pushed = np.zeros(bins.count)
    for w3, mass in cyl3.items():
        tail = next(c for c in "aAbB" if c != w3[-1].swapcase())
        b = t4_boundary(w3, tail)
        for g, p in spec.atoms:
            img = apply_boundary(g, b)
            pushed[cylinder_words(2).index(word_prefix(img.data, 2))] += mass * p
    masses = np.array([cyl2[w] for w in cylinder_words(2)])
    assert 0.5 * np.abs(pushed - masses).sum() <= 1e-12


def test_nonatomicity_max_mass_decreases_under_refinement(t4_uniform):
    masses = []
    for length in (1, 2, 3):
        bins = BinScheme.of(Model.T4, length)
        hist = hitting_measure(t4_uniform, t4_point(""), 60, 500, bins, 8)
        masses.append(max(hist.masses))
    assert masses[0] > masses[1] > masses[2]


def test_dirac_deterministic_rank_one():
    g = h2_isometry(2, 0, 0, 0.5)
    det = StepDistribution(Model.H2, ((g, 1.0),))
    atoms = [h2_boundary(v) for v in (1.0, 2.0, -3.0, 0.5)]
    rep = dirac_concentration(det, atoms, 0, [5, 10, 20, 40])
    assert rep.spread[0] > rep.spread[-1]
    assert rep.spread[-1] <= 1e-6
    assert hypotheses_audit(det)[2]  # single atom cannot be non-elementary


def test_dirac_uniqueness_witness(h2_spec):
    atoms0 = sample_boundary(Model.H2, 8, 11)
    atoms1 = sample_boundary(Model.H2, 8, 12)
    rep = dirac_concentration(h2_spec, atoms0, 5, [30, 60, 120], atoms1=atoms1)
    assert hypotheses_audit(h2_spec)[2] == []
    assert rep.spread[-1] <= 1e-3
    assert rep.spread_second[-1] <= 1e-3
    assert rep.cross_spread[-1] <= rep.spread[-1] + rep.spread_second[-1] + 1e-3


def test_dirac_translation_control_spread_constant(e2_centered):
    atoms = [e2_boundary(t) for t in (0.1, 1.0, 2.5, 4.0)]
    rep = dirac_concentration(e2_centered, atoms, 3, [10, 30, 60])
    assert rep.spread[0] == pytest.approx(rep.spread[-1])  # translations fix the circle
    assert hypotheses_audit(e2_centered)[2]


def test_gap_deterministic_axial_zero():
    g = h2_isometry(2, 0, 0, 0.5)
    det = StepDistribution(Model.H2, ((g, 1.0),))
    tr = sample_walk(det, h2_point(0, 1), 60, 0)
    gm, _ = (b for b in __import__("cat0lab").axis_endpoints(g))
    sup_gap, series = horofunction_gap(tr, gm)
    assert sup_gap <= 1e-7


def test_gap_series_obeys_cocycle_decomposition(h2_spec, t4_uniform):
    from cat0lab import apply, apply_boundary, horofunction

    for spec, x, xi, n in (
        (h2_spec, h2_point(0, 1), h2_boundary(5.0), 120),
        (t4_uniform, t4_point(""), t4_boundary("ab", "a"), 120),
    ):
        tr = sample_walk(spec, x, n, 21)
        inv_atoms = [inverse(g) for g in spec.isometries]
        zeta = xi  # Z_{k-1}^{-1} xi, updated incrementally
        total = 0.0
        for k in range(1, n + 1):
            atom = spec.isometries[int(tr.increments[k - 1])]
            total += horofunction(zeta, x, apply(atom, x))
            zeta = apply_boundary(inv_atoms[int(tr.increments[k - 1])], zeta)
        from cat0lab.walk import snapshot_horofunction

        direct = snapshot_horofunction(spec.model, tr.snapshots[-1], x, xi)
        assert total == pytest.approx(direct, abs=1e-8)


def test_gap_of_a_walk_read_toward_xi_is_the_snapshot_gap(h2_spec, t4_uniform):
    for spec, x, xi, other in (
        (h2_spec, h2_point(0.5, 2.0), h2_boundary(5.0), h2_boundary(-1.0)),
        (t4_uniform, t4_point("bA"), t4_boundary("ab", "a"), t4_boundary("b", "b")),
    ):
        steps = range(0, 301, 3)
        read = sample_walk(spec, x, 300, 8, steps=steps, xi=xi)
        sup_gap, series = horofunction_gap(read, xi)
        expected_sup, expected = horofunction_gap(sample_walk(spec, x, 300, 8, steps=steps), xi)
        assert sup_gap == expected_sup and series.tolist() == expected.tolist()
        with pytest.raises(UsageError):
            horofunction_gap(read, other)


def test_gap_bounded_for_certified_h2(h2_spec):
    tr = sample_walk(h2_spec, h2_point(0, 1), 3000, 17, steps=range(30, 3001, 30))
    sup_gap, series = horofunction_gap(tr, h2_boundary(5.0))
    ks = [int(k) for k in tr.steps]
    slope = theil_sen(ks[10:], series[10:])
    span = ks[-1] - ks[10]
    iqr = float(np.percentile(series[10:], 75) - np.percentile(series[10:], 25))
    assert slope <= max(0.5 * iqr, 0.05) / span


def test_gap_grows_for_e2_control(e2_centered):
    tr = sample_walk(e2_centered, e2_point(0, 0), 4000, 3, steps=range(40, 4001, 40))
    sup_gap, series = horofunction_gap(tr, e2_boundary(0.0))
    ks = [int(k) for k in tr.steps]
    slope = theil_sen(ks, series)
    iqr = float(np.percentile(series, 75) - np.percentile(series, 25))
    span = ks[-1] - ks[0]
    assert slope > 0.5 * iqr / span  # transverse excursion keeps growing


def test_cocycle_identity_zero():
    e = identity(Model.H2)
    assert cocycle_residual(e, e, h2_boundary(0.3), h2_point(0, 1)) == 0.0


def test_cocycle_residual_sampled(rng):
    for _ in range(200):
        g1 = random_isometry(Model.H2, rng)
        g2 = random_isometry(Model.H2, rng)
        xi = sample_boundary(Model.H2, 1, rng)[0]
        x = random_point(Model.H2, rng)
        assert cocycle_residual(g1, g2, xi, x) <= 1e-9
    for _ in range(200):
        g1 = random_isometry(Model.E2, rng)
        g2 = random_isometry(Model.E2, rng)
        xi = sample_boundary(Model.E2, 1, rng)[0]
        x = random_point(Model.E2, rng)
        assert cocycle_residual(g1, g2, xi, x) <= 1e-9


def test_cocycle_exact_on_tree(rng):
    for _ in range(100):
        g1 = random_isometry(Model.T4, rng)
        g2 = random_isometry(Model.T4, rng)
        xi = sample_boundary(Model.T4, 1, rng)[0]
        x = random_point(Model.T4, rng)
        assert cocycle_residual(g1, g2, xi, x) == 0.0


def test_tracking_deterministic_zero():
    g = h2_isometry(2, 0, 0, 0.5)
    det = StepDistribution(Model.H2, ((g, 1.0),))
    tr = sample_walk(det, h2_point(0, 1), 40, 0, steps=range(4, 41, 4))
    ks, errs = tracking_error(tr, 2 * math.log(2))
    assert max(errs) <= 1e-9


def test_tracking_tree_uniform_decreases(t4_uniform):
    tr = sample_walk(t4_uniform, t4_point(""), 3000, 5, steps=range(300, 3001, 300))
    ks, errs = tracking_error(tr, 0.5)
    assert errs[-1] <= 0.05
    assert theil_sen(ks, errs) <= 0.0


def test_tracking_h2_decreasing_trend(h2_spec):
    slopes = []
    for seed in range(5):
        tr = sample_walk(h2_spec, h2_point(0, 1), 1200, 400 + seed,
                         steps=range(60, 1201, 60))
        lam = tr.base_distances[-1] / 1200
        ks, errs = tracking_error(tr, lam)
        slopes.append(theil_sen(ks, errs))
    assert sum(1 for s in slopes if s < 0) >= 4


def test_tracking_rejects_nonpositive_drift(t4_uniform):
    tr = sample_walk(t4_uniform, t4_point(""), 50, 1)
    with pytest.raises(DomainError):
        tracking_error(tr, 0.0)


def test_pi_convergence_h2_powers():
    g = h2_isometry(2, 0, 0, 0.5)
    gs = [power(g, k) for k in range(1, 25)]
    x = h2_point(0, 1)
    pool = sample_boundary(Model.H2, 200, 7)
    compact = [b for b in pool if boundary_metric(x, b, h2_boundary(0.0)) > 0.1][:50]
    res = pi_convergence_check(gs, x, compact, 0.05)
    assert res.holds
    assert 0 < res.n0 < 24
    assert res.xi.data == math.inf


def test_pi_convergence_t4_powers():
    g = t4_isometry("a")
    gs = [power(g, k) for k in range(1, 12)]
    x = t4_point("")
    pool = sample_boundary(Model.T4, 120, 3)
    eta = t4_boundary("A", "A")
    compact = [b for b in pool if boundary_metric(x, b, eta) > 0.1][:40]
    res = pi_convergence_check(gs, x, compact, 0.01)
    assert res.holds


def test_pi_convergence_domain_error_inside_ball():
    g = h2_isometry(2, 0, 0, 0.5)
    gs = [power(g, k) for k in range(1, 10)]
    x = h2_point(0, 1)
    with pytest.raises(DomainError):
        pi_convergence_check(gs, x, [h2_boundary(0.0)], 0.05)


def test_pi_convergence_identity_sequence():
    e = identity(Model.H2)
    gs = [e] * 6
    x = h2_point(0, 1)
    near = [h2_boundary(math.inf)]
    hint = (h2_boundary(math.inf), h2_boundary(0.0))
    res = pi_convergence_check(gs, x, near, 0.05, limits=hint)
    assert res.holds and res.n0 == 0  # K already inside the target set
    far = [h2_boundary(1.0)]
    res2 = pi_convergence_check(gs, x, far, 0.05, limits=hint)
    assert not res2.holds and res2.n0 == len(gs)


def test_theil_sen_basic():
    xs = np.arange(50)
    assert theil_sen(xs, 3.0 * xs + 2) == pytest.approx(3.0)
    assert abs(theil_sen(xs, np.ones(50))) <= 1e-12
    # no two distinct x values give no slope at all: the parent returned NaN
    with pytest.raises(UsageError):
        theil_sen([1, 1, 1], [1, 2, 3])


def _theil_sen_by_list(xs, ys):
    # the Python float list theil_sen gathered its slopes in, kept as the
    # reference
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) > 300:
        stride = len(xs) // 300 + 1
        xs, ys = xs[::stride], ys[::stride]
    slopes = []
    for i in range(len(xs)):
        dx = xs[i + 1:] - xs[i]
        dy = ys[i + 1:] - ys[i]
        keep = dx != 0
        slopes.extend((dy[keep] / dx[keep]).tolist())
    return float(np.median(slopes))


@pytest.mark.parametrize("seed", range(12))
def test_theil_sen_is_the_median_of_the_slope_list(seed):
    # repeated x drop their pairs; the longer series are strided first
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 700))
    xs = np.sort(rng.integers(0, max(2, n // 3), n)).astype(float)
    xs[-1] = xs[0] + 1.0  # at least two distinct x
    ys = rng.normal(size=n) + 0.01 * xs
    assert theil_sen(xs, ys) == _theil_sen_by_list(xs, ys)


def test_rankone_audit_verdicts(h2_spec, e2_centered):
    assert rankone_audit(h2_spec).verdict == "certified-non-elementary"
    assert rankone_audit(e2_centered).verdict == "hypotheses-violated"
    single_axis = StepDistribution.uniform([t4_isometry("a"), t4_isometry("A")])
    assert rankone_audit(single_axis).verdict == "indeterminate"


def test_rankone_audit_pairs_are_the_kernel_independence(h2_spec, t4_uniform):
    # the workload supports g, g^-1, h, h^-1 and a, A, b, B: an atom and its
    # inverse share their fixed points, and every other pair is independent
    for spec in (h2_spec, t4_uniform):
        assert [tuple(p) for p in rankone_audit(spec).pairs] == [
            (0, 1, False), (0, 2, True), (0, 3, True), (1, 2, True), (1, 3, True),
            (2, 3, False)]


def near_degenerate_support(p: float) -> StepDistribution:
    """Uniform on g^+-1 and h^+-1, g = diag(2, 1/2) fixing 0 and infinity,
    h = M diag(2, 1/2) M^-1 with M = [[5, p], [1, 1]] fixing p and 5: the
    support is non-elementary exactly when p != 0."""
    g = h2_isometry(2, 0, 0, 0.5)
    h = h2_isometry(10 - 0.5 * p, -7.5 * p, 1.5, 2.5 - 2 * p)
    return StepDistribution.uniform([g, inverse(g), h, inverse(h)])


@pytest.mark.parametrize("p", [1e-1, 1e-2, 1e-3, 1e-5, 1e-7, 1e-9, 1e-12])
def test_rankone_audit_certifies_supports_with_nearly_shared_fixed_points(p):
    _, audit, problems = hypotheses_audit(near_degenerate_support(p))
    assert audit.verdict == "certified-non-elementary"
    assert problems == []


def test_rankone_audit_leaves_shared_fixed_points_indeterminate():
    assert rankone_audit(near_degenerate_support(0.0)).verdict == "indeterminate"
    commuting = StepDistribution.uniform([t4_isometry("a"), t4_isometry("aa")])
    assert rankone_audit(commuting).verdict == "indeterminate"
