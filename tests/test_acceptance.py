"""Acceptance suite: every release-gating property at its stated scale and
tolerance, one PASS/FAIL line per criterion (visible with pytest -s)."""

import json
import math
import time

import numpy as np
import pytest

from cat0lab import (
    DomainError,
    Model,
    StepDistribution,
    angle_at_infinity,
    axis_endpoints,
    boundary_metric,
    cocycle_residual,
    convergence_profile,
    dirac_concentration,
    distance,
    drift_estimate,
    e2_boundary,
    e2_isometry,
    e2_point,
    geodesic_point,
    h2_boundary,
    h2_isometry,
    h2_point,
    h2xr_boundary,
    h2xr_isometry,
    h2xr_point,
    horofunction,
    horofunction_limit_oracle,
    inverse,
    is_rank_one,
    model_basepoint,
    north_south_constant,
    pi_convergence_check,
    power,
    ray_point,
    sample_boundary,
    sample_walk,
    t4_boundary,
    t4_isometry,
    t4_point,
    theil_sen,
    tits_ball_is_trivial,
    tits_distance,
    tracking_error,
)
from cat0lab.cli import main as cli_main
from cat0lab.oracles import tree_drift_expected
from cat0lab.sampling import random_point

from conftest import ALL_MODELS, standard_h2_pair
from references import project_to_ball


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def h2_spec():
    g, h = standard_h2_pair()
    return StepDistribution.uniform([g, inverse(g), h, inverse(h)])


@pytest.fixture(scope="module")
def t4_uniform():
    return StepDistribution.uniform([t4_isometry(w) for w in "aAbB"])


@pytest.fixture(scope="module")
def e2_centered():
    return StepDistribution.uniform([
        e2_isometry(0, (1, 0)), e2_isometry(0, (-1, 0)),
        e2_isometry(0, (0, 1)), e2_isometry(0, (0, -1)),
    ])


def test_tree_drift_matches_birth_death_oracle(t4_uniform):
    t0 = time.perf_counter()
    rep = drift_estimate(t4_uniform, t4_point(""), 2000, 500, 42)
    elapsed = time.perf_counter() - t0
    oracle = tree_drift_expected(2000)
    ok = abs(rep.lambda_hat - 0.5) <= 0.02 and elapsed < 10.0
    assert report(
        "tree drift",
        ok,
        f"lambda_hat={rep.lambda_hat:.4f} oracle={oracle:.4f} "
        f"|diff to 0.5|={abs(rep.lambda_hat - 0.5):.4f} <= 0.02, {elapsed:.1f}s < 10s",
    )
    assert abs(rep.lambda_hat - oracle) <= 4 * rep.std_error


def test_drift_positivity_with_horofunction_speed(h2_spec):
    rep = drift_estimate(h2_spec, h2_point(0, 1), 2000, 300, 7,
                         horofunction_xi=h2_boundary(5.0))
    positive = rep.lambda_hat - 3 * rep.std_error > 0
    agree = abs(rep.horofunction_lambda - rep.lambda_hat) <= 0.05 * rep.lambda_hat
    assert report(
        "drift positivity",
        positive and agree,
        f"lambda_hat={rep.lambda_hat:.4f} (3se={3 * rep.std_error:.4f}), "
        f"horofunction speed={rep.horofunction_lambda:.4f} within 5%",
    )


def test_centered_euclidean_drift_vanishes(e2_centered):
    rep = drift_estimate(e2_centered, e2_point(0, 0), 10000, 200, 11)
    assert report(
        "flat negative control",
        rep.lambda_hat <= 0.05,
        f"lambda_hat={rep.lambda_hat:.4f} <= 0.05",
    )


def test_boundary_convergence_and_flat_control(h2_spec, e2_centered):
    checkpoints = list(range(500, 1001, 50))
    settled = 0
    for seed in range(100):
        tr = sample_walk(h2_spec, h2_point(0, 1), 1000, seed, steps=checkpoints)
        prof = convergence_profile(tr)
        if prof.cauchy_tail and prof.cauchy_tail[0] <= 1e-2:
            settled += 1
    wandering = 0
    for seed in range(100):
        tr = sample_walk(e2_centered, e2_point(0, 0), 1000, seed, steps=checkpoints)
        prof = convergence_profile(tr)
        if not prof.cauchy_tail or prof.cauchy_tail[0] > 1e-2:
            wandering += 1
    ok = settled >= 95 and wandering >= 50
    assert report(
        "boundary convergence",
        ok,
        f"hyperbolic tail settled in {settled}/100 (need >= 95); "
        f"flat control wandered in {wandering}/100 (need >= 50)",
    )


def test_dirac_concentration_and_uniqueness(h2_spec):
    atoms0 = sample_boundary(Model.H2, 10, 1001)
    atoms1 = sample_boundary(Model.H2, 10, 1002)
    good = 0
    for seed in range(100):
        rep = dirac_concentration(h2_spec, atoms0, seed, [200], atoms1=atoms1)
        if (rep.spread[-1] <= 1e-3 and rep.spread_second[-1] <= 1e-3
                and rep.cross_spread[-1] <= 1e-3):
            good += 1
    assert report(
        "stationary-measure uniqueness",
        good >= 90,
        f"within+cross spreads <= 1e-3 in {good}/100 seeds (need >= 90)",
    )


def test_cocycle_identity(h2_spec):
    from cat0lab.sampling import random_isometry

    rng = np.random.default_rng(5)
    worst = 0.0
    for model in (Model.H2, Model.E2):
        for _ in range(1000):
            g1 = random_isometry(model, rng)
            g2 = random_isometry(model, rng)
            xi = sample_boundary(model, 1, rng)[0]
            x = random_point(model, rng)
            worst = max(worst, cocycle_residual(g1, g2, xi, x))
    tree_worst = 0.0
    for _ in range(1000):
        g1 = random_isometry(Model.T4, rng)
        g2 = random_isometry(Model.T4, rng)
        xi = sample_boundary(Model.T4, 1, rng)[0]
        x = random_point(Model.T4, rng)
        tree_worst = max(tree_worst, cocycle_residual(g1, g2, xi, x))
    ok = worst <= 1e-9 and tree_worst == 0.0
    assert report(
        "horofunction cocycle",
        ok,
        f"max residual {worst:.2e} <= 1e-9 on the continuous planes, "
        f"exactly {tree_worst} on the tree",
    )


def _oracle_config(model, rng):
    # keep |z - x| at desk scale so the finite-t truncation O(|z-x|^2/t)
    # of the limit stays well inside the 1e-3 band at t = 1e4
    if model is Model.E2:
        return (e2_point(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                e2_point(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    if model is Model.H2xR:
        return (h2xr_point(rng.uniform(-1.5, 1.5), math.exp(rng.uniform(-1, 1)),
                           rng.uniform(-1, 1)),
                h2xr_point(rng.uniform(-1.5, 1.5), math.exp(rng.uniform(-1, 1)),
                           rng.uniform(-1, 1)))
    return random_point(model, rng), random_point(model, rng)


def test_horofunction_closed_forms_match_limit_oracle():
    rng = np.random.default_rng(77)
    worst = {m: 0.0 for m in ALL_MODELS}
    for model in ALL_MODELS:
        for _ in range(1000):
            x, z = _oracle_config(model, rng)
            xi = sample_boundary(model, 1, rng)[0]
            t = 60 if model is Model.T4 else 1e4
            gap = abs(horofunction(xi, x, z) - horofunction_limit_oracle(xi, x, z, t))
            worst[model] = max(worst[model], gap)
    ok = all(v <= 1e-3 for v in worst.values())
    assert report(
        "horofunction closed forms",
        ok,
        "max |closed - limit| per model: "
        + ", ".join(f"{m.value}={v:.2e}" for m, v in worst.items()) + " (<= 1e-3)",
    )


def test_horofunction_gap_stays_bounded(h2_spec):
    xi = h2_boundary(5.0)
    no_growth = 0
    for seed in range(50):
        tr = sample_walk(h2_spec, h2_point(0, 1), 10000, 3000 + seed,
                         steps=range(50, 10001, 50))
        _, series = horofunction_gap_series(tr, xi)
        ks = np.asarray([int(k) for k in tr.steps])
        keep = ks >= 1000
        slope = theil_sen(ks[keep], series[keep])
        span = float(ks[keep][-1] - ks[keep][0])
        iqr = float(np.percentile(series[keep], 75) - np.percentile(series[keep], 25))
        if slope <= max(0.5 * iqr, 0.05) / span:
            no_growth += 1
    assert report(
        "horofunction gap boundedness",
        no_growth >= 45,
        f"no-growth slope rule held in {no_growth}/50 seeds (need >= 45)",
    )


def horofunction_gap_series(tr, xi):
    from cat0lab import horofunction_gap

    return horofunction_gap(tr, xi)


def test_north_south_dynamics():
    g = h2_isometry(2, 0, 0, 0.5)
    res = north_south_constant(g, eps_plus=0.01, eps_minus=0.1, samples=200, seed=9,
                               cap=10 ** 6)
    res_sq = north_south_constant(power(g, 2), eps_plus=0.01, eps_minus=0.1,
                                  samples=200, seed=9, cap=10 ** 6)
    ok = res.attained and res_sq.attained and res_sq.k0 <= res.k0
    assert report(
        "north-south contraction",
        ok,
        f"k0={res.k0} finite; squaring does not slow it (k0(g^2)={res_sq.k0})",
    )


def test_pi_convergence():
    g = h2_isometry(2, 0, 0, 0.5)
    gs = [power(g, k) for k in range(1, 30)]
    x = h2_point(0, 1)
    eta = h2_boundary(0.0)
    pool = sample_boundary(Model.H2, 400, 13)
    compact = [b for b in pool if boundary_metric(x, b, eta) > 0.1][:50]
    res = pi_convergence_check(gs, x, compact, 0.05)
    raised = False
    try:
        pi_convergence_check(gs, x, compact + [eta], 0.05)
    except DomainError:
        raised = True
    ok = res.holds and res.n0 < len(gs) and raised
    assert report(
        "pi-convergence",
        ok,
        f"holds with n0={res.n0}; domain error raised when K meets the pi-ball",
    )


def test_tits_closed_forms():
    rng = np.random.default_rng(23)
    x = e2_point(0, 0)
    worst = 0.0
    for _ in range(100):
        a = e2_boundary(rng.uniform(0, 2 * math.pi))
        b = e2_boundary(rng.uniform(0, 2 * math.pi))
        worst = max(worst, abs(angle_at_infinity(x, a, b) - tits_distance(a, b)))
    flat_ok = True
    for _ in range(100):
        a1 = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        a2 = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        direct = math.acos(max(-1.0, min(1.0,
                                         -math.cos(a1) * math.cos(a2)
                                         + math.sin(a1) * math.sin(a2))))
        got = tits_distance(h2xr_boundary(0.0, a1), h2xr_boundary(2.0, a2))
        if abs(got - direct) > 1e-12:
            flat_ok = False
    table_ok = (tits_ball_is_trivial(h2_boundary(0.1))
                and tits_ball_is_trivial(t4_boundary("a", "b"))
                and not tits_ball_is_trivial(e2_boundary(0.0))
                and not tits_ball_is_trivial(h2xr_boundary(0.0, 0.0)))
    ok = worst <= 1e-3 and flat_ok and table_ok
    assert report(
        "Tits closed forms",
        ok,
        f"flat angular metric matches extrapolation to {worst:.2e}; product "
        f"formula matches the flat-plane vectors to rounding; pi-ball table correct",
    )


def axis_width(g, center, radius, samples, seed):
    """Spread of the axis coordinate (h_{g-}(p) - h_{g+}(p)) / 2 over ball
    points p = ray_point(center, xi, t), xi sampled on the boundary and t the
    radius (every even sample) or spread through the ball.  On E2, H2 and T4
    the coordinate is the position of p's projection on the axis of g; on
    H2xR it is cos(a) times the H2 projection plus sin(a) times the height,
    a the slope of the axis."""
    gm, gp = axis_endpoints(g)
    rng = np.random.default_rng(seed)
    coords = []
    for i, xi in enumerate(sample_boundary(center.model, samples, rng)):
        t = radius if i % 2 == 0 else radius * math.sqrt(rng.random())
        p = ray_point(center, xi, math.floor(t) if center.model is Model.T4 else t)
        coords.append((horofunction(gm, center, p) - horofunction(gp, center, p)) / 2)
    return max(coords) - min(coords)


def test_axis_width_is_the_projection_width():
    # a flat axis projects a ball onto its diameter, a contracting one onto
    # less the farther the ball lies from it, and a product axis onto a width
    # that grows with the radius
    e2 = axis_width(e2_isometry(0, (1, 0)), e2_point(0, 10), 1.0, 300, seed=2)
    assert e2 == pytest.approx(2.0, abs=0.1)
    h2 = [axis_width(h2_isometry(2, 0, 0, 0.5), h2_point(c, 1.0), 0.5, 120, seed=3)
          for c in (10.0, 100.0, 1000.0)]
    assert 2 > h2[0] > h2[1] > h2[2]
    g, center = h2xr_isometry([2, 0, 0, 0.5], 1.0), h2xr_point(math.sinh(10.0), 1.0, 0.0)
    assert axis_width(g, center, 8.0, 40, seed=5) > 4 * axis_width(g, center, 1.0, 40, seed=5)


def test_rank_one_predicate_and_contraction_trends():
    table_ok = (is_rank_one(h2_isometry(2, 0, 0, 0.5))
                and not is_rank_one(e2_isometry(0, (1, 0)))
                and not is_rank_one(h2xr_isometry([2, 0, 0, 0.5], 0.7))
                and not is_rank_one(h2xr_isometry([2, 0, 0, 0.5], 0.0))
                and is_rank_one(t4_isometry("ab")))
    radii = (1.0, 2.0, 4.0, 8.0)
    h2_w = [axis_width(h2_isometry(2, 0, 0, 0.5), h2_point(math.sinh(10.0), 1.0), r, 120, seed=4)
            for r in radii]
    t4_w = [axis_width(t4_isometry("a"), t4_point("b" * 12), r, 60, seed=4) for r in radii]
    e2_w = [axis_width(e2_isometry(0, (1, 0)), e2_point(0, 10), r, 120, seed=4) for r in radii]
    xr_w = [axis_width(h2xr_isometry([2, 0, 0, 0.5], 1.0),
                       h2xr_point(math.sinh(10.0), 1.0, 0.0), r, 60, seed=4)
            for r in radii]
    bounded = max(h2_w) <= 2.0 and max(t4_w) <= 2.0
    # a contracting width grows with the radius too, from near 0, so a flat
    # one must also pass the bound the contracting ones stay under
    growing = all(w[-1] >= 4 * w[0] and w[-1] > 2.0 for w in (e2_w, xr_w))
    ok = table_ok and bounded and growing
    assert report(
        "rank-one predicate",
        ok,
        f"truth table correct; contracting widths stay <= 2 "
        f"(H2 max {max(h2_w):.3f}, tree max {max(t4_w):.1f}) while flat widths grow past 2 "
        f"(E2 {e2_w[0]:.2f}->{e2_w[-1]:.2f}, product {xr_w[0]:.2f}->{xr_w[-1]:.2f})",
    )


def test_geodesic_tracking_tree(t4_uniform):
    good = 0
    for seed in range(100):
        tr = sample_walk(t4_uniform, t4_point(""), 5000, seed, steps=[5000])
        ks, errs = tracking_error(tr, 0.5)
        if errs[-1] <= 0.05:
            good += 1
    assert report(
        "geodesic tracking",
        good >= 90,
        f"error at step 5000 was <= 0.05 in {good}/100 seeds (need >= 90)",
    )


def test_cat0_kernel_soundness():
    rng = np.random.default_rng(31)
    worst_mid = 0.0
    worst_lip = 0.0
    worst_tri = 0.0
    worst_sym = 0.0
    for model in ALL_MODELS:
        base = model_basepoint(model)
        for _ in range(10000):
            x = random_point(model, rng)
            y = random_point(model, rng)
            z = random_point(model, rng)
            dy, dz = distance(x, y), distance(x, z)
            worst_sym = max(worst_sym, abs(dy - distance(y, x)))
            worst_tri = max(worst_tri, distance(y, z) - dy - dz)
            if model is Model.T4:
                # shorten sides to even lengths so exact midpoints exist
                if int(dy) % 2:
                    y = geodesic_point(x, y, int(dy) - 1)
                    dy -= 1
                if int(dz) % 2:
                    z = geodesic_point(x, z, int(dz) - 1)
                    dz -= 1
            if dy > 0 or dz > 0:
                m1 = geodesic_point(x, y, dy / 2)
                m2 = geodesic_point(x, z, dz / 2)
                worst_mid = max(worst_mid, distance(m1, m2) - distance(y, z) / 2)
            pu = project_to_ball(base, 2.0, x)
            pv = project_to_ball(base, 2.0, y)
            worst_lip = max(worst_lip, distance(pu, pv) - distance(x, y))
    ok = (worst_mid <= 1e-9 and worst_lip <= 1e-9
          and worst_tri <= 1e-9 and worst_sym <= 1e-9)
    assert report(
        "CAT(0) kernel soundness",
        ok,
        f"midpoint comparison violation {worst_mid:.2e}, projection expansion "
        f"{worst_lip:.2e}, triangle defect {worst_tri:.2e}, asymmetry "
        f"{worst_sym:.2e} (all <= 1e-9 on 1e4 instances per model)",
    )


def test_reproducibility_worker_independent(tmp_path):
    cfg = tmp_path / "drift.json"
    cfg.write_text(json.dumps({
        "experiment": "drift", "model": "T4",
        "distribution": {"model": "T4", "atoms": [
            {"isometry": {"model": "T4", "payload": {"word": w}}, "p": 0.25}
            for w in "aAbB"]},
        "n": 400, "m_samples": 60, "seed": 17,
    }))
    blobs = []
    for i, threads in enumerate(("1", "1", "4")):
        out = tmp_path / f"out{i}"
        assert cli_main(["run", str(cfg), "--outdir", str(out),
                         "--threads", threads]) == 0
        rep = json.loads((out / "drift-17" / "report.json").read_text())
        rep.pop("timing")
        blobs.append(json.dumps(rep, sort_keys=True).encode())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert report(
        "reproducibility",
        ok,
        "reports byte-identical (timing excluded) across reruns and worker counts",
    )
