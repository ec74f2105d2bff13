"""Bit-level pins of estimator outputs on all four models.

Each value is the exact `float.hex()` of an estimator output for a fixed
seed, pinned from commit 0bf6a92.  Any change to the arithmetic of a kernel,
a walker or an estimator, including a reordering of floating-point
operations, shows here as a changed hex string.  The walks from a basepoint
other than the model's own (`OFF_BASE`) were pinned from commit 1a40329,
the other readers of the visual metric (`METRIC_READER_GOLDEN`) from
commit 7fa91ad, and the audit readers (`AUDIT_GOLDEN`, `T4_ACTION_GOLDEN`)
from commit b8f6beb.  The H2 and H2xR walk values were re-captured from
commit 2375f7b, which keeps the H2 walk product as a power-of-two scaled
matrix; they moved by at most 1.3e-13 relative.  The H2 and H2xR boundary
readers were re-captured when the H2 ray became one closed form, which
alone moved them by at most 1.6e-14 relative, and the charts came to read
the metric as 2 asinh(|p - q| / (2 sqrt(y y'))), whose short distances the
acosh form had read as 0 or to a few digits.  The H2 and H2xR angle grids
were re-captured when `dist` itself took that form, which moved four of
their values by at most 2.3e-14 relative.
"""

import pytest

from cat0lab import (
    BinScheme,
    Model,
    StepDistribution,
    _t4,
    angle_at_infinity,
    apply_boundary,
    hitting_measure,
    stationarity_defect,
    drift_estimate,
    e2_boundary,
    e2_isometry,
    h2_boundary,
    h2_isometry,
    h2xr_boundary,
    h2xr_isometry,
    horofunction_gap,
    boundary_metric,
    distance,
    e2_point,
    h2_point,
    h2xr_point,
    model_basepoint,
    sample_boundary,
    sample_walk,
    t4_boundary,
    t4_isometry,
    t4_point,
    cocycle_residual,
    convergence_profile,
    dirac_concentration,
    axis_endpoints,
    is_rank_one,
    north_south_constant,
    pi_convergence_check,
    power,
    ray_point,
    tracking_error,
)
from cat0lab.sampling import random_isometry, random_point
from cat0lab.walk import snapshot_horofunction

import numpy as np

from references import comparison_angle

_H2_MATRICES = ((2, 0, 0, 0.5), (0.5, 0, 0, 2), (1, 1, 1, 2), (2, -1, -1, 1))

SPECS = {
    Model.E2: [e2_isometry(0, v) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))],
    Model.H2: [h2_isometry(*m) for m in _H2_MATRICES],
    Model.T4: [t4_isometry(w) for w in "aAbB"],
    Model.H2xR: [h2xr_isometry(m, s) for m, s in zip(_H2_MATRICES, (0.5, -0.5, 0.3, -0.3))],
}

XI = {
    Model.E2: e2_boundary(1.0),
    Model.H2: h2_boundary(5.0),
    Model.T4: t4_boundary("ab", "a"),
    Model.H2xR: h2xr_boundary(5.0, 0.3),
}


def _hex(values):
    return [float(v).hex() for v in values]


def golden_values(model: Model) -> dict:
    spec = StepDistribution.uniform(SPECS[model])
    x = model_basepoint(model)
    xi = XI[model]
    drift = drift_estimate(spec, x, 200, 4, seed=7)
    tr = sample_walk(spec, x, 200, 11, steps=range(20, 201, 20))
    _, gaps = horofunction_gap(tr, xi)
    _, errs = tracking_error(tr, max(drift.lambda_hat, 0.25))
    dirac = dirac_concentration(spec, sample_boundary(model, 6, 3), 5, [10, 60],
                                atoms1=sample_boundary(model, 6, 4))
    rng = np.random.default_rng(13)
    residuals = []
    for _ in range(20):
        g1 = random_isometry(model, rng)
        g2 = random_isometry(model, rng)
        b = sample_boundary(model, 1, rng)[0]
        p = random_point(model, rng)
        residuals.append(cocycle_residual(g1, g2, b, p))
    return {
        "drift_terminal": _hex(drift.per_sample_terminal),
        "snapshot_horofunction": _hex([snapshot_horofunction(model, tr.snapshots[-1], x, xi)]),
        "horofunction_gap": _hex(gaps),
        "tracking_error": _hex(errs),
        "dirac_spread": _hex(dirac.spread + dirac.spread_second + dirac.cross_spread),
        "cocycle_residual": _hex(residuals),
    }


GOLDEN = {
    "E2": {
        "drift_terminal": [
            "0x1.d3040f0401837p-5", "0x1.12c49dd0cc1e9p-4", "0x1.eeebeb8ed312ep-5",
            "0x1.06459fbeb847bp-4",
        ],
        "snapshot_horofunction": [
            "0x1.06778667bd77ep+4",
        ],
        "horofunction_gap": [
            "0x0.0p+0", "0x1.0d5b5709ab4a1p+3", "0x1.b0797df2f397cp+2",
            "0x1.b7234a6293efep+2", "0x1.d6bafe095f2e8p+0", "0x1.09c02e4064200p-4",
            "0x1.418737fd97134p-1", "0x1.589dae9e66800p-7", "0x1.26a8f862225e0p-2",
            "0x1.3ca11f61cef60p-1", "0x1.30ab69b011600p-3",
        ],
        "tracking_error": [
            "0x1.ea15b6baf832bp-2", "0x1.53375684db478p-2", "0x1.2ee6b6d8ef92ep-2",
            "0x1.ddcb3ca121c1ep-3", "0x1.c9fd4787d20a9p-3", "0x1.c6ae29259e2ddp-3",
            "0x1.84f47fed1efd6p-3", "0x1.4e601c6c403efp-3", "0x1.5d63056b81ec6p-3",
            "0x1.567f726986a74p-3",
        ],
        "dirac_spread": [
            "0x1.fff8227fc07ecp+0", "0x1.fff8227fc07ecp+0", "0x1.fe395bbe02efdp+0",
            "0x1.fe395bbe02efdp+0", "0x1.fffedcda12f2cp+0", "0x1.fffedcda12f2cp+0",
        ],
        "cocycle_residual": [
            "0x1.8000000000000p-51", "0x1.0000000000000p-51", "0x1.4000000000000p-50",
            "0x1.8000000000000p-50", "0x0.0p+0", "0x1.0000000000000p-49",
            "0x1.0000000000000p-51", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.c000000000000p-48",
            "0x0.0p+0", "0x1.2000000000000p-51", "0x1.8000000000000p-50",
            "0x1.0000000000000p-57", "0x1.4000000000000p-49", "0x1.1000000000000p-48",
            "0x0.0p+0", "0x1.0000000000000p-50",
        ],
    },
    "H2": {
        "drift_terminal": [
            "0x1.3e5315aa1526bp-1", "0x1.3f8c262e49069p-1", "0x1.f67aa53faa0bfp-2",
            "0x1.11a04c0925c5fp-1",
        ],
        "snapshot_horofunction": [
            "0x1.ab3df76f3841bp+6",
        ],
        "horofunction_gap": [
            "0x1.0000000000000p-51", "0x1.af06819b663fcp+1", "0x1.af0689bf5cc10p+1",
            "0x1.af0689bf58540p+1", "0x1.af0689bf58540p+1", "0x1.af0689bf58540p+1",
            "0x1.af0689bf58530p+1", "0x1.af0689bf58520p+1", "0x1.af0689bf58520p+1",
            "0x1.af0689bf58520p+1", "0x1.af0689bf58520p+1",
        ],
        "tracking_error": [
            "0x1.3f8561473628ep-2", "0x1.bed877b670568p-4", "0x1.65756b9da91efp-3",
            "0x1.7a187d24fabd2p-4", "0x1.6df6c624ff449p-5", "0x1.e6e0a2c985001p-6",
            "0x1.1e394d2625ae1p-5", "0x1.83cfedaa4a7c3p-8", "0x1.d7840d3ec8369p-7",
            "0x1.1420c4e7faa68p-6",
        ],
        "dirac_spread": [
            "0x1.0d126d04191f2p-3", "0x1.590ca9c532451p-49", "0x1.e8a6c80b7dd1ep-4",
            "0x1.68e7ca13fef39p-51", "0x1.767de14abba59p-3", "0x1.590ca9c532451p-49",
        ],
        "cocycle_residual": [
            "0x1.8000000000000p-51", "0x1.0000000000000p-50", "0x1.0000000000000p-50",
            "0x1.0000000000000p-50", "0x1.8000000000000p-51", "0x1.0000000000000p-51",
            "0x1.0000000000000p-53", "0x0.0p+0", "0x1.0000000000000p-52",
            "0x1.8000000000000p-52", "0x1.8000000000000p-52", "0x1.0000000000000p-52",
            "0x0.0p+0", "0x1.4000000000000p-51", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.8000000000000p-52",
            "0x0.0p+0", "0x1.0000000000000p-52",
        ],
    },
    "T4": {
        "drift_terminal": [
            "0x1.199999999999ap-1", "0x1.0f5c28f5c28f6p-1", "0x1.ccccccccccccdp-2",
            "0x1.f5c28f5c28f5cp-2",
        ],
        "snapshot_horofunction": [
            "0x1.8800000000000p+6",
        ],
        "horofunction_gap": [
            "0x0.0p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
            "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
            "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+2",
            "0x1.0000000000000p+2", "0x1.0000000000000p+2",
        ],
        "tracking_error": [
            "0x1.999999999999ap-3", "0x1.999999999999ap-5", "0x1.1111111111111p-3",
            "0x1.999999999999ap-5", "0x1.eb851eb851eb8p-5", "0x1.1111111111111p-7",
            "0x1.d41d41d41d41dp-8", "0x1.3333333333333p-6", "0x1.6c16c16c16c17p-8",
            "0x1.47ae147ae147bp-8",
        ],
        "dirac_spread": [
            "0x1.78b56362cef38p-2", "0x1.1e642baeb84a0p-42", "0x1.97db0ccceb0afp-5",
            "0x1.1e642baeb84a0p-42", "0x1.78b56362cef38p-2", "0x1.1e642baeb84a0p-42",
        ],
        "cocycle_residual": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0",
        ],
    },
    "H2xR": {
        "drift_terminal": [
            "0x1.3eb851fd8e204p-1", "0x1.3f8d181d0b7e9p-1", "0x1.f75b171156513p-2",
            "0x1.12365b4329060p-1",
        ],
        "snapshot_horofunction": [
            "0x1.a19dd7bd24545p+6",
        ],
        "horofunction_gap": [
            "0x1.e921dd42f09bap-52", "0x1.002ee0392cbc2p+2", "0x1.1f1b05a0c3290p+2",
            "0x1.3e861a11ae790p+2", "0x1.416c28cb65ab0p+2", "0x1.5fec078bf43d0p+2",
            "0x1.58a7b6b8fc4a8p+2", "0x1.581f4cda97420p+2", "0x1.673e06ce8d680p+2",
            "0x1.824b42eee7c70p+2", "0x1.84158d97879d0p+2",
        ],
        "tracking_error": [
            "0x1.43195eb09363cp-2", "0x1.e837f67fe793ap-4", "0x1.6b96718c8ba44p-3",
            "0x1.83114677ecb8dp-4", "0x1.a96108c8f1c1fp-5", "0x1.1dba769405442p-5",
            "0x1.1fdb20af48e26p-5", "0x1.7edf52f0a4972p-8", "0x1.f0f223fdfc703p-7",
            "0x1.07c1856453b0cp-6",
        ],
        "dirac_spread": [
            "0x1.57677984a974ap+0", "0x1.5767631ff5b5ep+0", "0x1.542edbca53e7bp+0",
            "0x1.542eca107b0abp+0", "0x1.6a8215d170b7fp+0", "0x1.6a81e237368bfp+0",
        ],
        "cocycle_residual": [
            "0x1.0000000000000p-51", "0x1.8000000000000p-52", "0x1.4000000000000p-50",
            "0x1.c000000000000p-52", "0x1.8000000000000p-53", "0x1.0000000000000p-51",
            "0x0.0p+0", "0x1.8000000000000p-52", "0x1.0000000000000p-51",
            "0x1.0000000000000p-53", "0x1.0000000000000p-52", "0x0.0p+0",
            "0x1.0000000000000p-54", "0x1.0000000000000p-50", "0x1.0000000000000p-52",
            "0x1.0000000000000p-51", "0x0.0p+0", "0x1.0000000000000p-52",
            "0x1.0000000000000p-50", "0x0.0p+0",
        ],
    },
}


@pytest.mark.parametrize("model", list(SPECS), ids=lambda m: m.value)
def test_golden_values(model):
    assert golden_values(model) == GOLDEN[model.value]


# Walks from these basepoints run through the H2 frame, the T4 conjugation
# and the E2 offset, which the model basepoints leave trivial.
OFF_BASE = {
    Model.E2: e2_point(1.5, -0.5),
    Model.H2: h2_point(0.3, 2.0),
    Model.T4: t4_point("ab"),
    Model.H2xR: h2xr_point(0.3, 2.0, 0.7),
}


def off_base_values(model: Model) -> dict:
    rng = np.random.default_rng(29)
    spec = StepDistribution.uniform([random_isometry(model, rng) for _ in range(3)])
    x, xi = OFF_BASE[model], XI[model]
    tr = sample_walk(spec, x, 30, 17, steps=[10, 20, 30])
    o = model_basepoint(model)
    return {
        "base_distances": _hex(tr.base_distances),
        "horofunction": _hex(snapshot_horofunction(model, s, x, xi) for s in tr.snapshots),
        "point": _hex(distance(o, tr.point(i)) for i in range(len(tr.snapshots))),
        "image": _hex(boundary_metric(x, tr.image(i, xi), xi)
                      for i in range(len(tr.snapshots))),
    }


OFF_BASE_GOLDEN = {
    "E2": {
        "base_distances": [
            "0x0.0p+0", "0x1.84937a1864306p+1",
            "0x1.04b07889bcae1p+1", "0x1.5988f1c8f7818p+2",
        ],
        "horofunction": [
            "0x0.0p+0", "0x1.7eb85c428750ap+1",
            "0x1.7e120e3b9583cp+0", "0x1.0e494584afb3cp+0",
        ],
        "point": [
            "0x1.94c583ada5b53p+0", "0x1.64f001c5979b1p+1",
            "0x1.1cc8f79cf55c0p+0", "0x1.e912f8aae5fa8p+1",
        ],
        "image": [
            "0x0.0p+0", "0x1.998effc0fb5b7p+0",
            "0x1.329c21a260caep+0", "0x1.ad6b01d0fa86cp+0",
        ],
    },
    "H2": {
        "base_distances": [
            "0x0.0p+0", "0x1.1362466a0effep+1",
            "0x1.b38140bf68e59p+2", "0x1.114dca146a264p+3",
        ],
        "horofunction": [
            "0x0.0p+0", "0x1.1e13d6d5a1036p+0",
            "0x1.50d42cc7d5014p+2", "0x1.bfd2286b0fb14p+2",
        ],
        "point": [
            "0x1.71e2245613b6cp-1", "0x1.2aa75cf25baefp+1",
            "0x1.ca2fbd690d614p+2", "0x1.1ca90564d6c6fp+3",
        ],
        "image": [
            "0x0.0p+0", "0x1.761a2d1cd40d9p+0",
            "0x1.0c684f40e4c92p+0", "0x1.09f5c052501e1p+0",
        ],
    },
    "T4": {
        "base_distances": [
            "0x0.0p+0", "0x1.3000000000000p+5",
            "0x1.3800000000000p+6", "0x1.d800000000000p+6",
        ],
        "horofunction": [
            "0x0.0p+0", "0x1.3000000000000p+5",
            "0x1.3800000000000p+6", "0x1.d800000000000p+6",
        ],
        "point": [
            "0x1.0000000000000p+1", "0x1.4000000000000p+5",
            "0x1.4000000000000p+6", "0x1.e000000000000p+6",
        ],
        "image": [
            "0x0.0p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ],
    },
    "H2xR": {
        "base_distances": [
            "0x0.0p+0", "0x1.9dbae6419f412p+2",
            "0x1.3fdb7dca2eb77p+3", "0x1.b6e91b74a921dp+3",
        ],
        "horofunction": [
            "0x0.0p+0", "0x1.d2b8bb1ee0abcp+1",
            "0x1.753a96f27566dp+2", "0x1.4124b04a0aad0p+3",
        ],
        "point": [
            "0x1.0184e11e7a313p+0", "0x1.70db441a6f5b6p+2",
            "0x1.29ab8c2f94c00p+3", "0x1.a276df30524b8p+3",
        ],
        "image": [
            "0x0.0p+0", "0x1.dd23299b8ab50p+0",
            "0x1.db1bbd6d7f8d4p+0", "0x1.d1a99cc820519p+0",
        ],
    },
}


@pytest.mark.parametrize("model", list(OFF_BASE), ids=lambda m: m.value)
def test_off_base_walk_values(model):
    assert off_base_values(model) == OFF_BASE_GOLDEN[model.value]


def test_off_base_h2xr_tracking_error():
    # the ray of an off-base H2xR walk starts at height 0.7, which the slope
    # of its rise and the vertical gaps both read; pinned from commit 0721bca
    rng = np.random.default_rng(29)
    spec = StepDistribution.uniform([random_isometry(Model.H2xR, rng) for _ in range(3)])
    tr = sample_walk(spec, OFF_BASE[Model.H2xR], 30, 17, steps=[10, 20, 30])
    _, errs = tracking_error(tr, 0.25)
    assert _hex(errs) == ["0x1.9fe8829372008p-2", "0x1.09ed07164dbf9p-2",
                          "0x1.a857b209f1593p-3"]


# Axial generators, one per rank-one model, for the North-South and
# pi-convergence readers of the visual metric (E2 and H2xR have no rank-one
# isometry, so both readers raise there).
RANK_ONE_G = {
    Model.H2: h2_isometry(1, 1, 1, 2),
    Model.T4: t4_isometry("aB"),
}


def metric_reader_values(model: Model) -> dict:
    spec = StepDistribution.uniform(SPECS[model])
    x = model_basepoint(model)
    tr = sample_walk(spec, x, 60, 11, steps=range(6, 61, 6))
    prof = convergence_profile(tr)
    values = {"cauchy_tail": _hex(prof.cauchy_tail)}
    g = RANK_ONE_G.get(model)
    if g is not None:
        assert is_rank_one(g)
        ns = north_south_constant(g, 0.02, 0.1, 25, 3, cap=100)
        eta, _ = axis_endpoints(g)
        pool = sample_boundary(model, 120, 5)
        compact = [b for b in pool if boundary_metric(x, b, eta) >= 0.1][:30]
        pi = pi_convergence_check([power(g, k) for k in range(1, 13)], x, compact, 0.05)
        values["north_south_max_gaps"] = _hex(ns.max_gaps)
        values["pi_convergence_max_gaps"] = _hex(pi.max_gaps)
    return values


METRIC_READER_GOLDEN = {
    "E2": {
        "cauchy_tail": [
            "0x1.2b5f257c880c9p+0", "0x1.e32eb95a12e3fp-1", "0x1.87de2a6aea963p-1",
            "0x1.87de2a6aea963p-1", "0x1.87de2a6aea963p-1", "0x1.87de2a6aea963p-1",
            "0x1.87de2a6aea963p-1", "0x1.f476701b10c60p-3", "0x1.f476701b10c60p-3",
            "0x0.0p+0",
        ],
    },
    "H2": {
        "cauchy_tail": [
            "0x1.25b7f28c5fee7p-11", "0x1.f5602040e1583p-19", "0x1.9ed88338a3b8dp-26",
            "0x1.2a74a4c076eaep-26", "0x1.bc658632aa822p-29", "0x1.1b0e7d4ab972dp-35",
            "0x1.19117bce26fe1p-39", "0x1.ed703e021aa56p-50", "0x1.6563fa9cecdcdp-53",
            "0x0.0p+0",
        ],
        "north_south_max_gaps": [
            "0x1.e9284fb2dcfa0p+0", "0x1.bb8318a4d210fp-1", "0x1.1feb68620345ap-3",
            "0x1.50eadc13d824ep-6", "0x1.89442771908fbp-9",
        ],
        "pi_convergence_max_gaps": [
            "0x1.71bc5a60df453p+0", "0x1.38691ae88a5b2p-2", "0x1.711afa57aa968p-5",
            "0x1.aeed5b7176e82p-8", "0x1.f6f9677a0f342p-11", "0x1.258826d7f80aap-13",
            "0x1.569b1275b1451p-16", "0x1.8fe2509f9e727p-19", "0x1.d2bd056ffd425p-22",
            "0x1.106284cd52d9dp-24", "0x1.3dec5cffbdaa9p-27", "0x1.731337086a122p-30",
        ],
    },
    "T4": {
        "cauchy_tail": [
            "0x1.44e51f113d4d6p-9", "0x1.02cf22526545ap-13", "0x1.be6c6fdb01612p-21",
            "0x1.be6c6fdb01612p-21", "0x1.e355bbaee85cbp-24", "0x1.1b48655f37267p-29",
            "0x1.c3527e433fab1p-34", "0x1.853f01d6d53bap-41", "0x1.ee001eed62aa0p-50",
            "0x0.0p+0",
        ],
        "north_south_max_gaps": [
            "0x1.78b56362cef38p-2", "0x1.97db0ccceb0afp-5", "0x1.b993fe00d5376p-8",
        ],
        "pi_convergence_max_gaps": [
            "0x1.0000000000000p+0", "0x1.152aaa3bf81ccp-3", "0x1.2c155b8213cf4p-6",
            "0x1.44e51f113d4d6p-9", "0x1.5fc21041027adp-12", "0x1.7cd79b5647c9bp-15",
            "0x1.9c54c3b43bc8bp-18", "0x1.be6c6fdb01612p-21", "0x1.e355bbaee85cbp-24",
            "0x1.05a628c699fa1p-26", "0x1.1b48655f37267p-29", "0x1.32b48bf117da2p-32",
        ],
    },
    "H2xR": {
        "cauchy_tail": [
            "0x1.3d0f068142647p-2", "0x1.ded5e818ac9d9p-3", "0x1.920540dc5033ap-4",
            "0x1.6ccb29c3e3893p-4", "0x1.6ccb29c3e3893p-4", "0x1.28a143c5d26ecp-4",
            "0x1.dc49b44d01a5bp-5", "0x1.2643749e7317cp-6", "0x1.2643749e7317cp-6",
            "0x0.0p+0",
        ],
    },
}


@pytest.mark.parametrize("model", list(SPECS), ids=lambda m: m.value)
def test_boundary_metric_reader_values(model):
    assert metric_reader_values(model) == METRIC_READER_GOLDEN[model.value]


def audit_values(model: Model) -> dict:
    rng = np.random.default_rng(31)
    spec = StepDistribution.uniform([random_isometry(model, rng) for _ in range(3)])
    x = model_basepoint(model)
    hist = hitting_measure(spec, x, 40, 24, BinScheme.default(model), 9)
    pts = sample_boundary(model, 5, 13)
    pts.append(pts[1])  # an equal pair, at angle 0
    limits = [angle_at_infinity(x, a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
    # the comparison angles of the first pair's ray points, which do not
    # decrease in the radius; the last is the angle at infinity
    grid = [comparison_angle(x, ray_point(x, pts[0], 2.0 ** k), ray_point(x, pts[1], 2.0 ** k))
            for k in range(9)]
    return {
        "stationarity_defect": _hex([stationarity_defect(spec, hist, 8, seed=4)]),
        "angle_at_infinity": _hex(limits),
        "angle_grid": _hex(grid),
    }


AUDIT_GOLDEN = {
    "E2": {
        "stationarity_defect": ["0x1.c38e38e38e38fp-2"],
        "angle_at_infinity": [
            "0x1.e8ba9d69321c4p-5", "0x1.59fb6deac829fp-2", "0x1.3f00fdc46e1f7p+1",
            "0x1.55a5bea3c8202p+0", "0x1.e8ba9d69321c4p-5", "0x1.1ce41a3da1e5ep-2",
            "0x1.46a3e83a12e7ep+1", "0x1.64eb938f11b12p+0", "0x0.0p+0",
            "0x1.6a406b81c7249p+1", "0x1.ac249a1e7a2aap+0", "0x1.1ce41a3da1e5ep-2",
            "0x1.285c3ce5141eap+0", "0x1.46a3e83a12e7ep+1", "0x1.64eb938f11b12p+0",
        ],
        "angle_grid": [
            "0x1.e8ba9d69321c4p-5", "0x1.e8ba9d69321c4p-5", "0x1.e8ba9d69321c4p-5",
            "0x1.e8ba9d69321c4p-5", "0x1.e8ba9d69321c4p-5", "0x1.e8ba9d69321c4p-5",
            "0x1.e8ba9d69321c4p-5", "0x1.e8ba9d69321c4p-5", "0x1.e8ba9d69321c4p-5",
        ],
    },
    "H2": {
        "stationarity_defect": ["0x1.affffffffffffp-2"],
        "angle_at_infinity": [
            "0x1.67ab141b17552p+1", "0x1.73e46659c66d1p+1", "0x1.8ce1cbb90035fp+1",
            "0x1.82724c9c7c9e3p+1", "0x1.67ab141b17552p+1", "0x1.724c4cb095fe8p+1",
            "0x1.8d5f07089bd44p+1", "0x1.830efd67356fep+1", "0x0.0p+0",
            "0x1.8fa0740b728ecp+1", "0x1.85c3e5cb85e31p+1", "0x1.724c4cb095fe8p+1",
            "0x1.808bd55b7f6acp+1", "0x1.8d5f07089bd44p+1", "0x1.830efd67356fep+1",
        ],
        "angle_grid": [
            "0x1.1f22870c06c40p-4", "0x1.ba6d7e1ff953ep-4", "0x1.7ee70ed55943fp-2",
            "0x1.30ec2ccbb327cp+0", "0x1.ca752a6eda95cp+0", "0x1.190dc36518d27p+1",
            "0x1.3ceacde416b50p+1", "0x1.56036d3bfc079p+1", "0x1.67ab141b17552p+1",
        ],
    },
    "T4": {
        "stationarity_defect": ["0x1.5555555555550p-4"],
        "angle_at_infinity": [
            "0x1.7b7d33b928c5bp+1", "0x1.7b7d33b928c5bp+1", "0x1.721a5d8718655p+1",
            "0x1.921fb54442d18p+1", "0x1.7b7d33b928c5bp+1", "0x1.721a5d8718655p+1",
            "0x1.7b7d33b928c5bp+1", "0x1.921fb54442d18p+1", "0x0.0p+0",
            "0x1.7b7d33b928c5bp+1", "0x1.921fb54442d18p+1", "0x1.721a5d8718655p+1",
            "0x1.921fb54442d18p+1", "0x1.7b7d33b928c5bp+1", "0x1.921fb54442d18p+1",
        ],
        "angle_grid": [
            "0x0.0p+0", "0x1.0c152382d7366p+0", "0x1.b235315c680dcp+0",
            "0x1.10c066d3e6932p+1", "0x1.3722d2feb24c8p+1", "0x1.51f4bd13f8591p+1",
            "0x1.64cf55148366fp+1", "0x1.721a5d8718655p+1", "0x1.7b7d33b928c5bp+1",
        ],
    },
    "H2xR": {
        "stationarity_defect": ["0x1.7e38e38e38e38p-2"],
        "angle_at_infinity": [
            "0x1.5dba453049639p+1", "0x1.3e2600722e01ap-1", "0x1.58b31ee327345p+1",
            "0x1.f55b366313c88p-2", "0x1.5dba453049639p+1", "0x1.3e28ec0725dbfp+1",
            "0x1.a7cb7e9349f03p-1", "0x1.2de48ebdb8ad4p+1", "0x0.0p+0",
            "0x1.7daaddd38c92cp+1", "0x1.b514925f555a0p-3", "0x1.3e28ec0725dbfp+1",
            "0x1.8cc383a44045fp+1", "0x1.a7cb7e9349f03p-1", "0x1.2de48ebdb8ad4p+1",
        ],
        "angle_grid": [
            "0x1.e28c161ab0153p+0", "0x1.e45733e3b8c83p+0", "0x1.ee747f531907fp+0",
            "0x1.0e022613b5894p+1", "0x1.2bcb416bb83aep+1", "0x1.41ba5b0878967p+1",
            "0x1.5015922147a95p+1", "0x1.58c957164642cp+1", "0x1.5dba453049639p+1",
        ],
    },
}


@pytest.mark.parametrize("model", list(SPECS), ids=lambda m: m.value)
def test_audit_reader_values(model):
    assert audit_values(model) == AUDIT_GOLDEN[model.value]


def t4_boundary_action_images() -> list:
    rng = np.random.default_rng(37)
    ends = sample_boundary(Model.T4, 4, rng)
    ends += [t4_boundary("ab", "a"), t4_boundary("", "abAB"), t4_boundary("BA", "bA")]
    words = [random_isometry(Model.T4, rng) for _ in range(4)]
    images = []
    for b in ends:
        # words that cancel into the prefix, through it and into the period
        prefix = _t4.word_prefix(b.data, len(b.data[0]) + 3)
        ws = words + [t4_isometry(_t4.inv_word(prefix[:k])) for k in range(len(prefix) + 1)]
        ws += [t4_isometry(w + _t4.inv_word(prefix[:2])) for w in ("a", "bb", "")]
        images += ["|".join(apply_boundary(g, b).data) for g in ws]
    return images


T4_ACTION_GOLDEN = [
    "AbbAbaa|B", "bbAbaa|B", "AAbAbaa|B", "bbAABabAbaa|B", "bAbaa|B", "Abaa|B",
    "baa|B", "aa|B", "a|B", "|B", "|B", "|B",
    "|B", "abaa|B", "bbbaa|B", "baa|B", "AbAABABB|a", "bAABABB|a",
    "AAAABABB|a", "bbAABABABB|a", "AABABB|a", "ABABB|a", "BABB|a", "ABB|a",
    "BB|a", "B|a", "|a", "|a", "|a", "|a",
    "aBABB|a", "bABB|a", "BABB|a", "AbaBBBBBab|a", "baBBBBBab|a", "ABBBBBab|a",
    "bbAABaaBBBBBab|a", "aBBBBBab|a", "BBBBBab|a", "BBBBab|a", "BBBab|a", "BBab|a",
    "Bab|a", "ab|a", "b|a", "|a", "|a", "|a",
    "|a", "aBBBBab|a", "BBab|a", "BBBBab|a", "AbbbabaaB|A", "bbbabaaB|A",
    "AAbbabaaB|A", "bbAABabbabaaB|A", "bbabaaB|A", "babaaB|A", "abaaB|A", "baaB|A",
    "aaB|A", "aB|A", "B|A", "|A", "|A", "|A",
    "|A", "aabaaB|A", "bbabaaB|A", "abaaB|A", "Abab|a", "bab|a",
    "Ab|a", "bbAABaab|a", "ab|a", "b|a", "|a", "|a",
    "|a", "|a", "|a", "bb|a", "|a", "Ab|abAB",
    "b|abAB", "A|bABa", "bbAABa|abAB", "|abAB", "|bABa", "|ABab",
    "|BabA", "|BabA", "b|bABa", "|ABab", "A|Ab", "|Ab",
    "AAB|Ab", "bbAABaB|Ab", "B|Ab", "|Ab", "|bA", "|Ab",
    "|bA", "a|bA", "bb|bA", "|bA",
]


def test_t4_boundary_action_images():
    assert t4_boundary_action_images() == T4_ACTION_GOLDEN
