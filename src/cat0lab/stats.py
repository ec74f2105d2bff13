"""Estimators and theorem checkers: drift, boundary convergence, hitting
histograms, stationarity defect, Dirac concentration, horofunction gaps,
cocycle residuals, geodesic tracking, and the pi-convergence scan.

Each path's random stream depends only on (seed, path index), so reports
are bit-stable for a given seed.  The drift and hitting estimators read
only the ends of their paths and take them from `walk.sample_terminals`,
which walks many paths together as numpy state and gives the same bits as
walking them one at a time; the estimators that read along a path walk it
alone, through `sample_walk`, and read every step it stored for them.  The
readers of the visual metric (the Cauchy tail of a convergence profile,
the Dirac spreads, the pi-convergence gaps) take all their pairs from one
`boundary.boundary_distances` call, which charts each boundary point once,
and reduce them with Python `max` in pair order.

No estimator certifies its step distribution: each returns its estimate
for any support, negative controls included.  `hypotheses_audit` holds the
one certification policy (admissible at depth 4, and a rank-one audit
verdict of certified-non-elementary), and `cli.run` is the one caller that
gates on it.

No estimator branches on the model.  The hitting bins are laid out by the
model's kernel (`bin_count`, `bin_index`, `bin_sample` in `models.KERNELS`);
`BinScheme` only delegates to it.  The results are frozen dataclasses, and
the CLI writes them through `dataclasses.asdict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .geometry import distance, direction, model_basepoint
from .isometry import (
    apply,
    apply_boundary,
    axis_endpoints,
    classify,
    independence_score,
    inverse,
    is_rank_one,
)
from .boundary import boundary_distances, tits_distance
from .models import (
    KERNELS,
    BoundaryPoint,
    Isometry,
    Model,
    Point,
    boundary_points_equal,
    same_model,
    tolerance,
)
from .walk import (
    StepDistribution,
    WalkTrace,
    sample_terminals,
    sample_walk,
    snapshot_horofunction,
    snapshot_point,
    validate_distribution,
)


def default_checkpoints(n: int, count: int = 20) -> list[int]:
    if n < 1:
        return [0]
    pts = sorted({max(1, int(round(v))) for v in np.linspace(n / count, n, count)})
    return pts


# -- drift ---------------------------------------------------------------------

@dataclass(frozen=True)
class DriftReport:
    n: int
    m_samples: int
    lambda_hat: float
    std_error: float
    per_sample_terminal: tuple
    horofunction_lambda: float | None = None


def drift_estimate(spec: StepDistribution, x: Point, n: int, m_samples: int,
                   seed: int, horofunction_xi: BoundaryPoint | None = None) -> DriftReport:
    """Monte-Carlo estimate of the escape speed lim d(Z_n x, x)/n over
    independent sample paths; optionally also the horofunction speed
    mean h_xi(Z_n x)/n for a fixed boundary point."""
    if n < 1 or m_samples < 1:
        raise UsageError("need positive walk length and sample count")
    if horofunction_xi is not None:
        same_model(x, horofunction_xi)
    dists, snaps = sample_terminals(spec, x, n, seed, m_samples)
    terms = dists / n
    lam = float(terms.mean())
    se = float(terms.std(ddof=1) / math.sqrt(m_samples)) if m_samples > 1 else 0.0
    hlam = None
    if horofunction_xi is not None:
        hlam = float(np.mean([snapshot_horofunction(spec.model, snap, x, horofunction_xi) / n
                              for snap in snaps]))
    return DriftReport(
        n=n,
        m_samples=m_samples,
        lambda_hat=lam,
        std_error=se,
        per_sample_terminal=tuple(float(t) for t in terms),
        horofunction_lambda=hlam,
    )


# -- boundary convergence --------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceProfile:
    checkpoints: tuple
    boundary_coords: tuple
    cauchy_tail: tuple


def convergence_profile(trace: WalkTrace) -> ConvergenceProfile:
    """Directions direction(x, Z_k x) at the stored steps of a trace and the
    suffix spread sup_{j,l >= k} of their pairwise boundary distances.  Steps
    at the basepoint, step 0 among them, have no direction and are left out."""
    coords = []
    kept = []
    x = trace.basepoint
    for i, k in enumerate(trace.steps):
        p = trace.point(i)
        # the float orbit point can sit on x even where the log-space
        # distance of a return does not reach the tolerance
        if trace.base_distances[i] <= tolerance() or distance(x, p) <= tolerance():
            continue
        coords.append(direction(x, p))
        kept.append(int(k))
    if not coords:
        return ConvergenceProfile((), (), ())
    m = len(coords)
    # row k of the condensed triangle, d(coords[k], coords[j]) for j > k,
    # is the m - 1 - k entries just before row k + 1
    pair = boundary_distances(x, coords)
    tail = [0.0] * m
    best = 0.0
    end = len(pair)
    for k in range(m - 1, -1, -1):
        start = end - (m - 1 - k)
        best = max(best, max(pair[start:end], default=0.0))
        end = start
        tail[k] = best
    return ConvergenceProfile(tuple(kept), tuple(coords), tuple(tail))


# -- hitting histograms -----------------------------------------------------------

@dataclass(frozen=True)
class BinScheme:
    """Boundary partition used for hitting histograms.  The model's kernel
    owns the layout (`BIN_KIND`, `BIN_FIELDS`, `DEFAULT_BINS`, `bin_params`,
    `bin_count`, `bin_index`, `bin_sample`): angular arcs (E2), circle arcs
    through the half-angle chart (H2), word cylinders (T4), arc x slope
    boxes plus two poles (H2xR).  The scheme holds the kernel's params and
    delegates to it; `bin_params` raises UsageError for a scheme with no arcs
    or a negative cylinder length."""

    model: Model
    params: tuple

    @classmethod
    def _make(cls, model: Model, *sizes) -> "BinScheme":
        return cls(model, KERNELS[model].bin_params(*sizes))

    @classmethod
    def angular(cls, k: int) -> "BinScheme":
        return cls._make(Model.E2, k)

    @classmethod
    def circle(cls, k: int) -> "BinScheme":
        return cls._make(Model.H2, k)

    @classmethod
    def cylinders(cls, length: int) -> "BinScheme":
        return cls._make(Model.T4, length)

    @classmethod
    def product(cls, k_xi: int, k_alpha: int) -> "BinScheme":
        return cls._make(Model.H2xR, k_xi, k_alpha)

    @classmethod
    def default(cls, model: Model, resolution: int = 0) -> "BinScheme":
        """The kernel's `DEFAULT_BINS` sizes, the first one replaced by a
        nonzero resolution."""
        sizes = KERNELS[model].DEFAULT_BINS
        return cls._make(model, resolution or sizes[0], *sizes[1:])

    @property
    def kind(self) -> str:
        return KERNELS[self.model].BIN_KIND

    @property
    def count(self) -> int:
        return KERNELS[self.model].bin_count(self.params)

    def index_of(self, b: BoundaryPoint) -> int:
        if b.model is not self.model:
            raise UsageError("boundary point model does not match the bin scheme")
        return KERNELS[self.model].bin_index(self.params, b.data)

    def sample_in_bin(self, i: int, rng) -> BoundaryPoint:
        return BoundaryPoint(self.model, KERNELS[self.model].bin_sample(
            self.params, i, rng, tolerance()))

    def descriptor(self) -> dict:
        fields = dict(zip(KERNELS[self.model].BIN_FIELDS, self.params))
        return {"model": self.model.value, "kind": self.kind, **fields,
                "count": self.count}


@dataclass(frozen=True)
class HittingHistogram:
    bins: BinScheme
    masses: tuple
    n: int
    m_samples: int

    def __post_init__(self):
        # written as not (value <= bound) so that NaN masses fail
        if not abs(sum(self.masses) - 1.0) <= 1e-9:
            raise UsageError("histogram masses must sum to 1")
        if not all(0.0 <= m for m in self.masses):
            raise UsageError("histogram masses must be nonnegative")

    def to_json(self) -> dict:
        return {"bins": self.bins.descriptor(), "masses": list(self.masses),
                "n": self.n, "m_samples": self.m_samples}


def hitting_measure(spec: StepDistribution, x: Point, n: int, m_samples: int,
                    bins: BinScheme, seed: int) -> HittingHistogram:
    """Histogram of the terminal directions direction(x, Z_n x) over
    independent sample paths, in the model's bin scheme.  Paths that end at
    the basepoint have no direction and are left out; DomainError when no
    path is left."""
    dists, snaps = sample_terminals(spec, x, n, seed, m_samples)
    hits = [bins.index_of(direction(x, snapshot_point(spec.model, snap, x)))
            for d, snap in zip(dists, snaps) if not d <= tolerance()]
    if not hits:
        raise DomainError("no sample path left the basepoint; the histogram is empty")
    counts = np.bincount(hits, minlength=bins.count).astype(float)
    masses = counts / counts.sum()
    return HittingHistogram(bins=bins, masses=tuple(float(v) for v in masses),
                            n=n, m_samples=len(hits))


def stationarity_defect(spec: StepDistribution, hist: HittingHistogram,
                        refinement_samples: int, seed: int = 0) -> float:
    """Total-variation distance between the histogram and its pushforward
    under the step distribution, with within-bin uniform refinement samples
    standing in for each bin's mass."""
    if refinement_samples < 1:
        raise UsageError("need at least one refinement sample per bin")
    bins = hist.bins
    if spec.model is not bins.model:
        raise UsageError("step distribution and bin scheme are on different models")
    kernel = KERNELS[bins.model]
    act, index, sample = kernel.apply_boundary, kernel.bin_index, kernel.bin_sample
    params, tol = bins.params, tolerance()
    rng = np.random.default_rng(seed)
    pushed = [0.0] * bins.count
    for i, mass in enumerate(hist.masses):
        if mass == 0.0:
            continue
        moves = [(g.data, mass * p / refinement_samples) for g, p in spec.atoms]
        for _ in range(refinement_samples):
            b = sample(params, i, rng, tol)
            for g, w in moves:
                pushed[index(params, act(g, b))] += w
    return 0.5 * float(np.abs(np.array(pushed) - np.array(hist.masses)).sum())


# -- Dirac concentration ------------------------------------------------------------

@dataclass(frozen=True)
class DiracReport:
    checkpoints: tuple
    spread: tuple
    spread_second: tuple | None
    cross_spread: tuple | None


def _cloud_spread(x: Point, cloud) -> float:
    best = 0.0
    for d in boundary_distances(x, cloud):
        best = max(best, d)
    return best


def _cross_spread(x: Point, cloud1, cloud2) -> float:
    return max(d for row in boundary_distances(x, cloud1, cloud2) for d in row)


def dirac_concentration(spec: StepDistribution, atoms0, seed: int, checkpoints,
                        atoms1=None, basepoint: Point | None = None) -> DiracReport:
    """Per-path spread of the pushforward Z_k . atoms at the positive
    checkpoints k of one walk realization, which runs to the last of them; a
    vanishing spread (and cross spread when a second disjoint atom set is
    given) witnesses the Dirac limit of the translated measures."""
    if len(atoms0) < 2:
        raise UsageError("need at least two initial boundary atoms")
    x = basepoint if basepoint is not None else model_basepoint(spec.model)
    checkpoints = sorted({int(k) for k in checkpoints if int(k) >= 1})
    if not checkpoints:
        raise UsageError("need at least one positive checkpoint")
    same_model(x, *atoms0, *(atoms1 or ()))

    trace = sample_walk(spec, x, checkpoints[-1], seed, steps=checkpoints)
    spread0, spread1, cross = [], [], []
    # stored step i is checkpoint i - 1, after step 0
    for i in range(1, len(trace.steps)):
        img0 = [trace.image(i, b) for b in atoms0]
        spread0.append(_cloud_spread(x, img0))
        if atoms1 is not None:
            img1 = [trace.image(i, b) for b in atoms1]
            spread1.append(_cloud_spread(x, img1))
            cross.append(_cross_spread(x, img0, img1))
    return DiracReport(
        checkpoints=tuple(checkpoints),
        spread=tuple(spread0),
        spread_second=tuple(spread1) if atoms1 is not None else None,
        cross_spread=tuple(cross) if atoms1 is not None else None,
    )


# -- horofunction statistics -----------------------------------------------------------

def horofunction_gap(trace: WalkTrace, xi: BoundaryPoint):
    """|h_xi(Z_k x) - d(Z_k x, x)| along the stored steps of a trace: the
    values h_xi(Z_k x) that a walk read toward xi holds, or else those of
    its snapshots."""
    same_model(trace.basepoint, xi)
    if trace.xi is None:
        h = np.array([snapshot_horofunction(trace.model, snap, trace.basepoint, xi)
                      for snap in trace.snapshots])
    elif trace.xi == xi:
        h = trace.horofunctions
    else:
        raise UsageError("the trace was read toward another boundary point")
    series = np.abs(h - trace.base_distances)
    return float(series.max()), series


def cocycle_residual(g1: Isometry, g2: Isometry, xi: BoundaryPoint, x: Point) -> float:
    """Deviation from h_xi(g1 g2 x) = h_{g1^{-1} xi}(g2 x) + h_xi(g1 x),
    all with basepoint x; identically zero up to rounding."""
    kernel = KERNELS[same_model(g1, g2, xi, x)]
    a, b, p, z = g1.data, g2.data, xi.data, x.data
    h = kernel.horofunction
    bz = kernel.apply(b, z)
    lhs = float(h(p, z, kernel.apply(a, bz)))
    rhs = float(h(kernel.apply_boundary(kernel.inverse(a), p), z, bz)) + float(
        h(p, z, kernel.apply(a, z)))
    return abs(lhs - rhs)


def tracking_error(trace: WalkTrace, lam: float):
    """d(gamma(lam k), Z_k x)/k at the stored steps, for the ray gamma from
    the basepoint toward the final recorded direction.

    The hyperbolic factors are re-tracked in multiprecision: a float64
    product state cannot resolve the transverse position of a deep orbit, so
    the tracking geometry is recomputed with depth-adapted digits.
    """
    if not lam > 0:
        raise DomainError("tracking needs a positive drift")
    x = trace.basepoint
    if trace.base_distances[-1] <= tolerance():
        raise UsageError("trace never left the basepoint; no direction proxy")
    ks = [int(k) for k in trace.steps[1:]]
    snaps = dict(zip(ks, trace.snapshots[1:]))
    atoms = [g.data for g in trace.spec.isometries]
    gaps = KERNELS[trace.model].tracking_gaps(atoms, trace.increments, snaps, x.data, lam,
                                              tolerance())
    errs = [gaps[k] / k for k in ks]
    return np.array(ks), np.array(errs)


# -- pi-convergence -----------------------------------------------------------------

@dataclass(frozen=True)
class PiConvergence:
    holds: bool
    n0: int
    xi: BoundaryPoint
    eta: BoundaryPoint
    max_gaps: tuple


def pi_convergence_check(gs, x: Point, K, u_eps: float, limits=None) -> PiConvergence:
    """Smallest index from which every compact-set point lands within u_eps
    of the forward limit under the isometry sequence, with each index's
    largest distance to that limit; the compact set must stay outside the
    closed Tits pi-ball of the backward limit."""
    if not gs:
        raise UsageError("need a nonempty isometry sequence")
    if limits is not None:
        xi, eta = limits
    else:
        fwd = [apply(g, x) for g in gs]
        bwd = [apply(inverse(g), x) for g in gs]
        fwd = [p for p in fwd if distance(p, x) > tolerance()]
        bwd = [p for p in bwd if distance(p, x) > tolerance()]
        if not fwd or not bwd:
            raise UsageError("cannot detect limits from a bounded orbit; pass a hint")
        xi = direction(x, fwd[-1])
        eta = direction(x, bwd[-1])
    for kappa in K:
        if tits_distance(eta, kappa) <= math.pi:
            raise DomainError(
                "compact set meets the closed Tits pi-ball of the backward limit"
            )
    ok, max_gaps = [], []
    for g in gs:
        images = [apply_boundary(g, kappa) for kappa in K]
        gaps = [row[0] for row in boundary_distances(x, images, [xi])]
        ok.append(all(d < u_eps for d in gaps))
        max_gaps.append(max(gaps, default=0.0))
    n0 = len(gs)
    for i in range(len(ok) - 1, -1, -1):
        if not ok[i]:
            break
        n0 = i
    return PiConvergence(holds=n0 < len(gs), n0=n0, xi=xi, eta=eta,
                         max_gaps=tuple(max_gaps))


# -- robust trend estimate ------------------------------------------------------------

THEIL_SEN_MAX_POINTS = 300  # a longer series is strided down to at most this many


def theil_sen(xs, ys) -> float:
    """Median of pairwise slopes; robust trend indicator for gap series."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        raise UsageError("need two equal-length series with at least 2 points")
    if len(xs) > THEIL_SEN_MAX_POINTS:
        stride = len(xs) // THEIL_SEN_MAX_POINTS + 1
        xs, ys = xs[::stride], ys[::stride]
    slopes = []
    for i in range(len(xs) - 1):
        dx = xs[i + 1:] - xs[i]
        keep = dx != 0
        slopes.append((ys[i + 1:] - ys[i])[keep] / dx[keep])
    if not (slopes := np.concatenate(slopes)).size:
        raise UsageError("need two points with distinct x")
    return float(np.median(slopes))


# -- hypotheses audit ----------------------------------------------------------------

@dataclass(frozen=True)
class AtomAudit:
    index: int
    kind: str
    translation_length: float
    rank_one: bool


@dataclass(frozen=True)
class PairAudit:
    i: int
    j: int
    scores: tuple
    increasing: bool
    endpoints_disjoint: bool


@dataclass(frozen=True)
class RankOneAudit:
    atoms: tuple
    pairs: tuple
    verdict: str


def rankone_audit(spec: StepDistribution) -> RankOneAudit:
    """Classify every atom, flag rank-one ones, and probe pairwise
    independence through the growth of shell displacement minima at the
    exponents 2, 4 and 8.

    Verdicts: certified-non-elementary when two rank-one atoms with four
    distinct fixed points show strictly growing shell scores; indeterminate
    when rank-one atoms exist but no such pair; hypotheses-violated when the
    support has no rank one element."""
    x = model_basepoint(spec.model)
    atoms = []
    for idx, (g, _) in enumerate(spec.atoms):
        cls = classify(g)
        atoms.append(AtomAudit(index=idx, kind=cls.kind,
                               translation_length=cls.translation_length,
                               rank_one=is_rank_one(g)))
    rank_one_ids = [a.index for a in atoms if a.rank_one]
    pairs = []
    verdict = "hypotheses-violated" if not rank_one_ids else "indeterminate"
    for ii in range(len(rank_one_ids)):
        for jj in range(ii + 1, len(rank_one_ids)):
            i, j = rank_one_ids[ii], rank_one_ids[jj]
            g1 = spec.atoms[i][0]
            g2 = spec.atoms[j][0]
            scores = tuple(independence_score(g1, g2, x, m, shell=True) for m in (2, 4, 8))
            increasing = all(b > a + tolerance() for a, b in zip(scores, scores[1:]))
            e1 = axis_endpoints(g1)
            e2 = axis_endpoints(g2)
            four = [e1[0], e1[1], e2[0], e2[1]]
            disjoint = all(
                not boundary_points_equal(four[a], four[b], 1e-6)
                for a in range(4) for b in range(a + 1, 4)
            )
            pairs.append(PairAudit(i=i, j=j, scores=scores,
                                   increasing=increasing, endpoints_disjoint=disjoint))
            if increasing and disjoint:
                verdict = "certified-non-elementary"
    return RankOneAudit(atoms=tuple(atoms), pairs=tuple(pairs), verdict=verdict)


def hypotheses_audit(spec: StepDistribution):
    """(admissibility at depth 4, rank-one audit, problems): the problems
    name each hypothesis the two leave unproved, and are empty exactly when
    the support is certified admissible and non-elementary."""
    adm = validate_distribution(spec, 4)
    audit = rankone_audit(spec)
    problems = []
    if not adm.certified:
        problems.append("support not certified admissible at depth 4")
    if audit.verdict != "certified-non-elementary":
        problems.append(f"rank-one audit verdict: {audit.verdict}")
    return adm, audit, problems
