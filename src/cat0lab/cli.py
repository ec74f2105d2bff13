"""Batch experiment runner.

Usage:
    cat0lab run <config.json> [--outdir DIR] [--allow-uncertified] [--threads N]
    cat0lab sweep <glob> [--outdir DIR] [--allow-uncertified] [--threads N]
    cat0lab oracle tree-drift --n N
    cat0lab oracle busemann-limit --xi JSON --x JSON --z JSON --t T

Each run writes <outdir>/<experiment>-<seed>/report.json (and series.csv when
the experiment produces a series).  Reports embed the config echo and the
hypotheses audit; the timing block is the only non-reproducible field.

--threads is accepted and ignored: the walk runs in one thread, either one
path at a time through a per-step Python loop, which holds the GIL, or many
paths together as numpy state (see `walk.sample_terminals`).
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .errors import DistributionError, DomainError, UncertifiedError, UsageError
from .geometry import model_basepoint
from .isometry import axis_endpoints, north_south_constant, power
from .boundary import (
    angles_at_infinity,
    boundary_distances,
    sample_boundary,
    tits_ball_is_trivial,
    tits_distance,
)
from .sampling import random_isometry, random_point
from .models import (
    DEFAULT_TOLERANCE,
    Model,
    boundary_from_json,
    boundary_to_json,
    isometry_from_json,
    point_from_json,
    set_tolerance,
)
from .oracles import tree_drift_expected
from .stats import (
    BinScheme,
    convergence_profile,
    default_checkpoints,
    dirac_concentration,
    drift_estimate,
    hitting_measure,
    horofunction_gap,
    hypotheses_audit,
    pi_convergence_check,
    stationarity_defect,
    cocycle_residual,
    theil_sen,
    tracking_error,
)
from .walk import StepDistribution, sample_walk

CONFIG_SCHEMA = "cat0lab/config/v1"
REPORT_SCHEMA = "cat0lab/report/v1"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_UNCERTIFIED = 3


class ConfigError(ValueError):
    pass


_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, DistributionError,
              DomainError, UsageError)


REQUIRED = object()
Param = namedtuple("Param", "kind default least", defaults=(REQUIRED, None))


def _param(key: str, given: dict, kind: str, default=REQUIRED, least=None, tol=None):
    """`given[key]` checked as a `kind` and converted as the runners read it,
    or the default; boundary payloads parse under the given tolerance."""
    if key not in given:
        if default is REQUIRED:
            raise ConfigError(f"{key} is required ({kind})")
        return default
    value = given[key]
    try:
        if kind == "isometry":
            return isometry_from_json(value)
        if kind == "boundary":
            return boundary_from_json(value, tol)
        if kind == "boundaries":
            return [boundary_from_json(b, tol) for b in value]
        if (kind == "bool" and type(value) is bool  # a bool is no int or number here
                or kind == "int" and type(value) is int and value >= least
                or kind == "positive or auto" and value == "auto"):
            return value
        if kind in ("float", "positive", "positive or auto") and type(value) in (int, float):
            if math.isfinite(x := float(value)) and (x >= least if kind == "float" else x > 0):
                return x
    except _MALFORMED as exc:
        raise ConfigError(f"{key} is malformed: {exc}") from exc
    raise ConfigError(f"{key} must be {kind}" + ("" if least is None else f" >= {least}"))


@dataclass
class ExperimentConfig:
    experiment: str
    model: Model
    distribution: StepDistribution | None
    basepoint: object
    n: int
    m_samples: int
    seed: int
    checkpoints: list[int] | None
    params: dict  # as the runners read them: numbers, isometries, boundary points
    tolerance: float  # the default when the config gives none
    raw: dict


def load_config(path) -> ExperimentConfig:
    """Read a config file, or raise ConfigError unless it is a JSON object whose
    values and params are all of their kinds; fill in the params' defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    try:
        schema = raw.get("schema")
        if schema is not None and schema != CONFIG_SCHEMA:
            raise ConfigError(f"unsupported config schema {schema!r}")
        experiment = raw["experiment"]
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {experiment!r}; "
                              f"pick from {', '.join(EXPERIMENTS)}")
        model = Model(raw["model"])
        dist = None
        if "distribution" in raw:
            dist = StepDistribution.from_json(raw["distribution"])
            if dist.model is not model:
                raise ConfigError("distribution model does not match config model")
        base = point_from_json(raw["basepoint"]) if "basepoint" in raw else model_basepoint(model)
        n = _param("n", raw, "int", 1000, 0)
        m = _param("m_samples", raw, "int", 100, 1)
        seed = _param("seed", raw, "int", 0, 0)
        # runners derive seeds up to seed + 2, which must stay below 2**64
        if seed >= 1 << 63:
            raise ConfigError("seed must lie in [0, 2**63)")
        checkpoints = raw.get("checkpoints", [])
        if not all(type(k) is int and 1 <= k <= n for k in checkpoints):
            raise ConfigError(f"checkpoints must be integers in [1, n] = [1, {n}]")
        tol = _param("tolerance", raw, "positive", DEFAULT_TOLERANCE)
        given, table = raw.get("params", {}), EXPERIMENTS[experiment][3]
        if not isinstance(given, dict) or not given.keys() <= table.keys():
            raise ConfigError(f"params must be an object with keys from {sorted(table)}")
        params = {key: _param(key, given, *spec, tol=tol) for key, spec in table.items()}
        return ExperimentConfig(experiment, model, dist, base, n, m, seed,
                                checkpoints or None, params, tol, raw)
    except ConfigError:
        raise
    except _MALFORMED as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _hypotheses_block(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    """The report's hypotheses block, and the problems that gate a run."""
    if cfg.distribution is None:
        return {"admissibility": None, "rankone_audit": None}, []
    adm, audit, problems = hypotheses_audit(cfg.distribution)
    return {"admissibility": vars(adm), "rankone_audit": asdict(audit)}, problems


# Each runner takes the config, the report's hypotheses block and the problems
# `hypotheses_audit` found, and returns (results, csv header, csv rows), the
# rows as a list or, for a long series, an iterator; no rows, no series.csv.

def _run_drift(cfg, hypotheses, problems):
    rep = drift_estimate(cfg.distribution, cfg.basepoint, cfg.n, cfg.m_samples,
                         cfg.seed, horofunction_xi=cfg.params["horofunction_xi"])
    return (asdict(rep), ["sample", "terminal_over_n"],
            list(enumerate(rep.per_sample_terminal)))


def _run_converge(cfg, hypotheses, problems):
    checkpoints = cfg.checkpoints or default_checkpoints(cfg.n)
    paths, tails, rows = [], [], []
    for i in range(cfg.m_samples):
        tr = sample_walk(cfg.distribution, cfg.basepoint, cfg.n, cfg.seed,
                         path_index=i, steps=checkpoints)
        prof = convergence_profile(tr)
        paths.append({"path": i, "checkpoints": list(prof.checkpoints),
                      "cauchy_tail": list(prof.cauchy_tail)})
        # a path that never leaves the basepoint has no tail: null, not NaN
        tails.append(prof.cauchy_tail[0] if prof.cauchy_tail else None)
        rows += [(i, k, tail) for k, tail in zip(prof.checkpoints, prof.cauchy_tail)]
    return ({"paths": paths, "first_tail_per_path": tails},
            ["path", "checkpoint", "cauchy_tail"], rows)


def _run_hitting(cfg, hypotheses, problems):
    """hitting, and stationarity, which adds the defect of the same histogram."""
    bins = BinScheme.default(cfg.model, cfg.params["bins"])
    hist = hitting_measure(cfg.distribution, cfg.basepoint, cfg.n, cfg.m_samples,
                           bins, cfg.seed)
    results = {"histogram": hist.to_json()}
    if cfg.experiment == "stationarity":
        refinement = cfg.params["refinement_samples"]
        results["defect"] = stationarity_defect(cfg.distribution, hist, refinement,
                                                seed=cfg.seed)
        results["refinement_samples"] = refinement
    return results, ["bin", "mass"], list(enumerate(hist.masses))


def _run_dirac(cfg, hypotheses, problems):
    count = cfg.params["atom_count"]
    atoms0 = cfg.params["atoms0"]
    if atoms0 is None:
        atoms0 = sample_boundary(cfg.model, count, cfg.seed + 1)
    atoms1 = cfg.params["atoms1"]
    if atoms1 is None and cfg.params["second_set"]:
        atoms1 = sample_boundary(cfg.model, count, cfg.seed + 2)
    checkpoints = cfg.checkpoints or default_checkpoints(cfg.n, 10)
    rep = dirac_concentration(cfg.distribution, atoms0, cfg.seed,
                              checkpoints, atoms1=atoms1, basepoint=cfg.basepoint)
    second = rep.spread_second or [""] * len(rep.checkpoints)
    cross = rep.cross_spread or [""] * len(rep.checkpoints)
    return ({**asdict(rep), "hypotheses_certified": not problems, "warnings": problems},
            ["checkpoint", "spread", "spread_second", "cross_spread"],
            list(zip(rep.checkpoints, rep.spread, second, cross)))


def _run_gap(cfg, hypotheses, problems):
    xi = cfg.params["xi"]
    thin = cfg.params["thin"]
    tr = sample_walk(cfg.distribution, cfg.basepoint, cfg.n, cfg.seed,
                     steps=[*range(thin, cfg.n + 1, thin), cfg.n], xi=xi)
    sup_gap, series = horofunction_gap(tr, xi)
    slope = theil_sen(tr.steps, series) if len(series) > 2 else 0.0
    steps, gaps = [int(k) for k in tr.steps], [float(v) for v in series]
    return ({"sup_gap": sup_gap, "steps": steps, "gap_series": gaps,
             "theil_sen_slope": slope}, ["step", "gap"], zip(steps, gaps))


def _run_cocycle(cfg, hypotheses, problems):
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    residuals = []
    for _ in range(cfg.params["count"]):
        g1 = random_isometry(cfg.model, rng)
        g2 = random_isometry(cfg.model, rng)
        xi = sample_boundary(cfg.model, 1, rng)[0]
        x = random_point(cfg.model, rng)
        residuals.append(cocycle_residual(g1, g2, xi, x))
    return ({"residuals": residuals, "max_residual": max(residuals)},
            ["case", "residual"], list(enumerate(residuals)))


def _run_track(cfg, hypotheses, problems):
    lam = cfg.params["lambda"]
    if lam == "auto":
        rep = drift_estimate(cfg.distribution, cfg.basepoint, cfg.n,
                             min(cfg.m_samples, 50), cfg.seed + 1)
        lam = rep.lambda_hat
    checkpoints = cfg.checkpoints or default_checkpoints(cfg.n, 10)
    # n is stored too, so the ray points at Z_n x
    tr = sample_walk(cfg.distribution, cfg.basepoint, cfg.n, cfg.seed,
                     steps=[*checkpoints, cfg.n])
    ks, errs = tracking_error(tr, lam)
    steps, errors = [int(k) for k in ks], [float(e) for e in errs]
    return ({"lambda": lam, "steps": steps, "errors": errors},
            ["step", "error"], list(zip(steps, errors)))


def _run_northsouth(cfg, hypotheses, problems):
    p = cfg.params
    args = (p["eps_plus"], p["eps_minus"], p["samples"], cfg.seed)
    res = north_south_constant(p["g"], *args, cap=p["cap"])
    res2 = north_south_constant(power(p["g"], 2), *args, cap=p["cap"])
    powers, max_gaps = list(range(1, res.k0 + 1)), list(res.max_gaps)
    return ({"k0": res.k0, "attained": res.attained, "cap": res.cap,
             "samples": res.samples, "k0_squared_power": res2.k0,
             "powers": powers, "max_gaps": max_gaps},
            ["power", "max_gap_to_attracting"], list(zip(powers, max_gaps)))


def _run_pi_convergence(cfg, hypotheses, problems):
    g = cfg.params["g"]
    k_count = cfg.params["k_count"]
    gs = [power(g, k) for k in range(1, cfg.params["powers"] + 1)]
    x = cfg.basepoint
    try:
        eta, _ = axis_endpoints(g)
    except DomainError:
        eta = None
    pool = sample_boundary(cfg.model, 8 * k_count, cfg.seed)
    if eta is not None:
        pool = [b for b, (d,) in zip(pool, boundary_distances(x, pool, [eta]))
                if d >= cfg.params["exclusion"]]
    res = pi_convergence_check(gs, x, pool[:k_count], cfg.params["u_eps"])
    gaps = list(res.max_gaps)
    return ({"holds": res.holds, "n0": res.n0,
             "xi": boundary_to_json(res.xi), "eta": boundary_to_json(res.eta),
             "max_gaps": gaps}, ["index", "max_gap_to_limit"], list(enumerate(gaps)))


def _run_tits_table(cfg, hypotheses, problems):
    count = cfg.params["count"]
    pts = sample_boundary(cfg.model, count, cfg.seed)
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    table = []
    for (i, j), ang in zip(pairs, angles_at_infinity(cfg.basepoint, pts)):
        dt = tits_distance(pts[i], pts[j])
        table.append({"i": i, "j": j,
                      "xi": boundary_to_json(pts[i]),
                      "eta": boundary_to_json(pts[j]),
                      "tits": None if math.isinf(dt) else dt,
                      "tits_infinite": math.isinf(dt),
                      "angle": ang.value})
    return ({"table": table, "pi_ball_trivial": tits_ball_is_trivial(pts[0])},
            ["i", "j", "tits", "angle_at_basepoint"],
            [(r["i"], r["j"], r["tits"], r["angle"]) for r in table])


def _run_rankone_audit(cfg, hypotheses, problems):
    return hypotheses["rankone_audit"], None, []


# name -> (runner, needs a distribution, gated, params).  Gated experiments
# assume a certified admissible, non-elementary, rank-one-containing support.
# The params, the only ones a config may give, each have a kind and a default
# (or are REQUIRED): an "int" is a JSON integer and a "float" a finite JSON
# number, each at least `least`; "positive" is a finite number above 0, and
# "positive or auto" also "auto"; the rest are a bool and JSON payloads.
EXPERIMENTS = {
    "drift": (_run_drift, True, True, {"horofunction_xi": Param("boundary", None)}),
    "converge": (_run_converge, True, True, {}),
    "hitting": (_run_hitting, True, True, {"bins": Param("int", 0, 0)}),
    "stationarity": (_run_hitting, True, True,
                     {"bins": Param("int", 0, 0), "refinement_samples": Param("int", 32, 1)}),
    "dirac": (_run_dirac, True, True, {
        "atom_count": Param("int", 10, 2), "atoms0": Param("boundaries", None),
        "atoms1": Param("boundaries", None), "second_set": Param("bool", True)}),
    "gap": (_run_gap, True, True, {"xi": Param("boundary"), "thin": Param("int", 1, 1)}),
    "cocycle": (_run_cocycle, False, False, {"count": Param("int", 100, 1)}),
    "track": (_run_track, True, True, {"lambda": Param("positive or auto", "auto")}),
    "northsouth": (_run_northsouth, False, False, {
        "g": Param("isometry"), "eps_plus": Param("positive", 0.01),
        "eps_minus": Param("positive", 0.1), "samples": Param("int", 200, 1),
        "cap": Param("int", 10 ** 6, 1)}),
    "pi-convergence": (_run_pi_convergence, False, False, {
        "g": Param("isometry"), "powers": Param("int", 30, 1), "u_eps": Param("positive", 0.05),
        "k_count": Param("int", 50, 1), "exclusion": Param("float", 0.1, 0)}),
    "tits-table": (_run_tits_table, False, False, {"count": Param("int", 8, 1)}),
    "rankone-audit": (_run_rankone_audit, True, False, {}),
}


def run(cfg: ExperimentConfig, outdir, allow_uncertified: bool = False) -> Path:
    """Execute one experiment config and write its report directory.  The
    config's tolerance applies to this run only; without one the default
    applies, whatever an earlier run set."""
    set_tolerance(cfg.tolerance)
    runner, needs_distribution, gated, _ = EXPERIMENTS[cfg.experiment]
    if needs_distribution and cfg.distribution is None:
        raise ConfigError(f"experiment {cfg.experiment!r} needs a distribution")
    hypotheses, problems = _hypotheses_block(cfg)
    if gated and problems and not allow_uncertified:
        raise UncertifiedError(
            "; ".join(problems) + " (rerun with --allow-uncertified to force)"
        )
    t0 = time.perf_counter()
    results, header, rows = runner(cfg, hypotheses, problems)
    wall = time.perf_counter() - t0
    report = {
        "schema": REPORT_SCHEMA,
        "library_version": __version__,
        "config": cfg.raw,
        "hypotheses": hypotheses,
        "results": results,
        "timing": {"wall_clock_s": wall, "timestamp": time.time()},
    }
    target = Path(outdir) / f"{cfg.experiment}-{cfg.seed}"
    target.mkdir(parents=True, exist_ok=True)
    path = target / "report.json"
    try:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):  # a value JSON cannot hold: leave no partial report
        path.unlink(missing_ok=True)
        raise
    if rows:
        with open(target / "series.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return target


def _oracle_main(args) -> int:
    if args.oracle == "tree-drift":
        value = tree_drift_expected(args.n)
        print(json.dumps({"oracle": "tree-drift", "n": args.n,
                          "expected_distance_over_n": value}))
        return EXIT_OK
    if args.oracle == "busemann-limit":
        from .boundary import horofunction, horofunction_limit_oracle

        xi = boundary_from_json(json.loads(args.xi))
        x = point_from_json(json.loads(args.x))
        z = point_from_json(json.loads(args.z))
        limit = horofunction_limit_oracle(xi, x, z, args.t)
        closed = horofunction(xi, x, z)
        print(json.dumps({"oracle": "busemann-limit", "t": args.t,
                          "limit_value": limit, "closed_form": closed,
                          "abs_difference": abs(limit - closed)}))
        return EXIT_OK
    raise ConfigError(f"unknown oracle {args.oracle!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cat0lab",
                                     description="CAT(0) model-space random walk laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--outdir", default="out")
    p_run.add_argument("--allow-uncertified", action="store_true")
    p_run.add_argument("--threads", type=int, default=1, help="accepted and ignored")

    p_sweep = sub.add_parser("sweep", help="run every config matching a glob")
    p_sweep.add_argument("pattern")
    p_sweep.add_argument("--outdir", default="out")
    p_sweep.add_argument("--allow-uncertified", action="store_true")
    p_sweep.add_argument("--threads", type=int, default=1, help="accepted and ignored")

    p_oracle = sub.add_parser("oracle", help="print independent oracle values")
    o_sub = p_oracle.add_subparsers(dest="oracle", required=True)
    o_drift = o_sub.add_parser("tree-drift")
    o_drift.add_argument("--n", type=int, default=2000)
    o_bus = o_sub.add_parser("busemann-limit")
    o_bus.add_argument("--xi", required=True)
    o_bus.add_argument("--x", required=True)
    o_bus.add_argument("--z", required=True)
    o_bus.add_argument("--t", type=float, default=1e4)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "oracle":
            return _oracle_main(args)
        if args.command == "run":
            cfg = load_config(args.config)
            target = run(cfg, args.outdir, allow_uncertified=args.allow_uncertified)
            print(f"wrote {target / 'report.json'}")
            return EXIT_OK
        if args.command == "sweep":
            paths = sorted(globmod.glob(args.pattern))
            if not paths:
                raise ConfigError(f"no configs match {args.pattern!r}")
            failures = 0
            for path in paths:
                try:
                    cfg = load_config(path)
                    target = run(cfg, args.outdir,
                                 allow_uncertified=args.allow_uncertified)
                    print(f"{path}: wrote {target / 'report.json'}")
                except Exception as exc:  # one failed config must not end the sweep
                    failures += 1
                    print(f"{path}: FAILED ({type(exc).__name__}: {exc})", file=sys.stderr)
            return EXIT_OK if failures == 0 else EXIT_FAILURE
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except UncertifiedError as exc:
        print(json.dumps({"error": "uncertified", "detail": str(exc)}), file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (UsageError, DomainError, DistributionError) as exc:
        print(json.dumps({"error": "domain", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
