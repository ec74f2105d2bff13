"""Output checks run on every report of every benchmark pass.

Each check returns a list of problems; an empty list means the report holds.
The thresholds were sized against many workload seeds of the program and
are never loosened to make a run pass.  The oracle values come from
`cat0lab.oracles`, which the checks call directly and which is not timed.
"""

from __future__ import annotations

import functools
import json
import math

from cat0lab import oracles


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def parse_strict(text: str):
    """Parse a report, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def canonical(report: dict) -> str:
    """The reproducible part of a report: everything but `timing`."""
    return json.dumps({k: v for k, v in report.items() if k != "timing"}, sort_keys=True)


@functools.lru_cache(maxsize=None)
def _tree_drift(n: int) -> float:
    return oracles.tree_drift_expected(n)


@functools.lru_cache(maxsize=None)
def _tree_cylinders(length: int) -> tuple:
    """Oracle masses of the uniform T4 walk's cylinders, in bin order."""
    words = [""]
    for _ in range(length):
        words = [w + ch for w in words for ch in "aAbB"
                 if not (w and w[-1] == ch.swapcase())]
    masses = oracles.tree_hitting_cylinders(oracles.uniform_tree_probs(), length)
    return tuple(masses[w] for w in words)


def _drift(cfg, res):
    lam, se, model = res["lambda_hat"], res["std_error"], cfg["model"]
    out = []
    if model == "T4":
        expected = _tree_drift(cfg["n"])
        if abs(lam - expected) > 5 * se:
            out.append(f"T4 drift {lam} is more than 5 SE ({se}) from the oracle {expected}")
    elif model == "E2":
        if lam > 0.05:
            out.append(f"E2 drift {lam} above 0.05")
    else:
        if not lam - 5 * se > 0:
            out.append(f"{model} drift {lam} not 5 SE ({se}) above 0")
        if model == "H2":
            hlam = res["horofunction_lambda"]
            if hlam is None or abs(hlam - lam) > 0.05 * lam:
                out.append(f"horofunction speed {hlam} not within 5% of drift {lam}")
    return out


def _histogram(cfg, hist):
    out = []
    masses = hist["masses"]
    if hist["m_samples"] != cfg["m_samples"]:
        out.append(f"{cfg['m_samples'] - hist['m_samples']} paths dropped")
    if any(not mass >= 0 for mass in masses):
        out.append("negative or NaN mass")
    if not abs(sum(masses) - 1.0) <= 1e-9:
        out.append(f"masses sum to {sum(masses)}")
    if cfg["model"] == "T4":
        m = hist["m_samples"]
        for mass, p in zip(masses, _tree_cylinders(hist["bins"]["length"])):
            sigma = math.sqrt(p * (1 - p) / m)
            if abs(mass - p) > 5 * sigma:
                out.append(f"cylinder mass {mass} more than 5 sigma from oracle {p}")
    return out


def _hitting(cfg, res):
    return _histogram(cfg, res["histogram"])


def _stationarity(cfg, res):
    out = _histogram(cfg, res["histogram"])
    if not res["defect"] <= 0.5:
        out.append(f"stationarity defect {res['defect']} above 0.5")
    return out


def _gap(cfg, res):
    out = []
    if not res["gap_series"][0] <= 1e-9:
        out.append(f"gap at step 0 is {res['gap_series'][0]}")
    if not res["sup_gap"] <= 0.01 * cfg["n"]:
        out.append(f"sup gap {res['sup_gap']} above 0.01 n")
    return out


def _converge(cfg, res):
    tails = res["first_tail_per_path"]
    if cfg["model"] == "H2":
        share = sum(t <= 1e-2 for t in tails) / len(tails)
        return [] if share >= 0.8 else [f"only {share:.0%} of H2 paths converge"]
    share = sum(t > 1e-2 for t in tails) / len(tails)
    return [] if share >= 0.5 else [f"only {share:.0%} of E2 paths fail to converge"]


def _dirac(cfg, res):
    if cfg["model"] == "H2":
        final = [res["spread"][-1], res["spread_second"][-1], res["cross_spread"][-1]]
        return [] if all(s <= 1e-3 for s in final) else [f"final H2 spreads {final}"]
    spread = res["spread"]
    if max(spread) - min(spread) > 1e-9:
        return [f"E2 spread not constant: {min(spread)}..{max(spread)}"]
    return []


def _track(cfg, res):
    out = []
    errs, lam = res["errors"], res["lambda"]
    if not all(math.isfinite(e) and e >= 0 for e in errs):
        out.append("tracking error negative or not finite")
    elif not errs[-1] <= 0.1:
        out.append(f"last tracking error {errs[-1]} above 0.1")
    if cfg["model"] == "T4":
        if not abs(lam - 0.5) <= 0.05:
            out.append(f"T4 lambda {lam} not within 0.05 of 1/2")
    elif not 0.4 <= lam <= 0.7:
        out.append(f"{cfg['model']} lambda {lam} outside [0.4, 0.7]")
    return out


def _cocycle(cfg, res):
    worst = res["max_residual"]
    if cfg["model"] == "T4":
        return [] if worst == 0 else [f"T4 cocycle residual {worst} is not 0"]
    return [] if worst <= 1e-9 else [f"cocycle residual {worst} above 1e-9"]


_VERDICTS = {"H2": "certified-non-elementary", "T4": "certified-non-elementary",
             "E2": "hypotheses-violated", "H2xR": "hypotheses-violated"}


def _rankone(cfg, res):
    want = _VERDICTS[cfg["model"]]
    return [] if res["verdict"] == want else [f"verdict {res['verdict']}, want {want}"]


def _northsouth(cfg, res):
    out = []
    if res["attained"] is not True:
        out.append("north-south constant not attained")
    if not res["k0_squared_power"] <= res["k0"]:
        out.append(f"k0(g^2) = {res['k0_squared_power']} above k0 = {res['k0']}")
    return out


def _pi_convergence(cfg, res):
    return [] if res["holds"] is True else ["pi-convergence does not hold"]


def _tits_table(cfg, res):
    out = []
    model = cfg["model"]
    if model == "E2":
        bad = [r for r in res["table"]
               if r["tits"] is None or abs(r["tits"] - r["angle"]) > 1e-6]
        if bad:
            out.append(f"{len(bad)} E2 Tits distances differ from the angle")
    want = model in ("H2", "T4")
    if res["pi_ball_trivial"] is not want:
        out.append(f"pi_ball_trivial is {res['pi_ball_trivial']}, want {want}")
    return out


_CHECKS = {
    "drift": _drift, "hitting": _hitting, "stationarity": _stationarity,
    "gap": _gap, "converge": _converge, "dirac": _dirac, "track": _track,
    "cocycle": _cocycle, "rankone-audit": _rankone, "northsouth": _northsouth,
    "pi-convergence": _pi_convergence, "tits-table": _tits_table,
}


def check_report(cfg: dict, report: dict) -> list[str]:
    """Problems with one report of the given config; empty when it holds."""
    if report.get("config") != cfg:
        return ["report does not echo its config"]
    try:
        return _CHECKS[cfg["experiment"]](cfg, report["results"])
    except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"malformed results: {exc!r}"]
