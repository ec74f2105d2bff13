"""Workload catalogue: the configs each benchmark pass hands to the CLI.

A workload seed fixes every config seed; the program sees only the config
files written here.  Config seeds are distinct within a pass, because each
report lands in `<experiment>-<seed>/` and a shared seed would overwrite.
"""

from __future__ import annotations

import random


def _h2(a, b, c, d):
    return {"model": "H2", "payload": {"matrix": [a, b, c, d]}}


# g, g^-1, h, h^-1 with g = [2, 0, 0, 0.5] and h = [1, 1, 1, 2], as in the
# README and the test fixtures.
_H2_MATRICES = ([2, 0, 0, 0.5], [0.5, 0, 0, 2], [1, 1, 1, 2], [2, -1, -1, 1])
_H2XR_SHIFTS = (0.5, -0.5, 0.3, -0.3)


def _uniform(model, isometries):
    p = 1.0 / len(isometries)
    return {"model": model, "atoms": [{"isometry": g, "p": p} for g in isometries]}


DISTRIBUTIONS = {
    "H2": _uniform("H2", [_h2(*m) for m in _H2_MATRICES]),
    "T4": _uniform("T4", [{"model": "T4", "payload": {"word": w}} for w in "aAbB"]),
    "E2": _uniform("E2", [{"model": "E2", "payload": {"angle": 0.0, "v": v}}
                          for v in ([1, 0], [-1, 0], [0, 1], [0, -1])]),
    "H2xR": _uniform("H2xR", [{"model": "H2xR", "payload": {"matrix": m, "shift": s}}
                              for m, s in zip(_H2_MATRICES, _H2XR_SHIFTS)]),
}

# The flat and product negative controls run with --allow-uncertified, as
# the README says controls are run; the certified models never do.
CONTROLS = {"E2", "H2xR"}

H2_XI = {"model": "H2", "xi": 5.0}
H2_G = _h2(2, 0, 0, 0.5)


def _spec(experiment, model, n=None, m=None, params=None, checkpoints=None,
          distribution=True):
    spec = {"experiment": experiment, "model": model}
    if distribution:
        spec["distribution"] = DISTRIBUTIONS[model]
    if n is not None:
        spec["n"] = n
    if m is not None:
        spec["m_samples"] = m
    if checkpoints is not None:
        spec["checkpoints"] = checkpoints
    if params:
        spec["params"] = params
    return spec


def _escape():
    return [
        _spec("drift", "H2", 2000, 200, {"horofunction_xi": H2_XI}),
        _spec("drift", "H2xR", 2000, 100),
        _spec("drift", "T4", 2000, 200),
        _spec("drift", "E2", 2000, 100),
        _spec("hitting", "T4", 1000, 200, {"bins": 2}),
        _spec("hitting", "H2", 500, 200, {"bins": 16}),
    ]


def _trajectory():
    dense = list(range(100, 2001, 50))
    specs = [_spec("gap", "H2", 20000, params={"xi": H2_XI, "thin": 1})]
    specs += [_spec("converge", mdl, 2000, 20, checkpoints=dense) for mdl in ("H2", "E2")]
    specs += [_spec("dirac", mdl, 2000, params={"atom_count": 60}) for mdl in ("H2", "E2")]
    specs += [_spec("track", mdl, 5000, 10) for mdl in ("H2", "H2xR", "T4")]
    return specs


def _audit():
    models = ("E2", "H2", "T4", "H2xR")
    specs = [_spec("cocycle", mdl, params={"count": 2000}, distribution=False)
             for mdl in models]
    specs += [_spec("rankone-audit", mdl) for mdl in models]
    specs += [_spec("stationarity", mdl, 200, 100, {"refinement_samples": 256})
              for mdl in ("H2", "T4")]
    specs.append(_spec("northsouth", "H2", params={"g": H2_G, "samples": 500},
                       distribution=False))
    specs.append(_spec("pi-convergence", "H2", params={"g": H2_G, "k_count": 200},
                       distribution=False))
    specs += [_spec("tits-table", mdl, params={"count": 24}, distribution=False)
              for mdl in models]
    return specs


# name -> (config builder, whether one `cat0lab sweep` runs the whole pass)
WORKLOADS = {
    "escape": (_escape, False),
    "trajectory": (_trajectory, False),
    "audit": (_audit, True),
}


def walk_steps(cfg: dict) -> int:
    """Walk steps a config simulates, counted from the config alone."""
    exp = cfg["experiment"]
    n, m = cfg.get("n", 1000), cfg.get("m_samples", 100)
    if exp in ("drift", "hitting", "stationarity", "converge"):
        return n * m
    if exp in ("dirac", "gap"):
        return n
    if exp == "track":
        return n * min(m, 50) + n  # the lambda-auto drift paths plus the tracked path
    return 0


def make_configs(workload: str, seed: int) -> list[dict]:
    """The workload's configs, with distinct config seeds drawn from `seed`."""
    build, _ = WORKLOADS[workload]
    specs = build()
    rng = random.Random(f"{workload}:{seed}")
    seeds = rng.sample(range(1, 2 ** 31), len(specs))
    configs = []
    for spec, cfg_seed in zip(specs, seeds):
        cfg = {"schema": "cat0lab/config/v1", **spec, "seed": cfg_seed}
        configs.append(cfg)
    return configs
