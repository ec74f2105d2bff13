"""Edge inputs of the estimators and the CLI: paths that outrun the drift,
returns to the basepoint, per-config tolerances in a sweep, and walks whose
every path returns."""

import json

import numpy as np
import pytest

from cat0lab import (
    BinScheme,
    DomainError,
    Model,
    convergence_profile,
    h2_point,
    hitting_measure,
    sample_walk,
    set_tolerance,
    t4_point,
    tolerance,
    tracking_error,
)
from cat0lab.cli import EXIT_OK, main
from cat0lab.models import DEFAULT_TOLERANCE


def test_tracking_digits_cover_paths_that_outrun_the_drift(h2_spec):
    # the path gets far beyond lam * n = 30 nats; digits sized from lam * n
    # alone cancel the multiprecision orbit coordinates to zero
    # (ZeroDivisionError)
    tr = sample_walk(h2_spec, h2_point(0, 1), 600, 3, thin=60)
    ks, errs = tracking_error(tr, 0.05)
    assert list(ks) == list(range(60, 601, 60))
    assert np.all(np.isfinite(errs))


def test_convergence_profile_skips_float_returns_to_the_basepoint(h2_spec):
    # at step 10 the log-space distance of this return is 6.66e-8, above the
    # tolerance, while the float orbit point sits on the basepoint
    tr = sample_walk(h2_spec, h2_point(0, 1), 20, 1001, path_index=4, thin=10)
    prof = convergence_profile(tr, [10, 20])
    assert prof.checkpoints == (20,)


def test_sweep_resets_tolerance_between_configs(tmp_path):
    base = {"schema": "cat0lab/config/v1", "experiment": "cocycle", "model": "E2",
            "params": {"count": 3}}
    (tmp_path / "a.json").write_text(json.dumps({**base, "seed": 1, "tolerance": 0.5}))
    (tmp_path / "b.json").write_text(json.dumps({**base, "seed": 2}))
    try:
        assert main(["sweep", str(tmp_path / "*.json"), "--outdir", str(tmp_path / "out")]) == EXIT_OK
        assert tolerance() == DEFAULT_TOLERANCE == 1e-9
    finally:
        set_tolerance(DEFAULT_TOLERANCE)


def test_hitting_measure_rejects_paths_that_all_return(t4_uniform):
    # the single path of length 2 returns to the basepoint: no direction, no mass
    with pytest.raises(DomainError):
        hitting_measure(t4_uniform, t4_point(""), 2, 1, BinScheme.default(Model.T4), 4,
                        allow_uncertified=True)
