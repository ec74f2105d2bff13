"""Edge inputs of the estimators and the CLI: paths that outrun the drift,
tracking digits sized from the dense walk, returns to the basepoint,
per-config tolerances in a sweep, walks whose every path returns, repeated
checkpoints, configs that fail mid-sweep, seeds, checkpoints and integer
params out of range, long H2 products and their JSON round trip, one
rank-one audit per run, and bin schemes with no arcs."""

import csv
import json
import math

import mpmath
import numpy as np
import pytest

from cat0lab import (
    BinScheme,
    DomainError,
    Model,
    StepDistribution,
    UsageError,
    apply_boundary,
    convergence_profile,
    h2_boundary,
    h2_isometry,
    h2_point,
    h2xr_isometry,
    h2xr_point,
    hitting_measure,
    inverse,
    power,
    sample_walk,
    set_tolerance,
    t4_point,
    tolerance,
    tracking_error,
)
from cat0lab import cli, stats
from cat0lab.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, main
from cat0lab.models import DEFAULT_TOLERANCE, isometry_from_json, isometry_to_json
from cat0lab.walk import draw_increments

from conftest import standard_h2_pair


def test_tracking_digits_cover_paths_that_outrun_the_drift(h2_spec):
    # the path gets far beyond lam * n = 30 nats; digits sized from lam * n
    # alone cancel the multiprecision orbit coordinates to zero
    # (ZeroDivisionError)
    tr = sample_walk(h2_spec, h2_point(0, 1), 600, 3, steps=range(60, 601, 60))
    ks, errs = tracking_error(tr, 0.05)
    assert list(ks) == list(range(60, 601, 60))
    assert np.all(np.isfinite(errs))


def _h2xr_spec():
    g, h = standard_h2_pair()
    return StepDistribution.uniform([h2xr_isometry(a, s) for a, s in zip(
        [g, inverse(g), h, inverse(h)], [0.5, -0.5, 0.3, -0.3])])


@pytest.mark.parametrize("model", [Model.H2, Model.H2xR], ids=lambda m: m.value)
def test_tracking_digits_cover_the_dense_maximum(h2_spec, monkeypatch, model):
    # on this path the farthest point from x lies between stored steps, so
    # the stored distances alone would size the digits too small; lam * n
    # is far below either, so the depth alone sets the digits
    spec, x = ((h2_spec, h2_point(0, 1)) if model is Model.H2
               else (_h2xr_spec(), h2xr_point(0, 1, 0)))
    dps = []
    original = mpmath.workdps

    def recorded(n, *args, **kwargs):
        dps.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(mpmath, "workdps", recorded)
    tr = sample_walk(spec, x, 600, 56, steps=range(60, 601, 60))
    tracking_error(tr, 0.05)
    # the hyperbolic factor of both walks is the H2 walk of h2_spec, which
    # draws the same increments
    dense_max = sample_walk(h2_spec, h2_point(0, 1), 600, 56).base_distances.max()
    stored_max = sample_walk(h2_spec, h2_point(0, 1), 600, 56,
                             steps=range(60, 601, 60)).base_distances.max()
    assert dense_max > stored_max

    def digits(depth):
        return int((depth + 80.0) / math.log(10.0)) + 40

    # 232 digits; the stored maximum gives 230, and the H2xR product
    # distances of the dense walk give 233
    assert dps == [digits(dense_max)] and digits(dense_max) > digits(stored_max)


def test_convergence_profile_skips_float_returns_to_the_basepoint(h2_spec):
    # at step 10 the log-space distance of this return is 6.66e-8, above the
    # tolerance, while the float orbit point sits on the basepoint
    tr = sample_walk(h2_spec, h2_point(0, 1), 20, 1001, path_index=4, steps=[10, 20])
    prof = convergence_profile(tr)
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
        hitting_measure(t4_uniform, t4_point(""), 2, 1, BinScheme.default(Model.T4), 4)


def _uniform_dist(model, payloads):
    return {"model": model, "atoms": [{"isometry": {"model": model, "payload": q},
                                       "p": 1.0 / len(payloads)} for q in payloads]}


H2_DIST = _uniform_dist("H2", [{"matrix": m} for m in
                               ([2, 0, 0, 0.5], [0.5, 0, 0, 2], [1, 1, 1, 2], [2, -1, -1, 1])])
T4_DIST = _uniform_dist("T4", [{"word": w} for w in "aAbB"])


def test_drift_rejects_a_horofunction_end_of_another_model(tmp_path, capsys):
    # the parent exited 1 with a TypeError traceback from the H2 kernel
    cfg = {"experiment": "drift", "model": "H2", "seed": 1, "distribution": H2_DIST,
           "n": 20, "m_samples": 2,
           "params": {"horofunction_xi": {"model": "T4", "word": "ab", "periodic": "a"}}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "c.json"), "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "mixed models" in json.loads(capsys.readouterr().err)["detail"]
    assert not (tmp_path / "out").exists()


def test_dirac_counts_a_repeated_checkpoint_once(tmp_path):
    # the parent reported three checkpoints and two spreads, and writing the
    # series then raised IndexError
    cfg = {"experiment": "dirac", "model": "H2", "distribution": H2_DIST, "n": 200,
           "seed": 3, "checkpoints": [100, 100, 200], "params": {"atom_count": 4}}
    (tmp_path / "dirac.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "dirac.json"), "--outdir", str(out)]) == EXIT_OK
    results = json.loads((out / "dirac-3" / "report.json").read_text())["results"]
    assert results["checkpoints"] == [100, 200]
    assert len(results["spread"]) == len(results["cross_spread"]) == 2
    with open(out / "dirac-3" / "series.csv", newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["checkpoint", "100", "200"]


def test_sweep_reports_an_uncaught_error_and_runs_the_next_config(tmp_path, monkeypatch,
                                                                  capsys):
    def broken(*runner_args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli.EXPERIMENTS, "cocycle", (broken, False, False, {}))
    (tmp_path / "a.json").write_text(json.dumps(
        {"experiment": "cocycle", "model": "E2", "seed": 1}))
    (tmp_path / "b.json").write_text(json.dumps(
        {"experiment": "tits-table", "model": "E2", "seed": 2, "params": {"count": 3}}))
    out = tmp_path / "out"
    assert main(["sweep", str(tmp_path / "*.json"), "--outdir", str(out)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert f"{tmp_path / 'a.json'}: FAILED (ZeroDivisionError: division by zero)" in err
    assert (out / "tits-table-2" / "report.json").is_file()


def test_converge_report_writes_null_for_a_path_without_tail(tmp_path):
    # the single path of length 2 returns to the basepoint, so it has no
    # Cauchy tail; the parent wrote the non-standard JSON token NaN
    cfg = {"experiment": "converge", "model": "T4", "distribution": T4_DIST, "n": 2,
           "m_samples": 1, "seed": 4, "checkpoints": [2]}
    (tmp_path / "converge.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "converge.json"), "--outdir", str(out)]) == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (out / "converge-4" / "report.json").read_text()
    report = json.loads(text, parse_constant=reject)
    assert report["results"]["first_tail_per_path"] == [None]


def test_walk_keys_are_exact_at_and_above_two_to_the_63(t4_uniform):
    # a float64 key merged 2**63 + 1 with 2**63, and 2**64 - 1 (the alias of
    # seed -1) with seed 0
    def inc(seed):
        return draw_increments(t4_uniform, 50, seed)

    assert not np.array_equal(inc(2 ** 63 + 1), inc(2 ** 63))
    assert not np.array_equal(inc(2 ** 64 - 1), inc(0))
    for seed in (-1, 2 ** 64):
        with pytest.raises(UsageError):
            inc(seed)


@pytest.mark.parametrize("fields", [
    {"experiment": "cocycle", "seed": -1},
    {"experiment": "cocycle", "seed": 2 ** 63},
    {"experiment": "dirac", "distribution": H2_DIST, "n": 50, "checkpoints": [400]},
    {"experiment": "dirac", "distribution": H2_DIST, "n": 50, "checkpoints": [0, 50]},
    {"experiment": "cocycle", "n": 2.5},
    {"experiment": "cocycle", "n": True},
    {"experiment": "cocycle", "seed": 1.9},
    {"experiment": "cocycle", "checkpoints": [3.5]},
    {"experiment": "cocycle", "m_samples": "7"},
    {"experiment": "cocycle", "tolerance": True},
], ids=["seed-negative", "seed-2**63", "checkpoint-above-n", "checkpoint-zero",
        "n-fraction", "n-true", "seed-fraction", "checkpoint-fraction", "m_samples-string",
        "tolerance-true"])
def test_config_rejects_out_of_range_seeds_and_checkpoints(tmp_path, capsys, fields):
    # the parent crashed on seed -1, ran seed 2**63, walked to checkpoint 400
    # at n=50, and dropped checkpoint 0; it truncated n 2.5 to 2, n true to 1,
    # seed 1.9 to 1 and checkpoint 3.5 to 3, read m_samples "7" as 7, and
    # tolerance true as 1.0
    _assert_config_error(tmp_path, capsys, fields)


H2_G = {"model": "H2", "payload": {"matrix": [2, 0, 0, 0.5]}}


@pytest.mark.parametrize("fields", [
    {"experiment": "hitting", "distribution": H2_DIST, "n": 20, "params": {"bins": "x"}},
    {"experiment": "cocycle", "params": {"count": 0}},
    {"experiment": "pi-convergence", "params": {"g": H2_G, "k_count": -1}},
    {"experiment": "northsouth", "params": {"g": H2_G, "samples": 0}},
    {"experiment": "cocycle", "params": {"count": float("inf")}},
    {"experiment": "pi-convergence", "params": {"g": H2_G, "powers": "x"}},
    {"experiment": "northsouth", "params": {"g": H2_G, "cap": "x"}},
    {"experiment": "cocycle", "params": {"count": 2.7}},
    {"experiment": "cocycle", "params": {"count": "5"}},
    {"experiment": "hitting", "distribution": H2_DIST, "n": 20, "params": {"bins": True}},
], ids=["bins-not-an-integer", "count-zero", "k_count-negative", "samples-zero",
        "count-infinite", "powers-not-an-integer", "cap-not-an-integer", "count-fraction",
        "count-string", "bins-true"])
def test_config_rejects_malformed_integer_params(tmp_path, capsys, fields):
    # the parent exited 1 with a ValueError traceback on bins "x" and with
    # "max() arg is an empty sequence" on count 0, reported "holds": true
    # over an empty compact set on k_count -1 and "attained": true at k0 = 1
    # over no samples on samples 0, and int() of an Infinity raises
    # OverflowError; powers and cap were read only by their runners, and
    # exited 1 with a ValueError traceback; int() truncated count 2.7 to 2
    # and read "5" as 5 and true as 1
    _assert_config_error(tmp_path, capsys, fields)


def _assert_config_error(tmp_path, capsys, fields):
    cfg = {"model": "H2", "seed": 1, **fields}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "c.json"), "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out").exists()
    # the config fails at load, before any runner starts
    with pytest.raises(cli.ConfigError):
        cli.load_config(tmp_path / "c.json")


@pytest.mark.parametrize("fields", [
    {"experiment": "track", "distribution": H2_DIST, "n": 20, "params": {"lambda": "abc"}},
    {"experiment": "northsouth", "params": {"g": H2_G, "eps_plus": "x"}},
    {"experiment": "northsouth", "params": {"g": {"model": "H2", "payload": {"matrix": [2, 0]}}}},
    {"experiment": "gap", "distribution": H2_DIST, "n": 20, "params": {"xi": {"xi": 1.0}}},
    {"experiment": "dirac", "distribution": H2_DIST, "n": 20,
     "params": {"atoms0": [{"model": "H2"}]}},
    {"experiment": "drift", "distribution": H2_DIST, "n": 20,
     "params": {"horofunction_xi": {"model": "H2", "xi": "abc"}}},
    {"experiment": "cocycle", "tolerance": "abc"},
    {"experiment": "pi-convergence", "params": {"g": H2_G, "u_eps": "nan"}},
    {"experiment": "dirac", "distribution": H2_DIST, "n": 20, "params": {"second_set": "no"}},
    {"experiment": "northsouth", "params": {"g": H2_G, "eps_plus": -1, "cap": 10}},
    {"experiment": "track", "distribution": H2_DIST, "n": 20, "params": {"lambda": -1}},
    {"experiment": "pi-convergence", "params": {"g": H2_G, "exclusion": -1}},
    {"experiment": "northsouth", "params": {"g": H2_G, "sampels": 7}},
    {"experiment": "northsouth", "params": {"g": H2_G, "count": 3}},
    {"experiment": "gap", "distribution": H2_DIST, "n": 20},
    {"experiment": "northsouth"},
    {"experiment": "cocycle", "params": ["ab"]},
], ids=["lambda-not-a-number", "eps_plus-not-a-number", "g-two-entry-matrix",
        "xi-without-model", "atoms0-without-xi", "horofunction_xi-not-a-number",
        "tolerance-not-a-number", "u_eps-nan", "second_set-a-string", "eps_plus-negative",
        "lambda-negative", "exclusion-negative", "unknown-param", "param-of-another-experiment",
        "gap-without-xi", "northsouth-without-g", "params-not-an-object"])
def test_config_rejects_malformed_params(tmp_path, capsys, fields):
    # the runners read these params, and the parent exited 1 with a
    # traceback on each, except on u_eps "nan", which reported "holds":
    # false, and on second_set "no", which it read as true; it ran eps_plus,
    # lambda and exclusion -1, ran samples 200 past "sampels" and ignored
    # count on northsouth, failed a missing xi or g only in the runner, and
    # read params ["ab"] as {"a": "b"}
    _assert_config_error(tmp_path, capsys, fields)


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"gap"'])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    # the parent exited 1 with "AttributeError: 'list' object has no
    # attribute 'get'"
    (tmp_path / "c.json").write_text(text)
    assert main(["run", str(tmp_path / "c.json"), "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out").exists()


def test_config_boundary_params_parse_under_the_config_tolerance(tmp_path):
    # a sweep loads each config while the previous one's tolerance is set;
    # under 0.5 the slope 1.5 would round to the pole pi/2
    cfg = {"experiment": "gap", "model": "H2xR",
           "params": {"xi": {"model": "H2xR", "xi": 0.0, "alpha": 1.5}}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    set_tolerance(0.5)
    try:
        assert cli.load_config(tmp_path / "c.json").params["xi"].data == (0.0, 1.5)
    finally:
        set_tolerance(DEFAULT_TOLERANCE)


def test_h2_power_survives_long_products():
    # a*d - b*c of the unnormalised product cancelled to zero once the
    # entries reached about 1e8, and compose rejected the 21st power
    # (its own a*d - b*c cancels too, so the test reads the action instead)
    g30 = power(h2_isometry(1, 1, 1, 2), 30)
    # z -> (z + 1)/(z + 2) attracts toward the fixed point (sqrt 5 - 1)/2
    assert apply_boundary(g30, h2_boundary(0.0)).data == pytest.approx((5 ** 0.5 - 1) / 2)


def test_h2xr_power_multiplies_its_matrix_as_h2_does():
    # the H2xR product renormalised by a*d - b*c, which drifts from the H2
    # product (translation length 37.80 against 38.50 at the 20th power) and
    # cancels to zero by the 25th
    h = h2_isometry(1, 1, 1, 2)
    assert power(h2xr_isometry(h, 0.3), 30).data[0] == power(h, 30).data


def test_long_h2_product_round_trips_through_json():
    # a*d - b*c of the stored entries (about 1e12) cancels to 0.0 in floats;
    # the exact determinant is 1, so the matrix reads back unchanged
    g30 = power(h2_isometry(1, 1, 1, 2), 30)
    assert isometry_from_json(json.loads(json.dumps(isometry_to_json(g30)))) == g30
    with pytest.raises(UsageError, match="positive determinant"):
        h2_isometry(1e12, 1e12, 1e12, 1e12)
    with pytest.raises(UsageError, match="positive determinant"):
        h2_isometry(float("nan"), 1.0, 0.0, 1.0)


def test_pi_convergence_runs_a_non_diagonal_h2_generator(tmp_path):
    cfg = {"experiment": "pi-convergence", "model": "H2", "seed": 1,
           "params": {"g": {"model": "H2", "payload": {"matrix": [1, 1, 1, 2]}}}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "c.json"), "--outdir", str(out)]) == EXIT_OK
    report = json.loads((out / "pi-convergence-1" / "report.json").read_text())
    assert report["results"]["xi"]["xi"] == pytest.approx((5 ** 0.5 - 1) / 2, abs=1e-6)


def test_one_rankone_audit_per_run(tmp_path, monkeypatch):
    # the rankone-audit experiment reports the audit of the hypotheses block,
    # and dirac takes its warnings from that block instead of auditing again
    calls = []
    original = stats.rankone_audit

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(stats, "rankone_audit", counted)
    # a name the CLI holds for it would count too
    monkeypatch.setattr(cli, "rankone_audit", counted, raising=False)
    reports = {}
    # the flat control leaves the rank-one hypothesis unproved
    e2_dist = _uniform_dist("E2", [{"angle": 0.0, "v": v} for v in ([1, 0], [-1, 0], [0, 1])])
    for experiment, dist in [("rankone-audit", H2_DIST), ("dirac", H2_DIST), ("dirac", e2_dist)]:
        cfg = {"experiment": experiment, "model": dist["model"], "distribution": dist,
               "n": 40, "seed": 1}
        if experiment == "dirac":
            cfg["params"] = {"atom_count": 3}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        out = tmp_path / dist["model"]
        calls.clear()
        assert main(["run", str(tmp_path / "c.json"), "--outdir", str(out),
                     "--allow-uncertified"]) == EXIT_OK
        assert len(calls) == 1
        report = json.loads((out / f"{experiment}-1" / "report.json").read_text())
        reports[experiment, dist["model"]] = report
    report = reports["rankone-audit", "H2"]
    assert report["results"] == report["hypotheses"]["rankone_audit"]
    # the warnings are the problems of hypotheses_audit on the same support
    for model, dist in [("H2", H2_DIST), ("E2", e2_dist)]:
        results = reports["dirac", model]["results"]
        _, _, problems = stats.hypotheses_audit(StepDistribution.from_json(dist))
        assert results["warnings"] == problems
        assert results["hypotheses_certified"] == (not problems)
    assert reports["dirac", "E2"]["results"]["warnings"]


@pytest.mark.parametrize("make", [lambda: BinScheme.angular(0), lambda: BinScheme.circle(0),
                                  lambda: BinScheme.product(0, 4),
                                  lambda: BinScheme.product(8, 0),
                                  lambda: BinScheme.cylinders(-1)],
                         ids=["angular", "circle", "product-xi", "product-alpha", "cylinders"])
def test_bin_schemes_without_arcs_fail_at_construction(make):
    # index_of divides by the arc count, so a scheme needs at least one arc
    with pytest.raises(UsageError):
        make()
