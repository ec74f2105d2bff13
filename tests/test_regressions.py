"""Edge inputs of the estimators and the CLI: paths that outrun the drift,
tracking digits that cover the dense walk, returns to the basepoint,
walks whose every path returns, repeated
checkpoints, configs that fail mid-sweep, seeds, checkpoints and integer
params out of range, long H2 products and their JSON round trip, H2
multiples of the identity whose determinant leaves the float range, the
Busemann limit oracle at large t, one rank-one audit per run, bin schemes
with no arcs or past the bin cap, constructors given NaN or infinite
coordinates, package modules with no scipy import, and a CLI import that
loads no mpmath, fractions or decimal and executes no kernel."""

import ast
import csv
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
    e2_boundary,
    e2_isometry,
    e2_point,
    h2_boundary,
    h2_isometry,
    h2_point,
    h2xr_boundary,
    h2xr_isometry,
    h2xr_point,
    hitting_measure,
    inverse,
    power,
    sample_walk,
    t4_point,
    tracking_error,
)
from cat0lab import _h2, cli, stats
from cat0lab.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, main
from cat0lab.errors import MAX_BINS
from cat0lab.models import identity, isometry_from_json, isometry_key
from cat0lab.walk import draw_increments

from conftest import standard_h2_pair
from references import reference_ray_gaps


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
    _, errs = tracking_error(tr, 0.05)
    monkeypatch.setattr(mpmath, "workdps", original)
    # the hyperbolic factor of both walks is the H2 walk of h2_spec, which
    # draws the same increments
    dense_max = sample_walk(h2_spec, h2_point(0, 1), 600, 56).base_distances.max()
    stored_max = sample_walk(h2_spec, h2_point(0, 1), 600, 56,
                             steps=range(60, 601, 60)).base_distances.max()
    assert dense_max > stored_max

    def digits(depth):
        return int((depth + 80.0) / math.log(10.0)) + 40

    # 232 digits; the stored maximum gives 230
    assert max(dps) >= digits(dense_max) > digits(stored_max)
    monkeypatch.setattr(_h2, "mp_ray_gaps", functools.partial(reference_ray_gaps, dps=3000))
    _, reference = tracking_error(tr, 0.05)
    assert list(errs) == list(reference)


def test_convergence_profile_skips_float_returns_to_the_basepoint(h2_spec):
    # at step 10 the log-space distance of this return is 6.66e-8, above the
    # tolerance, while the float orbit point sits on the basepoint
    tr = sample_walk(h2_spec, h2_point(0, 1), 20, 1001, path_index=4, steps=[10, 20])
    prof = convergence_profile(tr)
    assert prof.checkpoints == (20,)


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
    {"experiment": "dirac", "distribution": H2_DIST, "n": 50, "checkpoints": [3.5]},
    {"experiment": "cocycle", "m_samples": "7"},
    {"experiment": "cocycle", "tolerance": 1e-6},
    {"experiment": "cocycle", "m_sampels": 7},
    {"experiment": "drift", "n": 20},
    {"experiment": "cocycle", "checkpoints": [3]},
    {"experiment": "drift", "distribution": H2_DIST, "checkpoints": [5]},
], ids=["seed-negative", "seed-2**63", "checkpoint-above-n", "checkpoint-zero",
        "n-fraction", "n-true", "seed-fraction", "checkpoint-fraction", "m_samples-string",
        "tolerance-not-a-key", "unknown-top-level-key", "drift-without-distribution",
        "checkpoints-on-cocycle", "checkpoints-on-drift"])
def test_config_rejects_out_of_range_seeds_and_checkpoints(tmp_path, capsys, fields):
    # the parent crashed on seed -1, ran seed 2**63, walked to checkpoint 400
    # at n=50, and dropped checkpoint 0; it truncated n 2.5 to 2, n true to 1,
    # seed 1.9 to 1 and checkpoint 3.5 to 3, read m_samples "7" as 7, and
    # ran a "tolerance" of 1e-6, which is not a config key; it loaded
    # "m_sampels" 7 and ran m_samples 100, and loaded a drift config without
    # a distribution, failing it only in run;
    # it accepted, echoed and ignored checkpoints given to cocycle and drift,
    # whose runners never read them
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
    {"experiment": "hitting", "model": "T4", "distribution": T4_DIST, "n": 20,
     "params": {"bins": 30}},
    {"experiment": "stationarity", "model": "E2", "n": 20, "params": {"bins": 10 ** 9},
     "distribution": _uniform_dist("E2", [{"angle": 0.0, "v": v} for v in
                                          ([1, 0], [-1, 0], [0, 1], [0, -1])])},
    {"experiment": "hitting", "model": "T4", "distribution": T4_DIST, "n": 20,
     "params": {"bins": 10 ** 9}},
], ids=["bins-not-an-integer", "count-zero", "k_count-negative", "samples-zero",
        "count-infinite", "powers-not-an-integer", "cap-not-an-integer", "count-fraction",
        "count-string", "bins-true", "t4-bins-30", "e2-bins-10**9", "t4-bins-10**9"])
def test_config_rejects_malformed_integer_params(tmp_path, capsys, fields):
    # the parent exited 1 with a ValueError traceback on bins "x" and with
    # "max() arg is an empty sequence" on count 0, reported "holds": true
    # over an empty compact set on k_count -1 and "attained": true at k0 = 1
    # over no samples on samples 0, and int() of an Infinity raises
    # OverflowError; powers and cap were read only by their runners, and
    # exited 1 with a ValueError traceback; int() truncated count 2.7 to 2
    # and read "5" as 5 and true as 1; it loaded T4 bins 30 (4 * 3**29 bins),
    # E2 bins 10**9 (8 GB of counts) and T4 bins 10**9 (whose count is
    # 3**(10**9)), and built the scheme only in the runner
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
    {"experiment": "drift", "model": "E2", "n": 20,
     "distribution": _uniform_dist("E2", [{"angle": 0.0, "v": [math.nan, 0]}])},
    {"experiment": "cocycle", "basepoint": {"model": "H2", "coords": [math.nan, 1]}},
    {"experiment": "gap", "distribution": H2_DIST, "n": 20,
     "params": {"xi": {"model": "H2", "xi": math.nan}}},
    {"experiment": "northsouth", "model": "E2", "params": {"g": H2_G}},
    {"experiment": "gap", "distribution": H2_DIST, "n": 20,
     "params": {"xi": {"model": "E2", "theta": 0.5}}},
    {"experiment": "cocycle", "basepoint": {"model": "E2", "coords": [0, 0]}},
    {"experiment": "converge", "distribution": H2_DIST, "n": 20, "checkpoints": []},
    {"experiment": "drift", "distribution": H2_DIST, "n": 20,
     "basepoint": {"model": "H2", "coords": [0, 1, 7]}},
    {"experiment": "cocycle", "model": "H2xR",
     "basepoint": {"model": "H2xR", "coords": [0, 1, 0, 7]}},
    {"experiment": "rankone-audit", "model": "E2",
     "distribution": _uniform_dist("E2", [{"angle": 0.0, "v": [1, 0, 9]}])},
    {"experiment": "drift", "distribution": _uniform_dist("H2", [
        {"matrix": [2, 0, 0, 0.5], "junk": 1}, {"matrix": [0.5, 0, 0, 2]},
        {"matrix": [1, 1, 1, 2]}, {"matrix": [2, -1, -1, 1]}]), "n": 20},
    {"experiment": "gap", "distribution": H2_DIST, "n": 20,
     "params": {"xi": {"model": "H2", "xi": 5.0, "junk": 1}}},
    {"experiment": "rankone-audit", "distribution": {**H2_DIST, "atoms": [
        *H2_DIST["atoms"][:3], {**H2_DIST["atoms"][3], "p": "0.25"}]}},
    {"experiment": "rankone-audit", "distribution": {"model": "H2", "atoms": [
        {"isometry": H2_G, "p": True}]}},
    {"experiment": "pi-convergence",
     "params": {"g": {"model": "H2", "payload": {"matrix": "1112"}}}},
    {"experiment": "cocycle", "basepoint": {"model": "H2", "coords": "01"}},
    {"experiment": "cocycle", "basepoint": {"model": "H2", "coords": [True, 1]}},
    {"experiment": "gap", "distribution": H2_DIST, "n": 20,
     "params": {"xi": {"model": "H2", "xi": "5"}}},
    {"experiment": "rankone-audit", "model": "T4",
     "distribution": _uniform_dist("T4", [{"word": ["a", "b"]}, {"word": "BA"}])},
    {"experiment": "gap", "model": "T4", "distribution": T4_DIST, "n": 20,
     "params": {"xi": {"model": "T4", "word": ["a", "b"], "periodic": "b"}}},
    {"experiment": "gap", "model": "T4", "distribution": T4_DIST, "n": 20,
     "params": {"xi": {"model": "T4", "word": 5, "periodic": "a"}}},
    {"experiment": "drift", "distribution": H2_DIST, "n": 20,
     "basepoint": {"model": "H2", "coords": [0, 1], "junk": 1}},
], ids=["lambda-not-a-number", "eps_plus-not-a-number", "g-two-entry-matrix",
        "xi-without-model", "atoms0-without-xi", "horofunction_xi-not-a-number",
        "u_eps-nan", "second_set-a-string", "eps_plus-negative",
        "lambda-negative", "exclusion-negative", "unknown-param", "param-of-another-experiment",
        "gap-without-xi", "northsouth-without-g", "params-not-an-object", "atom-v-nan",
        "basepoint-nan", "xi-nan", "g-of-another-model", "xi-of-another-model",
        "basepoint-of-another-model", "checkpoints-empty", "basepoint-three-coords",
        "basepoint-four-coords", "atom-v-three-entries", "payload-unknown-key",
        "xi-unknown-key", "p-a-string", "p-true", "matrix-a-string", "coords-a-string",
        "coords-true", "xi-a-string", "t4-word-a-list", "t4-xi-word-a-list",
        "t4-xi-word-an-int", "basepoint-unknown-key"])
def test_config_rejects_malformed_params(tmp_path, capsys, fields):
    # the runners read these params, and the parent exited 1 with a
    # traceback on each, except on u_eps "nan", which reported "holds":
    # false, and on second_set "no", which it read as true; it ran eps_plus,
    # lambda and exclusion -1, ran samples 200 past "sampels" and ignored
    # count on northsouth, failed a missing xi or g only in the runner, and
    # read params ["ab"] as {"a": "b"}; it ran whole experiments on NaN
    # tokens and then failed to write the report, ran an H2 g on an E2
    # config, failed an E2 xi only in the runner, and ran the default
    # checkpoints for an empty list; it dropped the coordinates past the
    # model's count and ran the config; it ignored a payload's, boundary
    # object's or point's unknown key, read the strings "0.25", "1112", "01" and "5" as
    # numbers and true as 1, joined a T4 word list into a string, and exited 1
    # with an AttributeError traceback on a T4 boundary word list or int
    _assert_config_error(tmp_path, capsys, fields)


def test_pi_convergence_rejects_a_compact_set_it_cannot_fill(tmp_path, capsys):
    # no boundary point lies 2.5 from g- in a chart of diameter 2: the parent
    # ran the check on an empty compact set and reported "holds": true, n0 0
    cfg = {"experiment": "pi-convergence", "model": "H2", "seed": 3,
           "params": {"g": H2_G, "k_count": 50, "exclusion": 2.5}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "c.json"), "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "domain"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--xi", "notjson"],
    ["--xi", '{"model": "H2"}'],
    ["--xi", "[1]"],
    ["--t", "nan"],
    ["--t", "inf"],
    ["--x", '{"model": "H2", "coords": [NaN, 1]}'],
    ["--x", '{"model": "H2", "coords": [0, 1], "junk": 1}'],
    ["--xi", '{"model": "H2xR", "xi": 5.0, "alpha": 1.5707963267948966}',
     "--x", '{"model": "H2xR", "coords": [0, 1, 0]}',
     "--z", '{"model": "H2xR", "coords": [1, 2, 0.5]}'],
], ids=["xi-not-json", "xi-without-coordinate", "xi-a-list", "t-nan", "t-infinite", "x-nan",
        "x-unknown-key", "h2xr-xi-at-a-pole"])
def test_oracle_input_exits_2(capsys, flags):
    # the parent exited 1 with a JSONDecodeError, KeyError, TypeError,
    # TypeError, ZeroDivisionError and TypeError traceback; it ignored the
    # point's unknown key and dropped the horizontal part of the end at a
    # pole, and exited 0
    args = {"--xi": '{"model": "H2", "xi": 0.5}', "--x": '{"model": "H2", "coords": [0, 1]}',
            "--z": '{"model": "H2", "coords": [1, 2]}', "--t": "10000",
            **dict(zip(flags[::2], flags[1::2]))}
    assert main(["oracle", "busemann-limit", *(a for kv in args.items() for a in kv)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "config"


BUSEMANN_EXAMPLES = {
    "E2": ('{"model": "E2", "theta": 0.5}', '{"model": "E2", "coords": [0, 0]}',
           '{"model": "E2", "coords": [1, 2]}'),
    "H2": ('{"model": "H2", "xi": 0.5}', '{"model": "H2", "coords": [0, 1]}',
           '{"model": "H2", "coords": [1, 2]}'),
    "H2xR": ('{"model": "H2xR", "xi": 0.5, "alpha": 0.3}',
             '{"model": "H2xR", "coords": [0, 1, 0]}',
             '{"model": "H2xR", "coords": [1, 2, 0.5]}'),
    "T4": ('{"model": "T4", "word": "ab", "periodic": "a"}', '{"model": "T4", "word": ""}',
           '{"model": "T4", "word": "B"}'),
}


@pytest.mark.parametrize("model, t", [
    *((m, t) for m in ("E2", "H2", "H2xR") for t in ("1e12", "1e20", "1e300")),
    ("T4", "1e300"),
])
def test_busemann_limit_oracle_keeps_its_digits_at_large_t(capsys, model, t):
    # d(ray(t), z) - t cancels all float64 digits of the difference past
    # t = 1e16 (E2 read 0.0 at 1e20), 60 mpmath digits lose them past
    # t = 1e60 (H2 read 0.0 at 1e300), and a T4 ray vertex at depth 1e300
    # cannot be written out (OverflowError)
    xi, x, z = BUSEMANN_EXAMPLES[model]
    argv = ["oracle", "busemann-limit", "--xi", xi, "--x", x, "--z", z, "--t", t]
    assert main(argv) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["abs_difference"] <= 1e-9


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"gap"'])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    # the parent exited 1 with "AttributeError: 'list' object has no
    # attribute 'get'"
    (tmp_path / "c.json").write_text(text)
    assert main(["run", str(tmp_path / "c.json"), "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out").exists()


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
    payload = {"model": "H2", "payload": {"matrix": list(g30.data)}}
    assert isometry_from_json(json.loads(json.dumps(payload))) == g30
    with pytest.raises(UsageError, match="positive determinant"):
        h2_isometry(1e12, 1e12, 1e12, 1e12)
    with pytest.raises(UsageError, match="positive determinant"):
        h2_isometry(float("nan"), 1.0, 0.0, 1.0)


@pytest.mark.parametrize("lam", [1e160, 1e-160, 1e300, 1e-300])
def test_h2_isometry_reads_a_scaled_identity_as_the_identity(lam):
    # a*d - b*c of lam I overflows to inf (1e160, 1e300), is subnormal
    # (1e-160) or underflows to 0.0 (1e-300): the parent raised on three and
    # read 1e-160 I as (1.0000055664551362, 0, 0, 1.0000055664551362)
    g = h2_isometry(lam, 0, 0, lam)
    # the power-of-two scale is exact: the same bits as the mantissa's matrix,
    # and, as there (m * (1/m) = 1 - 2^-53 for 1e-300's mantissa m), the
    # identity to within one unit in the last place
    m = math.frexp(lam)[0]
    assert g == h2_isometry(m, 0, 0, m)
    assert g.data == pytest.approx(_h2.IDENTITY, abs=2.0 ** -52)
    assert isometry_key(g) == isometry_key(identity(Model.H2))
    assert h2xr_isometry((lam, 0, 0, lam), 0.5) == h2xr_isometry(g, 0.5)


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


@pytest.mark.parametrize("make", [lambda: BinScheme.of(Model.E2, 0),
                                  lambda: BinScheme.of(Model.H2, 0),
                                  lambda: BinScheme.of(Model.H2xR, 0, 4),
                                  lambda: BinScheme.of(Model.H2xR, 8, 0),
                                  lambda: BinScheme.of(Model.T4, -1)],
                         ids=["angular", "circle", "product-xi", "product-alpha", "cylinders"])
def test_bin_schemes_without_arcs_fail_at_construction(make):
    # index_of divides by the arc count, so a scheme needs at least one arc
    with pytest.raises(UsageError):
        make()


@pytest.mark.parametrize("model, sizes, count", [
    (Model.E2, (MAX_BINS,), MAX_BINS), (Model.H2, (MAX_BINS,), MAX_BINS),
    (Model.T4, (12,), 4 * 3 ** 11), (Model.H2xR, (99_999, 10), 999_992)],
    ids=["angular", "circle", "cylinders", "product"])
def test_bin_schemes_past_the_cap_fail_at_construction(model, sizes, count):
    # a scheme of MAX_BINS bins or fewer is built; one bin more, or one
    # cylinder length more (4 * 3**12 bins), is refused
    assert BinScheme.of(model, *sizes).count == count <= MAX_BINS
    bigger = (*sizes[:-1], sizes[-1] + 1)
    with pytest.raises(UsageError):
        BinScheme.of(model, *bigger)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("make, args", [
    (h2_point, (NAN, 1)), (h2_point, (INF, 1)), (h2_point, (0, INF)),
    (e2_point, (NAN, 0)), (e2_point, (INF, 0)), (h2xr_point, (0, 1, NAN)),
    (h2_boundary, (NAN,)), (e2_boundary, (NAN,)), (e2_boundary, (INF,)),
    (h2xr_boundary, (NAN, 0.3)), (h2_isometry, (INF, 0, 0, 1)),
    (_h2.isometry, ((1, -INF, 1, 1),)),
    (e2_isometry, (NAN, (0, 0))), (e2_isometry, (0, (NAN, 0))),
    (h2xr_isometry, ([1, 0, 0, 1], NAN)), (h2xr_isometry, (h2_isometry(1, 0, 0, 1), NAN)),
], ids=lambda v: v.__name__ if callable(v) else "")
def test_constructors_reject_non_finite_coordinates(make, args):
    # the codecs and samplers build their values through the same kernel
    # constructors, so NaN reaches no estimator
    with pytest.raises(UsageError):
        make(*args)


@pytest.mark.parametrize("entries, message", [
    ((INF, 0, 0, 1), "coordinates must be finite, not inf"),
    ((1, -INF, 1, 1), "coordinates must be finite, not -inf"),
    ((-INF, 0, 0, 1), "positive determinant"), ((INF, 1, INF, 1), "positive determinant"),
    ((0, NAN, 0, 1), "positive determinant"),
    ((1, "0", 0, 1), "expected a number, not '0'"), ((1, 0, True, 1), "expected a number"),
])
def test_h2_isometry_names_what_is_wrong_with_its_entries(entries, message):
    # an infinite entry with a determinant of inf passes the determinant
    # test and is named itself; -inf and NaN determinants fail that test
    with pytest.raises(UsageError, match=message):
        h2_isometry(*entries)


def test_no_package_module_imports_scipy():
    # scipy is a test dependency only, so no module of the package may import
    # it, not even lazily inside a function
    for path in sorted(Path(cli.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "scipy" for m in modules), (path, node.lineno)


def test_cli_import_loads_no_mpmath_fractions_or_decimal(tmp_path):
    # every run pays its imports in setup_s; mpmath loads only inside the
    # multiprecision functions, and fractions would pull in decimal.  Each
    # kernel module executes on first use, when its type turns from the lazy
    # module's to plain ModuleType: the import executes none, a T4 run `_t4`
    config = tmp_path / "drift.json"
    config.write_text(json.dumps({"experiment": "drift", "model": "T4", "seed": 1, "n": 20,
                                  "m_samples": 2, "distribution": T4_DIST}))
    code = ("import sys, types, cat0lab.cli as cli\n"
            "def executed():\n"
            "    return [m for m in ('_e2', '_h2', '_t4', '_h2xr')\n"
            "            if type(sys.modules[f'cat0lab.{m}']) is types.ModuleType]\n"
            "print(sorted({'mpmath', 'fractions', 'decimal'} & set(sys.modules)), executed())\n"
            f"cli.main(['run', {str(config)!r}, '--outdir', {str(tmp_path / 'out')!r}])\n"
            "print(executed())\n")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[] []", "['_t4']")
    assert (tmp_path / "out" / "drift-1" / "report.json").is_file()
