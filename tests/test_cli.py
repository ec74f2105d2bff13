import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from cat0lab import Model, cocycle_residuals, convergence_profile, sample_walk
from cat0lab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    EXPERIMENTS,
    REQUIRED,
    load_config,
    main,
    run,
)
from cat0lab.errors import MAX_BINS

T4_UNIFORM_DIST = {
    "model": "T4",
    "atoms": [
        {"isometry": {"model": "T4", "payload": {"word": w}}, "p": 0.25}
        for w in "aAbB"
    ],
}

H2_CERTIFIED_DIST = {
    "model": "H2",
    "atoms": [
        {"isometry": {"model": "H2", "payload": {"matrix": [2, 0, 0, 0.5]}}, "p": 0.25},
        {"isometry": {"model": "H2", "payload": {"matrix": [0.5, 0, 0, 2]}}, "p": 0.25},
        {"isometry": {"model": "H2", "payload": {"matrix": [1, 1, 1, 2]}}, "p": 0.25},
        {"isometry": {"model": "H2", "payload": {"matrix": [2, -1, -1, 1]}}, "p": 0.25},
    ],
}

E2_CENTERED_DIST = {
    "model": "E2",
    "atoms": [
        {"isometry": {"model": "E2", "payload": {"angle": 0, "v": v}}, "p": 0.25}
        for v in ([1, 0], [-1, 0], [0, 1], [0, -1])
    ],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_report(outdir, experiment, seed):
    return json.loads((Path(outdir) / f"{experiment}-{seed}" / "report.json").read_text())


def test_run_drift_t4(tmp_path):
    cfg = write_config(tmp_path, "drift.json", {
        "experiment": "drift", "model": "T4", "distribution": T4_UNIFORM_DIST,
        "n": 300, "m_samples": 60, "seed": 7,
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--outdir", str(out)]) == EXIT_OK
    report = read_report(out, "drift", 7)
    assert abs(report["results"]["lambda_hat"] - 0.5) < 0.05
    assert report["hypotheses"]["admissibility"]["certified"] is True
    assert report["hypotheses"]["rankone_audit"]["verdict"] == "certified-non-elementary"
    assert (out / "drift-7" / "series.csv").exists()


def test_report_reproducible_and_thread_independent(tmp_path):
    cfg = write_config(tmp_path, "drift.json", {
        "experiment": "drift", "model": "T4", "distribution": T4_UNIFORM_DIST,
        "n": 200, "m_samples": 40, "seed": 3,
    })
    outs = []
    for i, threads in enumerate(("1", "1", "4")):
        out = tmp_path / f"out{i}"
        assert main(["run", str(cfg), "--outdir", str(out), "--threads", threads]) == EXIT_OK
        rep = read_report(out, "drift", 3)
        rep.pop("timing")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1] == outs[2]
    csv0 = (tmp_path / "out0" / "drift-3" / "series.csv").read_bytes()
    csv2 = (tmp_path / "out2" / "drift-3" / "series.csv").read_bytes()
    assert csv0 == csv2


def test_malformed_config_exits_without_artifacts(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["run", str(bad), "--outdir", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_unknown_experiment_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"experiment": "nope", "model": "T4"})
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "o")]) == EXIT_CONFIG


def test_uncertified_refusal_and_override(tmp_path):
    cfg = write_config(tmp_path, "e2.json", {
        "experiment": "drift", "model": "E2", "distribution": E2_CENTERED_DIST,
        "n": 300, "m_samples": 30, "seed": 5,
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--outdir", str(out)]) == EXIT_UNCERTIFIED
    assert not (out / "drift-5").exists()
    assert main(["run", str(cfg), "--outdir", str(out), "--allow-uncertified"]) == EXIT_OK
    report = read_report(out, "drift", 5)
    assert report["results"]["lambda_hat"] < 0.1
    assert report["hypotheses"]["rankone_audit"]["verdict"] == "hypotheses-violated"


def test_rankone_audit_experiment(tmp_path):
    cfg = write_config(tmp_path, "audit.json", {
        "experiment": "rankone-audit", "model": "H2",
        "distribution": H2_CERTIFIED_DIST, "seed": 1,
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--outdir", str(out)]) == EXIT_OK
    report = read_report(out, "rankone-audit", 1)
    assert report["results"]["verdict"] == "certified-non-elementary"


def test_drift_runs_on_a_support_whose_fixed_points_nearly_meet(tmp_path):
    # g fixes 0 and infinity, h = M diag(2, 1/2) M^-1 with M = [[5, p], [1, 1]]
    # fixes p = 1e-3 and 5: no fixed point is shared, so the support is certified
    p = 1e-3
    mats = ([2, 0, 0, 0.5], [0.5, 0, 0, 2], [10 - 0.5 * p, -7.5 * p, 1.5, 2.5 - 2 * p],
            [2.5 - 2 * p, 7.5 * p, -1.5, 10 - 0.5 * p])
    dist = {"model": "H2", "atoms": [
        {"isometry": {"model": "H2", "payload": {"matrix": m}}, "p": 0.25} for m in mats]}
    cfg = write_config(tmp_path, "drift.json", {
        "experiment": "drift", "model": "H2", "distribution": dist,
        "n": 100, "m_samples": 10, "seed": 3,
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--outdir", str(out)]) == EXIT_OK
    report = read_report(out, "drift", 3)
    assert report["hypotheses"]["rankone_audit"]["verdict"] == "certified-non-elementary"


def test_converge_and_dirac_and_gap_run(tmp_path):
    out = tmp_path / "out"
    base = {"model": "H2", "distribution": H2_CERTIFIED_DIST, "seed": 2}
    cfg1 = write_config(tmp_path, "conv.json", {**base, "experiment": "converge",
                                                "n": 200, "m_samples": 5,
                                                "checkpoints": [100, 150, 200]})
    assert main(["run", str(cfg1), "--outdir", str(out)]) == EXIT_OK
    paths = {path for path, _, _ in _pinned_series(out / "converge-2")}
    assert len(paths) == 5

    cfg2 = write_config(tmp_path, "dirac.json", {**base, "experiment": "dirac",
                                                 "n": 100, "checkpoints": [50, 100]})
    assert main(["run", str(cfg2), "--outdir", str(out)]) == EXIT_OK
    rep2 = read_report(out, "dirac", 2)
    assert rep2["results"]["spread"][-1] <= 1e-3

    cfg3 = write_config(tmp_path, "gap.json", {**base, "experiment": "gap",
                                               "n": 300,
                                               "params": {"xi": {"model": "H2", "xi": 5.0},
                                                          "thin": 10}})
    assert main(["run", str(cfg3), "--outdir", str(out)]) == EXIT_OK
    rep3 = read_report(out, "gap", 2)
    assert rep3["results"]["sup_gap"] > 0


def test_streamed_report_has_the_bytes_of_one_dumped_string(tmp_path):
    cfg = write_config(tmp_path, "gap.json", {
        "experiment": "gap", "model": "T4", "distribution": T4_UNIFORM_DIST, "n": 400,
        "seed": 4, "params": {"xi": {"model": "T4", "word": "ab", "periodic": "a"}}})
    target = run(load_config(cfg), tmp_path / "out")
    text = (target / "report.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True, allow_nan=False)
    assert len(json.loads(text)["results"]["gap_series"]) == 401


def _pinned_series(target):
    """The rows of a report's series.csv, after checking the report's pin."""
    data = (target / "series.csv").read_bytes()
    rows = list(csv.reader(data.decode().splitlines()))
    pin = json.loads((target / "report.json").read_text())["series"]
    assert pin == {"file": "series.csv", "rows": len(rows) - 1,
                   "sha256": hashlib.sha256(data).hexdigest()}
    return rows[1:]


def test_moved_fields_are_the_series_columns(tmp_path):
    # gap's steps, converge's paths and cocycle's residuals live only in
    # series.csv; each equals, with ==, the field report.json held under
    # schema v1, computed here as its runner computed it then
    base = {"model": "H2", "distribution": H2_CERTIFIED_DIST, "seed": 3}
    xi = {"model": "H2", "xi": 5.0}
    cfg = load_config(write_config(tmp_path, "gap.json", {
        **base, "experiment": "gap", "n": 300, "params": {"xi": xi, "thin": 7}}))
    target = run(cfg, tmp_path / "out")
    rows = _pinned_series(target)
    tr = sample_walk(cfg.distribution, cfg.basepoint, 300, 3,
                     steps=[*range(7, 301, 7), 300], xi=cfg.params["xi"])
    assert [int(step) for step, _ in rows] == [int(k) for k in tr.steps]
    results = read_report(tmp_path / "out", "gap", 3)["results"]
    assert "steps" not in results
    assert [float(gap) for _, gap in rows] == results["gap_series"]

    checkpoints = [60, 120, 180, 200]
    cfg = load_config(write_config(tmp_path, "conv.json", {
        **base, "experiment": "converge", "n": 200, "m_samples": 4,
        "checkpoints": checkpoints}))
    rows = _pinned_series(run(cfg, tmp_path / "out"))
    paths = []
    for i in range(4):
        prof = convergence_profile(sample_walk(cfg.distribution, cfg.basepoint, 200, 3,
                                               path_index=i, steps=checkpoints))
        paths.append({"path": i, "checkpoints": list(prof.checkpoints),
                      "cauchy_tail": list(prof.cauchy_tail)})
    read_back = [{"path": i, "checkpoints": [int(k) for p, k, _ in rows if int(p) == i],
                  "cauchy_tail": [float(t) for p, _, t in rows if int(p) == i]}
                 for i in range(4)]
    assert read_back == paths
    assert "paths" not in read_report(tmp_path / "out", "converge", 3)["results"]

    cfg = load_config(write_config(tmp_path, "coc.json", {
        "experiment": "cocycle", "model": "H2", "seed": 3, "params": {"count": 40}}))
    rows = _pinned_series(run(cfg, tmp_path / "out"))
    assert [float(r) for _, r in rows] == cocycle_residuals(Model.H2, 40, 3)
    assert [int(case) for case, _ in rows] == list(range(40))
    results = read_report(tmp_path / "out", "cocycle", 3)["results"]
    assert results == {"max_residual": max(float(r) for _, r in rows)}


def test_non_finite_result_leaves_no_report(tmp_path, monkeypatch):
    def nan_runner(cfg, hypotheses, problems):
        return {"value": math.nan}, [], []

    monkeypatch.setitem(EXPERIMENTS, "cocycle", (nan_runner, False, False, {}))
    cfg = write_config(tmp_path, "c.json", {"experiment": "cocycle", "model": "H2", "seed": 1})
    with pytest.raises(ValueError):
        run(load_config(cfg), tmp_path / "out")
    assert not (tmp_path / "out" / "cocycle-1" / "report.json").exists()


def test_hitting_and_stationarity_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "hit.json", {
        "experiment": "hitting", "model": "T4", "distribution": T4_UNIFORM_DIST,
        "n": 80, "m_samples": 120, "seed": 9, "params": {"bins": 1},
    })
    assert main(["run", str(cfg), "--outdir", str(out)]) == EXIT_OK
    rep = read_report(out, "hitting", 9)
    assert sum(rep["results"]["histogram"]["masses"]) == pytest.approx(1.0)

    cfg2 = write_config(tmp_path, "stat.json", {
        "experiment": "stationarity", "model": "T4", "distribution": T4_UNIFORM_DIST,
        "n": 80, "m_samples": 150, "seed": 9,
        "params": {"bins": 1, "refinement_samples": 24},
    })
    assert main(["run", str(cfg2), "--outdir", str(out)]) == EXIT_OK
    rep2 = read_report(out, "stationarity", 9)
    assert rep2["results"]["defect"] < 0.2


def test_track_reports_its_checkpoints_and_n(tmp_path):
    # the walk stores the checkpoints and n, not every multiple of their gcd
    out = tmp_path / "out"
    for seed, checkpoints, steps in ((5, [7, 300], [7, 300]), (6, [7, 150], [7, 150, 300])):
        cfg = write_config(tmp_path, f"track-{seed}.json", {
            "experiment": "track", "model": "H2", "distribution": H2_CERTIFIED_DIST,
            "n": 300, "m_samples": 10, "seed": seed, "checkpoints": checkpoints,
        })
        assert main(["run", str(cfg), "--outdir", str(out)]) == EXIT_OK
        rep = read_report(out, "track", seed)
        assert rep["results"]["steps"] == steps
        assert len(rep["results"]["errors"]) == len(steps)


def test_track_cocycle_northsouth_pi_tits(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "track.json", {
        "experiment": "track", "model": "T4", "distribution": T4_UNIFORM_DIST,
        "n": 400, "m_samples": 10, "seed": 4,
        "checkpoints": [100, 200, 300, 400], "params": {"lambda": 0.5},
    })
    assert main(["run", str(cfg), "--outdir", str(out)]) == EXIT_OK
    rep = read_report(out, "track", 4)
    assert rep["results"]["errors"][-1] < 0.3

    cfg2 = write_config(tmp_path, "coc.json", {
        "experiment": "cocycle", "model": "H2", "seed": 6, "params": {"count": 40},
    })
    assert main(["run", str(cfg2), "--outdir", str(out)]) == EXIT_OK
    rep2 = read_report(out, "cocycle", 6)
    assert rep2["results"]["max_residual"] <= 1e-9

    cfg3 = write_config(tmp_path, "ns.json", {
        "experiment": "northsouth", "model": "H2", "seed": 8,
        "params": {"g": {"model": "H2", "payload": {"matrix": [2, 0, 0, 0.5]}},
                   "eps_plus": 0.1, "eps_minus": 0.1, "samples": 40, "cap": 2000},
    })
    assert main(["run", str(cfg3), "--outdir", str(out)]) == EXIT_OK
    rep3 = read_report(out, "northsouth", 8)
    assert rep3["results"]["attained"] is True
    assert rep3["results"]["k0_squared_power"] <= rep3["results"]["k0"]

    cfg4 = write_config(tmp_path, "pi.json", {
        "experiment": "pi-convergence", "model": "H2", "seed": 10,
        "params": {"g": {"model": "H2", "payload": {"matrix": [2, 0, 0, 0.5]}},
                   "powers": 20, "u_eps": 0.05, "k_count": 30},
    })
    assert main(["run", str(cfg4), "--outdir", str(out)]) == EXIT_OK
    rep4 = read_report(out, "pi-convergence", 10)
    assert rep4["results"]["holds"] is True

    cfg5 = write_config(tmp_path, "tits.json", {
        "experiment": "tits-table", "model": "E2", "seed": 11,
        "params": {"count": 6},
    })
    assert main(["run", str(cfg5), "--outdir", str(out)]) == EXIT_OK
    rep5 = read_report(out, "tits-table", 11)
    for row in rep5["results"]["table"]:
        assert row["angle"] == pytest.approx(row["tits"], abs=1e-9)


def test_sweep(tmp_path):
    for i, seed in enumerate((21, 22)):
        write_config(tmp_path, f"sweep{i}.json", {
            "experiment": "drift", "model": "T4", "distribution": T4_UNIFORM_DIST,
            "n": 100, "m_samples": 20, "seed": seed,
        })
    out = tmp_path / "out"
    assert main(["sweep", str(tmp_path / "sweep*.json"), "--outdir", str(out)]) == EXIT_OK
    assert (out / "drift-21" / "report.json").exists()
    assert (out / "drift-22" / "report.json").exists()


def test_oracle_subcommands(capsys):
    assert main(["oracle", "tree-drift", "--n", "500"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert abs(out["expected_distance_over_n"] - 0.5) < 0.01
    assert main([
        "oracle", "busemann-limit",
        "--xi", '{"model": "H2", "xi": 0.5}',
        "--x", '{"model": "H2", "coords": [0, 1]}',
        "--z", '{"model": "H2", "coords": [1, 2]}',
        "--t", "10000",
    ]) == EXIT_OK
    out2 = json.loads(capsys.readouterr().out)
    assert out2["abs_difference"] <= 1e-3


def test_load_config_defaults(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "drift", "model": "T4", "distribution": T4_UNIFORM_DIST,
    })
    parsed = load_config(cfg)
    assert parsed.n == 1000 and parsed.m_samples == 100 and parsed.seed == 0
    assert parsed.basepoint.data == ""


def test_readme_param_table_is_the_experiments_table():
    # README.md lists each experiment's params; a param added, dropped or
    # changed in EXPERIMENTS without the README fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| experiment | param | kind | least | most | default |"
    rows = text.split(header)[1].split("\n\n")[0].splitlines()[2:]
    listed, most_cells = {}, {}
    for row in rows:
        experiment, name, kind, least, most, default = (
            cell.strip().strip("`") for cell in row.strip("|").split("|"))
        listed[experiment, name] = (
            kind, REQUIRED if default == "required" else json.loads(default),
            json.loads(least) if least else None)
        most_cells[experiment, name] = most
    table = {(experiment, name): tuple(spec)
             for experiment, (*_, params) in EXPERIMENTS.items()
             for name, spec in params.items()}
    assert listed == table
    # only the bins params have a most: the bin count of the scheme they build
    assert {key: most for key, most in most_cells.items() if most} == {
        (experiment, "bins"): f"{MAX_BINS} bins" for experiment in ("hitting", "stationarity")}
