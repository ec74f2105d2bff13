"""cat0lab benchmark: end-to-end CLI passes, output checks and a traced run.

    python3 perfbench/run.py --workload {escape,trajectory,audit} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  The
workload seed generates the config files (see workloads.py); each pass runs
every config once through the CLI in child processes, one after another,
with `--threads 1` (a closed loop with one client).  Passes repeat until
`--seconds` have passed.  Every report of every pass is checked (checks.py)
and must be identical, `timing` aside, across the passes of a run.

`--trace 0` reports the end-to-end metrics as medians over the passes.
`--trace 1` runs rounds of an untraced pass, a pass at `--threads nproc` and
a traced pass, and reports per-layer metrics (see tracer.py).
The last line of standard output is the result object; the lines before it
give the environment, per-pass samples, counters and any failed configs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {"wall_s": "s", "steps_per_s": "steps/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer span metrics: (span name, also report its call count)
SPAN_METRICS = [
    ("walk.sample_walk", True), ("walk.draw_increments", False),
    ("walk.validate_distribution", False),
    *[(f"stats.{f}", False) for f in (
        "drift_estimate", "hitting_measure", "stationarity_defect", "convergence_profile",
        "dirac_concentration", "horofunction_gap", "tracking_error", "theil_sen",
        "rankone_audit", "cocycle_residual", "pi_convergence_check")],
    ("boundary.boundary_metric", True), ("boundary.horofunction", False),
    ("boundary.sample_boundary", False), ("boundary.tits_distance", False),
    ("geometry.direction", True), ("geometry.distance", False),
    ("isometry.apply_boundary", True), ("isometry.compose", False),
    ("isometry.classify", False), ("isometry.independence_score", False),
    ("isometry.north_south_constant", False),
    ("sampling.random_isometry", False), ("sampling.random_point", False),
    ("h2.mp_ray_gaps", False),
    ("cli.load_config", False), ("cli.run", False),
]
MODULES = ("walk", "stats", "boundary", "geometry", "isometry", "sampling", "h2", "cli")
MODELS = ("E2", "H2", "T4", "H2xR")

# the layer each workload was chosen to load, confirmed by the traced run
LOADS = {
    "escape": lambda m: m["walk.share"] >= 0.7,
    "trajectory": lambda m: m["walk.share"] <= 0.5 and m["boundary.share"] + m["h2.share"] >= 0.3,
    "audit": lambda m: m["walk.share"] <= 0.2,
}


def _require_program():
    """Import the checks against ./src, or exit non-zero without a result."""
    if not (SRC / "cat0lab" / "cli.py").is_file():
        sys.exit("perfbench: no ./src/cat0lab here; run from the repository root")
    sys.path.insert(0, str(SRC))
    import cat0lab

    if Path(cat0lab.__file__).resolve().parent != (SRC / "cat0lab").resolve():
        sys.exit(f"perfbench: imported cat0lab from {cat0lab.__file__}, not ./src")
    sys.path.insert(0, str(HERE))


def _environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Child:
    """One CLI child process: exit code, set-up time, peak RSS, stderr."""

    def __init__(self, work: Path, cli_args: list[str], trace_path: Path | None):
        stamp, err = work / "stamp", work / "stderr"
        stamp.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cmd = [sys.executable, str(HERE / "child.py"), str(stamp),
               str(trace_path) if trace_path else "-", *cli_args]
        with open(err, "w") as fh:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=fh, env=env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.ended = time.monotonic()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.spawned = spawned
        self.setup_s = float(stamp.read_text()) - spawned if stamp.is_file() else None
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = err.read_text()
        self.trace = json.loads(trace_path.read_text()) if trace_path and trace_path.is_file() else None


def _last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else "no error output"


class Run:
    """The passes of one benchmark run over one workload's configs."""

    def __init__(self, workload: str, seed: int, work: Path):
        import workloads

        self.configs = workloads.make_configs(workload, seed)
        self.sweep = workloads.WORKLOADS[workload][1]
        self.controls = workloads.CONTROLS
        self.steps = sum(workloads.walk_steps(c) for c in self.configs)
        self.work = work
        self.cfg_dir = work / "configs"
        self.cfg_dir.mkdir()
        self.paths = []
        for i, cfg in enumerate(self.configs):
            path = self.cfg_dir / f"{i:02d}-{cfg['experiment']}-{cfg['model']}.json"
            path.write_text(json.dumps(cfg))
            self.paths.append(path)
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, dict] = {}
        self.failed_sets: set = set()
        self.canonical: dict[str, str] = {}
        self.problems: list[str] = []
        self.report_bytes = 0
        self.mp_dps_max = 0
        self.count = 0

    def warm_up(self):
        """Compile bytecode and fill the file cache before anything is timed."""
        Child(self.work, ["oracle", "tree-drift", "--n", "1"], None)

    def one_pass(self, threads: int = 1, traced: bool = False) -> dict:
        self.count += 1
        out = self.work / f"pass-{self.count}"
        trace_dir = self.work / f"trace-{self.count}"
        trace_dir.mkdir()
        common = ["--outdir", str(out), "--threads", str(threads)]
        if self.sweep:
            children = [Child(self.work, ["sweep", str(self.cfg_dir / "*.json"), *common],
                              trace_dir / "0.json" if traced else None)]
            errors = self._sweep_errors(children[0], out)
        else:
            children, errors = [], {}
            for i, (cfg, path) in enumerate(zip(self.configs, self.paths)):
                flags = ["--allow-uncertified"] if cfg["model"] in self.controls else []
                child = Child(self.work, ["run", str(path), *common, *flags],
                              trace_dir / f"{i}.json" if traced else None)
                children.append(child)
                if child.code != 0:
                    errors[path.name] = f"exit {child.code}: {_last_line(child.stderr)}"
        wall = children[-1].ended - children[0].spawned
        self._collect(out, errors)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(trace_dir)
        return {"wall_s": wall,
                "setup_s": [c.setup_s for c in children if c.setup_s is not None],
                "rss_mb": max(c.rss_mb for c in children),
                "traces": [c.trace for c in children if c.trace is not None]}

    def _sweep_errors(self, child: Child, out: Path) -> dict:
        errors = {}
        for cfg, path in zip(self.configs, self.paths):
            marker = f"{path}: FAILED ("
            hit = [line for line in child.stderr.splitlines() if line.startswith(marker)]
            if hit:
                errors[path.name] = hit[0][len(marker):-1]
            elif not (out / f"{cfg['experiment']}-{cfg['seed']}" / "report.json").is_file():
                # the sweep died before this config finished
                errors[path.name] = f"sweep exit {child.code}: {_last_line(child.stderr)}"
        return errors

    def _collect(self, out: Path, errors: dict):
        import checks

        self.attempted += len(self.configs)
        self.failed += len(errors)
        self.failed_sets.add(frozenset(errors))
        if len(self.failed_sets) > 1:
            self.problems.append(f"pass {self.count}: failed configs differ between passes")
        for cfg, path in zip(self.configs, self.paths):
            if path.name in errors:
                self.failures[path.name] = {"config_seed": cfg["seed"], "error": errors[path.name]}
                continue
            target = out / f"{cfg['experiment']}-{cfg['seed']}"
            where = f"pass {self.count} {path.name}"
            try:
                report = checks.parse_strict((target / "report.json").read_text())
            except (OSError, ValueError) as exc:
                self.problems.append(f"{where}: unreadable report: {exc}")
                continue
            self.problems += [f"{where}: {p}" for p in checks.check_report(cfg, report)]
            text = checks.canonical(report)
            if self.canonical.setdefault(path.name, text) != text:
                self.problems.append(f"{where}: report differs from an earlier pass")
            if self.count == 1:
                self._count_output(cfg, report, target)

    def _count_output(self, cfg: dict, report: dict, target: Path):
        """Deterministic counters, from the first pass's reports."""
        reproducible = {k: v for k, v in report.items() if k != "timing"}
        self.report_bytes += len(json.dumps(reproducible, indent=2, sort_keys=True).encode())
        series = target / "series.csv"
        if series.is_file():
            self.report_bytes += series.stat().st_size
        res = report["results"]
        if cfg["experiment"] == "track" and cfg["model"] in ("H2", "H2xR"):
            # the digit count mp_ray_gaps chooses from lambda and n
            n = max(res["steps"])
            dps = int((res["lambda"] * n + 80.0) / math.log(10.0)) + 40
            self.mp_dps_max = max(self.mp_dps_max, dps)

    def counters(self) -> dict:
        return {"walk_steps_per_pass": self.steps,
                "configs_per_pass": len(self.configs),
                "configs_attempted": self.attempted,
                "configs_failed": self.failed,
                "cli.report_bytes": self.report_bytes,
                "h2.mp_dps_max": self.mp_dps_max,
                "h2.mp_dps_max_source": "computed from track reports with mp_ray_gaps' formula"}


def _spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out.update(q1=q[0], q3=q[2])
    return out


def _end_to_end(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    passes = []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        passes.append(run.one_pass())
    walls = [p["wall_s"] for p in passes]
    setups = [s for p in passes for s in p["setup_s"]]
    rss = [p["rss_mb"] for p in passes]
    rates = [run.steps / w for w in walls]
    metrics = {"wall_s": statistics.median(walls),
               "steps_per_s": statistics.median(rates),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss)}
    samples = {"wall_s": _spread(walls), "steps_per_s": _spread(rates),
               "setup_s": _spread(setups), "peak_rss_mb": _spread(rss),
               "pass_wall_s": walls}
    return metrics, END_TO_END, samples


def _per_layer(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    # rounds of an untraced pass, a pass at --threads nproc and a traced pass,
    # so that slow drift of the machine cancels in the ratios
    deadline = time.monotonic() + seconds
    nproc = len(os.sched_getaffinity(0))
    plain, par, traced = [], [], []
    while not traced or time.monotonic() < deadline:
        plain.append(run.one_pass()["wall_s"])
        par.append(run.one_pass(threads=nproc)["wall_s"])
        traced.append(run.one_pass(traced=True))
    k = len(traced)
    spans: dict[str, list[float]] = {}
    counters = {"walk.steps": 0, "walk.stored": 0, "h2.mp_steps": 0}
    kernel = {m: [0, 0.0] for m in MODELS}
    root_s = 0.0
    for p in traced:
        for t in p["traces"]:
            root_s += t["root_s"]
            for name, vals in t["spans"].items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                for i, v in enumerate(vals):
                    acc[i] += v
            for name, v in t["counters"].items():
                counters[name] += v
            for model, (steps, secs) in t["kernel"].items():
                kernel[model][0] += steps
                kernel[model][1] += secs
    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name], units[name] = value, unit

    for name, with_calls in SPAN_METRICS:
        calls, _, own = spans.get(name, (0, 0.0, 0.0))
        if with_calls:
            put(f"{name}.calls", calls / k, "count")
        put(f"{name}.self_s", own / k, "s")
    walked = sum(s for s, _ in kernel.values())
    put("walk.steps", counters["walk.steps"] / k, "steps")
    put("walk.stored_ratio", counters["walk.stored"] / walked if walked else 0.0, "ratio")
    for model, (steps, secs) in kernel.items():
        put(f"walk.steps_per_s.{model}", steps / secs if secs else 0.0, "steps/s")
    put("stats.parallel_speedup", statistics.median(plain) / statistics.median(par), "ratio")
    put("h2.mp_steps", counters["h2.mp_steps"] / k, "steps")
    put("h2.mp_dps_max", run.mp_dps_max, "digits")
    put("cli.report_bytes", run.report_bytes, "bytes")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    put("trace.overhead_ratio", traced_wall / statistics.median(plain) - 1.0, "ratio")
    put("trace.coverage", root_s / sum(p["wall_s"] for p in traced), "ratio")
    shares = {m: 0.0 for m in MODULES}
    for name, (_, _, own) in spans.items():
        shares[name.split(".", 1)[0]] += own
    for module in MODULES:
        put(f"{module}.share", shares[module] / root_s if root_s else 0.0, "ratio")
    detail = {"rounds": k, "untraced_wall_s": plain,
              "parallel_wall_s": par, "parallel_threads": nproc,
              "traced_wall_s": [p["wall_s"] for p in traced],
              "span_count_per_pass": sum(t["span_count"] for p in traced
                                         for t in p["traces"]) / k}
    return metrics, units, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("escape", "trajectory", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()

    print(json.dumps({"environment": _environment()}), flush=True)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, work)
        run.warm_up()
        if args.trace:
            values, units, detail = _per_layer(run, args.seconds)
            detail["loads_its_layer"] = LOADS[args.workload](values)
        else:
            values, units, detail = _end_to_end(run, args.seconds)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"workload": args.workload, "seed": args.seed, "samples": detail}))
    print(json.dumps({"counters": run.counters()}))
    if run.failures:
        print(json.dumps({"failed_configs": run.failures}))
    if run.problems:
        print(json.dumps({"check_problems": run.problems[:50],
                          "problem_count": len(run.problems)}))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
