"""Alternating benchmark pairs of two checkouts, for resolving a change
smaller than the benchmark's noise.

    python tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS [--write BENCH_<label>.json]

Each pair runs `perfbench/run.py --workload WORKLOAD --trace 0` once in the
PARENT checkout and once in the CHANGE checkout, with `--seconds` set to
`run_seconds` of this repository's BENCHMARK.json and the same fresh seed
for both.  The side that runs first alternates from pair to pair, so a slow
drift of the machine's speed falls on both sides alike.  The seeds are drawn
from the system's entropy and printed with every pair's metrics.

For each end-to-end metric of BENCHMARK.json the summary gives the parent's
median with its quartiles (statistics.quantiles, as perfbench reports
them), the change's median, and in how many pairs the change is better, by
the metric's `better` direction.  The last line says whether every run read
`correct: true` and `failed: 0`.

`--write FILE` also writes the record as one JSON object: both commits and
environment lines as run.py prints them, the workload, the seeds, every
run's end-to-end metrics, each metric's medians, quartiles and wins, and
whether every run read `correct: true` and `failed: 0`.  Use git clones,
so that run.py can read each checkout's commit from its .git.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds):
    """The environment object and the result object, the first and last
    lines of a run's standard output."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{checkout}: {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def main(argv: list[str]) -> int:
    write = None
    if len(argv) == 6 and argv[4] == "--write":
        write, argv = Path(argv[5]), argv[:4]
    if len(argv) != 4 or not argv[3].isdigit() or int(argv[3]) < 1:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change, workload, pairs = Path(argv[0]), Path(argv[1]), argv[2], int(argv[3])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sides = {"parent": parent, "change": change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    environments, runs = {}, []
    clean = True
    seeds = random.SystemRandom()
    for i in range(pairs):
        seed = seeds.randrange(1, 2 ** 31)
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        row = {}
        for side in order:
            env, result = run_once(sides[side], bench["command"], workload, seed,
                                   bench["run_seconds"])
            environments.setdefault(side, env)
            clean &= result["correct"] is True and result["failed"] == 0
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            row[side] = {name: v[-1] for name, v in values[side].items()}
        runs.append({"pair": i + 1, "seed": seed, "first": order[0], **row})
        print(json.dumps(runs[-1]), flush=True)
    summary = {}
    for m in metrics:
        name = m["name"]
        old, new = values["parent"][name], values["change"][name]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        summary[name] = {"unit": m["unit"], "better": m["better"], "change_wins": wins}
        for side, vals in (("parent", old), ("change", new)):
            q1, _, q3 = statistics.quantiles(vals, n=4) if pairs > 1 else (vals[0],) * 3
            summary[name][side] = {"median": statistics.median(vals), "q1": q1, "q3": q3}
        was = summary[name]["parent"]
        print(f"{workload} {name}: parent {was['median']:.6g} "
              f"[{was['q1']:.6g}, {was['q3']:.6g}] -> change {statistics.median(new):.6g}; "
              f"change better in {wins} of {pairs}")
    print(f"every run correct: true, failed: 0: {'yes' if clean else 'no'}")
    if write:
        record = {"workload": workload, "pairs": pairs, "run_seconds": bench["run_seconds"],
                  "commits": {side: env["commit"] for side, env in environments.items()},
                  "environment": environments, "seeds": [r["seed"] for r in runs],
                  "runs": runs, "metrics": summary, "every_run_correct": clean}
        write.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
