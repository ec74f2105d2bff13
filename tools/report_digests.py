"""Digests of the benchmark reports, for checking that a change keeps every
reported value.

Runs every config of the `escape`, `trajectory` and `audit` workloads
(`perfbench/workloads.py`) at workload seeds 1, 2 and 3, in this process,
through `cat0lab.cli.load_config` and `cat0lab.cli.run`, with
`--allow-uncertified` for the control models, as the benchmark runs them.
It prints one sha256 per report.json and series.csv: the report without its
`timing` block, the series file as written.

    python tools/report_digests.py > new.txt
    (in another checkout) python tools/report_digests.py > old.txt
    diff old.txt new.txt

The cat0lab package is imported from this checkout's `src/`.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cat0lab import cli  # noqa: E402


def _report_bytes(path: Path) -> bytes:
    report = json.loads(path.read_text())
    del report["timing"]
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False).encode()


def digests(workload: str, seed: int, scratch: Path):
    """(label, sha256) of each report and series file of one workload pass."""
    for i, cfg in enumerate(workloads.make_configs(workload, seed)):
        name = f"{i:02d}-{cfg['experiment']}-{cfg['model']}"
        path = scratch / f"{workload}-{seed}-{name}.json"
        path.write_text(json.dumps(cfg))
        target = cli.run(cli.load_config(path), scratch / f"{workload}-{seed}",
                         allow_uncertified=cfg["model"] in workloads.CONTROLS)
        label = f"{workload} seed {seed} {name}"
        yield f"{label} report.json", hashlib.sha256(_report_bytes(target / "report.json"))
        series = target / "series.csv"
        if series.is_file():
            yield f"{label} series.csv", hashlib.sha256(series.read_bytes())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in (1, 2, 3):
                for label, digest in digests(workload, seed, Path(tmp)):
                    print(f"{digest.hexdigest()}  {label}", flush=True)


if __name__ == "__main__":
    main()
