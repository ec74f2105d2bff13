"""The benchmark's tracer (perfbench/tracer.py) wraps cat0lab functions by
name and binds its hooks' arguments by name.  A rename or deletion in the
package fails here, not only in a traced benchmark pass; so does a kernel,
loaded on first use, that the tracer no longer sees."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

# span name, as the tracer names it -> (module, function name)
WRAPPED = {f"{module.lstrip('_')}.{fn}": (module, fn)
           for module, functions in tracer.SPANS.items() for fn in functions}


@pytest.mark.parametrize("span", sorted(WRAPPED))
def test_every_span_names_a_function(span):
    module, fn = WRAPPED[span]
    assert callable(getattr(importlib.import_module(f"cat0lab.{module}"), fn, None))


@pytest.mark.parametrize("span", sorted(tracer.HOOKS))
def test_hooked_functions_keep_the_arguments_their_hooks_bind(span):
    module, fn = WRAPPED[span]
    params = inspect.signature(getattr(importlib.import_module(f"cat0lab.{module}"), fn)).parameters
    bound = re.findall(r'bound\.arguments\["(\w+)"\]', inspect.getsource(tracer.HOOKS[span]))
    assert bound and set(bound) <= set(params)


def test_a_traced_run_sees_its_lazily_loaded_kernel(tmp_path):
    # as in a benchmark child: a fresh interpreter imports the CLI, which
    # executes no kernel, then installs the tracer and runs an H2 track
    atoms = ([2, 0, 0, 0.5], [0.5, 0, 0, 2], [1, 1, 1, 2], [2, -1, -1, 1])
    config = tmp_path / "track.json"
    config.write_text(json.dumps({
        "experiment": "track", "model": "H2", "seed": 1, "n": 300, "m_samples": 5,
        "distribution": {"model": "H2", "atoms": [
            {"isometry": {"model": "H2", "payload": {"matrix": m}}, "p": 0.25} for m in atoms]}}))
    dump = tmp_path / "trace.json"
    code = ("import importlib.util, sys\n"
            "import cat0lab.cli as cli\n"
            f"spec = importlib.util.spec_from_file_location('perfbench_tracer', {str(_PATH)!r})\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            f"code = cli.main(['run', {str(config)!r}, '--outdir', {str(tmp_path / 'out')!r}])\n"
            f"t.dump({str(dump)!r})\n"
            "sys.exit(code)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)
    trace = json.loads(dump.read_text())
    assert trace["spans"]["h2.mp_ray_gaps"][0] >= 1
    assert trace["counters"]["h2.mp_steps"] == 300
    steps, seconds = trace["kernel"]["H2"]
    assert steps >= 300 and seconds > 0
