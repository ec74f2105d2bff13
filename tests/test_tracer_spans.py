"""The benchmark's tracer (perfbench/tracer.py) wraps cat0lab functions by
name and binds its hooks' arguments by name.  A rename or deletion in the
package fails here, not only in a traced benchmark pass."""

import importlib
import importlib.util
import inspect
import re
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
