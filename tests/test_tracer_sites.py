"""Every site the benchmark tracer wraps still exists in the ``ybx`` package.

``perfbench/tracer.py`` installs its wrappers at fixed names; a renamed or
moved function silently drops out of the traced benchmark run, so this
cheap check reads the tracer's site list and resolves each name.
"""

import importlib.util
from pathlib import Path

import ybx
import ybx.bundles
import ybx.catalog
import ybx.cli
import ybx.massey
import ybx.surface

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves():
    tracer = _tracer()
    missing = ["%s.%s" % (module, path) for module, path, _, _ in tracer.SITES
               if tracer._site(ybx, module, path)[2] is None]
    assert not missing
