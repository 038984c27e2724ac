"""The benchmark's tracer wraps library names from outside; installing and
removing it must keep working as the library changes.

Runs no benchmark jobs: it only patches and unpatches.
"""

import importlib.util
from pathlib import Path

from plorder.plgroup import PLMap

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_unpatches():
    original_mul = PLMap.__dict__["__mul__"]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert PLMap.__dict__["__mul__"] is not original_mul
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in patched)
    finally:
        tracer.unpatch()
    assert PLMap.__dict__["__mul__"] is original_mul
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
