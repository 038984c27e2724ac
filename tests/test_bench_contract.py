"""The benchmark's tracer wraps library names from outside; installing and
removing it must keep working as the library changes.

Runs no benchmark jobs: it patches and unpatches, and traces one frame
build and one classify call.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from plorder import cli, realize
from plorder.plgroup import PLMap, bs_g_plus, translation
from plorder.preorders import JumpEngine

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


def test_frame_balls_are_traced_under_build_frame():
    # the per-layer metrics (plgroup.ball.new_ratio, build_frame self time)
    # read the ball a frame build makes as a child span of the build
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        realize.build_frame(JumpEngine(), {"t(1)": translation(1),
                                           "g+(0,2)": bs_g_plus(0, 2)}, radius=3)
    finally:
        tracer.unpatch()
    spans = tracer.dump()["spans"]
    balls = [s for s in spans if s["name"] == "plgroup.ball"]
    assert len(balls) == 1
    assert spans[balls[0]["parent"]]["name"] == "realize.build_frame"
    assert tracer.counts["plgroup.ball.kept"] == 52
    products = tracer.agg[("plgroup.mul", "plgroup.ball")][0]
    assert tracer.metrics()["plgroup.ball.new_ratio"]["value"] == 52 / products


def test_traced_classify_reports_map_sizes():
    # the tracer reads the Fraction views of every product it sees, so a
    # traced run fills views that an untraced one never builds
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", "--radius", "3", "--word", "t(1)*g+(0,2)"]) == 0
    finally:
        tracer.unpatch()
    metrics = tracer.metrics()
    assert metrics["plgroup.max_breakpoints"]["value"] > 0
    assert metrics["plgroup.max_den_bits"]["value"] > 0
