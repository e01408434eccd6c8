"""The benchmark's tracer wraps fcrn callables by name from outside the
package; every (owner, attribute) it lists must still exist."""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(tracing):
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.TRACE_POINTS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_tracer_installs_and_uninstalls(tracing):
    import fcrn.autodiff
    original = fcrn.autodiff.adam_step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fcrn.autodiff.adam_step is not original
    finally:
        tracer.uninstall()
    assert fcrn.autodiff.adam_step is original
