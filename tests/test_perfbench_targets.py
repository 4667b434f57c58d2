"""The per-layer tracer in ``perfbench/layers.py`` names pemlab functions by
string.  A rename in the library must fail here instead of silently leaving
that layer's metrics at zero."""
import importlib
import importlib.util
from pathlib import Path

from pemlab.machine import Core, Machine

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    layers = _load_layers()
    assert layers.TARGETS
    missing = [
        f"pemlab.{module}.{func}"
        for module, func, _ in layers.TARGETS
        if not callable(getattr(importlib.import_module(f"pemlab.{module}"), func, None))
    ]
    assert missing == []


def test_patched_machine_methods_exist():
    layers = _load_layers()
    for method in layers.ACCESS_METHODS:
        assert callable(getattr(Core, method))
    assert callable(Machine.run_rounds)
    assert callable(Machine.alloc)
