"""The benchmark's tracer wraps hexlat functions by name: each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    # tracing.py imports only the standard library; loading it runs no benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, function, _ in tracing.LAYERS:
        assert module.split(".")[0] == "hexlat", module
        target = getattr(importlib.import_module(module), function, None)
        assert callable(target), (module, function)
