"""The benchmark's tracer wraps hexlat functions by name: each must still
exist; and its library workloads set up and check one job on the library."""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_field_map_job_checks_clean():
    # workloads.py sets the BLAS thread variables and puts the sources on
    # sys.path at import: both are restored when the test ends
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    workload = workloads.FieldMap(3)
    workload.setup()
    job = workload.next_job()
    _, out = workload.run(job)
    assert workload.check(job, out) == []
