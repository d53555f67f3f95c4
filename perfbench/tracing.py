"""Span tracing for the benchmark's traced runs.

`Tracer.install` wraps the public hexlat functions listed in LAYERS at
every module attribute through which the program looks them up (for
example `hexlat.fields.boundary_residual`, which `solver` calls, and
`hexlat.cli.compute_lattice_sums`, which the CLI imported by name).
Each call becomes one span: name, start, end, parent span, job id and
the exception type it raised, if any.  Spans stay in memory; the caller
writes them out when the run ends.  `layer_metrics` turns the spans of
one job into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, function, span name).  Both conversion directions share one
# span name; `isotropy_check` calls `effective_from_bond` internally, so
# those calls appear as its children.
LAYERS = [
    ("hexlat.lattice", "compute_lattice_sums", "lattice.compute_lattice_sums"),
    ("hexlat.solver", "series_tables", "solver.series_tables"),
    ("hexlat.solver", "solve_coefficients", "solver.solve_coefficients"),
    ("hexlat.solver", "unit_load_coefficients", "solver.unit_load_coefficients"),
    ("hexlat.fields", "boundary_residual", "fields.boundary_residual"),
    ("hexlat.fields", "total_stress", "fields.total_stress"),
    ("hexlat.fields", "total_displacement", "fields.total_displacement"),
    ("hexlat.elliptic", "fold_point", "elliptic.fold_point"),
    ("hexlat.homogenize", "homogenization_data", "homogenize.homogenization_data"),
    ("hexlat.homogenize", "effective_from_bond", "homogenize.convert"),
    ("hexlat.homogenize", "bond_from_effective", "homogenize.convert"),
    ("hexlat.homogenize", "isotropy_check", "homogenize.isotropy_check"),
    ("hexlat.cli", "main", "cli.main"),
    ("hexlat.svg", "line_plot", "svg.line_plot"),
]

# Rim points per `boundary_residual` call (its n_theta default); the
# `points` metric is computed from the call count, not observed.
RIM_POINTS = 256

# Solves rejected by the arbiter or the condition guard.
REJECTED = ("ConsistencyError", "NumericalError")

_SPANS = sorted({span for _, _, span in LAYERS})
# Per-layer metric names with their units, as BENCHMARK.json lists them.
# `cli.main` runs once per CLI job, and the time of
# `unit_load_coefficients` is almost all its child solves, so those two
# report one of the pair only.
PER_LAYER_UNITS = {
    f"{span}.{kind}": unit
    for span in _SPANS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
    if f"{span}.{kind}" not in ("cli.main.calls", "solver.unit_load_coefficients.self_s")
}
PER_LAYER_UNITS.update(
    {
        "solver.rejected_ratio": "1",
        "fields.boundary_residual.points": "count",
        "homogenize.cache_hit_ratio": "1",
        "cli.startup_s": "s",
        "cli.bytes_written": "B",
        "other.self_s": "s",
        "trace.overhead": "1",
    }
)
# Formed over the whole run rather than as a median over jobs.
RUN_RATIOS = ("solver.rejected_ratio", "homogenize.cache_hit_ratio", "trace.overhead")


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    A span is a list [name, start, end, parent, job, error] with times
    from `time.perf_counter` (CLOCK_MONOTONIC on Linux, so comparable
    across processes on one machine) and parent the index of the
    enclosing span, or -1.
    """

    def __init__(self, job=None):
        self.spans: list[list] = []
        self.job = job
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every LAYERS function wherever a hexlat module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, fname, span in LAYERS:
            original = getattr(importlib.import_module(modname), fname)
            wrapper = self._wrap(original, span)
            for name, mod in list(sys.modules.items()):
                if name != "hexlat" and not name.startswith("hexlat."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper


def layer_metrics(
    spans: list[list], job_s: float, startup_s: float = 0.0, bytes_written: int = 0
) -> dict:
    """Per-layer counts and self times of one job's spans.

    `spans` hold parent indices into the same list.  Self time is a
    span's duration minus that of its children (calls nest, so children
    never overlap).  `other.self_s` is the job time outside interpreter
    start-up and every top-level span.  Keys starting with "_" carry the
    counts behind the run-level ratios that `aggregate` forms.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    top = 0.0
    solves = rejected = 0
    homog, ulc_parents = set(), set()
    for i, rec in enumerate(spans):
        name, dur = rec[0], rec[2] - rec[1]
        if name + ".calls" in out:
            out[name + ".calls"] += 1
        if name + ".self_s" in out:
            out[name + ".self_s"] += dur - child[i]
        if rec[3] < 0:
            top += dur
        if name == "solver.solve_coefficients":
            solves += 1
            rejected += rec[5] in REJECTED
        elif name == "homogenize.homogenization_data":
            homog.add(i)
        elif name == "solver.unit_load_coefficients":
            ulc_parents.add(rec[3])
    out["fields.boundary_residual.points"] = out["fields.boundary_residual.calls"] * RIM_POINTS
    out["cli.startup_s"] = startup_s
    out["cli.bytes_written"] = float(bytes_written)
    out["other.self_s"] = job_s - startup_s - top
    out.update(_solves=solves, _rejected=rejected, _homog=len(homog), _hits=len(homog - ulc_parents))
    return out


def aggregate(jobs: list[dict | None], round_size: int, overhead: float) -> dict:
    """Run-level per-layer metrics from per-job values (None: job failed).

    Each metric is a per-job value: the median over rounds of its mean
    over the jobs of a round.  With rounds of one job that is the median
    over jobs; cli_mixed has rounds of five different commands, where a
    median over jobs would read 0 for a layer that only one command
    uses.  Ratios are formed over the run's totals and read 0 when their
    layer did no work.  A run whose jobs all failed reads 0 throughout.
    """
    rounds = [
        [job for job in jobs[i : i + round_size] if job is not None]
        for i in range(0, len(jobs), round_size)
    ]
    rounds = [r for r in rounds if r] or [[layer_metrics([], 0.0)]]
    out = {
        name: statistics.median(sum(job[name] for job in r) / len(r) for r in rounds)
        for name in PER_LAYER_UNITS
        if name not in RUN_RATIOS
    }
    done = [job for job in jobs if job is not None]
    total = {key: sum(job[key] for job in done) for key in ("_solves", "_rejected", "_homog", "_hits")}
    out["solver.rejected_ratio"] = total["_rejected"] / total["_solves"] if total["_solves"] else 0.0
    out["homogenize.cache_hit_ratio"] = total["_hits"] / total["_homog"] if total["_homog"] else 0.0
    out["trace.overhead"] = overhead
    return out
