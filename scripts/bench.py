#!/usr/bin/env python3
"""Time hexlat command lines in fresh processes, phase by phase, or its layers in process.

    python3 scripts/bench.py [-n N] [--base TREE] [--line "CMD key=value ..."] [--out FILE]
    python3 scripts/bench.py --in-process [-n N] [--base TREE] [--out FILE]

Each run starts a new interpreter on one command line and splits its wall
time into five phases: spawn (from the spawn call to the child's first
statement), `import numpy`, `import hexlat.cli`, `main`, and exit (from
`main`'s return until the child is reaped).  Both sides read
`time.perf_counter`, CLOCK_MONOTONIC on Linux, so the marks compare
across processes.  The lines default to the golden lines of perfbench's
`cli_mixed` workload; each run writes its artifacts to a fresh scratch
directory, and BLAS runs one thread per process.

The source tree is the checkout that holds this script.  With --base, a
second checkout runs every line too, alternated with this one, in the
opposite order every other round; each pair gives this tree's time minus
the base's, and the report counts the pairs this tree wins.  Before the
recorded rounds, every line runs once per tree unrecorded, so that both
start from warm file caches (and bytecode caches, where Python writes
them).  The medians (and, with --base, the paired figures) go to stdout;
--out also writes them, with every sample and the provenance, as JSON.

--in-process times the layers instead, in one process per run.  At a = 1,
lambda = 0.2a and K = 16: `compute_lattice_sums(40, 64)`, `series_tables`
(with the sums' first `cell_tables`), the unit-load `basis`, one gated
`solve_coefficients`, a `total_stress` and a `total_displacement` at each
of 256 seeded points, and one `homogenization_data`.  Then each command
at its defaults through `cli.main`, `moduli` in both directions.  A run
makes one untimed pass over these steps and times the second; the report
gives each step's min and median over the N runs, the trees alternated as
above.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PHASES = ("spawn", "import_numpy", "import_hexlat_cli", "main", "exit", "total")
# Each command at its defaults, `moduli` in both directions, as the in-process steps name them
CLI_RUNS = {
    "main_sums": ["sums"], "main_solve": ["solve"], "main_field": ["field"],
    "main_sweep": ["sweep"], "main_moduli_b2e": ["moduli", "direction=bond_to_effective", "nu=0.3"],
    "main_moduli_e2b": ["moduli", "direction=effective_to_bond", "nu_eff=0.3"],
}
LAYERS = ("compute_lattice_sums", "series_tables", "basis", "solve_coefficients", "probe_256",
          "homogenization_data", *CLI_RUNS)
PROBE_SEED = 20261022
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The child: its first statement reads the clock, then one mark per phase
CHILD = """\
import time; t1 = time.perf_counter()
import sys
import numpy
t2 = time.perf_counter()
import hexlat.cli
t3 = time.perf_counter()
code = hexlat.cli.main(sys.argv[2:])
t4 = time.perf_counter()
with open(sys.argv[1], "w") as fh:
    fh.write(repr((t1, t2, t3, t4, hexlat.__file__)))
sys.exit(code)
"""
# The in-process child: this script's `time_layers` on the hexlat that PYTHONPATH names
LAYER_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import bench; "
               "bench.time_layers(sys.argv[2])")


def golden_lines() -> list[list[str]]:
    """The `cli_mixed` golden lines, read from perfbench's source: importing
    it would load numpy and hexlat into this timing process."""
    source = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in ast.walk(source):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "golden_args":
            return ast.literal_eval(node.value)
    raise SystemExit("bench: perfbench/workloads.py assigns no golden_args")


def run_once(tree: Path, args: list[str], scratch: Path) -> tuple[list[float], int]:
    """One fresh `hexlat args` on tree's sources: (seconds per phase, exit code)."""
    marks, out = scratch / "marks", scratch / "out"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    argv = [sys.executable, "-c", CHILD, str(marks), *args, "--out", str(out)]
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps that would quantise the exit phase
    proc = subprocess.run(argv, env=env, cwd=scratch, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    t5 = time.perf_counter()
    shutil.rmtree(out, ignore_errors=True)
    try:
        t1, t2, t3, t4, origin = ast.literal_eval(marks.read_text())
    except OSError:
        raise SystemExit(f"bench: {args} on {tree} wrote no marks:\n{proc.stderr}") from None
    marks.unlink()
    if not Path(origin).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"bench: hexlat came from {origin}, not from {tree / 'src'}")
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t5 - t0], proc.returncode


def measure(trees: dict[str, Path], lines: list[list[str]], repeats: int) -> list[dict]:
    """Every line on every tree, in rounds; the trees alternate within a round."""
    names = list(trees)
    samples = [{name: [] for name in names} for _ in lines]
    codes = [{name: set() for name in names} for _ in lines]
    with tempfile.TemporaryDirectory(prefix="hexlat-bench-") as tmp:
        for args in lines:  # warm-up, not recorded
            for name in names:
                run_once(trees[name], args, Path(tmp))
        for r in range(repeats):
            for i, args in enumerate(lines):
                for name in names if r % 2 == 0 else names[::-1]:
                    phases, code = run_once(trees[name], args, Path(tmp))
                    samples[i][name].append([round(t, 6) for t in phases])
                    codes[i][name].add(code)
    return [{"args": args, "exit_codes": {name: sorted(c) for name, c in code.items()},
             **summarise(PHASES, s)} for args, s, code in zip(lines, samples, codes)]


def time_layers(scratch: str) -> None:
    """The in-process child: one untimed pass over the LAYERS steps, then a timed one; writes
    (seconds per step, hexlat.__file__) to scratch/marks and each command's output under it."""
    import numpy as np

    import hexlat.cli
    from hexlat import fields, homogenize, lattice, solver

    spec = lattice.build_lattice(1.0, 1, 1)
    lam, K = 0.2, 16
    prob = solver.ProblemSpec(spec, lam, solver.LoadCase(2.0, 1.0, 0.3), K)
    # a 3x3 block of cells around the origin, points in or at a hole left out
    uv = np.random.default_rng(PROBE_SEED).uniform(-1.5, 1.5, size=(1024, 2))
    z = uv[:, 0] * spec.omega1 + uv[:, 1] * spec.omega2
    points = [complex(p) for p in z[abs(lattice.fold_point(z, spec)[0]) > 1.001 * lam][:256]]

    def probe(coeffs, tables):
        for p in points:
            f = fields.total_stress(abs(p), cmath.phase(p), prob, coeffs, tables)
            fields.total_displacement(f.z, prob, coeffs, tables, 0.3)

    def timed(step, *args, **kwargs):
        t0 = time.perf_counter()
        out = step(*args, **kwargs)
        times.append(time.perf_counter() - t0)
        return out

    for _ in range(2):
        times = []
        sums = timed(lattice.compute_lattice_sums, spec, 40, 64)
        tables = timed(solver.series_tables, sums, lam, K)
        timed(lambda: tables.basis)
        coeffs = timed(solver.solve_coefficients, prob, tables)
        timed(probe, coeffs, tables)
        timed(homogenize.homogenization_data, spec, lam, K, sums=sums)
        for step, args in CLI_RUNS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = timed(hexlat.cli.main, [*args, "--out", str(Path(scratch, step))])
            if code != 0:
                raise SystemExit(f"bench: hexlat {' '.join(args)} exited {code}")
    assert len(points) == 256 and len(times) == len(LAYERS)
    Path(scratch, "marks").write_text(repr((times, hexlat.__file__)))


def run_layers(tree: Path, scratch: Path) -> list[float]:
    """One child process timing the LAYERS on tree's sources: seconds per step."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    argv = [sys.executable, "-c", LAYER_CHILD, str(Path(__file__).resolve().parent), str(scratch)]
    proc = subprocess.run(argv, env=env, cwd=scratch, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    for step in CLI_RUNS:
        shutil.rmtree(scratch / step, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: the layer run on {tree} exited {proc.returncode}:\n{proc.stderr}")
    times, origin = ast.literal_eval((scratch / "marks").read_text())
    (scratch / "marks").unlink()
    if not Path(origin).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"bench: hexlat came from {origin}, not from {tree / 'src'}")
    return times


def measure_layers(trees: dict[str, Path], repeats: int) -> dict:
    """The LAYERS, one child per tree and round; the trees alternate within a round."""
    names = list(trees)
    samples = {name: [] for name in names}
    with tempfile.TemporaryDirectory(prefix="hexlat-bench-") as tmp:
        for name in names:  # warm-up, not recorded
            run_layers(trees[name], Path(tmp))
        for r in range(repeats):
            for name in names if r % 2 == 0 else names[::-1]:
                samples[name].append([round(t, 6) for t in run_layers(trees[name], Path(tmp))])
    return summarise(LAYERS, samples)


def summarise(steps: tuple[str, ...], samples: dict) -> dict:
    """Min and median per step and tree; with a base, this tree's paired differences."""
    entry = {
        stat: {name: {p: round(f(v), 6) for p, v in zip(steps, zip(*s))}
               for name, s in samples.items()}
        for stat, f in (("median_s", statistics.median), ("min_s", min))
    }
    if "base" in samples:
        diffs = [[t - b for t, b in zip(ts, bs)] for ts, bs in zip(samples["tree"], samples["base"])]
        entry["paired"] = {
            p: {"median_diff_s": round(statistics.median(d), 6), "wins": sum(x < 0 for x in d),
                "pairs": len(d)}
            for p, d in zip(steps, zip(*diffs))
        }
    entry["samples_s"] = samples
    return entry


def git_revision(tree: Path) -> str:
    """HEAD of the checkout, with "+dirty" when tracked files differ from it."""
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                                "--untracked-files=no"], capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unavailable (not a git checkout)"
    return head + ("+dirty" if dirty.strip() else "")


def provenance(trees: dict[str, Path]) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_thread_cap": dict.fromkeys(THREAD_VARS, "1"),
        # when set, every child compiles hexlat from source (~17 ms of its import)
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "git_revision": {name: git_revision(tree) for name, tree in trees.items()},
    }


def report_layers(layers: dict) -> None:
    """Min and median milliseconds per step and tree, then the paired median and wins."""
    for step in LAYERS:
        row = "".join(f" {name} {layers['min_s'][name][step] * 1e3:.3f}"
                      f"/{layers['median_s'][name][step] * 1e3:.3f}" for name in layers["min_s"])
        if "paired" in layers:
            pair = layers["paired"][step]
            row += (f"  paired {pair['median_diff_s'] * 1e3:+.3f}, "
                    f"tree wins {pair['wins']}/{pair['pairs']}")
        print(f"{step:<20}{row} ms (min/median)")


def report(results: list[dict]) -> None:
    """Median milliseconds per phase, one row per tree, then the paired total."""
    for entry in results:
        print(" ".join(entry["args"]))
        for name, med in entry["median_s"].items():
            print(f"  {name:<5}" + "".join(f" {p} {med[p] * 1e3:.1f}" for p in PHASES) + " ms")
        if "paired" in entry:
            pair = entry["paired"]["total"]
            print(f"  paired total {pair['median_diff_s'] * 1e3:+.1f} ms, "
                  f"tree wins {pair['wins']}/{pair['pairs']}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("-n", "--repeats", type=int, default=10, help="recorded runs per line and tree")
    p.add_argument("--base", type=Path, help="a second source checkout, paired with this one")
    p.add_argument("--line", action="append", help="a command line to time, such as "
                   "'sums a=1' (repeatable; default: the cli_mixed golden lines)")
    p.add_argument("--out", type=Path, help="write the JSON report to this file")
    p.add_argument("--in-process", action="store_true",
                   help="time the layers and the commands in process, not command lines")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    trees = {"tree": ROOT}
    if args.base is not None:
        if not (args.base / "src" / "hexlat" / "__init__.py").is_file():
            p.error(f"--base {args.base} holds no src/hexlat")
        trees["base"] = args.base.resolve()
    doc = {"tool": "scripts/bench.py", "repeats": args.repeats}
    if args.in_process:
        if args.line:
            p.error("--line times command lines, which --in-process does not")
        doc |= {"mode": "in-process", "layers": LAYERS,
                "results": measure_layers(trees, args.repeats)}
        report_layers(doc["results"])
    else:
        lines = [line.split() for line in args.line] if args.line else golden_lines()
        doc |= {"phases": PHASES, "lines": measure(trees, lines, args.repeats)}
        report(doc["lines"])
    if args.out is not None:
        doc["provenance"] = provenance(trees)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
