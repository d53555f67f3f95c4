#!/usr/bin/env python3
"""Time hexlat command lines in fresh processes, phase by phase.

    python3 scripts/bench.py [-n N] [--base TREE] [--line "CMD key=value ..."] [--out FILE]

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
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.metadata
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
    return [summarise(args, s, c) for args, s, c in zip(lines, samples, codes)]


def summarise(args: list[str], samples: dict, codes: dict) -> dict:
    entry = {
        "args": args,
        "exit_codes": {name: sorted(c) for name, c in codes.items()},
        "median_s": {name: {p: round(statistics.median(v), 6) for p, v in zip(PHASES, zip(*s))}
                     for name, s in samples.items()},
    }
    if "base" in samples:
        diffs = [[t - b for t, b in zip(ts, bs)] for ts, bs in zip(samples["tree"], samples["base"])]
        entry["paired"] = {
            p: {"median_diff_s": round(statistics.median(d), 6), "wins": sum(x < 0 for x in d),
                "pairs": len(d)}
            for p, d in zip(PHASES, zip(*diffs))
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
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    trees = {"tree": ROOT}
    if args.base is not None:
        if not (args.base / "src" / "hexlat" / "__init__.py").is_file():
            p.error(f"--base {args.base} holds no src/hexlat")
        trees["base"] = args.base.resolve()
    lines = [line.split() for line in args.line] if args.line else golden_lines()
    results = measure(trees, lines, args.repeats)
    report(results)
    if args.out is not None:
        doc = {"tool": "scripts/bench.py", "repeats": args.repeats, "phases": PHASES,
               "provenance": provenance(trees), "lines": results}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
