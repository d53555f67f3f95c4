#!/usr/bin/env python3
"""hexlat benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Run it from anywhere inside a source checkout; it imports hexlat from
the checkout's `src/` and exits with code 2 when that is missing.

A run measures fresh-process set-up, checks the workload's golden
job against `perfbench/golden.json`, then runs seeded jobs for
`--seconds` (cli_mixed finishes its current round of five) and checks
each one.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The traced
run executes every job twice, untraced and then traced, to measure the
tracing overhead (median over jobs of traced / untraced time, minus 1)
and to check that tracing leaves every output value unchanged.  A full report (provenance, input digests, per-job records
and, when traced, every span) goes to `.perfbench_out/` in the
checkout.

`--write-golden` recomputes the golden values from the current
program and overwrites `perfbench/golden.json`; do that only at a
commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

try:
    import workloads
except ImportError as exc:  # reported by main(): the checkout lacks the program
    workloads = None
    IMPORT_ERROR = exc

GOLDEN_FILE = Path(__file__).resolve().with_name("golden.json")
SETUP_PROBES = 5  # fresh processes per run; the median is reported

END_TO_END_UNITS = {
    "job_p50_s": "s",
    "job_p90_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def job_digest(job: dict) -> str:
    return hashlib.sha256(json.dumps(job, sort_keys=True).encode()).hexdigest()


def git_revision(root: Path) -> str:
    """Revision of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def provenance() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
        "blas_thread_cap": {var: os.environ[var] for var in workloads.THREAD_VARS},
        "git_revision": git_revision(workloads.ROOT),
    }


def setup_seconds(wl) -> float:
    """Median wall time of fresh processes doing the workload's set-up.

    One extra probe runs first and is discarded: it may write bytecode
    caches that every later process reads.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        seconds, code = workloads.run_child(wl.setup_probe, stderr=None)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(seconds)
    return statistics.median(times[1:])


def golden_check(wl, golden: dict) -> list[list[str]]:
    """Run the workload's golden jobs; return each one's failed checks."""
    jobs, refs = wl.golden_jobs(), golden.get(wl.name, [])
    if len(jobs) != len(refs):
        return [[f"golden.json has {len(refs)} {wl.name} jobs, expected {len(jobs)}"]] * len(jobs)
    results = []
    for job, ref in zip(jobs, refs):
        if job_digest(job) != ref["inputs_sha256"]:
            results.append([f"golden inputs of {wl.name} changed; regenerate golden.json"])
            continue
        try:
            _, out = wl.run(job)
            errors = wl.check(job, out)
            results.append(errors or workloads.golden_errors(wl.golden_values(job, out), ref["values"]))
        except Exception as exc:  # a failed job is counted, not fatal
            results.append([f"golden job: {type(exc).__name__}: {exc}"])
    return results


def write_golden() -> int:
    doc = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0)
        wl.setup()
        entries = []
        for job in wl.golden_jobs():
            _, out = wl.run(job)
            errors = wl.check(job, out)
            if errors:
                print(f"perfbench: {name} golden job fails its checks: {errors}", file=sys.stderr)
                return 1
            values = {k: v[0].tolist() for k, v in wl.golden_values(job, out).items()}
            entries.append({"inputs_sha256": job_digest(job), "values": values})
        doc[name] = entries
    GOLDEN_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN_FILE}")
    return 0


def run_job(wl, job: dict, index: int, traced: bool) -> dict:
    """Run one job (twice when traced) and check it; never raises."""
    rec = {"work": wl.work(job), "errors": []}
    t0 = time.perf_counter()
    try:
        rec["seconds"], out = wl.run(job)
        rec["errors"] = wl.check(job, out)
        if traced:
            tracer = tracing.Tracer(job=index)
            rec["traced_seconds"], out_t = wl.run(job, tracer)
            rec["errors"] += wl.check(job, out_t)
            if not wl.same_outputs(out, out_t):
                rec["errors"].append("tracing changed the outputs")
            rec["layers"] = tracing.layer_metrics(
                tracer.spans, rec["traced_seconds"], out_t.get("startup_s", 0.0),
                wl.artifacts_bytes(out_t),
            )
            rec["spans"] = tracer.spans
    except Exception as exc:  # a failed job is counted, not fatal
        rec["errors"].append(f"{type(exc).__name__}: {exc}")
        rec.setdefault("seconds", time.perf_counter() - t0)
    return rec


def measure(wl, seconds: float, traced: bool) -> tuple[list[dict], dict]:
    """Closed loop: run jobs until `seconds` have passed and the current
    round is complete.  Returns the job records and the input digests."""
    records, digests = [], []
    end = time.perf_counter() + seconds
    while len(records) < 2 or len(records) % wl.round_size or time.perf_counter() < end:
        job = wl.next_job()
        digests.append(job_digest(job))
        records.append(run_job(wl, job, len(records), traced))
    inputs = {
        "jobs": len(digests),
        "inputs_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "first10_sha256": hashlib.sha256("".join(digests[:10]).encode()).hexdigest(),
    }
    return records, inputs


def end_to_end(wl, records: list[dict], setup_s: float) -> dict:
    lat = [r["seconds"] for r in records]
    work = sum(r["work"] for r in records)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "job_p50_s": statistics.median(lat),
        "job_p90_s": statistics.quantiles(lat, n=10)[8],
        "work_per_s": work / sum(lat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if workloads is None:
        print(f"perfbench: cannot load the program: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not GOLDEN_FILE.is_file():
        print(f"perfbench: {GOLDEN_FILE.name} is missing", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = setup_seconds(wl)
    wl.setup()
    golden = golden_check(wl, json.loads(GOLDEN_FILE.read_text()))
    records, inputs = measure(wl, args.seconds, bool(args.trace))

    failures = [e for errors in golden for e in errors] + [e for r in records for e in r["errors"]]
    attempted = len(golden) + len(records)
    failed = sum(map(bool, golden)) + sum(bool(r["errors"]) for r in records)
    samples = {"jobs": len(records)}
    if args.trace:
        # each job ran untraced and then traced back to back, so the median
        # of the paired ratios is robust to the machine's speed drifting
        ratios = [r["traced_seconds"] / r["seconds"] for r in records if "layers" in r]
        overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
        values = tracing.aggregate([r.get("layers") for r in records], wl.round_size, overhead)
        units = tracing.PER_LAYER_UNITS
    else:
        values = end_to_end(wl, records, setup_s)
        units = END_TO_END_UNITS
        samples["beyond_p90"] = sum(r["seconds"] > values["job_p90_s"] for r in records)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "inputs": inputs,
        "work_unit": wl.work_unit,
        "samples": samples,
        "fail_ratio": {"value": failed / attempted, "unit": "1"},
        "failures": failures[:20],
        "metrics": metrics,
    }
    out_dir = workloads.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    # each job's spans, if traced, stay in its record; parents index into them
    report = dict(summary, jobs=records)
    report_file = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report) + "\n")

    for name, m in metrics.items():
        print(f"{wl.name:<11} {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"{wl.name:<11} {'fail_ratio':<42} {failed / attempted:>14.6g} 1  ({failed}/{attempted})")
    for err in failures[:5]:
        print(f"failure: {err}", file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
