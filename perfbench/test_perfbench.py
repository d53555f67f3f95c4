"""Tests of the benchmark itself:  python3 -m pytest -q perfbench

Each workload runs one job with its checks on; perturbed golden values
and perturbed results count as failures; the traced run emits every
per-layer metric of BENCHMARK.json and leaves the outputs unchanged.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads(run.GOLDEN_FILE.read_text())


def make(name, seed=3):
    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    return wl


def last_line(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_job_passes_its_checks(name):
    wl = make(name)
    job = wl.next_job()
    seconds, out = wl.run(job)
    assert seconds > 0
    assert wl.check(job, out) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_values_match(name):
    assert run.golden_check(make(name), GOLDEN) == [[]] * len(GOLDEN[name])


@pytest.mark.parametrize("name", ["field_map", "load_sweep"])
def test_perturbed_golden_value_fails(name):
    golden = json.loads(json.dumps(GOLDEN))
    row = golden[name][0]["values"]["values"][5]
    if name == "load_sweep":
        row = row[1]
    row[0] += 1e-4
    results = run.golden_check(make(name), golden)
    assert results[0] and "golden values" in results[0][0]


def test_perturbed_cli_golden_value_fails():
    golden = json.loads(json.dumps(GOLDEN))
    golden["cli_mixed"][5]["values"]["moduli"][2][1] *= 1 + 1e-4
    results = run.golden_check(make("cli_mixed"), golden)
    assert [bool(r) for r in results] == [False] * 5 + [True]


def test_perturbed_result_fails_golden(monkeypatch):
    original = workloads.fields.total_displacement

    def shifted(*args, **kwargs):
        u, v = original(*args, **kwargs)
        return u + 1e-4, v

    monkeypatch.setattr(workloads.fields, "total_displacement", shifted)
    results = run.golden_check(make("field_map"), GOLDEN)
    assert results[0] and "golden values" in results[0][0]


def test_perturbed_result_fails_checks():
    wl = make("field_map")
    job = wl.next_job()
    _, out = wl.run(job)
    out["values"][job["periodic"][0], 0] += 1e-6
    assert any("omega1" in e for e in wl.check(job, out))
    out["values"][0, 4] = np.nan
    assert any("non-finite" in e for e in wl.check(job, out))

    wl = make("load_sweep")
    job = wl.next_job()
    _, out = wl.run(job)
    out["values"][job["triple"][2], 1, 2] += 1e-6
    assert any("real-linear" in e for e in wl.check(job, out))
    out["residuals"][3] = 1.0
    assert any("arbiter residual" in e for e in wl.check(job, out))


def test_failed_cli_job_is_counted():
    wl = make("cli_mixed")
    job = {"args": ["solve", "a=1", "lambda_ratio=0.6"]}
    _, out = wl.run(job)
    assert out["code"] == 2
    assert wl.check(job, out)
    rec = run.run_job(wl, job, 0, traced=False)
    assert rec["errors"]


def test_run_counts_a_failed_job(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken solve")

    monkeypatch.setattr(workloads.solver, "solve_coefficients", broken)
    result = last_line(["--workload", "field_map", "--seed", "1", "--seconds", "0.2", "--trace", "0"])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_keeps_outputs(name):
    result = last_line(["--workload", name, "--seed", "2", "--seconds", "0.2", "--trace", "1"])
    # correct includes the check that traced and untraced outputs are equal
    assert result["correct"] is True and result["failed"] == 0
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    values = {k: v["value"] for k, v in result["metrics"].items()}
    busy = {
        "field_map": ["fields.total_stress.calls", "fields.total_displacement.calls",
                      "elliptic.fold_point.calls", "fields.boundary_residual.calls"],
        "load_sweep": ["solver.solve_coefficients.calls", "fields.boundary_residual.points"],
        "cli_mixed": ["cli.startup_s", "cli.main.self_s", "cli.bytes_written",
                      "lattice.compute_lattice_sums.calls", "solver.series_tables.calls",
                      "fields.boundary_residual.calls", "svg.line_plot.calls",
                      "homogenize.homogenization_data.calls", "homogenize.convert.calls",
                      "homogenize.isotropy_check.calls", "solver.unit_load_coefficients.calls"],
    }[name]
    assert all(values[k] > 0 for k in busy)


def test_untraced_run_emits_every_end_to_end_metric():
    result = last_line(["--workload", "load_sweep", "--seed", "2", "--seconds", "0.2", "--trace", "0"])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs():
    for name, cls in workloads.WORKLOADS.items():
        a, b = cls(11), cls(11)
        assert [run.job_digest(a.next_job()) for _ in range(6)] == [
            run.job_digest(b.next_job()) for _ in range(6)
        ]


def test_cli_rounds_hold_every_command_once():
    wl = workloads.CliMixed(5)
    for _ in range(3):
        commands = [wl.next_job()["args"][0] for _ in range(wl.round_size)]
        assert sorted(commands) == sorted(wl.commands)


def test_layer_metrics_self_time():
    spans = [
        ["solver.solve_coefficients", 0.0, 1.0, -1, 0, None],
        ["fields.boundary_residual", 0.2, 0.9, 0, 0, None],
        ["elliptic.fold_point", 1.5, 1.75, -1, 0, None],
        ["solver.solve_coefficients", 2.0, 2.5, -1, 0, "ConsistencyError"],
    ]
    m = tracing.layer_metrics(spans, job_s=3.0)
    assert m["solver.solve_coefficients.calls"] == 2
    assert m["solver.solve_coefficients.self_s"] == pytest.approx(0.3 + 0.5)
    assert m["fields.boundary_residual.points"] == tracing.RIM_POINTS
    assert m["other.self_s"] == pytest.approx(3.0 - 1.0 - 0.25 - 0.5)
    agg = tracing.aggregate([m], 1, overhead=0.01)
    assert agg["solver.rejected_ratio"] == 0.5
    assert agg["solver.solve_coefficients.calls"] == 2


def test_rounds_keep_minority_layers():
    busy = tracing.layer_metrics([["homogenize.isotropy_check", 0.0, 0.1, -1, 0, None]], job_s=1.0)
    idle = tracing.layer_metrics([], job_s=1.0)
    jobs = [busy, idle, idle, idle, idle] * 3
    assert tracing.aggregate(jobs, 1, 0.0)["homogenize.isotropy_check.calls"] == 0
    assert tracing.aggregate(jobs, 5, 0.0)["homogenize.isotropy_check.calls"] == pytest.approx(0.2)


def test_tracer_restores_the_program():
    import hexlat.cli
    import hexlat.solver

    before = (hexlat.solver.solve_coefficients, hexlat.cli.compute_lattice_sums)
    tracer = tracing.Tracer()
    tracer.install()
    assert hexlat.solver.solve_coefficients is not before[0]
    tracer.uninstall()
    assert (hexlat.solver.solve_coefficients, hexlat.cli.compute_lattice_sums) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(workloads.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "field_map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
