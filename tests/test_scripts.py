"""Smoke tests: the scripts under scripts/ run in process and keep their output."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_figures_writes_all_five(tmp_path):
    _load("make_figures").run(tmp_path)
    for n in range(2, 7):
        svg = tmp_path / f"fig{n}.svg"
        assert svg.read_text().startswith("<svg")


def test_convergence_study(capsys):
    _load("convergence_study").main()
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("K=") for line in lines) == 6
    rings = [line for line in lines if line.startswith("shells=")]
    assert len(rings) == 4
    assert all("E/E0=" in line and "zeta_gap=" in line for line in rings)


def test_dilute_limit_study(capsys):
    _load("dilute_limit_study").main()
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("a/")]
    assert len(rows) == 5
    # the deviation from the isolated hole's 3 tracks ~3f
    assert all(2.5 < float(row.split()[-1]) < 3.5 for row in rows)


def test_bench_pairs_two_trees_phase_by_phase(tmp_path, capsys):
    bench = _load("bench")
    assert len(bench.golden_lines()) == 6  # perfbench's cli_mixed lines, the default
    out = tmp_path / "bench.json"
    argv = ["-n", "1", "--base", str(SCRIPTS.parent), "--line", "sums a=1 s_max=9 shells=16",
            "--out", str(out)]
    assert bench.main(argv) == 0
    doc = json.loads(out.read_text())
    assert set(doc["provenance"]) == {"cpu_model", "nproc", "python", "numpy", "blas_thread_cap",
                                      "PYTHONDONTWRITEBYTECODE", "git_revision"}
    (line,) = doc["lines"]
    assert line["args"] == ["sums", "a=1", "s_max=9", "shells=16"]
    assert line["exit_codes"] == {"tree": [0], "base": [0]}
    for name in ("tree", "base"):
        (phases,) = line["samples_s"][name]
        assert all(t > 0 for t in phases)
        assert abs(sum(phases[:-1]) - phases[-1]) < 1e-5  # the phases tile the wall time
    assert line["paired"]["total"]["pairs"] == 1
    assert "paired total" in capsys.readouterr().out
