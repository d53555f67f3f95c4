"""Smoke tests: the scripts under scripts/ run in process and keep their output."""

import importlib.util
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

