"""CLI: artifacts, exit codes, determinism, and figure-level trends."""

import functools
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexlat import __version__, cli, errors, fields, lattice, solver
from hexlat.cli import load_config, main
from test_solver import _per_load_oracle


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None, [])
        assert cfg["a"] == 246.0
        assert cfg["K"] == 16

    def test_file_and_override(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("a = 2.0  # lattice constant\nK = 12\n")
        cfg = load_config(str(p), ["K=14"])
        assert cfg["a"] == 2.0 and cfg["K"] == 14

    def test_unknown_key(self, tmp_path):
        assert main(["sums", "--out", str(tmp_path), "bogus=1"]) == 2

    def test_bad_value(self, tmp_path):
        assert main(["sums", "--out", str(tmp_path), "K=often"]) == 2

    def test_exclusive_lambda(self, tmp_path):
        assert main(["sums", "--out", str(tmp_path), "lambda=1", "lambda_ratio=0.2"]) == 2

    def test_exclusive_chirality(self, tmp_path):
        assert main(["sums", "--out", str(tmp_path), "m=1", "n=1", "alpha=0.1"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["sums", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("args", [
        ("field", "n_r=1"),
        ("sweep", "n_alpha=1"),
        ("moduli", "direction=bond_to_effective", "nu=0.3", "n_lambda=1"),
    ])
    def test_sample_counts_below_two(self, tmp_path, args):
        assert main([args[0], "--out", str(tmp_path), "a=1", *args[1:]]) == 2

    @pytest.mark.parametrize("load", ["sigma1=nan", "sigma2=inf", "alpha=-inf"])
    def test_non_finite_load(self, tmp_path, load):
        code, out = run(tmp_path, "solve", "a=1", load)
        assert code == 2
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("args", [
        ("sums", "a=1e5"),
        ("sums", "a=246", "s_max=80"),
        ("solve", "a=1e52"),
        ("field", "a=1e-60"),
        ("solve", "a=1e150"),
        ("moduli", "a=1e60", "direction=bond_to_effective", "nu=0.3"),
    ])
    def test_unrepresentable_lattice_constant(self, tmp_path, args):
        # sums.csv needs a^(+-2 s_max), every command a^(+-6) (delta, g2, g3),
        # as finite, normal doubles
        code, out = run(tmp_path, *args)
        assert code == 2
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("args", [("field", "alphas="), ("sweep", "r_factors=")])
    def test_empty_list(self, tmp_path, args):
        code, out = run(tmp_path, args[0], "a=1", args[1])
        assert code == 2
        assert not (out / "field.csv").exists()

    def test_zero_hole_radius_is_not_the_default(self, tmp_path):
        assert run(tmp_path, "solve", "a=1", "lambda_ratio=0")[0] == 2

    @pytest.mark.parametrize("args", [
        ("sums", "a=nan"),
        ("sums", "theta=-inf"),
        ("sums", "lambda_ratio=inf"),
        ("field", "alphas=0.1,nan"),
        ("sweep", "r_factors=1,inf"),
    ])
    def test_non_finite_value(self, tmp_path, args):
        code, out = run(tmp_path, *args)
        assert code == 2
        assert not (out / "check.json").exists()

    def test_non_finite_theta(self, tmp_path):
        assert run(tmp_path, "field", "a=1", "theta=inf")[0] == 2

    @pytest.mark.parametrize("args, key", [
        (("field", "theta=1e308"), "theta"),
        (("sweep", "sweep_theta=1e308"), "theta"),
        (("solve", "alpha=1e308"), "alpha"),
        (("field", "alphas=1e308"), "alpha"),
    ])
    def test_angle_whose_double_overflows(self, tmp_path, capsys, args, key):
        # the fields and the load enter through e^(2i angle): a finite angle
        # whose double is not finite is refused, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, *args, "a=1", "n_r=3", "n_alpha=3")
        assert code == 2
        assert f"2*{key}" in capsys.readouterr().err
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("args", [
        ("sums",),
        ("solve",),
        ("moduli", "direction=bond_to_effective", "nu=0.3", "n_lambda=2"),
    ])
    def test_list_keys_checked_for_every_command(self, tmp_path, args):
        for bad in ("alphas=x", "r_factors=y"):
            code, out = run(tmp_path / bad, *args, "a=1", bad)
            assert code == 2
            assert not (out / "check.json").exists()
        # a valid list is echoed in check.json as given
        code, out = run(tmp_path, *args, "a=1", "alphas=0.1, 0.2")
        assert code == 0
        assert json.loads((out / "check.json").read_text())["config"]["alphas"] == "0.1, 0.2"

    @pytest.mark.parametrize("command", ["sums", "solve", "field", "sweep", "moduli"])
    @pytest.mark.parametrize("bad, reason", [
        (("alpha=1e308",), "2*alpha"),
        (("alphas=0.1,-9e307",), "2*alpha"),
        (("theta=1e308",), "2*theta"),
        (("sweep_theta=-1e308",), "2*theta"),
        (("sigma1=1e308", "sigma2=-1e308"), "sigma"),
        (("sigma1=1.7e308", "sigma2=1e308"), "sigma"),
        (("K=3",), "K must be >= 4, got 3"),
        (("K=129",), "K must be at most 128, got 129"),
    ])
    def test_overflowing_angle_or_load_refused_before_any_sum(
        self, tmp_path, capsys, monkeypatch, command, bad, reason
    ):
        # refused where the config is read, for every command, whatever it uses
        def unreached(*args, **kwargs):
            raise AssertionError("lattice sums were computed for a refused config")

        monkeypatch.setattr(cli, "compute_lattice_sums", unreached)
        code, out = run(tmp_path, command, "a=1", "direction=bond_to_effective", "nu=0.3", *bad)
        assert code == 2
        assert reason in capsys.readouterr().err
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("args, key", [
        (("field", "nu=1.0"), "nu"),
        (("moduli", "direction=effective_to_bond", "nu_eff=1.0"), "nu_eff"),
        (("sums", "nu=5"), "nu"),
    ])
    def test_poisson_ratio_refused_before_any_sum(self, tmp_path, capsys, monkeypatch, args, key):
        # homogenize's bound (-1, 1), applied where the config is read, for every command
        def unreached(*args, **kwargs):
            raise AssertionError("lattice sums were computed for a refused config")

        monkeypatch.setattr(cli, "compute_lattice_sums", unreached)
        code, out = run(tmp_path, args[0], "a=1", *args[1:])
        assert code == 2
        assert f"Poisson ratio {key} = " in capsys.readouterr().err
        assert not (out / "check.json").exists()

    def test_ring_count_capped(self, tmp_path):
        # the index grid of 10^7 rings would need petabytes
        code, out = run(tmp_path, "sums", "a=1", "shells=10000000")
        assert code == 2
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("args", [
        ("sums", "s_max=10000000000000"),
        ("solve", "K=10000000000000"),
        ("field", "n_r=10000000000000"),
        ("sweep", "n_alpha=10000000000000"),
        ("moduli", "direction=bond_to_effective", "nu=0.3", "n_lambda=10000000000000"),
        ("sums", "s_max=257"),
        ("solve", "K=255"),
        ("solve", "K=129"),
    ])
    def test_size_keys_capped(self, tmp_path, capsys, args):
        # 10^13 would ask numpy for terabytes; the message names the key set
        # (for K, not the lattice-sum order 2K derived from it)
        code, out = run(tmp_path, args[0], "a=1", *args[1:])
        assert code == 2
        key = args[-1].split("=")[0]
        err = capsys.readouterr().err
        assert f" {key} must" in err and err.count(" must") == 1
        assert not (out / "check.json").exists()

    def test_unrepresentable_rim_powers_rejected(self, tmp_path, capsys):
        # the rim arbiter scales by (lambda/a)^(-2K) = 0.01^(-200), beyond the largest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "solve", "a=1", "K=100", "lambda_ratio=0.01")
        assert code == 2
        err = capsys.readouterr().err
        assert "K = 100" in err and "lambda = 0.01" in err
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("args", [("K=77", "lambda_ratio=0.01"), ("K=128", "lambda_ratio=0.45")])
    def test_representable_rim_powers_solve(self, tmp_path, args):
        # 0.01^(-154) = 1e308 is still a finite double; 0.45^(-256) is far from the limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "solve", "a=1", *args)
        assert code == 0
        assert _strict_json(out / "check.json")["status"] == "ok"


def _strict_json(path):
    """Parse a JSON artifact, refusing the non-standard NaN/Infinity."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def _numbers(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _numbers(v)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


_SPECIAL = ("nan", "inf", "-inf")
# (key, low, high) of the float keys a run may set
_FLOAT_KEYS = (
    ("sigma1", -10, 10),
    ("sigma2", -10, 10),
    ("alpha", -4, 4),
    ("lambda_ratio", 0.01, 0.6),
    ("theta", -7, 7),
)
_INT_KEYS = (("K", 4, 20), ("shells", 2, 64), ("s_max", 3, 40), ("n_r", 2, 4))


@st.composite
def _runs(draw):
    """One command line: a log-uniform (or typical) lattice constant, some
    in-range keys, and at most one key set to a non-finite value or an
    empty list."""
    command = draw(st.sampled_from(["sums", "solve", "field"]))
    a = draw(st.one_of(st.floats(-30, 30).map(lambda e: 10.0**e), st.sampled_from([1.0, 246.0])))
    args = [command, f"a={a!r}"]
    for key, lo, hi in _FLOAT_KEYS:
        if draw(st.booleans()):
            args.append(f"{key}={draw(st.floats(lo, hi))!r}")
    for key, lo, hi in _INT_KEYS:
        if draw(st.booleans()):
            args.append(f"{key}={draw(st.integers(lo, hi))}")
    if draw(st.booleans()):
        alphas = draw(st.lists(st.floats(-4, 4), min_size=1, max_size=2))
        args.append("alphas=" + ",".join(map(repr, alphas)))
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(["a", *(k for k, _, _ in _FLOAT_KEYS), "alphas"]))
        args.append(f"{key}={draw(st.sampled_from(_SPECIAL + ('',)))}")
    return args


class TestExitContract:
    @given(_runs())
    @example(["sums", "a=1.0", "alpha=nan"])
    @example(["sums", "a=5.4e-52", "s_max=3"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_documented_exit_and_finite_ok_documents(self, args):
        # every run exits with a documented code; an "ok" run's documents
        # are strict JSON holding finite numbers only
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = main([*args, "--out", str(out)])
            assert code in (0, 2, 3, 4)
            check = out / "check.json"
            if code == 0 or check.exists():
                doc = _strict_json(check)
                assert (doc["status"] == "ok") == (code == 0)
            if code == 0:
                assert all(math.isfinite(x) for x in _numbers(doc))
                if args[0] == "solve":
                    assert all(math.isfinite(x) for x in _numbers(_strict_json(out / "coeffs.json")))
                for csv in out.glob("*.csv"):
                    assert np.isfinite(read_csv(csv)[1]).all(), csv.name


@st.composite
def _sweep_moduli_runs(draw):
    """One sweep, or moduli in either direction: a log-uniform lattice
    constant across the a^(+-6) bound, loads up to 1e308, angles up to
    1e300, holes up to 0.4999 a and K up to its cap 128 (TestConfig covers
    the refusal above it).  The sample count (at most 4) and the Poisson
    ratio are always set, each other key or not."""
    mode = draw(st.sampled_from(["sweep", "bond_to_effective", "effective_to_bond"]))
    args = [mode] if mode == "sweep" else ["moduli", f"direction={mode}"]
    args.append(f"a={10.0 ** draw(st.floats(-60, 60))!r}")
    keys = [("sigma1", st.floats(-1e308, 1e308)), ("sigma2", st.floats(-1e308, 1e308)),
            ("alpha", st.floats(-1e300, 1e300)), ("K", st.integers(4, 128)),
            ("shells", st.integers(2, 64))]
    if mode == "sweep":
        keys += [("sweep_theta", st.floats(-1e300, 1e300)), ("lambda_ratio", st.floats(0.01, 0.4999)),
                 ("r_factors", st.floats(1.0, 1.5)), ("n_alpha", st.integers(2, 4))]
    else:
        keys += [("nu" if mode == "bond_to_effective" else "nu_eff", st.floats(-0.99, 0.99)),
                 ("lam_ratio_min", st.floats(0.01, 0.4999)), ("lam_ratio_max", st.floats(0.01, 0.4999)),
                 ("n_lambda", st.integers(2, 4))]
    for key, values in keys:
        if draw(st.booleans()) or key in ("n_alpha", "n_lambda", "nu", "nu_eff"):
            args.append(f"{key}={draw(values)!r}")
    return args


class TestSweepModuliExitContract:
    @given(_sweep_moduli_runs())
    # either side of the a^(+-6) bound, a = 5.3e-52 ... 1.9e51
    @example(["sweep", "a=5.4e-52", "n_alpha=2"])
    @example(["sweep", "a=1.9e51", "n_alpha=2"])
    @example(["moduli", "direction=bond_to_effective", "a=1.88e51", "nu=0.3", "n_lambda=2"])
    @example(["moduli", "direction=effective_to_bond", "a=5.2e-52", "nu_eff=0.3", "n_lambda=2"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_documented_exit_and_finite_ok_artifacts(self, args):
        # as TestExitContract, for the commands that solve a load or a hole
        # radius per row: an exit-2 run writes no report
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = main([*args, "--out", str(out)])
            assert code in (0, 2, 3, 4)
            check = out / "check.json"
            assert check.exists() == (code != 2)
            if code != 2:
                doc = _strict_json(check)
                assert (doc["status"] == "ok") == (code == 0)
            if code == 0:
                assert all(math.isfinite(x) for x in _numbers(doc))
                for csv in out.glob("*.csv"):
                    assert np.isfinite(read_csv(csv)[1]).all(), csv.name


class _Unstated(errors.HexlatError):
    """A new error class that states no exit code of its own."""


# (error, exit code, stderr word, the report's number key and value)
_EXITS = [
    (errors.ConfigurationError("cause"), 2, "configuration error", None),
    (errors.InvalidArgumentError("cause"), 2, "configuration error", None),
    (errors.DomainError("cause"), 2, "configuration error", None),
    (errors.PoleError("cause"), 2, "configuration error", None),
    (_Unstated("cause"), 2, "configuration error", None),
    (errors.PrecisionError("cause", tail=1.5e-3), 3, "precision failure", ("tail", 1.5e-3)),
    (errors.NumericalError("cause", condition=float("nan")), 3, "precision failure",
     ("condition", None)),
    (errors.ConsistencyError("cause", residual=2.5), 4, "consistency failure", ("residual", 2.5)),
]


class TestExitPath:
    """`main` turns every outcome into an exit code, and writes check.json
    for an ok run or a precision/consistency failure only."""

    @pytest.mark.parametrize("case", ["out_is_file", "out_under_file", "artifact_is_dir",
                                      "config_not_utf8"])
    def test_unusable_path_exits_2(self, tmp_path, capsys, case):
        # each of these ended in a traceback with exit 1
        (tmp_path / "F").write_text("")
        (tmp_path / "D" / "sums.csv").mkdir(parents=True)
        (tmp_path / "C").write_bytes(b"a = 1\n\xff\n")
        args = {
            "out_is_file": ["--out", str(tmp_path / "F")],
            "out_under_file": ["--out", str(tmp_path / "F" / "sub")],
            "artifact_is_dir": ["--out", str(tmp_path / "D")],
            "config_not_utf8": ["--config", str(tmp_path / "C"), "--out", str(tmp_path / "out")],
        }[case]
        assert main(["sums", *args]) == 2
        assert capsys.readouterr().err.startswith("hexlat: configuration error: ")
        assert not list(tmp_path.rglob("check.json"))

    @pytest.mark.parametrize("error, code, word, number", _EXITS,
                             ids=[type(error).__name__ for error, *_ in _EXITS])
    def test_each_error_class_states_its_exit(self, tmp_path, capsys, monkeypatch, error, code,
                                              word, number):
        args = ("solve", "a=1", "K=8")
        ok, ok_out = run(tmp_path / "ok", *args)
        assert ok == 0
        config = _strict_json(ok_out / "check.json")["config"]

        def failing(cfg, out):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "solve", failing)
        got, out = run(tmp_path, *args)
        assert got == code
        assert capsys.readouterr().err == f"hexlat: {word}: cause\n"
        if code == 2:
            assert not (out / "check.json").exists()
        else:
            key, value = number
            assert _strict_json(out / "check.json") == {
                "schema": "hexlat-check/1", "version": __version__, "command": "solve",
                "config": config, "status": word.replace(" ", "-"), "message": "cause",
                key: value,
            }

    def test_no_earlier_report_survives_a_failed_run(self, tmp_path):
        ok_args = ("solve", "a=1", "K=8")
        assert run(tmp_path, *ok_args)[0] == 0
        code, out = run(tmp_path, "solve", "K=often")  # fails before any lattice sum
        assert code == 2
        assert not (out / "check.json").exists()
        assert run(tmp_path, *ok_args)[0] == 0
        code, out = run(tmp_path, "solve", "a=1", "lambda_ratio=0.45", "K=4")
        assert code == 4
        doc = _strict_json(out / "check.json")
        assert doc["status"] == "consistency-failure"
        assert doc["config"]["lambda_ratio"] == 0.45 and doc["config"]["K"] == 4

    @pytest.mark.parametrize("command, artifacts", [("solve", ["coeffs.json"]),
                                                    ("field", ["field.csv", "fig2.svg"])])
    def test_no_earlier_artifact_survives_a_failed_run(self, tmp_path, command, artifacts):
        code, out = run(tmp_path, command, "a=1", "n_r=3")
        assert code == 0
        assert all((out / name).is_file() for name in artifacts)
        code, out = run(tmp_path, command, "a=1", "lambda_ratio=0.45", "K=4", "n_r=3")
        assert code == 4
        assert sorted(p.name for p in out.iterdir()) == ["check.json"]

    def test_unwritable_failure_report_still_exits_3(self, tmp_path, capsys):
        # shells=2 fails the lattice sums' tail monitor; check.json names a directory
        out = tmp_path / "out"
        (out / "check.json").mkdir(parents=True)
        assert main(["solve", "shells=2", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("hexlat: precision failure: ")
        assert [p.name for p in out.iterdir()] == ["check.json"]
        assert not list((out / "check.json").iterdir())


def _fresh_python(*args):
    """Run `python args` in a new interpreter that imports this hexlat."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestProcessExit:
    """`hexlat.cli` freezes the collector when the process exits, and only then."""

    @pytest.mark.parametrize("module, frozen", [("hexlat.cli", True), ("hexlat", False)])
    def test_heap_frozen_at_exit_by_the_cli_only(self, module, frozen):
        # atexit runs its hooks last in, first out: a probe registered before
        # the import runs after every hook that the import registers
        probe = ("import atexit, gc\n"
                 "atexit.register(lambda: print(gc.get_freeze_count()))\n"
                 f"import {module}\n")
        proc = _fresh_python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert (int(proc.stdout) > 0) == frozen

    @pytest.mark.parametrize("args", [
        ("field", "a=1", "n_r=5", "alphas=0,0.3"),
        ("moduli", "direction=bond_to_effective", "nu=0.3", "n_lambda=4"),
    ])
    def test_fresh_process_writes_the_in_process_artifacts(self, tmp_path, capsys, args):
        proc = _fresh_python("-m", "hexlat.cli", *args, "--out", str(tmp_path / "fresh"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        code, out = run(tmp_path, *args)
        assert code == 0 and capsys.readouterr() == ("", "")
        assert gc.get_freeze_count() == 0  # main itself freezes nothing
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "fresh").iterdir())
        for name in names:
            assert (tmp_path / "fresh" / name).read_bytes() == (out / name).read_bytes(), name


class TestCsv:
    def test_rows_are_the_g17_join(self, tmp_path):
        # one %-format per row gives the bytes of a ".17g" join of each value
        values = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
                  1.0, -3.0, 2.0**53, 1e16, 1e17, 123456789012345680.0, 1 / 3, np.pi,
                  2.2250738585072014e-308, -1e-300]
        rows = [values[i : i + 4] for i in range(0, len(values), 4)]
        rows += [np.array(row) for row in rows]  # numpy rows, as field.csv writes
        path = tmp_path / "t.csv"
        cli._write_csv(path, ["w", "x", "y", "z"], rows)
        want = ["w,x,y,z"] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()


class TestSums:
    def test_artifacts_and_checks(self, tmp_path):
        code, out = run(tmp_path, "sums", "a=1")
        assert code == 0
        header, rows = read_csv(out / "sums.csv")
        assert header == ["s", "c_s", "d_s"]
        doc = json.loads((out / "check.json").read_text())
        assert doc["schema"] == "hexlat-check/1"
        assert doc["status"] == "ok"
        assert doc["checks"]["legendre_residual"] < 1e-10
        assert doc["checks"]["c_zero_pattern"] < 1e-12
        assert doc["checks"]["d_zero_pattern"] < 1e-12

    def test_scaling_law(self, tmp_path):
        _, out_a = run(tmp_path / "a", "sums", "a=2", "s_max=9", "shells=16")
        _, out_b = run(tmp_path / "b", "sums", "a=246", "s_max=9", "shells=16")
        _, ra = read_csv(out_a / "sums.csv")
        _, rb = read_csv(out_b / "sums.csv")
        c3a = ra[ra[:, 0] == 3, 1][0]
        c3b = rb[rb[:, 0] == 3, 1][0]
        assert c3a / c3b == pytest.approx(123.0**6, rel=1e-10)

    def test_starved_run_exits_3_with_tail(self, tmp_path):
        code, out = run(tmp_path, "sums", "a=1", "s_max=3", "shells=4")
        assert code == 3
        doc = json.loads((out / "check.json").read_text())
        assert doc["status"] == "precision-failure"
        assert doc["tail"] > 0

    def test_determinism(self, tmp_path):
        _, out_a = run(tmp_path / "a", "sums", "a=1")
        _, out_b = run(tmp_path / "b", "sums", "a=1")
        assert (out_a / "sums.csv").read_bytes() == (out_b / "sums.csv").read_bytes()
        assert (out_a / "check.json").read_bytes() == (out_b / "check.json").read_bytes()


class TestSolve:
    def test_coeffs_json(self, tmp_path):
        code, out = run(tmp_path, "solve", "a=1", "lambda_ratio=0.2")
        assert code == 0
        doc = json.loads((out / "coeffs.json").read_text())
        assert doc["schema"] == "hexlat-coeffs/1"
        assert len(doc["alpha_k"]) == doc["K"]
        assert len(doc["beta_k"]) == doc["K"] + 1
        check = json.loads((out / "check.json").read_text())
        assert check["checks"]["boundary_residual"] < 1e-10


    def test_high_porosity_at_default_lattice_constant(self, tmp_path):
        code, out = run(tmp_path, "solve", "a=246", "lambda_ratio=0.45", "K=38")
        assert code == 0
        assert json.loads((out / "check.json").read_text())["status"] == "ok"

    @pytest.mark.parametrize("args", [
        # lambda^(-120) overflowed while the rim powers were in physical units
        ("a=0.01", "lambda_ratio=0.05", "K=60", "s_max=62"),
        # the physical series rows carried lambda^(2k) ~ 49^(2k) times the load
        ("a=246", "sigma1=1e280", "sigma2=-1e280"),
        # a^(+-2 s_max) over- or underflowed while the sums were formed eagerly
        ("a=1e-5",),
        ("a=1e5",),
        ("a=1e20",),
    ])
    def test_solution_does_not_depend_on_a(self, tmp_path, args):
        # the solve runs in cell units: the same problem at a = 1 gives the
        # same dimensionless coefficients
        docs = []
        for a in (args[0], "a=1"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out = run(tmp_path / a, "solve", a, *args[1:])
            assert code == 0
            assert _strict_json(out / "check.json")["status"] == "ok"
            doc = _strict_json(out / "coeffs.json")
            docs.append(np.array(doc["alpha_k"] + doc["beta_k"]))
        assert np.max(np.abs(docs[0] - docs[1])) <= 1e-13 * np.max(np.abs(docs[1]))

    def test_overflowing_sigma_minus_rejected(self, tmp_path):
        # sigma_- = (sigma1 - sigma2)/2 overflows: rejected like a non-finite load
        code, out = run(tmp_path, "solve", "sigma1=1e308", "sigma2=-1e308")
        assert code == 2
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("args", [
        ("a=1", "sigma1=1e308", "sigma2=0"),  # a series row overflows
    ])
    def test_overflowing_solution_fails(self, tmp_path, args):
        # exit 3, not 4 with a NaN residual; no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "solve", *args)
        assert code == 3
        assert _strict_json(out / "check.json")["status"] == "precision-failure"
        assert not (out / "coeffs.json").exists()

    def test_large_load_at_small_hole_solves(self, tmp_path):
        # the solution and its rim spectrum are finite doubles
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "solve", "sigma1=1e308", "sigma2=1e307", "lambda_ratio=0.01")
        assert code == 0
        doc = _strict_json(out / "check.json")
        assert doc["status"] == "ok"
        assert doc["checks"]["boundary_residual"] <= 1e-6 * 1e308
        assert all(math.isfinite(x) for x in _numbers(_strict_json(out / "coeffs.json")))

    def test_non_finite_residual_fails_with_valid_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fields, "boundary_residual", lambda *args, **kwargs: float("nan"))
        code, out = run(tmp_path, "solve", "a=1")
        assert code == 4

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads((out / "check.json").read_text(), parse_constant=reject)
        assert doc["status"] == "consistency-failure"
        assert doc["residual"] is None


_FIELD_STRESSES = ["sigma_r", "tau_rtheta", "sigma_theta", "sigma_x", "sigma_y", "tau_xy"]


class TestField:
    def test_curves_start_traction_free(self, tmp_path):
        code, out = run(tmp_path, "field", "a=1", "lambda_ratio=0.2", "n_r=20")
        assert code == 0
        header, rows = read_csv(out / "field.csv")
        i_r, i_sr, i_tau = header.index("r"), header.index("sigma_r"), header.index("tau_rtheta")
        rim = rows[np.isclose(rows[:, i_r], 0.2)]
        assert len(rim) == 3  # one per load angle
        assert np.max(np.abs(rim[:, [i_sr, i_tau]])) < 1e-10
        svg = (out / "fig2.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_nu_exclusivity(self, tmp_path):
        assert main(["field", "--out", str(tmp_path), "a=1", "nu=0.3", "nu_eff=0.3"]) == 2

    @pytest.mark.parametrize("args", [
        ("a=1e10",),
        ("a=2.46e-10",),  # graphene in metres
        ("a=246", "lambda_ratio=0.45", "K=38", "s_max=80"),  # c, d would need a^(+-160)
    ])
    def test_fields_do_not_depend_on_a(self, tmp_path, args):
        # a is a length unit: the stresses, r/a and 2G u/a equal their a = 1 values
        a = float(args[0].split("=")[1])
        cuts = []
        for scale, key in ((a, args[0]), (1.0, "a=1")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out = run(tmp_path / key, "field", key, *args[1:], "n_r=6")
            assert code == 0
            header, rows = read_csv(out / "field.csv")
            rows[:, [header.index(k) for k in ("r", "u2G", "v2G")]] /= scale
            cuts.append(rows)
        for cols in (["r"], _FIELD_STRESSES, ["u2G", "v2G"]):
            got, want = (cut[:, [header.index(k) for k in cols]] for cut in cuts)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), cols



class TestLatticeSumOrders:
    """The systems and the beta relation read c_s to s = 2K and d_s to
    2K-1: every command that solves forms the sums to at least 2K."""

    @pytest.mark.parametrize("command, args", [
        ("solve", ()),
        ("field", ("n_r=3",)),
        ("sweep", ("n_alpha=3",)),
        ("moduli", ("direction=bond_to_effective", "nu=0.3", "n_lambda=2")),
    ])
    def test_sums_reach_twice_K(self, tmp_path, monkeypatch, command, args):
        seen = []
        compute = cli.compute_lattice_sums
        monkeypatch.setattr(cli, "compute_lattice_sums",
                            lambda spec, s_max, **kw: seen.append(s_max) or compute(spec, s_max, **kw))
        code, _ = run(tmp_path, command, "a=1", "K=24", "s_max=20", *args)
        assert code == 0
        assert seen == [48]

    def test_coefficients_do_not_depend_on_s_max_from_twice_K(self, tmp_path):
        # s_max = 20 is raised to 2K = 32; the solve reads nothing above it
        docs = []
        for s_max in (20, 32, 40, 64):
            code, out = run(tmp_path / str(s_max), "solve", "a=1", "K=16", f"s_max={s_max}")
            assert code == 0
            docs.append((out / "coeffs.json").read_text())
        assert len(set(docs)) == 1

    def test_high_porosity_field_matches_a_long_table_run(self, tmp_path):
        # K = 38 reads orders to 76: with the default s_max = 40 the orders
        # 41..76 were dropped, and the cut lay 2.8e-4 off in tau_rtheta
        cuts = []
        for extra in ((), ("s_max=200",)):
            code, out = run(tmp_path / str(len(extra)), "field", "a=1", "lambda_ratio=0.45",
                            "K=38", *extra)
            assert code == 0
            header, rows = read_csv(out / "field.csv")
            cuts.append(rows)
        assert np.array_equal(cuts[0][:, :3], cuts[1][:, :3])  # r, theta, alpha
        got, want = (cut[:, 3:] for cut in cuts)
        gap = np.max(np.abs(got - want), axis=0) / np.max(np.abs(want), axis=0)
        assert np.max(gap) <= 1e-8, dict(zip(header[3:], gap))


class TestSweep:
    def test_artifacts_and_periodicity(self, tmp_path):
        code, out = run(tmp_path, "sweep", "a=1", "lambda_ratio=0.2", "n_alpha=13")
        assert code == 0
        header, rows = read_csv(out / "field.csv")
        assert (out / "fig3.svg").is_file() and (out / "fig6.svg").is_file()
        # rows exist for all three radii at every angle
        i_r = header.index("r")
        assert len(set(np.round(rows[:, i_r], 12))) == 3

    def test_amplitude_grows_with_radius(self, tmp_path):
        code, out = run(tmp_path, "sweep", "a=1", "lambda_ratio=0.2", "n_alpha=25")
        assert code == 0
        header, rows = read_csv(out / "field.csv")
        i_r, i_tau = header.index("r"), header.index("tau_rtheta")
        amps = []
        for r in sorted(set(rows[:, i_r])):
            sel = rows[np.isclose(rows[:, i_r], r), i_tau]
            amps.append(sel.max() - sel.min())
        assert amps[0] < amps[1] < amps[2]

    def test_bad_radius_rejected(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path), "a=1", "r_factors=9.0"]) == 2


def _per_load_cut(args, rows):
    """Oracle for field.csv: every load solved and arbitrated on its own,
    without the unit-load basis, each point evaluated with that load's
    coefficients.  Returns (rows, worst residual, condition) for the
    (r, theta, alpha) of the given rows."""
    cfg = load_config(None, list(args))
    spec, lam = cli._resolve_geometry(cfg)
    K = cfg["K"]
    sums = lattice.compute_lattice_sums(spec, s_max=max(cfg["s_max"], 2 * K), shells=cfg["shells"])
    tables = solver.series_tables(sums, lam, K)
    nu = 0.2668 if cfg["nu"] is None else cfg["nu"]
    out, worst, cond = [], 0.0, 0.0
    cache = {}
    for r, theta, ang in rows[:, :3]:
        if ang not in cache:
            load = solver.LoadCase(cfg["sigma1"], cfg["sigma2"], ang)
            prob = solver.ProblemSpec(spec, lam, load, K)
            coeffs = _per_load_oracle(prob, tables)
            cache[ang] = prob, coeffs
            worst = max(worst, solver.gate_residual(fields.boundary_residual(prob, coeffs, tables), load))
            cond = max(cond, coeffs.condition)
        prob, coeffs = cache[ang]
        f = fields.total_stress(r, theta, prob, coeffs, tables)
        u, v = fields.total_displacement(f.z, prob, coeffs, tables, nu)
        out.append([r, theta, ang, f.sigma_r, f.tau_rtheta, f.sigma_theta,
                    f.sigma_x, f.sigma_y, f.tau_xy, u, v])
    return np.array(out), worst, cond


class TestCut:
    """`field` and `sweep` solve each load with `solve_coefficients` on one
    unit-load basis per run."""

    @pytest.mark.parametrize("args", [
        ("field", "alphas=0.1"),
        ("sweep", "n_alpha=13"),
        ("field", "a=1", "alphas=0,0.3,1.1,2.9,0.7853981633974483", "n_r=6"),
    ])
    def test_three_solves(self, tmp_path, monkeypatch, args):
        # one basis per run, whatever alphas/n_alpha holds, and one gated
        # solve_coefficients per load on it
        built, solved = [], []
        basis = solver.SeriesTables.basis
        counting = functools.cached_property(lambda tables: built.append(tables) or basis.func(tables))
        counting.__set_name__(solver.SeriesTables, "basis")
        monkeypatch.setattr(solver.SeriesTables, "basis", counting)
        solve = cli.solve_coefficients
        monkeypatch.setattr(cli, "solve_coefficients", lambda *a: solved.append(a) or solve(*a))
        code, _ = run(tmp_path, *args)
        assert code == 0
        cfg = load_config(None, list(args[1:]))
        loads = len(cfg["alphas"].split(",")) if args[0] == "field" else cfg["n_alpha"]
        assert len(built) == 1 and len(solved) == loads
        assert all(tables is built[0] for _, tables in solved)

    @pytest.mark.parametrize("args", [
        ("field", "a=1", "alphas=0,0.3,1.1,2.9,-0.4", "n_r=6"),
        ("field", "a=246", "m=3", "n=1", "alphas=0.3,2", "n_r=5", "nu=0.31"),
        ("sweep", "a=246", "lambda_ratio=0.3", "n_alpha=7", "sigma1=-1.5", "sigma2=0.5"),
        ("sweep", "a=1", "alpha=0.4", "r_factors=1,1.3", "n_alpha=5", "sigma1=0.5", "sigma2=4"),
        # the default (2, 1) loads pass their 2e-6 gate with 8.8e-7 here,
        # while the sigma_- unit loads alone reach 1.8e-6
        ("field", "a=1", "lambda_ratio=0.4"),
        ("sweep", "a=1", "lambda_ratio=0.4", "r_factors=1,1.2"),
    ])
    def test_matches_per_load_solution(self, tmp_path, args):
        code, out = run(tmp_path, *args)
        assert code == 0
        header, rows = read_csv(out / "field.csv")
        assert header == cli._FIELD_HEADER
        want, worst, cond = _per_load_cut(args[1:], rows)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(rows - want) <= 1e-13 * scale)
        checks = json.loads((out / "check.json").read_text())["checks"]
        cfg = load_config(None, list(args[1:]))
        load = max(abs(cfg["sigma1"]), abs(cfg["sigma2"]))
        assert abs(checks["boundary_residual"] - worst) <= 1e-14 * load
        assert checks["condition"] == pytest.approx(cond, rel=1e-12)
        assert checks["n_points"] == len(rows)

    @pytest.mark.parametrize("command", ["field", "sweep"])
    def test_nan_rim_defect_fails_closed(self, tmp_path, monkeypatch, command):
        # the name fields.boundary_residual reads
        monkeypatch.setattr(fields, "rim_spectrum", lambda *args: np.full(81, complex("nan")))
        code, out = run(tmp_path, command, "a=1", "n_alpha=3", "n_r=3")
        assert code == 4
        doc = _strict_json(out / "check.json")
        assert doc["status"] == "consistency-failure"
        assert doc["residual"] is None
        assert not (out / "field.csv").exists()

    @pytest.mark.parametrize("command", ["field", "sweep"])
    @pytest.mark.parametrize("K", [-1, 0, 3])
    def test_truncation_below_four_rejected(self, tmp_path, capsys, command, K):
        # refused where the config is read, before any lattice sum
        code, out = run(tmp_path, command, "a=1", "n_alpha=3", "n_r=3", f"K={K}")
        assert code == 2
        assert f"K must be >= 4, got {K}" in capsys.readouterr().err
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("command", ["field", "sweep"])
    def test_overflowing_values_fail(self, tmp_path, command):
        # 2G u at the default a = 246 overflows for this load; nothing is
        # written but the failure report, and no RuntimeWarning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, command, "sigma1=1e307", "sigma2=1e307", "n_alpha=3", "n_r=3")
        assert code == 3
        doc = _strict_json(out / "check.json")
        assert doc["status"] == "precision-failure" and "overflows" in doc["message"]
        assert not (out / "field.csv").exists()

    @pytest.mark.parametrize("command", ["field", "sweep"])
    def test_overflowing_field_values_fail(self, tmp_path, command):
        # the loads solve to finite coefficients, as `solve` shows, but
        # 2G u ~ load * a overflows at a = 1e7: only _cut's own check sees it
        args = ("a=1e7", "s_max=18", "sigma1=1e302", "sigma2=1e302", "n_alpha=3", "n_r=3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path / "solve", "solve", *args)[0] == 0
            code, out = run(tmp_path, command, *args)
        assert code == 3
        doc = _strict_json(out / "check.json")
        assert doc["status"] == "precision-failure"
        assert doc["message"] == "a field value of the loads overflows: it is not a finite double"
        assert sorted(p.name for p in out.iterdir()) == ["check.json"]

    @pytest.mark.parametrize("command, args", [
        ("solve", ()), ("field", ()), ("sweep", ("r_factors=1,1.1", "n_alpha=3")),
    ], ids=["solve", "field", "sweep"])
    def test_overflowing_solution_fails_as_solve_does(self, tmp_path, capsys, command, args):
        # the load's own coefficients overflow: every command exits 3 with
        # solve's message, before any rim gate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, command, "a=1", "lambda_ratio=0.45", "K=4", "sigma1=1e306",
                            "sigma2=0", "n_r=3", *args)
        assert code == 3
        assert "overflows a double" in capsys.readouterr().err
        doc = _strict_json(out / "check.json")
        assert doc["status"] == "precision-failure" and "overflows a double" in doc["message"]
        assert sorted(p.name for p in out.iterdir()) == ["check.json"]

    @pytest.mark.parametrize("command", ["field", "sweep"])
    def test_nu_eff_rejected(self, tmp_path, capsys, command):
        # the displacements use the bond ratio; nu_eff was silently ignored
        code, out = run(tmp_path, command, "a=1", "n_r=5", "nu_eff=0.45")
        assert code == 2
        assert "nu," in capsys.readouterr().err
        assert not (out / "check.json").exists()


class TestModuli:
    def test_effective_to_bond_trends(self, tmp_path):
        code, out = run(
            tmp_path, "moduli", "a=1", "direction=effective_to_bond", "nu_eff=0.3",
            "n_lambda=10",
        )
        assert code == 0
        header, rows = read_csv(out / "moduli.csv")
        iE, inu = header.index("E"), header.index("nu")
        assert np.all(np.diff(rows[:, iE]) > 0)
        assert np.all(np.diff(rows[:, inu]) < 0)
        assert (out / "fig4.svg").is_file()
        doc = json.loads((out / "check.json").read_text())
        assert doc["checks"]["round_trip_error"] < 1e-8
        assert doc["checks"]["isotropy_worst"] < 1e-8

    def test_bond_to_effective_trends(self, tmp_path):
        code, out = run(
            tmp_path, "moduli", "a=1", "direction=bond_to_effective", "nu=0.2668",
            "n_lambda=10",
        )
        assert code == 0
        header, rows = read_csv(out / "moduli.csv")
        iEe, inue = header.index("E_eff"), header.index("nu_eff")
        assert np.all(np.diff(rows[:, iEe]) < 0)
        assert np.all(np.diff(rows[:, inue]) > 0)
        assert (out / "fig5.svg").is_file()

    def test_direction_validation(self, tmp_path):
        assert main(["moduli", "--out", str(tmp_path), "a=1"]) == 2
        assert main(["moduli", "--out", str(tmp_path), "a=1",
                     "direction=effective_to_bond", "nu=0.3"]) == 2
        assert main(["moduli", "--out", str(tmp_path), "a=1",
                     "direction=bond_to_effective", "nu_eff=0.3"]) == 2

    @pytest.mark.parametrize("bounds", [("0.3", "0.1"), ("0.1", "0.1"), ("0.1", "0.6")])
    def test_lambda_range_must_ascend_inside_the_cell(self, tmp_path, capsys, bounds):
        # a reversed range wrote descending rows, equal bounds repeated one
        # row, and a range past a/2 failed the arbiter (exit 4) at a radius
        # before the first one that does not fit
        code, out = run(tmp_path, "moduli", "a=1", "direction=bond_to_effective", "nu=0.3",
                        f"lam_ratio_min={bounds[0]}", f"lam_ratio_max={bounds[1]}")
        assert code == 2
        err = capsys.readouterr().err
        assert "lam_ratio_min" in err and "lam_ratio_max" in err
        assert not (out / "moduli.csv").exists()

    def test_unreachable_nu_eff_blames_nu_eff(self, tmp_path, capsys):
        # near lambda = 0.45a no bond ratio in (-1, 1) gives nu_eff = 0.45; the
        # message names the key the run set, not the bond nu it never set
        code, out = run(
            tmp_path, "moduli", "a=1", "direction=effective_to_bond", "nu_eff=0.45",
            "lam_ratio_max=0.45", "K=38",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "nu_eff = 0.45 is unreachable" in err
        assert "Poisson ratio nu =" not in err
        assert not (out / "check.json").exists()

    def test_one_cell_table_build_serves_every_radius(self, tmp_path, monkeypatch):
        # the lambda-free tables belong to the lattice sums; every hole
        # radius of the sweep scales the same pair
        built = []
        tables = lattice.LatticeSums.cell_tables
        counting = functools.cached_property(lambda sums: built.append(sums) or tables.func(sums))
        counting.__set_name__(lattice.LatticeSums, "cell_tables")
        monkeypatch.setattr(lattice.LatticeSums, "cell_tables", counting)
        code, _ = run(tmp_path, "moduli", "a=1", "direction=bond_to_effective", "nu=0.3",
                      "n_lambda=5")
        assert code == 0
        assert len(built) == 1

    def test_dilute_row_is_identity(self, tmp_path):
        code, out = run(
            tmp_path, "moduli", "a=1", "direction=effective_to_bond", "nu_eff=0.3",
            "n_lambda=3", "lam_ratio_min=0.001", "lam_ratio_max=0.02",
        )
        assert code == 0
        header, rows = read_csv(out / "moduli.csv")
        iE, inu = header.index("E"), header.index("nu")
        assert rows[0, iE] == pytest.approx(1.0, abs=1e-4)
        assert rows[0, inu] == pytest.approx(0.3, abs=1e-4)

    def test_bond_ratio_feeds_field_and_sweep(self, tmp_path):
        # the paper's chain: the bond ratio that moduli recovers at a large hole
        # (0.58368 at lambda = 0.3a, above the three-dimensional 0.5) is one
        # that field and sweep take; the bound (-1, 1) still holds for both
        code, out = run(tmp_path / "moduli", "moduli", "a=1", "direction=effective_to_bond",
                        "nu_eff=0.45", "lam_ratio_max=0.3", "n_lambda=4")
        assert code == 0
        header, rows = read_csv(out / "moduli.csv")
        nu = float(rows[:, header.index("nu")].max())
        assert nu == pytest.approx(0.58368, abs=1e-5)
        for args in (("field", "n_r=4"), ("sweep", "n_alpha=3")):
            code, out = run(tmp_path / args[0], args[0], "a=1", "lambda_ratio=0.3", f"nu={nu!r}",
                            args[1])
            assert code == 0
            assert np.isfinite(read_csv(out / "field.csv")[1]).all()
        for bad in ("nu=1.0", "nu=-1.0"):
            code, out = run(tmp_path / bad, "field", "a=1", bad)
            assert code == 2
            assert not (out / "check.json").exists()


def test_one_version_number():
    # check.json writes hexlat.__version__; the package metadata reads the same attribute
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in doc["project"] and "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hexlat.__version__"}
