"""CLI: artifacts, exit codes, determinism, and figure-level trends."""

import functools
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexlat import cli, fields, lattice, solver
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
        ("solve", "a=1e-5"),
        ("solve", "a=1e20"),
        ("field", "a=1e10"),
        ("solve", "a=1e150"),
        ("solve", "a=1e5"),
    ])
    def test_unrepresentable_lattice_constant(self, tmp_path, args):
        # the a^(-2s) rescaling of the lattice sums over- or underflows
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
    ])
    def test_size_keys_capped(self, tmp_path, capsys, args):
        # 10^13 would ask numpy for terabytes; the message names the key set
        # (for K, not the lattice-sum order K + 2 derived from it)
        code, out = run(tmp_path, args[0], "a=1", *args[1:])
        assert code == 2
        key = args[-1].split("=")[0]
        err = capsys.readouterr().err
        assert f" {key} must" in err and err.count(" must") == 1
        assert not (out / "check.json").exists()

    def test_unrepresentable_rim_powers_rejected(self, tmp_path, capsys):
        # the rim arbiter forms lambda^(-2K) = 0.01^(-200), beyond the largest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "solve", "a=1", "K=100", "lambda_ratio=0.01")
        assert code == 2
        err = capsys.readouterr().err
        assert "K = 100" in err and "lambda = 0.01" in err
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("args", [("K=77", "lambda_ratio=0.01"), ("K=254", "lambda_ratio=0.45")])
    def test_representable_rim_powers_solve(self, tmp_path, args):
        # 0.01^(-154) = 1e308 is still a finite double; 0.45^(-508) is far from the limit
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

    def test_non_finite_residual_fails_with_valid_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fields, "boundary_residual", lambda *args, **kwargs: float("nan"))
        code, out = run(tmp_path, "solve", "a=1")
        assert code == 4

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads((out / "check.json").read_text(), parse_constant=reject)
        assert doc["status"] == "consistency-failure"
        assert doc["residual"] is None


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
    sums = lattice.compute_lattice_sums(spec, s_max=max(cfg["s_max"], K + 2), shells=cfg["shells"])
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
    """`field` and `sweep` superpose three unit-load solutions."""

    @pytest.mark.parametrize("args", [
        ("field", "alphas=0.1"),
        ("sweep", "n_alpha=13"),
        ("field", "a=1", "alphas=0,0.3,1.1,2.9,0.7853981633974483", "n_r=6"),
    ])
    def test_three_solves(self, tmp_path, monkeypatch, args):
        # the three unit-load solutions come from one basis per run, whatever
        # alphas/n_alpha holds, and no load is solved on its own
        built, solved = [], []
        basis = solver.SeriesTables.basis
        counting = functools.cached_property(lambda tables: built.append(tables) or basis.func(tables))
        counting.__set_name__(solver.SeriesTables, "basis")
        monkeypatch.setattr(solver.SeriesTables, "basis", counting)
        monkeypatch.setattr(cli, "solve_coefficients", lambda *a: solved.append(a))
        code, _ = run(tmp_path, *args)
        assert code == 0
        assert len(built) == 1 and solved == []

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
        monkeypatch.setattr(cli, "rim_defect", lambda *args: np.full(256, complex("nan")))
        code, out = run(tmp_path, command, "a=1", "n_alpha=3", "n_r=3")
        assert code == 4
        doc = _strict_json(out / "check.json")
        assert doc["status"] == "consistency-failure"
        assert doc["residual"] is None
        assert not (out / "field.csv").exists()

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
