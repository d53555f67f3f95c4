"""Batch front end: sums / solve / field / sweep / moduli commands.

Configuration is a flat key=value text file; positional key=value
arguments override file entries.  Every run writes its data artifact
(CSV/JSON) plus a machine-readable check.json carrying the residuals
and condition numbers, so a pipeline can gate on numerical health
without re-parsing the data files.

Exit codes: 0 ok, else the one that the error's class states (see
`errors`).  `main` alone turns an outcome into the exit code and writes
check.json: an ok run's, or a precision/consistency failure's report with
its config.  It first deletes an earlier run's check.json and every data
artifact the command can write, so none survives a failure.
An unusable config file, output directory or artifact exits 2.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, HexlatError, NumericalError
from .fields import CellGeometry, _check_theta, cell_boundary_radius, total_displacement, total_stress
from .homogenize import (_check_nu, bond_from_effective, effective_from_bond, homogenization_data,
                         isotropy_check)
from .lattice import build_lattice, compute_lattice_sums, lattice_from_alpha
from .solver import LoadCase, ProblemSpec, _check_truncation, series_tables, solve_coefficients
from .svg import Series, line_plot

__all__ = ["main"]
_CHECK_SCHEMA = "hexlat-check/1"

# At exit, skip CPython's final collections over every object numpy and hexlat made
# (~15 ms a process).  Artifacts are closed before then; cyclic garbage is not finalized.
atexit.register(gc.freeze)

# All recognized keys with defaults (None = no default, optional).
# Units: a and lambda in pm (or any single consistent length unit: a sets
# only the length scale, e.g. a=2.46e-10 in metres), angles in radians,
# stresses in any consistent unit, moduli relative.
_DEFAULTS = {
    "a": 246.0,  # lattice constant
    "lambda": None,  # hole radius (absolute); exclusive with lambda_ratio
    "lambda_ratio": None,  # hole radius / a (default 0.2 if neither given)
    "m": None,  # chiral index; exclusive with alpha
    "n": None,
    "alpha": None,  # chiral/load angle in radians; it (or m, n) sets only solve's load angle
    "sigma1": 2.0,  # remote principal stress along alpha
    "sigma2": 1.0,  # remote principal stress across
    "K": 16,  # series truncation
    "shells": 64,  # lattice-sum ring count
    "s_max": 40,  # highest lattice-sum order
    "nu": None,  # bond Poisson ratio
    "nu_eff": None,  # effective Poisson ratio
    "direction": None,  # moduli: bond_to_effective | effective_to_bond
    "theta": 0.0,  # field: polar angle of the radial cut
    "n_r": 60,  # field: radial sample count
    "sweep_theta": np.pi / 8,  # sweep: polar angle
    "n_alpha": 73,  # sweep: load-angle sample count over [0, pi]
    "r_factors": "1.0,1.25,1.5",  # sweep: radii as multiples of lambda
    "alphas": "0,0.39269908169872414,0.7853981633974483",  # field: load angles
    "lam_ratio_min": 0.02,  # moduli sweep
    "lam_ratio_max": 0.225,
    "n_lambda": 30,
}

_INT_KEYS = {"m", "n", "K", "shells", "s_max", "n_r", "n_alpha", "n_lambda"}
# Sample counts of the curves a run plots: a curve needs two points, and
# more than _MAX_SAMPLES only make longer files.
_COUNT_KEYS = ("n_r", "n_alpha", "n_lambda")
_MAX_SAMPLES = 10_000
_STR_KEYS = {"direction", "r_factors", "alphas"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _STR_KEYS:
        return raw
    try:
        value = int(raw) if key in _INT_KEYS else float(raw)
    except ValueError:
        raise ConfigurationError(f"key {key!r}: cannot parse value {raw!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"key {key!r}: value {raw!r} is not finite")
    return value


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Flat key=value file plus command-line overrides -> config dict."""
    cfg = dict(_DEFAULTS)
    entries = []
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not UTF-8 text: {exc}") from None
        for i, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{i}: expected key=value, got {line!r}")
            entries.append(tuple(line.split("=", 1)))
    for ov in overrides:
        if "=" not in ov:
            raise ConfigurationError(f"override {ov!r} is not key=value")
        entries.append(tuple(ov.split("=", 1)))
    for key, raw in entries:
        key = key.strip()
        if key not in cfg:
            raise ConfigurationError(f"unknown config key {key!r}")
        cfg[key] = _parse_value(key, raw)
    for key in _COUNT_KEYS:
        if not 2 <= cfg[key] <= _MAX_SAMPLES:
            raise ConfigurationError(f"{key} must lie in [2, {_MAX_SAMPLES}], got {cfg[key]}")
    # checked for every command, before any lattice sum is formed, by the rules of the
    # functions that take them; the config keeps (and check.json echoes) the list strings
    _check_truncation(cfg["K"])
    _float_list(cfg["r_factors"], "r_factors")
    for alpha in [cfg["alpha"] or 0.0, *_float_list(cfg["alphas"], "alphas")]:
        LoadCase(cfg["sigma1"], cfg["sigma2"], alpha)
    for key in ("theta", "sweep_theta"):
        _check_theta(cfg[key])
    for key in ("nu", "nu_eff"):
        if cfg[key] is not None:
            _check_nu(cfg[key], key)
    return cfg


def _resolve_geometry(cfg: dict):
    """Config -> (LatticeSpec, lam).  Validates exclusivity rules."""
    a = cfg["a"]
    if cfg["lambda"] is not None and cfg["lambda_ratio"] is not None:
        raise ConfigurationError("give lambda or lambda_ratio, not both")
    if cfg["lambda"] is not None:
        lam = cfg["lambda"]
    else:
        lam = (0.2 if cfg["lambda_ratio"] is None else cfg["lambda_ratio"]) * a
    has_mn = cfg["m"] is not None or cfg["n"] is not None
    if has_mn and cfg["alpha"] is not None:
        raise ConfigurationError("give chiral indices (m, n) or alpha, not both")
    if has_mn:
        if cfg["m"] is None or cfg["n"] is None:
            raise ConfigurationError("chiral indices need both m and n")
        spec = build_lattice(a, cfg["m"], cfg["n"])
    else:
        spec = lattice_from_alpha(a, cfg["alpha"] if cfg["alpha"] is not None else 0.0)
    return spec, lam


def _float_list(raw: str, key: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"key {key!r}: cannot parse list {raw!r}")
    if not values or not all(math.isfinite(v) for v in values):
        raise ConfigurationError(f"key {key!r}: need one or more finite values, got {raw!r}")
    return values


def _write_csv(path: Path, header: list[str], rows: list[list[float]]):
    row_format = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [row_format % tuple(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_check(out: Path, command: str, cfg: dict, **fields):
    """check.json: the run's identity and resolved config, plus `fields`
    (an ok run's status and checks, or a failure's status and cause)."""
    doc = {
        "schema": _CHECK_SCHEMA,
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items()) if v is not None},
        **fields,
    }
    (out / "check.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _sums_checks(sums) -> dict:
    """Numerical-health report for one lattice-sum set."""
    legendre = abs(
        sums.delta1 * sums.spec.omega2 - sums.delta2 * sums.spec.omega1 - 2j * np.pi
    ) / (2 * np.pi)
    s = np.arange(2, sums.s_max + 1)
    c, d = sums.c_cell, sums.d_cell  # cell units: the orders compare without a's powers
    c_zero = float(np.max(np.abs(c[s])[s % 3 != 0], initial=0.0)) / max(abs(c[3]), 1e-300)
    d_zero = float(np.max(np.abs(d[s])[s % 3 != 2], initial=0.0)) / max(abs(d[2]), 1e-300)
    return {
        "legendre_residual": float(legendre),
        "delta_imag": abs(float(np.imag(np.conj(sums.delta1) / sums.spec.omega1)))
        * sums.spec.a**2,
        "gamma1_abs": float(abs(sums.gamma1) * sums.spec.a),
        "gamma2_abs": float(abs(sums.gamma2) * sums.spec.a),
        "c_zero_pattern": c_zero,
        "d_zero_pattern": d_zero,
        "tail": float(sums.tail),
        "method": sums.method,
    }


def cmd_sums(cfg: dict, out: Path) -> dict:
    spec, _ = _resolve_geometry(cfg)
    sums = compute_lattice_sums(spec, s_max=cfg["s_max"], shells=cfg["shells"])
    rows = [[float(s), sums.c[s], sums.d[s]] for s in range(2, sums.s_max + 1)]
    _write_csv(out / "sums.csv", ["s", "c_s", "d_s"], rows)
    checks = _sums_checks(sums)
    checks.update(
        {
            "delta1_re": float(np.real(sums.delta1)),
            "delta1_im": float(np.imag(sums.delta1)),
            "delta": float(sums.delta),
            "g2": float(sums.g2),
            "g3": float(sums.g3),
        }
    )
    return checks


def _lattice_sums(cfg: dict, spec):
    """Lattice sums to s_max, and to the 2K the solve reads (`load_config` holds 2K to the cap)."""
    return compute_lattice_sums(spec, s_max=max(cfg["s_max"], 2 * cfg["K"]), shells=cfg["shells"])


def cmd_solve(cfg: dict, out: Path) -> dict:
    spec, lam = _resolve_geometry(cfg)
    sums = _lattice_sums(cfg, spec)
    tables = series_tables(sums, lam, cfg["K"])
    prob = ProblemSpec(spec, lam, LoadCase(cfg["sigma1"], cfg["sigma2"], spec.alpha), cfg["K"])
    coeffs = solve_coefficients(prob, tables)
    doc = {
        "schema": "hexlat-coeffs/1",
        "a": prob.spec.a,
        "lambda": prob.lam,
        "alpha": prob.load.alpha,
        "sigma1": prob.load.sigma1,
        "sigma2": prob.load.sigma2,
        "K": prob.K,
        "alpha0": [coeffs.alpha0.real, coeffs.alpha0.imag],
        "beta0": [coeffs.beta0.real, coeffs.beta0.imag],
        "alpha_k": [[v.real, v.imag] for v in coeffs.alpha],
        "beta_k": [[v.real, v.imag] for v in coeffs.beta],
    }
    (out / "coeffs.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return {
        "boundary_residual": coeffs.residual,
        "condition": coeffs.condition,
        "b": tables.b,
        "tail": float(sums.tail),
    }


_FIELD_HEADER = ["r", "theta", "alpha", "sigma_r", "tau_rtheta", "sigma_theta",
                 "sigma_x", "sigma_y", "tau_xy", "u2G", "v2G"]


def _cut(cfg: dict, out: Path, spec, lam: float, theta: float, radii, angles):
    """Write field.csv of the cut at theta: the radii, for every load angle.
    Returns the values[load, radius, column] written and their checks.

    Each load takes its coefficients from `solve_coefficients` on the
    run's one tables, as `solve` does: superposed on the shared unit-load
    basis and gated on the load's own whole-rim bound.
    """
    if cfg["nu_eff"] is not None:
        raise ConfigurationError("field displacements take the bond Poisson ratio nu, not nu_eff")
    nu = 0.2668 if cfg["nu"] is None else cfg["nu"]
    tables = series_tables(_lattice_sums(cfg, spec), lam, cfg["K"])
    rows, worst = [], 0.0
    for ang in angles:
        load = LoadCase(cfg["sigma1"], cfg["sigma2"], float(ang))
        prob = ProblemSpec(spec, lam, load, cfg["K"])
        coeffs = solve_coefficients(prob, tables)
        worst = max(worst, coeffs.residual)
        for r in radii:
            f = total_stress(r, theta, prob, coeffs, tables)
            rows.append([r, theta, ang, f.sigma_r, f.tau_rtheta, f.sigma_theta, f.sigma_x,
                         f.sigma_y, f.tau_xy, *total_displacement(f.z, prob, coeffs, tables, nu)])
    values = np.array(rows)
    if not np.isfinite(values).all():
        raise NumericalError("a field value of the loads overflows: it is not a finite double")
    _write_csv(out / "field.csv", _FIELD_HEADER, values)
    checks = {"boundary_residual": worst, "condition": coeffs.condition, "n_points": len(rows)}
    return values.reshape(len(angles), len(radii), -1), checks


def cmd_field(cfg: dict, out: Path) -> dict:
    spec, lam = _resolve_geometry(cfg)
    theta = cfg["theta"]
    alphas = _float_list(cfg["alphas"], "alphas")
    rr = np.linspace(lam, cell_boundary_radius(theta, spec.a), cfg["n_r"])
    values, checks = _cut(cfg, out, spec, lam, theta, rr, alphas)
    curves = []
    for ang, cut in zip(alphas, values):
        curves.append(Series(tuple(rr), tuple(cut[:, 3]), label=f"sigma_r, alpha={ang:.4g}"))
        curves.append(Series(tuple(rr), tuple(cut[:, 4]), label=f"tau, alpha={ang:.4g}"))
    (out / "fig2.svg").write_text(
        line_plot(curves, title="rim-to-boundary stresses", xlabel="r", ylabel="stress")
    )
    return checks


def cmd_sweep(cfg: dict, out: Path) -> dict:
    spec, lam = _resolve_geometry(cfg)
    theta = cfg["sweep_theta"]
    radii = [f * lam for f in _float_list(cfg["r_factors"], "r_factors")]
    cell = CellGeometry(spec.a, lam)
    for r in radii:
        if not cell.contains(r, theta):
            raise ConfigurationError(f"sweep radius {r:.6g} outside the cell cut "
                                     f"[{lam:.6g}, {cell.boundary_radius(theta):.6g}]")
    angles = np.linspace(0.0, np.pi, cfg["n_alpha"])
    values, checks = _cut(cfg, out, spec, lam, theta, radii, angles)
    stress_curves, disp_curves = [], []
    for r, sweep in zip(radii, values.transpose(1, 0, 2)):
        for curves, col, name in ((stress_curves, 3, "sigma_r"), (stress_curves, 4, "tau"),
                                  (disp_curves, 9, "2Gu"), (disp_curves, 10, "2Gv")):
            curves.append(Series(tuple(angles), tuple(sweep[:, col]), label=f"{name}, r={r:.4g}"))
    (out / "fig3.svg").write_text(
        line_plot(stress_curves, title="stresses vs load angle", xlabel="alpha", ylabel="stress")
    )
    (out / "fig6.svg").write_text(
        line_plot(disp_curves, title="displacements vs load angle", xlabel="alpha",
                  ylabel="2G displacement")
    )
    return checks


def cmd_moduli(cfg: dict, out: Path) -> dict:
    spec, _ = _resolve_geometry(cfg)
    # direction -> the conversion, its inverse, the Poisson key it takes and
    # the one it refuses, and its figure with the curves' labels and title;
    # built per call so that wrappers set on the module's names (perfbench's
    # tracer) see the conversions
    modes = {
        "bond_to_effective": (effective_from_bond, bond_from_effective, "nu", "nu_eff",
                              "fig5.svg", "E_eff / E", "effective moduli vs hole radius"),
        "effective_to_bond": (bond_from_effective, effective_from_bond, "nu_eff", "nu",
                              "fig4.svg", "E / E_eff", "bond moduli vs hole radius"),
    }
    direction = cfg["direction"]
    if direction not in modes:
        raise ConfigurationError(
            "moduli needs direction=bond_to_effective or direction=effective_to_bond"
        )
    convert, invert, given, other, fig, label, title = modes[direction]
    if cfg[given] is None:
        raise ConfigurationError(f"direction={direction} needs {given}")
    if cfg[other] is not None:
        raise ConfigurationError(f"direction={direction} takes {given}, not {other}")
    nu_in = cfg[given]
    lo, hi = cfg["lam_ratio_min"], cfg["lam_ratio_max"]
    # the rows ascend in lambda, each radius once, and every hole fits its cell
    if not 0 < lo < hi < 0.5:
        raise ConfigurationError(
            f"need 0 < lam_ratio_min < lam_ratio_max < 0.5, got lam_ratio_min = {lo}"
            f" and lam_ratio_max = {hi}"
        )
    sums = _lattice_sums(cfg, spec)
    lams = np.linspace(lo, hi, cfg["n_lambda"]) * spec.a
    rows, outs = [], []
    worst_rt = worst_iso = 0.0
    for lam in lams:
        data = homogenization_data(spec, float(lam), K=cfg["K"], sums=sums)
        pair = convert(1.0, nu_in, data)
        back = invert(*pair, data)
        worst_rt = max(worst_rt, abs(back[0] - 1.0), abs(back[1] - nu_in))
        outs.append(pair)
        bond, eff = ((1.0, nu_in), pair) if given == "nu" else (pair, (1.0, nu_in))
        rows.append([lam, *eff, *bond])
        rep = isotropy_check(data, E=1.0, nu=bond[1])
        worst_iso = max(worst_iso, rep.det_rel_err, rep.split_plus, rep.split_minus,
                        rep.closed_form_gap)
    _write_csv(out / "moduli.csv", ["lambda", "E_eff", "nu_eff", "E", "nu"], rows)
    curves = [
        Series(tuple(lams), tuple(E for E, _ in outs), label=label),
        Series(tuple(lams), tuple(nu for _, nu in outs), label=other),
    ]
    (out / fig).write_text(line_plot(curves, title=title, xlabel="lambda", ylabel="value"))
    return {"round_trip_error": worst_rt, "isotropy_worst": worst_iso, "n_rows": len(rows)}


_COMMANDS = {
    "sums": cmd_sums,
    "solve": cmd_solve,
    "field": cmd_field,
    "sweep": cmd_sweep,
    "moduli": cmd_moduli,
}
# The data artifacts each command can write, besides check.json
_ARTIFACTS = {"sums": ("sums.csv",), "solve": ("coeffs.json",), "field": ("field.csv", "fig2.svg"),
              "sweep": ("field.csv", "fig3.svg", "fig6.svg"),
              "moduli": ("moduli.csv", "fig4.svg", "fig5.svg")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hexlat",
        description="Doubly-periodic perforated-plane elasticity: series solution, "
        "fields, and moduli conversion.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default="out", help="output directory (created if missing)")
    parser.add_argument("overrides", nargs="*", help="key=value config overrides")
    try:
        args = parser.parse_intermixed_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = Path(args.out)
    try:
        for name in ("check.json", *_ARTIFACTS[args.command]):  # nothing of an earlier run survives
            if (out / name).is_file():
                (out / name).unlink()
        cfg = load_config(args.config, list(args.overrides))
        out.mkdir(parents=True, exist_ok=True)
        checks = _COMMANDS[args.command](cfg, out)
        _write_check(out, args.command, cfg, status="ok", checks=checks)
    except HexlatError as exc:
        failed = exc.exit_code != 2  # precision or consistency: the run is reported
        print(f"hexlat: {exc.kind} {'failure' if failed else 'error'}: {exc}", file=sys.stderr)
        if failed:
            # NaN and infinities are not JSON: report them as null
            numbers = {key: getattr(exc, key, None) for key in ("tail", "condition", "residual")}
            with contextlib.suppress(OSError):  # best effort: the exit code is the report
                _write_check(out, args.command, cfg, status=exc.kind + "-failure", message=str(exc),
                             **{k: float(v) if math.isfinite(v) else None
                                for k, v in numbers.items() if v is not None})
        return exc.exit_code
    except OSError as exc:  # the config file, output directory or an artifact path
        print(f"hexlat: configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
