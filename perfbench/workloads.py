"""The benchmark's workloads: seeded job inputs, one job, its checks.

Each workload draws every job input from its seed alone; the program
only ever sees those inputs.  `run` times one job and returns
(seconds, outputs); `check` returns the list of failed correctness
checks for that job (empty when the job is correct).  All three are
closed loops with one client: the next job starts when the previous
one and its checks have finished.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread per process, set before numpy loads; child processes
# inherit it through the environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
if not (SRC / "hexlat" / "__init__.py").is_file():
    raise ImportError(f"hexlat sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hexlat  # noqa: E402
from hexlat import fields, lattice, solver  # noqa: E402

if not Path(hexlat.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"hexlat was imported from {hexlat.__file__}, not from {SRC}")

CHILD = Path(__file__).resolve().parent / "cli_child.py"
SCRATCH = ROOT / ".perfbench_tmp"

# Geometry of the library workloads: the CLI defaults at a = 1.
A, LAM, K, SHELLS, S_MAX, NU = 1.0, 0.2, 16, 64, 40, 0.2668
OMEGA1 = A * math.sqrt(3) / 2 - 0.5j * A
OMEGA2 = OMEGA1.conjugate()

RESIDUAL_TOL = 1e-6  # arbiter residual, relative to the load scale
PERIODIC_TOL = 1e-9  # stress at z and z + omega1, relative
LINEAR_TOL = 1e-9  # superposed probe stress, relative to the load scale
ROUND_TRIP_TOL = 1e-10  # moduli round trip
GOLDEN_RTOL = 1e-5  # golden values, relative to the load scale
# d_2 is off by ~1.1e-5 relative at 64 rings (ROADMAP item 2), so an
# accuracy fix may move raw d_s by more than GOLDEN_RTOL.
GOLDEN_D_RTOL = 1e-4
GOLDEN_SEED = 20251017

# Fresh-process set-up of the library workloads.
LIBRARY_SETUP = (
    "from hexlat import lattice, solver\n"
    f"spec = lattice.lattice_from_alpha({A}, 0.0)\n"
    f"sums = lattice.compute_lattice_sums(spec, s_max={S_MAX}, shells={SHELLS})\n"
    f"solver.series_tables(sums, {LAM}, {K})\n"
)


def run_child(argv: list[str], stderr=subprocess.DEVNULL, timeout: float = 150.0) -> tuple[float, int]:
    """Run a child process with hexlat importable from the sources.

    Returns (wall seconds from spawn to exit, exit code).  The wait
    blocks in waitpid: `subprocess.run(timeout=...)` polls instead, in
    sleeps of up to 50 ms, which would quantise the timing.  A timer
    kills a child that outlives `timeout`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.DEVNULL, stderr=stderr
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return time.perf_counter() - t0, code


def _load_scale(load) -> float:
    """max(|sigma1|, |sigma2|) of a [sigma1, sigma2, alpha] load."""
    return max(abs(load[0]), abs(load[1]))


def _random_load(rng) -> list[float]:
    sigma1 = float(rng.uniform(0.5, 3.0))
    return [sigma1, float(rng.uniform(-1.0, sigma1)), float(rng.uniform(0.0, math.pi))]


def _load_params(load) -> np.ndarray:
    """(sigma_+, sigma_- cos 2 alpha, sigma_- sin 2 alpha): the solution
    is real-linear in these three numbers."""
    s1, s2, alpha = load
    sm = 0.5 * (s1 - s2)
    return np.array([0.5 * (s1 + s2), sm * math.cos(2 * alpha), sm * math.sin(2 * alpha)])


def _load_from_params(p) -> list[float]:
    sm = math.hypot(p[1], p[2])
    alpha = (0.5 * math.atan2(p[2], p[1])) % math.pi
    return [float(p[0] + sm), float(p[0] - sm), float(alpha)]


def _hole_distance(z: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest hole centre (lattice point)."""
    # fractional coordinates in the (omega1, omega2) basis
    det = (OMEGA1.conjugate() * OMEGA2).imag
    u = (z * OMEGA2.conjugate()).imag / -det
    v = (OMEGA1.conjugate() * z).imag / det
    best = np.full(z.shape, np.inf)
    for du in (-1, 0, 1):
        for dv in (-1, 0, 1):
            w = (np.round(u) + du) * OMEGA1 + (np.round(v) + dv) * OMEGA2
            best = np.minimum(best, np.abs(z - w))
    return best


def _errors_if_not_finite(label: str, values) -> list[str]:
    arr = np.asarray(values, dtype=float)
    return [] if np.all(np.isfinite(arr)) else [f"{label}: non-finite output"]


class LibraryWorkload:
    """A workload that calls the hexlat library in the benchmark process."""

    name = ""
    work_unit = ""
    round_size = 1  # the timed loop only stops between rounds
    in_process = True
    setup_probe = [sys.executable, "-c", LIBRARY_SETUP]

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.spec = self.sums = self.tables = None

    def setup(self) -> None:
        self.spec = lattice.lattice_from_alpha(A, 0.0)
        self.sums = lattice.compute_lattice_sums(self.spec, s_max=S_MAX, shells=SHELLS)
        self.tables = solver.series_tables(self.sums, LAM, K)

    def golden_jobs(self) -> list[dict]:
        return [type(self)(GOLDEN_SEED).next_job()]

    def run(self, job: dict, tracer=None) -> tuple[float, dict]:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = self._job(job)
            return time.perf_counter() - t0, out
        finally:
            if tracer is not None:
                tracer.uninstall()

    def _solve(self, load):
        prob = solver.ProblemSpec(self.spec, LAM, solver.LoadCase(*load), K)
        return prob, solver.solve_coefficients(prob, self.tables)

    def _probe(self, z: complex, prob, coeffs) -> tuple[float, ...]:
        """Cartesian stresses and 2G-scaled displacements at z."""
        f = fields.total_stress(abs(z), cmath.phase(z), prob, coeffs, self.tables)
        u, v = fields.total_displacement(f.z, prob, coeffs, self.tables, NU)
        return f.sigma_x, f.sigma_y, f.tau_xy, u, v

    @staticmethod
    def same_outputs(a: dict, b: dict) -> bool:
        return np.array_equal(a["values"], b["values"]) and a["residuals"] == b["residuals"]

    @staticmethod
    def artifacts_bytes(out: dict) -> int:
        return 0

    @staticmethod
    def golden_values(job: dict, out: dict) -> dict:
        """Named output arrays with the scale their tolerance refers to."""
        scale = max(_load_scale(load) for load in job["loads"])
        return {"values": (out["values"], scale, GOLDEN_RTOL)}


class FieldMap(LibraryWorkload):
    """One load case, then stress and displacement at 256 field points."""

    name = "field_map"
    work_unit = "field points"
    n_points = 256
    n_periodic = 4

    def next_job(self) -> dict:
        rng = self.rng
        load = _random_load(rng)
        points = []
        while len(points) < self.n_points:
            # a 3x3 block of cells around the origin; points in holes skipped
            uv = rng.uniform(-1.5, 1.5, size=(self.n_points, 2))
            z = uv[:, 0] * OMEGA1 + uv[:, 1] * OMEGA2
            z = z[_hole_distance(z) > LAM * 1.001]
            points.extend([float(p.real), float(p.imag)] for p in z)
        points = points[: self.n_points]
        periodic = sorted(int(i) for i in rng.choice(self.n_points, self.n_periodic, replace=False))
        return {"loads": [load], "points": points, "periodic": periodic}

    def work(self, job: dict) -> int:
        return len(job["points"])

    def _job(self, job: dict) -> dict:
        prob, coeffs = self._solve(job["loads"][0])
        values = np.array([self._probe(complex(x, y), prob, coeffs) for x, y in job["points"]])
        return {"values": values, "residuals": [coeffs.residual], "prob": prob, "coeffs": coeffs}

    def check(self, job: dict, out: dict) -> list[str]:
        errors = _errors_if_not_finite("field_map", out["values"])
        scale = _load_scale(job["loads"][0])
        res = out["residuals"][0]
        if not res <= RESIDUAL_TOL * scale:
            errors.append(f"arbiter residual {res:.3e} exceeds {RESIDUAL_TOL:g} x load")
        for i in job["periodic"]:
            z = complex(*job["points"][i]) + OMEGA1
            f = fields.total_stress(abs(z), cmath.phase(z), out["prob"], out["coeffs"], self.tables)
            ref = out["values"][i, :3]
            gap = np.max(np.abs(np.array([f.sigma_x, f.sigma_y, f.tau_xy]) - ref))
            if not gap <= PERIODIC_TOL * max(scale, np.max(np.abs(ref))):
                errors.append(f"stress at z and z + omega1 differ by {gap:.3e} (point {i})")
        return errors


class LoadSweep(LibraryWorkload):
    """24 load cases on one geometry, probed as `hexlat sweep` does."""

    name = "load_sweep"
    work_unit = "load cases"
    n_loads = 24
    radii = tuple(f * LAM for f in (1.0, 1.25, 1.5))
    theta = math.pi / 8

    def next_job(self) -> dict:
        rng = self.rng
        loads = [_random_load(rng) for _ in range(self.n_loads)]
        # loads[c] = x * loads[a] + y * loads[b] in the linear parameters
        a, b, c = (int(i) for i in rng.choice(self.n_loads, 3, replace=False))
        x, y = (float(w) for w in rng.uniform(0.3, 1.2, size=2))
        loads[c] = _load_from_params(x * _load_params(loads[a]) + y * _load_params(loads[b]))
        return {"loads": loads, "triple": [a, b, c], "weights": [x, y]}

    def work(self, job: dict) -> int:
        return len(job["loads"])

    def _job(self, job: dict) -> dict:
        values, residuals = [], []
        for load in job["loads"]:
            prob, coeffs = self._solve(load)
            residuals.append(coeffs.residual)
            values.append(
                [self._probe(r * cmath.exp(1j * self.theta), prob, coeffs) for r in self.radii]
            )
        return {"values": np.array(values), "residuals": residuals}

    def check(self, job: dict, out: dict) -> list[str]:
        errors = _errors_if_not_finite("load_sweep", out["values"])
        for load, res in zip(job["loads"], out["residuals"]):
            if not res <= RESIDUAL_TOL * _load_scale(load):
                errors.append(f"arbiter residual {res:.3e} exceeds {RESIDUAL_TOL:g} x load")
        a, b, c = job["triple"]
        x, y = job["weights"]
        stress = out["values"][:, :, :3]
        gap = np.max(np.abs(stress[c] - (x * stress[a] + y * stress[b])))
        scale = max(_load_scale(job["loads"][i]) for i in (a, b, c))
        if not gap <= LINEAR_TOL * scale:
            errors.append(f"probe stress not real-linear in the load: gap {gap:.3e}")
        return errors


class CliMixed:
    """One `hexlat` command per job, each in a fresh interpreter.

    Jobs come in rounds of five, one per command in seeded order, and a
    run ends only between rounds, so every run has the same command mix.
    Sorted by latency, `sums`/`solve` fill the lowest two fifths,
    `field` the middle fifth and `sweep`/`moduli` the top two fifths:
    the median falls among the `field` jobs and the 90th percentile among
    the `sweep`/`moduli` jobs, never on a gap between commands of
    different cost.  `n_alpha` and `n_lambda` keep a round near two
    seconds, so that a 50-second run holds about 100 jobs with ten beyond
    the 90th percentile.  They are fixed rather than seeded: a seeded size
    spreads the costs of `sweep` and `moduli` over those of `field`, and
    the percentiles then move with the seed.
    """

    name = "cli_mixed"
    work_unit = "CLI commands"
    commands = ("sums", "solve", "field", "sweep", "moduli")
    round_size = len(commands)
    in_process = False
    setup_probe = [sys.executable, "-c", "import hexlat.cli"]
    n_alpha, n_lambda = 15, 8
    # The CLI's default remote load (sigma1, sigma2) = (2, 1).
    load_scale = 2.0
    # Fixed, reduced-size commands for the golden values.
    golden_args = [
        ["sums", "a=1", "m=1", "n=1", "shells=48"],
        ["solve", "a=1", "m=2", "n=1", "lambda_ratio=0.25", "shells=48"],
        ["field", "a=1", "alpha=0.3", "n_r=8", "shells=48"],
        ["sweep", "a=1", "m=3", "n=1", "lambda_ratio=0.15", "n_alpha=5", "shells=48"],
        ["moduli", "a=1", "m=1", "n=0", "direction=bond_to_effective", "nu=0.3", "n_lambda=4"],
        ["moduli", "a=1", "m=1", "n=0", "direction=effective_to_bond", "nu_eff=0.3", "n_lambda=4"],
    ]

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._round: list[str] = []
        self._count = 0

    def setup(self) -> None:
        SCRATCH.mkdir(exist_ok=True)

    def golden_jobs(self) -> list[dict]:
        return [{"args": args} for args in self.golden_args]

    def next_job(self) -> dict:
        rng = self.rng
        if not self._round:
            self._round = [str(c) for c in rng.permutation(self.commands)]
        command = self._round.pop()
        args = [command, f"a={rng.choice([1.0, 2.46, 246.0])}"]
        chirality = int(rng.integers(5))
        if chirality < 4:
            m, n = ((1, 0), (1, 1), (2, 1), (3, 1))[chirality]
            args += [f"m={m}", f"n={n}"]
        else:
            args.append(f"alpha={rng.uniform(0.0, math.pi)!r}")
        args += [
            f"lambda_ratio={rng.uniform(0.05, 0.3)!r}",
            f"K={rng.choice([16, 20])}",
            f"shells={rng.choice([48, 64])}",
        ]
        if command == "sweep":
            args.append(f"n_alpha={self.n_alpha}")
        if command == "moduli":
            args += [f"lam_ratio_max={rng.uniform(0.2, 0.35)!r}", f"n_lambda={self.n_lambda}"]
            nu = rng.uniform(0.1, 0.4)
            if rng.integers(2):
                args += ["direction=bond_to_effective", f"nu={nu!r}"]
            else:
                args += ["direction=effective_to_bond", f"nu_eff={nu!r}"]
        return {"args": args}

    def work(self, job: dict) -> int:
        return 1

    def run(self, job: dict, tracer=None) -> tuple[float, dict]:
        """Run the command in a fresh interpreter; read back its artifacts.

        With a tracer, the child installs the same wrappers and hands its
        spans back through a file, which are appended to tracer.spans.
        """
        self._count += 1
        work_dir = SCRATCH / f"{os.getpid()}-{self._count}"
        out_dir = work_dir / "out"
        spans_file = work_dir / "spans.json"
        work_dir.mkdir(parents=True)
        try:
            command = [
                sys.executable, str(CHILD), str(spans_file) if tracer else "-",
                *job["args"], "--out", str(out_dir),
            ]
            with open(work_dir / "stderr.txt", "wb") as err:
                t0 = time.perf_counter()
                seconds, code = run_child(command, stderr=err)
            out = {
                "code": code,
                "stderr": (work_dir / "stderr.txt").read_text(errors="replace")[-400:],
                "files": {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))},
                "startup_s": 0.0,
            }
            if tracer is not None and code == 0:
                doc = json.loads(spans_file.read_text())
                out["startup_s"] = doc["imported"] - t0
                for rec in doc["spans"]:
                    rec[4] = tracer.job
                tracer.spans.extend(doc["spans"])
            return seconds, out
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    def check(self, job: dict, out: dict) -> list[str]:
        label = job["args"][0]
        if out["code"] != 0:
            return [f"{label}: exit code {out['code']}: {out['stderr'].strip()}"]
        if "check.json" not in out["files"]:
            return [f"{label}: no check.json"]
        doc = json.loads(out["files"]["check.json"])
        errors = []
        if doc.get("status") != "ok":
            errors.append(f"{label}: check.json status {doc.get('status')!r}")
        numbers = _json_numbers(doc)
        errors += _errors_if_not_finite(f"{label} check.json", numbers)
        checks = doc.get("checks", {})
        res = checks.get("boundary_residual")
        if res is not None and not res <= RESIDUAL_TOL * self.load_scale:
            errors.append(f"{label}: arbiter residual {res:.3e} exceeds {RESIDUAL_TOL:g} x load")
        if label == "moduli" and not checks.get("round_trip_error", math.inf) <= ROUND_TRIP_TOL:
            errors.append(f"{label}: round_trip_error {checks.get('round_trip_error')}")
        for name, data in out["files"].items():
            if name.endswith(".csv"):
                errors += _errors_if_not_finite(f"{label} {name}", _csv_values(data))
        return errors

    @staticmethod
    def same_outputs(a: dict, b: dict) -> bool:
        return a["code"] == b["code"] and a["files"] == b["files"]

    @staticmethod
    def artifacts_bytes(out: dict) -> int:
        return sum(len(data) for data in out["files"].values())

    def golden_values(self, job: dict, out: dict) -> dict:
        """Named output arrays with the scale their tolerance refers to.

        Stress-like outputs (fields, potential coefficients) refer to the
        load scale; lattice sums and moduli to their own largest entry.
        """
        files = out["files"]
        command = job["args"][0]
        if command == "sums":
            rows = _csv_values(files["sums.csv"])
            checks = json.loads(files["check.json"])["checks"]
            consts = np.array([checks[k] for k in ("delta", "delta1_re", "delta1_im", "g3")])
            return {
                "c_s": (rows[:, 1], np.max(np.abs(rows[:, 1])), GOLDEN_RTOL),
                "d_s": (rows[:, 2], np.max(np.abs(rows[:, 2])), GOLDEN_D_RTOL),
                "constants": (consts, np.max(np.abs(consts)), GOLDEN_RTOL),
            }
        if command == "solve":
            doc = json.loads(files["coeffs.json"])
            coeffs = np.array([doc["alpha0"], doc["beta0"], *doc["alpha_k"], *doc["beta_k"]])
            return {"coeffs": (coeffs, self.load_scale, GOLDEN_RTOL)}
        if command in ("field", "sweep"):
            return {"field": (_csv_values(files["field.csv"]), self.load_scale, GOLDEN_RTOL)}
        rows = _csv_values(files["moduli.csv"])
        return {"moduli": (rows, np.max(np.abs(rows)), GOLDEN_RTOL)}


def golden_errors(named: dict, expected: dict) -> list[str]:
    """Compare named outputs (values, scale, rtol) with stored values:
    every entry must lie within rtol * scale of its golden value."""
    errors = []
    for key, (values, scale, rtol) in named.items():
        values = np.asarray(values, dtype=float)
        ref = np.asarray(expected.get(key, []), dtype=float)
        if values.shape != ref.shape:
            errors.append(f"golden {key}: shape {values.shape}, expected {ref.shape}")
            continue
        gap = float(np.max(np.abs(values - ref), initial=0.0))
        if not gap <= rtol * scale:
            errors.append(f"golden {key}: off by {gap:.3e}, tolerance {rtol * scale:.3e}")
    return errors


def _json_numbers(doc) -> list[float]:
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _json_numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _json_numbers(v)]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [float(doc)]
    return []


def _csv_values(data: bytes) -> np.ndarray:
    """The numeric rows of a CSV artifact, below its header line."""
    return np.array(list(csv.reader(data.decode().splitlines()))[1:], dtype=float)


WORKLOADS = {w.name: w for w in (FieldMap, LoadSweep, CliMixed)}
