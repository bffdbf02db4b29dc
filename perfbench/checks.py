"""Independent check of one CLI job's outputs.

The check reads only the files a job wrote and the input it was given.
It returns two lists of reasons:

* ``wrong``: the output is malformed or contradicts itself or an
  independent recomputation (a ``NaN``/``Infinity`` token, a missing named
  check, a pass flag or exit code that disagrees with the residuals, a
  resolve residual that disagrees with the recomputed one beyond round-off,
  a wrong operator dimension, a short or non-finite CSV).
* ``missed``: the output is honest but the job did not meet its target
  (nonzero exit, or a resolve reconstruction above the job's ``--tol``).

A job fails when either list is non-empty; the run is correct when no job
is wrong.
"""

import csv
import json
import math

import numpy as np

from cliffstring.matrices import omat_adjoint, omat_mul

INTEGRAL_TOL = 1e-9
CSV_COLUMNS = 26  # tau, sigma, then re/im of the 2x2 X, J^tau and J^sigma
DEFAULT_GRID = 512

NAMED_CHECKS = {
    "octonion-check": {
        "norm_composition", "alternativity", "conj_antiautomorphism", "nonassociativity_witness",
    },
    "lorentz-check": {"det", "compatibility", "contraction", "mixed_control"},
    "string-modes": {
        "divergence", "divergence_ratio", "endpoint_flux", "charge_quadrature",
        "eom", "eom_ratio", "hermiticity", "evenness",
    },
    "quantum-check": {
        "canonical", "mixed", "closure", "su2", "tensor", "roundtrip", "jz_integrality",
    },
}


def _reject_constant(token):
    raise ValueError(f"non-finite token {token}")


def _load_strict(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _arg(job, flag):
    return job["args"][job["args"].index(flag) + 1]


def _check_named(report, command, rc, wrong):
    checks = report.get("checks")
    if not isinstance(checks, dict) or set(checks) != NAMED_CHECKS[command]:
        wrong.append(f"named checks {sorted(checks) if isinstance(checks, dict) else checks!r}")
        return
    for name, c in checks.items():
        r, tol, ok = c.get("max_residual"), c.get("tolerance"), c.get("pass")
        if not (_is_number(r) and _is_number(tol) and isinstance(ok, bool)):
            wrong.append(f"check {name} lacks a finite residual, tolerance or pass flag")
            continue
        expect = r > tol if c.get("pass_when") == "above" else r <= tol
        if ok != expect:
            wrong.append(f"check {name}: pass={ok} but residual {r:.3e} vs tolerance {tol:.1e}")
    overall = report.get("overall_pass")
    if not isinstance(overall, bool):
        wrong.append("no overall_pass value")
        return
    if not wrong and overall != all(c["pass"] for c in checks.values()):
        wrong.append("overall_pass disagrees with the named checks")
    if rc != (0 if overall else 3):
        wrong.append(f"exit {rc} with overall_pass={overall}")


def _check_seeded(report, job, wrong):
    config = report.get("config", {})
    if config.get("seed") != job["seed"] or str(config.get("trials")) != _arg(job, "--trials"):
        wrong.append("config does not echo the job's seed and trials")


def _check_quantum(report, job, wrong):
    degree = int(_arg(job, "--degree"))
    if report.get("dimension") != math.comb(degree + 4, 4):
        wrong.append(f"dimension {report.get('dimension')} != C({degree}+4, 4)")
    spectrum = report.get("jz_spectrum")
    if not isinstance(spectrum, list) or len(spectrum) != math.comb(degree + 2, 2):
        wrong.append("jz_spectrum has the wrong length")
        return
    off = [v for v in spectrum if not _is_number(v) or abs(v - round(v)) > INTEGRAL_TOL or round(v) not in range(-degree, degree + 1)]
    if off and report["checks"]["jz_integrality"]["pass"]:
        wrong.append(f"jz_spectrum not integral ({off[0]!r}) yet jz_integrality passed")


def _check_csv(path, wrong):
    rows = 4 * (DEFAULT_GRID + 1)
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if len(table) != rows + 1 or any(len(r) != CSV_COLUMNS for r in table):
        wrong.append(f"CSV is {len(table) - 1} rows, expected {rows} x {CSV_COLUMNS}")
        return
    try:
        finite = all(math.isfinite(float(x)) for r in table[1:] for x in r)
    except ValueError:
        finite = False
    if not finite:
        wrong.append("CSV holds a non-finite or non-numeric value")


def _check_resolve(report, job, rc, input_path, wrong, missed):
    keys = {"n", "a", "b", "vectors", "max_residual", "tolerance", "pass"}
    if not keys <= set(report):
        wrong.append(f"resolve report lacks {sorted(keys - set(report))}")
        return
    reported, tol, ok = report["max_residual"], report["tolerance"], report["pass"]
    if not (_is_number(reported) and _is_number(tol) and isinstance(ok, bool)):
        wrong.append("resolve report lacks a finite residual, tolerance or pass flag")
        return
    with open(input_path) as fh:
        h = np.asarray(json.load(fh)["entries"], dtype=float)
    n = h.shape[0]
    try:
        a = np.asarray(report["a"], dtype=float)
        b = np.asarray(report["b"], dtype=float)
    except (TypeError, ValueError):
        a = b = None
    if a is None or a.shape != h.shape or b.shape != h.shape or report["n"] != n \
            or not isinstance(report["vectors"], list) or len(report["vectors"]) != n:
        wrong.append("resolve report has the wrong size")
        return
    if ok != (reported <= tol) or rc != (0 if ok else 3):
        wrong.append(f"exit {rc}, pass={ok} but residual {reported:.3e} vs tolerance {tol:.1e}")
    recon = omat_mul(a, omat_adjoint(a)) - omat_mul(b, omat_adjoint(b))
    residual = float(np.max(np.linalg.norm(recon - h, axis=2)))
    # Both residuals are round-off of the same sums taken in another order,
    # so they agree to within the round-off of one reconstruction.
    scale = max(float(np.max(np.linalg.norm(x, axis=2))) for x in (a, b, h))
    roundoff = 8 * n * np.finfo(float).eps * scale**2
    if abs(residual - reported) > roundoff:
        wrong.append(f"reported residual {reported:.3e} but recomputed {residual:.3e}")
    target = float(_arg(job, "--tol"))
    if residual > target:
        missed.append(f"recomputed residual {residual:.3e} > {target:.0e}")


def check_job(job: dict, rc, files: dict) -> tuple:
    """(wrong, missed) reasons for one job; files are its workloads.files()."""
    wrong, missed = [], []
    if rc != 0:
        missed.append(f"exit {rc}")
    try:
        report = _load_strict(files["report"])
    except (OSError, ValueError) as exc:
        wrong.append(f"report is not strict JSON: {exc}")
        return wrong, missed
    command = job["command"]
    if not isinstance(report, dict) or report.get("command") != command:
        wrong.append("report is not an object for this command")
        return wrong, missed
    if command == "resolve":
        _check_resolve(report, job, rc, files["input"], wrong, missed)
        return wrong, missed
    _check_named(report, command, rc, wrong)
    if wrong:
        return wrong, missed
    if command in ("octonion-check", "lorentz-check"):
        _check_seeded(report, job, wrong)
    elif command == "quantum-check":
        _check_quantum(report, job, wrong)
    elif job["csv"]:
        try:
            _check_csv(files["csv"], wrong)
        except OSError as exc:
            wrong.append(f"CSV unreadable: {exc}")
    return wrong, missed
