import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cliffstring import cli, lorentz, octonion
from cliffstring.fixtures import random_degenerate_hermitian, random_hermitian, random_spinor
from cliffstring.matrices import (
    OctHermitian,
    hermiticity_residual,
    omat_adjoint,
    omat_identity,
    omat_mul,
)
from cliffstring.minkowski import det2
from cliffstring.octonion import Octonion
from cliffstring.resolve import Resolution, vectors
from cliffstring.string_modes import spectrum_from_json


def run(*argv):
    return cli.main(list(argv))


def _no_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text):
    """Parse text as JSON that holds no NaN, Infinity or -Infinity token."""
    return json.loads(text, parse_constant=_no_constant)


# -- determinism ---------------------------------------------------------------


def test_octonion_check_passes_and_is_deterministic(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("octonion-check", "--seed", "3", "--trials", "500", "--report", str(r1)) == 0
    assert run("octonion-check", "--seed", "3", "--trials", "500", "--report", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()
    rep = json.loads(r1.read_text())
    assert rep["command"] == "octonion-check"
    assert rep["overall_pass"] is True
    assert set(rep["checks"]) == {
        "norm_composition",
        "alternativity",
        "conj_antiautomorphism",
        "nonassociativity_witness",
    }
    for entry in rep["checks"].values():
        assert entry["pass"] is True and entry["max_residual"] <= entry["tolerance"]


def _octonion_check_oracle(seed, trials):
    """The sweep's residuals, one Octonion pair at a time."""
    rng = np.random.default_rng(seed)
    worst = {"norm_composition": 0.0, "alternativity": 0.0, "conj_antiautomorphism": 0.0}
    for _ in range(trials):
        a, b = Octonion(rng.uniform(-1, 1, 8)), Octonion(rng.uniform(-1, 1, 8))
        na, nb = a.norm(), b.norm()
        ab = a * b
        r1 = a * (b * a) - ab * a
        r2 = a * ab - (a * a) * b
        residuals = {
            "norm_composition": abs(ab.norm() - na * nb) / (na * nb),
            "alternativity": max(r1.norm(), r2.norm()) / (max(na, nb) ** 2 * min(na, nb)),
            "conj_antiautomorphism": (ab.conj() - b.conj() * a.conj()).norm() / (na * nb),
        }
        for name, r in residuals.items():
            worst[name] = max(worst[name], r)
    return worst


@pytest.mark.parametrize("trials", [1, 7, cli.OCTONION_BLOCK + 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_octonion_check_matches_object_loop(capsys, seed, trials):
    assert run("octonion-check", "--seed", str(seed), "--trials", str(trials)) == 0
    checks = strict_json(capsys.readouterr().out)["checks"]
    for name, expected in _octonion_check_oracle(seed, trials).items():
        assert checks[name]["max_residual"] == expected
    assert checks["nonassociativity_witness"]["max_residual"] == 0.0


def test_octonion_check_trips_on_broken_table(capsys, monkeypatch):
    broken = octonion.STRUCTURE.copy()
    broken[3, 5] = -broken[3, 5]  # e3 e5 with the wrong sign
    monkeypatch.setattr(octonion, "STRUCTURE", broken)
    assert run("octonion-check", "--seed", "0", "--trials", "50") == 3
    checks = strict_json(capsys.readouterr().out)["checks"]
    failed = {name for name, entry in checks.items() if not entry["pass"]}
    assert {"norm_composition", "alternativity", "conj_antiautomorphism"} <= failed


def test_env_seed_equivalent_to_flag(tmp_path, monkeypatch):
    by_flag, by_env = tmp_path / "flag.json", tmp_path / "env.json"
    assert run("octonion-check", "--seed", "17", "--trials", "200", "--report", str(by_flag)) == 0
    monkeypatch.setenv(cli.SEED_ENV, "17")
    assert run("octonion-check", "--trials", "200", "--report", str(by_env)) == 0
    assert by_flag.read_bytes() == by_env.read_bytes()


# -- exit codes ----------------------------------------------------------------


def test_tolerance_override_forces_check_failure(tmp_path):
    report = tmp_path / "r.json"
    rc = run(
        "octonion-check",
        "--seed", "1",
        "--trials", "50",
        "--tol.norm_composition=1e-30",
        "--report", str(report),
    )
    assert rc == 3
    rep = json.loads(report.read_text())
    assert rep["overall_pass"] is False
    assert rep["checks"]["norm_composition"]["pass"] is False
    assert rep["checks"]["norm_composition"]["tolerance"] == 1e-30
    # space-separated value form is accepted too
    rc2 = run(
        "octonion-check",
        "--seed", "1",
        "--trials", "50",
        "--tol.alternativity", "1e-30",
        "--report", str(report),
    )
    assert rc2 == 3


def test_unknown_tolerance_name_exits_2(tmp_path, capsys):
    rc = run("octonion-check", "--trials", "10", "--tol.bogus=1e-6")
    assert rc == 2
    assert "cliffstring:" in capsys.readouterr().err


def test_missing_input_file_exits_2():
    assert run("resolve", "--input", "/nonexistent/h.json") == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    assert run("resolve", "--input", str(bad)) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_infinite_named_tolerance_exits_2(tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = run("octonion-check", "--trials", "10", "--tol.alternativity", "inf",
             "--report", str(report))
    assert rc == 2
    assert not report.exists()
    assert "cliffstring:" in capsys.readouterr().err


def test_infinite_hbar_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("quantum-check", "--degree", "3", "--hbar", "inf")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("octonion-check", "--trials", "5", "--report"),
    ("resolve", "--input", "{herm}", "--output"),
    ("lorentz-check", "--trials", "2", "--nest-depth", "2", "--report"),
    ("string-modes", "--spectrum", "{spec}", "--grid", "8", "--report"),
    ("string-modes", "--spectrum", "{spec}", "--grid", "8", "--output"),
    ("quantum-check", "--degree", "2", "--report"),
    ("redshift", "--t-emit", "1", "--t-obsv", "4", "--report"),
    ("gen-fixture", "--kind", "spinor", "--output"),
], ids=lambda argv: " ".join(argv[::len(argv) - 1]))
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    herm, spec = tmp_path / "h.json", tmp_path / "s.json"
    herm.write_text(json.dumps(OctHermitian(omat_identity(2)).to_json()))
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "1", "--output", str(spec)) == 0
    path = tmp_path / "missing" / "out"
    argv = [a.format(herm=herm, spec=spec) for a in argv] + [str(path)]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cliffstring: cannot write {path}: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("octonion-check", "--trials", "5"),
    ("lorentz-check", "--trials", "2", "--nest-depth", "2"),
    ("gen-fixture", "--kind", "spinor"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_negative_seed_exits_2(capsys, monkeypatch, argv, via):
    if via == "flag":
        argv += ("--seed", "-1")
    else:
        monkeypatch.setenv(cli.SEED_ENV, "-1")
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = "--seed" if via == "flag" else cli.SEED_ENV
    assert captured.err == f"cliffstring: {name} must be non-negative, got -1\n"


# -- resolve -------------------------------------------------------------------


def test_resolve_identity_reports_zero_residual(tmp_path):
    src = tmp_path / "eye.json"
    out = tmp_path / "out.json"
    src.write_text(json.dumps(OctHermitian(omat_identity(2)).to_json()))
    assert run("resolve", "--input", str(src), "--output", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert rep["max_residual"] == 0.0
    assert rep["n"] == 2
    assert len(rep["vectors"]) == 2


def test_resolve_report_diagnostics(tmp_path):
    """perm, pivot classes, growth and the worst entry, recomputed from the report."""
    src, out = tmp_path / "h.json", tmp_path / "out.json"
    # rows 0 and 1 of this matrix are proportional; after a regular pivot on
    # one of them the other's Schur diagonal vanishes (the degenerate branch)
    h = random_degenerate_hermitian(np.random.default_rng(0), 16)
    src.write_text(json.dumps(h.to_json()))
    assert run("resolve", "--input", str(src), "--tol", "1e-10", "--output", str(out)) == 0
    rep = strict_json(out.read_text())
    assert sorted(rep["perm"]) == list(range(16))
    assert set(rep["pivots"]) == {"regular", "split", "degenerate"}
    assert sum(rep["pivots"].values()) == 16
    assert rep["pivots"]["degenerate"] >= 1
    a, b = np.array(rep["a"]), np.array(rep["b"])
    cmax = max(np.max(np.linalg.norm(x, axis=2)) for x in (a, b))
    assert rep["growth"] == cmax / np.max(np.linalg.norm(h.data, axis=2))
    errors = np.linalg.norm(omat_mul(a, omat_adjoint(a)) - omat_mul(b, omat_adjoint(b))
                            - h.data, axis=2)
    i, j = rep["worst_entry"]
    assert errors[i, j] == errors.max() == rep["max_residual"]


def test_resolve_zero_matrix_reports_null_growth(tmp_path):
    src, out = tmp_path / "h.json", tmp_path / "out.json"
    src.write_text(json.dumps(OctHermitian(np.zeros((3, 3, 8))).to_json()))
    assert run("resolve", "--input", str(src), "--output", str(out)) == 0
    rep = strict_json(out.read_text())
    assert rep["growth"] is None
    assert rep["pivots"] == {"regular": 0, "split": 0, "degenerate": 3}


def test_resolve_accepts_compact_two_by_two_form(tmp_path):
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"a": 2.0, "b": 1.0, "c": [1, 0, 0, 0, 0, 0, 0, 0]}))
    assert run("resolve", "--input", str(src)) == 0


def test_resolve_unattainable_tolerance_exits_3(tmp_path):
    fix = tmp_path / "h.json"
    assert run("gen-fixture", "--kind", "hermitian", "--n", "4", "--seed", "9",
               "--output", str(fix)) == 0
    assert run("resolve", "--input", str(fix), "--tol", "1e-30") == 3


def _hermitian_data(kind, n, seed, scale=1.0):
    if kind == "zero":
        return np.zeros((n, n, 8))
    generate = random_hermitian if kind == "random" else random_degenerate_hermitian
    return generate(np.random.default_rng(seed), n).data * scale


def _resolve_report(tmp_path, capsys, data, *flags):
    """The `resolve` exit code and stdout for the Hermitian matrix data."""
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"n": len(data), "entries": data.tolist()}))
    capsys.readouterr()
    code = run("resolve", "--input", str(src), *flags)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("n, kind, scale", [
    (n, kind, scale) for n in (1, 2, 5, 16, 33) for kind in ("random", "degenerate", "zero")
    for scale in ((1.0,) if kind == "zero" else (1.0, 1e150, 1e-150))
    if n > 1 or kind != "degenerate"])
def test_resolve_report_is_canonical_json(tmp_path, capsys, n, kind, scale):
    """The report is json.dumps's own text, and its vectors are resolve.vectors."""
    code, text = _resolve_report(tmp_path, capsys, _hermitian_data(kind, n, n, scale),
                                 "--tol", "1e-10")
    assert code in (0, 3)
    rep = strict_json(text)
    assert text == json.dumps(rep, indent=2, sort_keys=True) + "\n"
    a, b = np.array(rep["a"]), np.array(rep["b"])
    expected = vectors(Resolution(a, b, np.array(rep["perm"]), rep["pivots"]))
    assert [v["n"] for v in rep["vectors"]] == [v.n for v in expected]
    for got, v in zip(rep["vectors"], expected):
        assert [(t["kind"], t["k"]) for t in got["terms"]] == list(v.terms)
        assert [t["coeff"] for t in got["terms"]] == [z.c.tolist() for z in v.terms.values()]


# sha256 prefixes of `resolve --tol 1e-10` on stdout for _hermitian_data(kind, n, seed, scale)
RESOLVE_REPORT_DIGESTS = {
    ("random", 1, 0, 1.0): "4a19e35a93856739", ("random", 3, 1, 1.0): "82fcacdc74ec27c4",
    ("random", 16, 2, 1.0): "83bfa248f792d2e4", ("degenerate", 16, 3, 1.0): "f1b8e2aa0f0a1741",
    ("zero", 3, 0, 1.0): "0fb931335bd0e1be", ("random", 5, 4, 1e150): "7ab8c1e5f2de112b",
    ("random", 5, 5, 1e-150): "83e0daa9165a859c", ("random", 33, 6, 1.0): "c305a75b47be217a",
}


@pytest.mark.parametrize("case", sorted(RESOLVE_REPORT_DIGESTS))
def test_resolve_report_bytes_are_pinned(tmp_path, capsys, case):
    code, text = _resolve_report(tmp_path, capsys, _hermitian_data(*case), "--tol", "1e-10")
    assert code == (3 if case[3] == 1e150 else 0)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == RESOLVE_REPORT_DIGESTS[case]


def test_resolve_growth_does_not_overflow(tmp_path, capsys):
    """max|H| and max|a, b| are taken without squaring past the float range."""
    diagonal = np.zeros((5, 5, 8))
    diagonal[range(5), range(5), 0] = [0.25, -9.0, 4.0, 1.0, -2.25]  # exact square roots
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, text = _resolve_report(tmp_path, capsys, diagonal)
        growth = strict_json(text)["growth"]
        code, text = _resolve_report(tmp_path, capsys, diagonal * 2.0 ** 600)
        assert code == 0
        assert strict_json(text)["growth"] == growth * 2.0 ** -300
        code, text = _resolve_report(tmp_path, capsys, np.array([[[1e200] + [0.0] * 7]]))
        assert code == 0
        assert strict_json(text)["growth"] == np.sqrt(1e200) / 1e200
    assert capsys.readouterr().err == ""


# -- gen-fixture ---------------------------------------------------------------


def test_hermitian_fixture_is_valid_and_resolvable(tmp_path):
    fix = tmp_path / "h.json"
    out = tmp_path / "r.json"
    assert run("gen-fixture", "--kind", "hermitian", "--n", "3", "--seed", "5",
               "--output", str(fix)) == 0
    h = OctHermitian.from_json(json.loads(fix.read_text()))
    assert hermiticity_residual(h.data) == 0.0
    assert run("resolve", "--input", str(fix), "--output", str(out)) == 0
    assert json.loads(out.read_text())["pass"] is True


# sha256 prefixes of `gen-fixture --kind hermitian --seed s --n n` on stdout
HERMITIAN_FIXTURE_DIGESTS = {
    (0, 2): "68f28449470b97b7", (1, 2): "068fe7b4817dc50a", (2, 2): "39d8215f615c12c8",
    (3, 2): "536046b7d65452dc", (4, 2): "1ee89edbc070055d", (5, 2): "dd44969b43fb1b68",
    (0, 16): "21fed2087a6b65cb", (1, 16): "868d9d9c4665ebea", (2, 16): "3ba1b54746d49367",
    (3, 16): "7046b4e22a88751f", (4, 16): "87da732182063d1a", (5, 16): "00a0cd7d2c1d6f67",
}


@pytest.mark.parametrize("seed, n", sorted(HERMITIAN_FIXTURE_DIGESTS))
def test_hermitian_fixture_bytes_are_pinned(capsys, seed, n):
    assert run("gen-fixture", "--kind", "hermitian", "--seed", str(seed), "--n", str(n)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == HERMITIAN_FIXTURE_DIGESTS[seed, n]
    h = random_hermitian(np.random.default_rng(seed), n)  # built without re-validation
    assert hermiticity_residual(h.data) == 0.0


# sha256 prefixes of the `quantum-check --degree d --hbar h` report on stdout;
# every residual is an exact zero or non-finite in these cases, so the bytes
# do not depend on the order in which round-off is summed
QUANTUM_CHECK_DIGESTS = {
    (2, "1"): "fa77fe98ca1a553b", (3, "1"): "5220ffafa55166f9", (4, "1"): "6e94a2273fa57306",
    (5, "1"): "d981c75b80663593", (6, "1"): "c40e1b35682519e1", (7, "1"): "f9d4b3b0ad2f7097",
    (10, "1"): "91468f6db13c2b20",
    (3, "0.5"): "f502af25f64b48c5", (4, "0.5"): "3a2efa531f05aaa8", (6, "0.5"): "b1bc1600fa9e52c0",
    (3, "1e200"): "4e4d16ab0eda32b6", (4, "1e200"): "8454270a0fa2eb55",
    (6, "1e200"): "5ab642d9208c75fb",
    (3, "1e308"): "03a017e86ea039a9",
}


@pytest.mark.parametrize("degree, hbar", sorted(QUANTUM_CHECK_DIGESTS))
def test_quantum_check_bytes_are_pinned(capsys, degree, hbar):
    code = run("quantum-check", "--degree", str(degree), "--hbar", hbar)
    assert code == (0 if float(hbar) < 1e100 else 3)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == QUANTUM_CHECK_DIGESTS[degree, hbar]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hbar", ["1e-150", "1e-300", "1e-308"])
@pytest.mark.parametrize("degree", [3, 5])
def test_quantum_check_passes_at_subnormal_residuals(capsys, degree, hbar):
    """A class top below 2^-1024 is scaled by 2^1023 at most, so no entry is
    scaled to inf and the round-off the tiny hbar leaves reads as a finite,
    passing residual."""
    assert run("quantum-check", "--degree", str(degree), "--hbar", hbar) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = strict_json(captured.out)["checks"]
    assert all(0.0 <= check["max_residual"] < 1e-100 for name, check in checks.items()
               if name != "jz_integrality")


# the checks that fail where the residuals are round-off, of size u hbar or u hbar^2
_ROUNDOFF_FAILS = {
    (3, "1e100"): {"canonical", "closure", "mixed"},
    (4, "1e100"): {"canonical", "closure", "mixed", "tensor"},
    (6, "1e100"): {"canonical", "closure", "mixed", "su2", "tensor"},
    (3, "0.7"): set(), (4, "0.7"): set(), (6, "0.7"): set(),
}


@pytest.mark.parametrize("degree, hbar", sorted(_ROUNDOFF_FAILS))
def test_quantum_check_flags_are_pinned_where_roundoff_shows(capsys, degree, hbar):
    # only the round-off values may move here, not a pass flag or the exit code
    failed = _ROUNDOFF_FAILS[degree, hbar]
    assert run("quantum-check", "--degree", str(degree), "--hbar", hbar) == (3 if failed else 0)
    checks = strict_json(capsys.readouterr().out)["checks"]
    assert {name for name, check in checks.items() if not check["pass"]} == failed


def test_spectrum_fixture_passes_string_mode_checks(tmp_path):
    fix = tmp_path / "s.json"
    report = tmp_path / "r.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "11",
               "--output", str(fix)) == 0
    spectrum_from_json(json.loads(fix.read_text()))  # validates on load
    assert run("string-modes", "--spectrum", str(fix), "--report", str(report)) == 0
    rep = json.loads(report.read_text())
    assert rep["overall_pass"] is True
    assert set(rep["checks"]) == {
        "divergence",
        "divergence_ratio",
        "endpoint_flux",
        "charge_quadrature",
        "eom",
        "eom_ratio",
        "hermiticity",
        "evenness",
    }


def test_spinor_fixture_shape_and_determinism(tmp_path):
    f1, f2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run("gen-fixture", "--kind", "spinor", "--seed", "8", "--output", str(f1)) == 0
    assert run("gen-fixture", "--kind", "spinor", "--seed", "8", "--output", str(f2)) == 0
    assert f1.read_bytes() == f2.read_bytes()
    obj = json.loads(f1.read_text())
    comps = np.asarray(obj["components"], dtype=float)
    assert comps.shape == (2, 8)
    assert np.all(np.isfinite(comps))


# -- string-modes CSV -----------------------------------------------------------


def test_string_modes_grid_csv(tmp_path):
    fix = tmp_path / "s.json"
    grid = tmp_path / "grid.csv"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "4", "--output", str(fix)) == 0
    assert run("string-modes", "--input", str(fix), "--grid", "16",
               "--output", str(grid)) == 0
    lines = grid.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 17  # header + four tau slices of 17 sigma samples
    header = lines[0].split(",")
    assert len(header) == 26
    assert header[:2] == ["tau", "sigma"]
    assert all(len(line.split(",")) == 26 for line in lines[1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", ["translated", "heavy", "very_heavy", "free"])
def test_string_modes_passes_on_rounding_dominated_spectra(tmp_path, seed, variant):
    # A large translation C0, a zero mode K far above the mode amplitudes, or
    # no modes at all leave the EOM residual at rounding level; all are valid.
    fix = tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", str(seed), "--output", str(fix)) == 0
    obj = json.loads(fix.read_text())
    if variant == "translated":
        obj["C0"][0][0][0] += 1e4
        obj["C0"][1][1][0] += 1e4
    elif variant == "free":
        obj["modes"] = []
    else:
        factor = 100.0 if variant == "heavy" else 1000.0
        obj["K"] = (factor * np.array(obj["K"])).tolist()
    fix.write_text(json.dumps(obj))
    report = tmp_path / "r.json"
    assert run("string-modes", "--spectrum", str(fix), "--report", str(report)) == 0
    assert json.loads(report.read_text())["overall_pass"] is True


def test_string_modes_grid_bound(tmp_path, capsys):
    fix = tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "4", "--output", str(fix)) == 0
    assert run("string-modes", "--input", str(fix), "--grid", str(cli.MAX_GRID + 1)) == 2
    assert "--grid" in capsys.readouterr().err
    assert run("string-modes", "--input", str(fix), "--grid", str(cli.MAX_GRID),
               "--report", str(tmp_path / "r.json")) == 0


@pytest.mark.parametrize("field", ["K", "ell"])
def test_string_modes_nonfinite_spectrum_exits_2(tmp_path, field):
    fix = tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "4", "--output", str(fix)) == 0
    obj = json.loads(fix.read_text())
    if field == "K":
        obj["K"][0][0][0] = float("nan")
    else:
        obj["ell"] = float("nan")
    fix.write_text(json.dumps(obj))
    report = tmp_path / "r.json"
    assert run("string-modes", "--input", str(fix), "--report", str(report)) == 2
    assert not report.exists()


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would fail the run
@pytest.mark.parametrize("magnitude", [1e120, 1e200])
def test_string_modes_overflowing_spectrum_fails_with_null_residuals(tmp_path, capsys, magnitude):
    # K = magnitude * I is finite, but X ~ K^3 overflows: the checks on X fail
    fix = tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "1", "--output", str(fix)) == 0
    obj = json.loads(fix.read_text())
    obj["K"] = [[[magnitude, 0.0], [0.0, 0.0]], [[0.0, 0.0], [magnitude, 0.0]]]
    fix.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("string-modes", "--spectrum", str(fix)) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    rep = strict_json(captured.out)
    assert rep["overall_pass"] is False
    failed = {name: entry for name, entry in rep["checks"].items() if not entry["pass"]}
    assert set(failed) == {"eom", "eom_ratio", "hermiticity", "evenness"}
    assert all(entry["max_residual"] is None for entry in failed.values())


def test_nonfinite_report_exits_3_without_writing(tmp_path, capsys, monkeypatch):
    # A factorization that yields NaN coefficients gives a NaN residual;
    # the strict-JSON backstop refuses that report.
    def nan_resolution(h, tol):
        nan = np.full(h.data.shape, np.nan)
        return Resolution(nan, nan, np.arange(h.n), {"regular": h.n, "split": 0, "degenerate": 0})

    monkeypatch.setattr(cli, "resolve_hermitian", nan_resolution)
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"a": 2.0, "b": 1.0, "c": [1.0] + [0.0] * 7}))
    assert run("resolve", "--input", str(src)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_resolve_nan_entry_exits_2(tmp_path, capsys):
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"a": 2.0, "b": 1.0, "c": [float("nan")] + [0.0] * 7}))
    assert run("resolve", "--input", str(src)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_every_subcommand_writes_strict_json(tmp_path, capsys):
    herm, spec = tmp_path / "h.json", tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "hermitian", "--n", "3", "--seed", "1",
               "--output", str(herm)) == 0
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "1", "--output", str(spec)) == 0
    runs = [
        ("octonion-check", "--trials", "20"),
        ("resolve", "--input", str(herm)),
        ("lorentz-check", "--trials", "3", "--nest-depth", "2"),
        ("string-modes", "--spectrum", str(spec), "--grid", "16"),
        ("quantum-check", "--degree", "2"),
        ("redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "0.01", "--p", "2"),
        ("gen-fixture", "--kind", "spinor", "--seed", "1"),
    ]
    capsys.readouterr()
    for argv in runs:
        assert run(*argv) == 0, argv
        assert isinstance(strict_json(capsys.readouterr().out), dict), argv


@pytest.mark.parametrize("command", ["resolve", "string-modes"])
def test_non_object_json_exits_2(tmp_path, capsys, command):
    src = tmp_path / "list.json"
    src.write_text("[1, 2, 3]")
    assert run(command, "--input", str(src)) == 2
    assert "JSON object" in capsys.readouterr().err


# -- lorentz and quantum reports -------------------------------------------------


def test_lorentz_check_report(tmp_path):
    report = tmp_path / "r.json"
    assert run("lorentz-check", "--seed", "2", "--trials", "4",
               "--report", str(report)) == 0
    rep = json.loads(report.read_text())
    assert rep["overall_pass"] is True
    assert rep["max_det_residual"] <= 1e-10
    assert rep["max_compat_residual"] <= 1e-10
    assert rep["max_contraction_residual"] <= 1e-10
    assert rep["checks"]["mixed_control"]["pass_when"] == "above"


def test_quantum_check_report(tmp_path):
    report = tmp_path / "r.json"
    assert run("quantum-check", "--degree", "3", "--report", str(report)) == 0
    rep = json.loads(report.read_text())
    assert rep["overall_pass"] is True
    assert rep["dimension"] == 35
    spectrum = np.asarray(rep["jz_spectrum"], dtype=float)
    assert np.max(np.abs(spectrum - np.round(spectrum))) <= 1e-9


# sha256 prefixes of the `octonion-check --seed s --trials n` and
# `lorentz-check --seed s --trials 100 --nest-depth d` reports on stdout.  Their
# residuals are round-off, so these pin the order in which every product and
# residual is summed, on this numpy and BLAS
OCTONION_CHECK_DIGESTS = {
    (0, 2000): "c5363aa4ce0cb475", (0, 2049): "d4e26340c5d6e210",
    (7, 2000): "599eda1385c2b2e0", (7, 2049): "ed09f64ef3ba534f",
}
LORENTZ_CHECK_DIGESTS = {
    (0, 1): "e7c3e2873d946dab", (0, 5): "082c05865058a4e0", (0, 64): "b21fcf8f046a0453",
    (7, 1): "4af37677bbb1ab5b", (7, 5): "811613200905bb8f", (7, 64): "eba9fecd898e7baf",
}


@pytest.mark.parametrize("seed, trials", sorted(OCTONION_CHECK_DIGESTS))
def test_octonion_check_bytes_are_pinned(capsys, seed, trials):
    assert run("octonion-check", "--seed", str(seed), "--trials", str(trials)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == OCTONION_CHECK_DIGESTS[seed, trials]


@pytest.mark.parametrize("seed, depth", sorted(LORENTZ_CHECK_DIGESTS))
def test_lorentz_check_bytes_are_pinned(capsys, seed, depth):
    assert run("lorentz-check", "--seed", str(seed), "--trials", "100",
               "--nest-depth", str(depth)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == LORENTZ_CHECK_DIGESTS[seed, depth]


def test_lorentz_check_keeps_nan_residual(monkeypatch, capsys):
    monkeypatch.setattr(cli, "compatibility_residual", lambda s, v: float("nan"))
    assert run("lorentz-check", "--seed", "2", "--trials", "3") == 3
    rep = strict_json(capsys.readouterr().out)
    assert rep["checks"]["compatibility"]["max_residual"] is None
    assert rep["checks"]["compatibility"]["pass"] is False
    assert rep["max_compat_residual"] is None
    assert rep["checks"]["det"]["pass"] is True
    assert rep["overall_pass"] is False


def _lorentz_check_oracle(seed, trials, nest_depth):
    """The sweep's residuals, one trial and one factor at a time."""
    rng = np.random.default_rng(seed)
    worst = {"det": 0.0, "compatibility": 0.0, "contraction": 0.0}
    for _ in range(trials):
        factors = []
        for _ in range(1 + int(rng.integers(nest_depth))):
            kind = int(rng.integers(4))
            if kind == 3:
                factors.append(lorentz.reflection_factor())
                continue
            t = float(rng.uniform(-1.0, 1.0))
            g = (lorentz.boost_generator() if kind == 0
                 else lorentz.rotation_generator(int(rng.integers(8))) if kind == 1
                 else lorentz.phase_generator(1 + int(rng.integers(7))))
            factors.append(lorentz.make_factor(g, t))
        x = random_hermitian(rng, 2)
        moved = lorentz.act_vector(lorentz.NestedTransform(factors), x)
        a, b, c = moved.data[0, 0, 0], moved.data[1, 1, 0], moved.data[0, 1]
        scale = max(1.0, abs(a * b) + float(c @ c))
        worst["det"] = max(worst["det"], abs(det2(moved, tol=1e-6) - det2(x)) / scale)
        v, chi, psi = (random_spinor(rng) for _ in range(3))
        for f in factors:
            worst["compatibility"] = max(worst["compatibility"],
                                         lorentz.compatibility_residual(f.s, v))
            worst["contraction"] = max(worst["contraction"],
                                       lorentz.contraction_residual(f, chi, psi))
    mixed = omat_mul(lorentz.make_factor(lorentz.rotation_generator(1), 0.8).s,
                     lorentz.make_factor(lorentz.phase_generator(2), 0.9).s)
    worst["mixed_control"] = lorentz.compatibility_residual(mixed, random_spinor(rng))
    return worst


@pytest.mark.parametrize("trials, depth", [
    (1, 1), (7, 2), (37, 5), (cli.LORENTZ_BLOCK // 2 + 3, 2), (3, 200),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lorentz_check_matches_per_trial_loop(capsys, seed, trials, depth):
    rc = run("lorentz-check", "--seed", str(seed), "--trials", str(trials),
             "--nest-depth", str(depth))
    checks = strict_json(capsys.readouterr().out)["checks"]
    for name, expected in _lorentz_check_oracle(seed, trials, depth).items():
        assert abs(checks[name]["max_residual"] - expected) <= 2e-15, name
    assert rc == (0 if all(c["pass"] for c in checks.values()) else 3)


def test_lorentz_check_det_is_scale_free_on_deep_nestings(capsys):
    """Nested boosts take |a'||b'| to 3.6e8 here; round-off of that size is no failure."""
    assert run("lorentz-check", "--seed", "1", "--trials", "3", "--nest-depth", "200") == 0
    checks = strict_json(capsys.readouterr().out)["checks"]
    assert checks["det"]["max_residual"] <= 1e-14


def test_lorentz_check_splits_deep_trials_into_blocks(capsys, monkeypatch):
    """With a block of 8 factor slots, each trial's 1..40 factors take 1..5 passes."""
    monkeypatch.setattr(cli, "LORENTZ_BLOCK", 8)
    assert run("lorentz-check", "--seed", "4", "--trials", "5", "--nest-depth", "40") == 0
    checks = strict_json(capsys.readouterr().out)["checks"]
    for name, expected in _lorentz_check_oracle(4, 5, 40).items():
        assert abs(checks[name]["max_residual"] - expected) <= 2e-15, name


def test_lorentz_check_runs_at_the_depth_cap(capsys):
    assert run("lorentz-check", "--seed", "0", "--trials", "1",
               "--nest-depth", str(cli.MAX_NEST_DEPTH)) == 0
    assert strict_json(capsys.readouterr().out)["config"]["nest_depth"] == cli.MAX_NEST_DEPTH


@pytest.mark.parametrize("argv, cap, builder", [
    (("lorentz-check", "--trials", "1", "--report", "{out}", "--nest-depth"),
     cli.MAX_NEST_DEPTH, "_draw_trials"),
    (("gen-fixture", "--kind", "hermitian", "--output", "{out}", "--n"),
     cli.MAX_FIXTURE_N, "random_hermitian"),
])
def test_size_flag_above_its_cap_exits_2_before_allocating(tmp_path, capsys, monkeypatch,
                                                           argv, cap, builder):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{builder} called above the cap")

    monkeypatch.setattr(cli, builder, refuse)
    out = tmp_path / "out.json"
    assert run(*[a.replace("{out}", str(out)) for a in argv], str(cap + 1)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and argv[-1] in captured.err and str(cap) in captured.err


def _failed_lorentz_checks(capsys):
    rep = strict_json(capsys.readouterr().out)
    assert rep["overall_pass"] is False
    return {name for name, entry in rep["checks"].items() if not entry["pass"]}


def test_lorentz_check_trips_on_unconjugated_adjoint(capsys, monkeypatch):
    monkeypatch.setattr(lorentz, "omat_adjoint", lambda x: x.swapaxes(-3, -2))
    assert run("lorentz-check", "--seed", "0", "--trials", "20") == 3
    assert "det" in _failed_lorentz_checks(capsys)


def test_lorentz_check_trips_on_dropped_spinor_term(capsys, monkeypatch):
    def first_term_only(s, v):  # S^A_0 v^0, without S^A_1 v^1
        return octonion.mul_arrays(s[..., 0, :], np.expand_dims(v, -3)[..., 0, :])

    monkeypatch.setattr(lorentz, "spinor_map", first_term_only)
    assert run("lorentz-check", "--seed", "0", "--trials", "20") == 3
    assert "compatibility" in _failed_lorentz_checks(capsys)


def test_lorentz_check_trips_on_reflection_with_det_plus_one(capsys, monkeypatch):
    def unsigned_reflection():
        f = lorentz.reflection_factor()
        return lorentz.LorentzFactor(f.s, f.subspace, 1.0)

    monkeypatch.setattr(cli, "reflection_factor", unsigned_reflection)
    assert run("lorentz-check", "--seed", "0", "--trials", "20") == 3
    assert _failed_lorentz_checks(capsys) == {"contraction"}


def test_default_commands_load_no_scipy(tmp_path):
    """No command imports scipy: numpy is the only run-time dependency."""
    script = """
import sys
from cliffstring import cli

def run(*argv):
    assert cli.main(list(argv)) == 0, argv

run("gen-fixture", "--kind", "hermitian", "--n", "3", "--output", "h.json")
run("gen-fixture", "--kind", "spectrum", "--output", "s.json")
run("gen-fixture", "--kind", "spinor", "--output", "v.json")
run("octonion-check", "--trials", "50", "--report", "o.json")
run("resolve", "--input", "h.json", "--output", "r.json")
run("lorentz-check", "--trials", "5", "--report", "l.json")
run("string-modes", "--spectrum", "s.json", "--grid", "16", "--output", "g.csv",
    "--report", "m.json")
run("quantum-check", "--degree", "3", "--report", "q.json")
run("redshift", "--t-emit", "1", "--t-obsv", "4", "--report", "z.json")
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1])] + sys.path))
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]"]


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would fail the run
@pytest.mark.parametrize("hbar", ["1e200", "1e308"])
def test_quantum_check_huge_hbar_fails_cleanly(capsys, hbar):
    assert run("quantum-check", "--degree", "3", "--hbar", hbar) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    rep = strict_json(captured.out)
    assert rep["overall_pass"] is False
    assert rep["checks"]["canonical"] == {
        "max_residual": None, "tolerance": 1e-10, "trials": 1, "pass": False,
    }
    assert len(rep["jz_spectrum"]) == 10
    if hbar == "1e308":  # J^z itself overflows: no spectrum, no integrality
        assert rep["jz_spectrum"] == [None] * 10
        assert rep["checks"]["jz_integrality"]["max_residual"] is None


@pytest.mark.parametrize("degree", [1, cli.MAX_DEGREE + 1])
def test_quantum_check_degree_bound_exits_2(tmp_path, capsys, degree):
    report = tmp_path / "r.json"
    assert run("quantum-check", "--degree", str(degree), "--report", str(report)) == 2
    assert "--degree" in capsys.readouterr().err
    assert not report.exists()


def test_quantum_check_nan_operator_fails_with_null_residual(monkeypatch, capsys):
    exact = cli.m0_matrices

    def with_nan(a_ops, k_ops):
        m0, m0d = exact(a_ops, k_ops)
        coeffs = m0.coeffs.copy()
        coeffs[0, 0] = np.nan  # a word of M0_(11), which meets every safe column
        return dataclasses.replace(m0, coeffs=coeffs), m0d

    monkeypatch.setattr(cli, "m0_matrices", with_nan)
    assert run("quantum-check", "--degree", "3") == 3
    checks = strict_json(capsys.readouterr().out)["checks"]
    assert checks["closure"] == {
        "max_residual": None, "tolerance": 1e-10, "trials": 1, "pass": False,
    }
    assert checks["canonical"]["pass"] is True


# -- redshift --------------------------------------------------------------------


def test_redshift_stdout_is_exact(capsys):
    assert run("redshift", "--t-emit", "1", "--t-obsv", "4") == 0
    assert capsys.readouterr().out == '{\n  "z": 1.0\n}\n'


def test_redshift_emission_bound(capsys):
    assert run("redshift", "--t-emit", "1", "--t-obsv", "4",
               "--dt", "0.01", "--p", "2") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["z"] == 1.0
    assert obj["emission_bound"] == 0.00125


def test_redshift_input_errors(capsys):
    assert run("redshift", "--t-emit", "0", "--t-obsv", "4") == 2
    assert run("redshift", "--t-emit", "4", "--t-obsv", "1") == 2
    assert run("redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "0.01") == 2
    assert run("redshift", "--t-emit", "1", "--t-obsv", "4", "--tol.z=1") == 2
    assert run("redshift", "--t-emit", "1", "--t-obsv", "inf") == 2
    assert run("redshift", "--t-emit", "nan", "--t-obsv", "4") == 2
    assert run("redshift", "--t-emit", "1e-300", "--t-obsv", "1e300") == 2
    assert run("redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "nan", "--p", "1") == 2
    assert run("redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "1", "--p", "inf") == 2
    assert run("redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "1", "--p", "1e-20") == 2
    assert run("redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "1", "--p", "1e300") == 2
    capsys.readouterr()
