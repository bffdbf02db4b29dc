import json

import numpy as np
import pytest

from cliffstring import cli
from cliffstring.matrices import OctHermitian, hermiticity_residual, omat_identity
from cliffstring.string_modes import spectrum_from_json


def run(*argv):
    return cli.main(list(argv))


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


def test_resolve_accepts_compact_two_by_two_form(tmp_path):
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"a": 2.0, "b": 1.0, "c": [1, 0, 0, 0, 0, 0, 0, 0]}))
    assert run("resolve", "--input", str(src)) == 0


def test_resolve_unattainable_tolerance_exits_3(tmp_path):
    fix = tmp_path / "h.json"
    assert run("gen-fixture", "--kind", "hermitian", "--n", "4", "--seed", "9",
               "--output", str(fix)) == 0
    assert run("resolve", "--input", str(fix), "--tol", "1e-30") == 3


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
