import copy
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from cliffstring import cli, floattext, lorentz, octonion, quantum_rep, string_modes
from cliffstring.fixtures import (
    random_degenerate_hermitian,
    random_hermitian,
    random_spectrum,
    random_spinor,
)
from cliffstring.matrices import (
    OctHermitian,
    hermiticity_residual,
    omat_adjoint,
    omat_mul,
)
from cliffstring.minkowski import det2
from cliffstring.octonion import Octonion
from cliffstring.resolve import Resolution, vectors
from cliffstring.string_modes import spectrum_from_json, spectrum_to_json
from test_floattext import _percent_17g_text


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


@pytest.mark.parametrize("trials", [1, 7, octonion._BLOCK + 3])
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


def test_octonion_check_trips_on_an_associative_table(capsys, monkeypatch):
    # The quaternions doubled by (a, b)(c, d) = (a c - b d, a d + b c): H tensor C,
    # whose every basis associator is 0, so the witness must fail.
    quaternions = octonion.STRUCTURE[:4, :4, :4]
    complexes = np.zeros((2, 2, 2))
    complexes[0, 0, 0] = complexes[0, 1, 1] = complexes[1, 0, 1] = 1.0
    complexes[1, 1, 0] = -1.0
    associative = np.einsum("ijk,abc->aibjck", quaternions, complexes).reshape(8, 8, 8)
    monkeypatch.setattr(octonion, "STRUCTURE", associative)
    assert run("octonion-check", "--seed", "0", "--trials", "2000") == 3
    checks = strict_json(capsys.readouterr().out)["checks"]
    failed = {name for name, entry in checks.items() if not entry["pass"]}
    assert failed == {"norm_composition", "conj_antiautomorphism", "nonassociativity_witness"}


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


def test_unknown_subcommand_exits_2(capsys):
    assert run("frobnicate") == 2
    assert capsys.readouterr().err.startswith("cliffstring: ")


def test_infinite_named_tolerance_exits_2(tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = run("octonion-check", "--trials", "10", "--tol.alternativity", "inf",
             "--report", str(report))
    assert rc == 2
    assert not report.exists()
    assert "cliffstring:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("quantum-check", "--degree", "3", "--hbar", "x"),
    ("resolve", "--input", "h.json", "--tol", "x"),
    ("octonion-check", "--trials", "1", "--tol.alternativity", "x"),
], ids=lambda argv: argv[-2])
def test_non_number_float_flag_names_float(capsys, argv):
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cliffstring: argument {argv[-2]}: invalid float value: 'x'\n"


def test_infinite_hbar_exits_2(capsys):
    assert run("quantum-check", "--degree", "3", "--hbar", "inf") == 2
    assert capsys.readouterr().err.startswith("cliffstring: ")


@pytest.mark.parametrize("argv", [
    ("frobnicate",),
    (),
    ("octonion-check", "--trials", "0", "--report", "{out}"),
    ("quantum-check", "--degree", "1", "--report", "{out}"),
    ("quantum-check", "--degree", str(cli.MAX_DEGREE + 1), "--report", "{out}"),
    ("lorentz-check", "--trials", "1", "--nest-depth", str(lorentz.MAX_NEST_DEPTH + 1),
     "--report", "{out}"),
    ("string-modes", "--spectrum", "{spec}", "--grid", str(cli.MAX_GRID + 1), "--report", "{out}"),
    ("gen-fixture", "--kind", "hermitian", "--n", str(cli.MAX_FIXTURE_N + 1), "--output", "{out}"),
    ("octonion-check", "--trials", "1", "--tol.bogus=1", "--report", "{out}"),
    ("string-modes", "--spectrum", "{spec}", "--grid", "16", "--tol.e", "1", "--report", "{out}"),
    ("octonion-check", "--trials", "1", "--report", "{out}", "--tol.alternativity"),
    ("octonion-check", "--trials", "1", "--tol.alternativity", "inf", "--report", "{out}"),
    ("redshift", "--t-emit", "1", "--t-obsv", "4", "--tol.z", "1", "--report", "{out}"),
    ("gen-fixture", "--kind", "spinor", "--tol.z", "1", "--output", "{out}"),
    ("resolve", "--input", "{herm}", "--tol.a", "1", "--output", "{out}"),
], ids=lambda argv: " ".join(argv) or "no argv")
def test_bad_argv_returns_2_with_one_line(tmp_path, capsys, argv):
    """Every bad argv leaves main by one path: return 2, one stderr line, no output."""
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    herm, spec = inputs / "h.json", inputs / "s.json"
    assert run("gen-fixture", "--kind", "hermitian", "--output", str(herm)) == 0
    assert run("gen-fixture", "--kind", "spectrum", "--output", str(spec)) == 0
    argv = [a.format(herm=herm, spec=spec, out=outputs / "out") for a in argv]
    try:
        code = run(*argv)
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) raised")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cliffstring: ")
    assert len(captured.err.splitlines()) == 1
    assert list(outputs.iterdir()) == []


_TOL_ARGV = {
    "octonion-check": ("--trials", "1"),
    "lorentz-check": ("--trials", "1"),
    "quantum-check": ("--degree", "2"),
    "string-modes": ("--spectrum", "{spec}", "--grid", "16"),
}


@pytest.mark.parametrize("command, name", [
    (command, name) for command in cli.DEFAULT_TOLS for name in cli.DEFAULT_TOLS[command]
])
def test_every_named_tolerance_reaches_its_check(tmp_path, capsys, command, name):
    spec = tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "spectrum", "--output", str(spec)) == 0
    value = 0.375  # no default tolerance
    argv = [a.format(spec=spec) for a in _TOL_ARGV[command]]
    assert run(command, *argv, f"--tol.{name}={value}") in (0, 3)
    rep = strict_json(capsys.readouterr().out)
    expected = dict(cli.DEFAULT_TOLS[command], **{name: value})
    assert rep["config"]["tolerances"] == expected
    assert {n: entry["tolerance"] for n, entry in rep["checks"].items()} == expected


# Each check command's library function, on a small input.
_CHECK_FUNCTIONS = {
    "octonion-check": lambda: octonion.octonion_checks(np.random.default_rng(0), 3),
    "lorentz-check": lambda: lorentz.lorentz_checks(np.random.default_rng(0), 3, 2),
    "string-modes": lambda: string_modes.string_mode_checks(
        random_spectrum(np.random.default_rng(0)), 16),
    "quantum-check": lambda: quantum_rep.quantum_checks(2, 1.0)[0],
}


@pytest.mark.parametrize("command", list(cli.DEFAULT_TOLS))
def test_each_check_function_returns_its_commands_named_checks(command):
    """The CLI reads each result's tolerance by name, so a check renamed or
    dropped in its module would be a KeyError or a check missing from the report."""
    results = _CHECK_FUNCTIONS[command]()
    assert sorted(results) == sorted(cli.DEFAULT_TOLS[command])
    for residual, trials in results.values():
        assert np.isfinite(residual) and type(trials) is int and trials > 0


def _module_env():
    """This process's environment, with the package under test first on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1])] + sys.path))


def _cliffstring(*argv):
    return subprocess.run([sys.executable, "-m", "cliffstring", *argv], env=_module_env(),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("command", ["octonion-check", "resolve", "lorentz-check",
                                     "string-modes", "quantum-check", "redshift",
                                     "gen-fixture"])
def test_module_help_exits_0_and_lists_the_named_tolerances(command):
    out = _cliffstring(command, "--help")
    assert out.returncode == 0, out.stderr
    listed = {flag for flag in out.stdout.split() if flag.startswith("--tol.")}
    assert listed == {f"--tol.{name}" for name in cli.DEFAULT_TOLS.get(command, ())}


def test_module_unknown_subcommand_exits_2_with_one_line():
    out = _cliffstring("frobnicate")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("cliffstring: ") and len(out.stderr.splitlines()) == 1


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
    herm.write_text(json.dumps(OctHermitian(np.eye(2)[..., None] * np.eye(8)[0]).to_json()))
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "1", "--output", str(spec)) == 0
    path = tmp_path / "missing" / "out"
    argv = [a.format(herm=herm, spec=spec) for a in argv] + [str(path)]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cliffstring: cannot write {path}: ")
    assert len(captured.err.splitlines()) == 1


def _closed_pipe(argv, env):
    """Run argv with stdout a pipe whose reader closed before any write."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write_end)


def _reader_takes_10_bytes(argv, env):
    """Run argv with stdout a pipe whose reader reads 10 bytes and closes it."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return subprocess.CompletedProcess(argv, proc.wait(timeout=60), None, err)


def _full_device(argv, env):
    """Run argv with stdout /dev/full, where every write fails with ENOSPC."""
    with open("/dev/full", "w") as full:
        return subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60)


def _closed_fd(argv, env):
    """Run argv with fd 1 closed, so the interpreter's sys.stdout is None."""
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, text=True, timeout=60,
                          preexec_fn=lambda: os.close(1))


_HERMITIAN_64 = ("gen-fixture", "--kind", "hermitian", "--n", "64")  # 1 MB, past a pipe's buffer
_OCTONION_10 = ("octonion-check", "--trials", "10")
_HELP = ("octonion-check", "--help")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("stdout, argv, unbuffered", [
    (_closed_pipe, _HERMITIAN_64, False),
    (_closed_pipe, _OCTONION_10, False),
    (_closed_pipe, _OCTONION_10, True),
    (_closed_pipe, ("quantum-check", "--degree", "3"), False),
    (_reader_takes_10_bytes, _HERMITIAN_64, False),
    (_full_device, _HERMITIAN_64, False),
    (_full_device, _OCTONION_10, False),
    (_closed_fd, _OCTONION_10, False),
    (_closed_pipe, _HELP, False),
    (_closed_pipe, _HELP, True),
    (_full_device, _HELP, False),
], ids=["closed-pipe-gen-fixture", "closed-pipe-octonion-check", "closed-pipe-unbuffered",
        "closed-pipe-quantum-check", "read-10-bytes", "dev-full-gen-fixture",
        "dev-full-octonion-check", "closed-fd", "closed-pipe-help", "closed-pipe-unbuffered-help",
        "dev-full-help"])
def test_a_failed_stdout_write_exits_2_with_one_line(stdout, argv, unbuffered):
    env = _module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = stdout([sys.executable, "-m", "cliffstring", *argv], env)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("cliffstring: cannot write stdout: ")
    assert len(out.stderr.splitlines()) == 1, out.stderr


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
    src.write_text(json.dumps(OctHermitian(np.eye(2)[..., None] * np.eye(8)[0]).to_json()))
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
    """kind "complex" is a random matrix with coefficients 2-7 zeroed: entries in span(1, e_1)."""
    if kind == "zero":
        return np.zeros((n, n, 8))
    generate = random_degenerate_hermitian if kind == "degenerate" else random_hermitian
    data = generate(np.random.default_rng(seed), n).data * scale
    if kind == "complex":
        data[..., 2:] = 0.0
    return data


def _resolve_report(tmp_path, capsys, data, *flags):
    """The `resolve` exit code and stdout for the Hermitian matrix data."""
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"n": len(data), "entries": data.tolist()}))
    capsys.readouterr()
    code = run("resolve", "--input", str(src), *flags)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("n, kind, scale", [
    (n, kind, scale) for n in (1, 2, 5, 16, 33) for kind in ("random", "degenerate", "zero", "complex")
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
    assert not np.any(expected[:, [1, 3]])  # no starred generator
    assert [v["n"] for v in rep["vectors"]] == [n] * len(expected)
    for got, v in zip(rep["vectors"], expected):
        terms = [(kind, int(k) + 1, v[slot, k].tolist()) for kind, slot in (("E", 0), ("F", 2))
                 for k in np.flatnonzero(np.any(v[slot], axis=-1))]
        assert [(t["kind"], t["k"], t["coeff"]) for t in got["terms"]] == terms


# sha256 prefixes of `resolve --tol 1e-10` on stdout for _hermitian_data(kind, n, seed, scale)
RESOLVE_REPORT_DIGESTS = {
    ("random", 1, 0, 1.0): "4a19e35a93856739", ("random", 3, 1, 1.0): "82fcacdc74ec27c4",
    ("random", 16, 2, 1.0): "83bfa248f792d2e4", ("degenerate", 16, 3, 1.0): "f1b8e2aa0f0a1741",
    ("zero", 3, 0, 1.0): "0fb931335bd0e1be", ("random", 5, 4, 1e150): "7ab8c1e5f2de112b",
    ("random", 5, 5, 1e-150): "83e0daa9165a859c", ("random", 33, 6, 1.0): "c305a75b47be217a",
    ("random", 64, 7, 1.0): "3313bb8f1d727004", ("degenerate", 32, 8, 1.0): "300407f06d248114",
    # span(1, e_1) entries: these reports hold "-0.0" coefficient texts
    ("complex", 16, 9, 1.0): "ccab8d4f10389902", ("complex", 33, 10, 1.0): "c044d61aad74b786",
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
        # degenerate pivots' unit pairs over a subnormal max|H|: the ratio
        # passes the float range and reads null, and the report is written
        code, text = _resolve_report(tmp_path, capsys, np.array([[[1e-320] + [0.0] * 7]]))
        assert code == 0
        assert strict_json(text)["growth"] is None
        assert strict_json(text)["pass"] is True
    assert capsys.readouterr().err == ""


def test_resolve_overflow_writes_one_stderr_line(tmp_path):
    """Coefficients past the float range make a report that is not written, and
    that one line is all of stderr: no numpy floating-point warning comes first."""
    data = random_hermitian(np.random.default_rng(0), 3).data * 1e200
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 3, "entries": data.tolist()}))
    out = _cliffstring("resolve", "--input", str(path))
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == ("cliffstring: report not written: "
                          "Out of range float values are not JSON compliant: inf\n")


def test_a_refused_resolve_report_leaves_its_output_file_as_it_was(tmp_path):
    """Every coefficient's text is formed before the output opens, so a report
    that is not written does not truncate or touch an existing --output file."""
    data = random_hermitian(np.random.default_rng(0), 3).data * 1e200
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 3, "entries": data.tolist()}))
    before = b'{"an earlier": "report"}\r\n\0' * 1000
    (tmp_path / "r.json").write_bytes(before)
    out = _cliffstring("resolve", "--input", str(path), "--output", str(tmp_path / "r.json"))
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == ("cliffstring: report not written: "
                          "Out of range float values are not JSON compliant: inf\n")
    assert (tmp_path / "r.json").read_bytes() == before


def test_a_warm_resolve_job_keeps_a_small_working_set(tmp_path, monkeypatch):
    # n = 64: the 65,536 coefficient texts take about 5 MiB; the report itself
    # (2.1 MiB) is written a row block or a vector at a time, never joined
    # whole, and a whole join peaked at 8.8 MiB
    monkeypatch.chdir(tmp_path)
    data = random_hermitian(np.random.default_rng(0), 64).data
    pathlib.Path("h.json").write_text(json.dumps({"n": 64, "entries": data.tolist()}))
    argv = ["resolve", "--input", "h.json", "--output", "r.json"]
    code = cli.main(argv)  # builds the digit and power-of-ten tables
    tracemalloc.start()
    try:
        assert cli.main(argv) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20


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


@pytest.mark.parametrize("output", [True, False], ids=["file", "stdout"])
def test_a_nonfinite_hermitian_fixture_writes_nothing(tmp_path, capsys, monkeypatch, output):
    # every entry's text is formed before the streamed write starts
    def with_nan(rng, n):
        h = random_hermitian(rng, n)
        h.data[-1, -1, 0] = np.nan
        return h

    monkeypatch.setattr(cli, "random_hermitian", with_nan)
    path = tmp_path / "h.json"
    argv = ["gen-fixture", "--kind", "hermitian", "--n", "3"] + (["--output", str(path)] if output else [])
    assert run(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert captured.err == "cliffstring: report not written: Out of range float values are not JSON compliant: nan\n"


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_hermitian_fixture_draws_as_an_entry_loop(n):
    """One draw gives the values of an entry-by-entry loop and leaves the
    generator where that loop leaves it."""
    ref_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
    data = np.zeros((n, n, 8))
    for i in range(n):
        data[i, i, 0] = ref_rng.uniform(-1.0, 1.0)
        for j in range(i + 1, n):
            data[i, j] = ref_rng.uniform(-1.0, 1.0, 8)
            data[j, i] = octonion.conj_arrays(data[i, j])
    h = random_hermitian(rng, n)
    assert np.array_equal(h.data, data) and np.array_equal(np.signbit(h.data), np.signbit(data))
    assert rng.uniform() == ref_rng.uniform()


# sha256 prefixes of `gen-fixture --kind k --seed s` on stdout
FIXTURE_DIGESTS = {
    ("spectrum", 0): "b790942f00a1fe30", ("spectrum", 1): "108befd029ce42a9",
    ("spectrum", 2): "74bfd569d3cf55a6",
    ("spinor", 0): "461fa957f4383b91", ("spinor", 1): "893a6a00641bc5f0",
    ("spinor", 2): "92b3ff5884a2f965",
}


@pytest.mark.parametrize("kind, seed", sorted(FIXTURE_DIGESTS))
def test_spectrum_and_spinor_fixture_bytes_are_pinned(capsys, kind, seed):
    assert run("gen-fixture", "--kind", kind, "--seed", str(seed)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == FIXTURE_DIGESTS[kind, seed]


# sha256 prefixes of the `string-modes --grid 16` report on stdout and of its
# CSV, for the `gen-fixture --kind spectrum --seed s` file s.json
STRING_MODES_DIGESTS = {
    0: ("4f6aae932ad4a533", "61dab17872600309"),
    1: ("5a6f4dcacc977549", "b50417963ca959c1"),
    2: ("59d465ab90e40a21", "5436f7c13c04f747"),
}


@pytest.mark.parametrize("seed", sorted(STRING_MODES_DIGESTS))
def test_string_modes_report_and_csv_bytes_are_pinned(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)  # the report names the spectrum path
    assert run("gen-fixture", "--kind", "spectrum", "--seed", str(seed), "--output", "s.json") == 0
    assert run("string-modes", "--spectrum", "s.json", "--grid", "16", "--output", "grid.csv") == 0
    report = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    csv = hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest()[:16]
    assert (report, csv) == STRING_MODES_DIGESTS[seed]


# sha256 prefixes of the `string-modes` report on stdout and of its CSV at the
# default --grid 512, for a max_mode-8 spectrum drawn from seed s and written
# as a benchmark fixture is, so the 513-point charge quadrature is pinned
STRING_MODES_GRID_512_DIGESTS = {
    0: ("08f0a7daf512e6ae", "3a6d4f4ff96decad"),
    1: ("f7d2c80e6258dc1c", "48ee73b05d567721"),
}


@pytest.mark.parametrize("seed", sorted(STRING_MODES_GRID_512_DIGESTS))
def test_string_modes_default_grid_bytes_are_pinned(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)  # the report names the spectrum path
    ms = random_spectrum(np.random.default_rng(seed), max_mode=8)
    pathlib.Path("s.json").write_text(json.dumps(spectrum_to_json(ms)))
    assert run("string-modes", "--spectrum", "s.json", "--output", "grid.csv") == 0
    report = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    csv = hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest()[:16]
    assert (report, csv) == STRING_MODES_GRID_512_DIGESTS[seed]


# Spectra whose CSV reaches every `%.17g` layout: `gen-fixture --kind spectrum
# --seed 0` with m or K rescaled, a hand-built spectrum of small integers, and
# --grid 1.  They reach scientific notation with two- and three-digit exponents
# of both signs (m = 1e-40 and 1e40), `0.000ddd` (m = 1e4), 17-digit integral
# values and a 17-digit `e+17` (K scaled by 3e5), and integral values and
# negative zeros (the integer spectrum).
_INTEGER_SPECTRUM = {
    "K": [[[2, 0], [1, 1]], [[1, -1], [-3, 0]]],
    "C0": [[[5, 0], [-2, 0]], [[-2, 0], [0, 0]]],
    "modes": [{"n": 1, "A": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
               "Anm": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}],
}
# case: (exit code, sha256 prefix of the report on stdout, of the CSV)
STRING_MODES_LAYOUT_DIGESTS = {
    "m=1e-40": (0, "9cf478b286fc8fec", "a0202c98560a3818"),
    "m=1e40": (0, "9b6bc09029d3341b", "5d26cdd6dd36ccaa"),
    "m=1e4": (0, "408966d1f2432871", "0881fb11cf9bd52a"),
    "K*3e5": (0, "2096fe623b2c4402", "7ed48bdab6cb67ae"),
    "integers": (0, "e78fcd3ceff1d1c8", "ef6ad7ed11676845"),
    "grid=1": (3, "72e59bd8bd1618ff", "b3d8d20fe731ec54"),
}
# The `%.17g` layouts each case's CSV reaches, at least, and the pattern of a
# whole value in each layout
STRING_MODES_LAYOUTS = {
    "m=1e-40": {"e+dd", "e+ddd", "-0"},
    "m=1e40": {"e-dd", "e-ddd", "-0"},
    "m=1e4": {"0.000ddd", "e-dd", "-0"},
    "K*3e5": {"17-digit integer", "e+dd", "e-dd", "-0"},
    "integers": {"-0"},
    "grid=1": {"e-dd", "-0"},
}
_LAYOUT_PATTERNS = {
    "e+dd": r"-?\d(\.\d+)?e\+\d\d", "e-dd": r"-?\d(\.\d+)?e-\d\d",
    "e+ddd": r"-?\d(\.\d+)?e\+\d{3}", "e-ddd": r"-?\d(\.\d+)?e-\d{3}",
    "0.000ddd": r"-?0\.000\d+", "17-digit integer": r"-?\d{17}", "-0": "-0",
}


def _layout_case(case):
    """The spectrum JSON and --grid of a STRING_MODES_LAYOUT_DIGESTS case."""
    if case == "integers":
        return _INTEGER_SPECTRUM, 16
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "0", "--output", "s.json") == 0
    spec = json.loads(pathlib.Path("s.json").read_text())
    if case.startswith("m="):
        spec["m"] = float(case[2:])
    elif case == "K*3e5":
        spec["K"] = (np.array(spec["K"]) * 3e5).tolist()
    return spec, 1 if case == "grid=1" else 16


@pytest.mark.parametrize("case", list(STRING_MODES_LAYOUT_DIGESTS))
def test_string_modes_csv_layouts_are_pinned(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # the report names the spectrum path
    spec, grid = _layout_case(case)
    pathlib.Path("s.json").write_text(json.dumps(spec))
    capsys.readouterr()
    code = run("string-modes", "--spectrum", "s.json", "--grid", str(grid), "--output", "grid.csv")
    report = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    csv = hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest()[:16]
    assert (code, report, csv) == STRING_MODES_LAYOUT_DIGESTS[case]
    values = set((tmp_path / "grid.csv").read_text().split("\n", 1)[1].replace("\n", ",").split(","))
    reached = {layout for layout, pattern in _LAYOUT_PATTERNS.items()
               if any(re.fullmatch(pattern, value) for value in values)}
    assert reached >= STRING_MODES_LAYOUTS[case]


@pytest.mark.parametrize("m", [1e-100, 1e290])
def test_csv_values_past_the_fast_range_are_printed_exactly(tmp_path, monkeypatch, capsys, m):
    # m = 1e-100 puts X above 1e290 and m = 1e290 puts J below 1e-270, where
    # the writer hands every value to "%.17g" itself
    monkeypatch.chdir(tmp_path)
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "0", "--output", "s.json") == 0
    spec = json.loads(pathlib.Path("s.json").read_text())
    pathlib.Path("s.json").write_text(json.dumps({**spec, "m": m}))
    argv = ["string-modes", "--spectrum", "s.json", "--grid", "16", "--output"]
    code = run(*argv, "fast.csv")
    monkeypatch.setattr(cli, "csv_rows", _percent_17g_text)
    assert run(*argv, "exact.csv") == code
    text = (tmp_path / "fast.csv").read_bytes()
    assert text == (tmp_path / "exact.csv").read_bytes()
    values = np.abs(np.array([float(v) for v in text.decode().split()[1:] for v in v.split(",")]))
    assert np.count_nonzero((values > 1e290) | ((values < 1e-270) & (values > 0))) > 200


@pytest.mark.parametrize("block", [1, 5, 1000])
def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, capsys, block):
    # the CSV is formatted floattext.TEXT_BLOCK // 26 rows at a time
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(floattext, "TEXT_BLOCK", 26 * block)
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "0", "--output", "s.json") == 0
    assert run("string-modes", "--spectrum", "s.json", "--grid", "16", "--output", "grid.csv") == 0
    csv = hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest()[:16]
    assert csv == STRING_MODES_DIGESTS[0][1]


@pytest.mark.parametrize("block", [1, 7, 10**6])
def test_string_modes_bytes_do_not_depend_on_the_point_block(tmp_path, monkeypatch, capsys, block):
    # the mode sums run string_modes._BLOCK points at a time
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(string_modes, "_BLOCK", block)
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "0", "--output", "s.json") == 0
    capsys.readouterr()
    assert run("string-modes", "--spectrum", "s.json", "--grid", "16", "--output", "grid.csv") == 0
    report = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    csv = hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest()[:16]
    assert (report, csv) == STRING_MODES_DIGESTS[0]


def test_a_many_mode_job_keeps_its_phase_tables_blocked(tmp_path, monkeypatch):
    # 1024 modes on the default grid: a (4 x 513 points) x modes phase table
    # is 34 MB, the sigma table 8.4 MB and a block's tables 4.2 MB each
    monkeypatch.chdir(tmp_path)
    ms = random_spectrum(np.random.default_rng(0), max_mode=512)
    pathlib.Path("s.json").write_text(json.dumps(spectrum_to_json(ms)))
    argv = ["string-modes", "--spectrum", "s.json", "--output", "grid.csv", "--report", "r.json"]
    code = cli.main(argv)
    assert code in (0, 3) and pathlib.Path("grid.csv").exists()
    tracemalloc.start()
    try:
        assert cli.main(argv) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


def test_many_mode_string_modes_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A 512-mode spectrum gives the same report and CSV bytes at one and at
    two OpenBLAS threads.  It does not show that the mode sums avoid BLAS, as a
    matmul in their place passes it too: test_array_evaluation_matches_point_calls
    and the point-block tests guard that."""
    ms = random_spectrum(np.random.default_rng(1), max_mode=256)
    (tmp_path / "s.json").write_text(json.dumps(spectrum_to_json(ms)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(cli.__file__).parents[1])] + sys.path))
        out = subprocess.run([sys.executable, "-m", "cliffstring", "string-modes", "--spectrum",
                              "s.json", "--output", f"grid{threads}.csv"], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode in (0, 3), out.stderr
        outs.append((out.returncode, out.stdout, (tmp_path / f"grid{threads}.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_a_warm_csv_job_keeps_a_small_working_set(tmp_path, monkeypatch):
    # a default-grid max_mode-8 job formats 53,352 values; formatted whole, its
    # text buffers peak near 16 MiB, and in TEXT_BLOCK // 26-row blocks near 1.9 MiB
    monkeypatch.chdir(tmp_path)
    ms = random_spectrum(np.random.default_rng(0), max_mode=8)
    pathlib.Path("s.json").write_text(json.dumps(spectrum_to_json(ms)))
    argv = ["string-modes", "--spectrum", "s.json", "--output", "grid.csv", "--report", "r.json"]
    assert cli.main(argv) == 0  # builds the digit and power-of-ten tables
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_string_modes_keeps_a_nan_charge_quadrature_at_a_later_tau(tmp_path, monkeypatch, capsys):
    # a NaN at the second of the three tau, which a Python max over them would drop
    quadrature = string_modes.charge_quadrature

    def nan_at_second_tau(ms, tau, n_sigma=512):
        out = np.array(quadrature(ms, tau, n_sigma))
        out[np.asarray(tau) == string_modes._TAUS[1]] = np.nan
        return out

    fix = tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "0", "--output", str(fix)) == 0
    capsys.readouterr()
    monkeypatch.setattr(string_modes, "charge_quadrature", nan_at_second_tau)
    assert run("string-modes", "--spectrum", str(fix)) == 3
    rep = strict_json(capsys.readouterr().out)
    assert rep["checks"]["charge_quadrature"]["max_residual"] is None
    assert rep["checks"]["charge_quadrature"]["pass"] is False
    assert [name for name, check in rep["checks"].items() if not check["pass"]] == ["charge_quadrature"]


# sha256 prefixes of the `quantum-check --degree d --hbar h` report on stdout;
# every residual is an exact zero or non-finite in these cases, so the bytes
# do not depend on the order in which round-off is summed
QUANTUM_CHECK_DIGESTS = {
    (2, "1"): "19684293e50d5c52", (3, "1"): "afba7d05a37c0286", (4, "1"): "6665ef2d204a288d",
    (5, "1"): "b1fa38a94834a09b", (6, "1"): "9b72ed65e9e5fa59", (7, "1"): "3819830ba3d5504c",
    (10, "1"): "3e72c901034aa40d",
    (3, "0.5"): "9b4dc895ffa18dbb", (4, "0.5"): "16ccaf776fadd0e8", (6, "0.5"): "eff257db49d5ffb4",
    (3, "1e200"): "5c63ae711441c679", (4, "1e200"): "bc00abe8c7e29666",
    (6, "1e200"): "71056eaadfd5fa05",
    (3, "1e308"): "0f4ba19c2375e1eb",
}


@pytest.mark.parametrize("degree, hbar", sorted(QUANTUM_CHECK_DIGESTS))
def test_quantum_check_bytes_are_pinned(capsys, degree, hbar):
    code = run("quantum-check", "--degree", str(degree), "--hbar", hbar)
    assert code == (0 if float(hbar) < 1e100 else 3)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == QUANTUM_CHECK_DIGESTS[degree, hbar]


# sha256 prefixes of `quantum-check` reports whose closure residual is nonzero
# round-off: these bytes move if the order in which the brackets' 9x9 forms
# are multiplied and summed changes, so they pin that order (the same at one
# and at two BLAS threads)
QUANTUM_CHECK_ROUNDOFF_DIGESTS = {
    (5, "0.7"): "ff7c29a47bdc4c38", (9, "0.7"): "baa43c24581c7579",
    (9, "1e-150"): "69a14be5c09ab80e", (9, "1e100"): "0a08477d8923e403",
    (12, "0.7"): "198d0cd693aba53c", (12, "1e100"): "c0b1eaa0e48c7372",
}


@pytest.mark.parametrize("degree, hbar", sorted(QUANTUM_CHECK_ROUNDOFF_DIGESTS))
def test_quantum_check_roundoff_bytes_are_pinned(capsys, degree, hbar):
    code = run("quantum-check", "--degree", str(degree), "--hbar", hbar)
    assert code == (0 if float(hbar) < 1e100 else 3)
    out = capsys.readouterr().out
    checks = strict_json(out)["checks"]
    # the bracket checks read 9x9 forms, which do not depend on the degree
    brackets = ("canonical", "mixed", "closure", "su2", "tensor", "roundtrip")
    assert {name: checks[name]["max_residual"] for name in brackets} == {
        name: r for name, (r, _) in quantum_rep.quantum_checks(2, float(hbar))[0].items()
        if name in brackets}
    assert 0.0 < checks["closure"]["max_residual"] < math.inf
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert digest == QUANTUM_CHECK_ROUNDOFF_DIGESTS[degree, hbar]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hbar", ["1e-150", "1e-300", "1e-308"])
@pytest.mark.parametrize("degree", [3, 5])
def test_quantum_check_passes_at_subnormal_residuals(capsys, degree, hbar):
    """The round-off a tiny hbar leaves in the bracket checks' forms is
    subnormal or 0, and its modulus, taken without squaring, reads as a
    finite, passing residual."""
    assert run("quantum-check", "--degree", str(degree), "--hbar", hbar) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = strict_json(captured.out)["checks"]
    assert all(0.0 <= check["max_residual"] < 1e-100 for name, check in checks.items()
               if name != "jz_integrality")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hbar", ["1e-310", "1e-320"])
def test_quantum_check_passes_at_a_subnormal_hbar(capsys, hbar):
    """A subnormal hbar keeps few bits; jz_integrality reads J^z's gap in units
    of hbar on families built at hbar scaled by a power of two, so no halving
    of M0 rounds there (the gap reads about 5e-14 at 1e-310 without it)."""
    assert run("quantum-check", "--degree", "3", "--hbar", hbar) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = strict_json(captured.out)["checks"]
    assert 0.0 <= checks["jz_integrality"]["max_residual"] < 1e-12
    assert all(check["pass"] for check in checks.values())


@pytest.mark.filterwarnings("error")
def test_quantum_check_jz_gap_is_exact_at_every_small_subnormal_hbar(capsys):
    """hbar = k 5e-324 holds k exactly; halving M0 at that hbar would round each
    odd k by half a unit, a gap of up to 1.0 in units of hbar (k = 1)."""
    for k in range(1, 40):
        hbar = repr(k * 5e-324)
        assert run("quantum-check", "--degree", "3", "--hbar", hbar) == 0, hbar
        checks = strict_json(capsys.readouterr().out)["checks"]
        assert checks["jz_integrality"]["max_residual"] == 0.0, hbar


# the checks that fail where the residuals are round-off of size u hbar^2:
# the closure bracket; su2 and tensor read exactly 0 at 1e100, canonical and
# mixed everywhere
_ROUNDOFF_FAILS = {
    (3, "1e100"): {"closure"},
    (4, "1e100"): {"closure"},
    (6, "1e100"): {"closure"},
    (3, "0.7"): set(), (4, "0.7"): set(), (6, "0.7"): set(),
}


@pytest.mark.parametrize("degree, hbar", sorted(_ROUNDOFF_FAILS))
def test_quantum_check_flags_are_pinned_where_roundoff_shows(capsys, degree, hbar):
    # only the round-off values may move here, not a pass flag or the exit code
    failed = _ROUNDOFF_FAILS[degree, hbar]
    assert run("quantum-check", "--degree", str(degree), "--hbar", hbar) == (3 if failed else 0)
    checks = strict_json(capsys.readouterr().out)["checks"]
    assert {name for name, check in checks.items() if not check["pass"]} == failed


# the checks that fail at each hbar, the same at every degree: none through
# the subnormal 5e-324; closure, whose gap is round-off of size u hbar^2, from
# 1e100; su2 and tensor too from 1e200, where hbar^2 overflows; and at 1e308,
# where hbar times the degree overflows, J^z's spectrum too
_FAILS_BY_HBAR = {
    "1e100": {"closure"},
    "1e200": {"closure", "su2", "tensor"},
    "1e308": {"closure", "su2", "tensor", "jz_integrality"},
}


# the exit code and the sha256 prefix of stdout of each `quantum-check` on the
# degree x hbar grid below.  Where a residual is nonzero round-off (at hbar
# 0.3, 0.7, pi, 1e-150, 1e-310, 5e-324 and 1e100), the bytes pin the order in
# which the brackets' 9x9 forms are multiplied and summed, and so carry the
# same BLAS caveat as QUANTUM_CHECK_ROUNDOFF_DIGESTS: a BLAS that sums in
# another order moves them
QUANTUM_CHECK_MANIFEST = json.loads(
    (pathlib.Path(__file__).parent / "data" / "quantum_check_manifest.json").read_text())


@pytest.mark.parametrize("hbar", ["0.5", "0.7", "1", "3", "0.3", repr(math.pi), "1e-150", "1e-300",
                                  "1e-310", "1e-320", "5e-324", "1e100", "1e200", "1e308"])
def test_quantum_check_failing_set_depends_only_on_hbar(capsys, hbar):
    failed = _FAILS_BY_HBAR.get(hbar, set())
    for degree in range(2, cli.MAX_DEGREE + 1):
        argv = ("quantum-check", "--degree", str(degree), "--hbar", hbar)
        code = run(*argv)
        assert code == (3 if failed else 0)
        captured = capsys.readouterr()
        assert captured.err == ""
        checks = strict_json(captured.out)["checks"]
        assert {name for name, check in checks.items() if not check["pass"]} == failed, degree
        digest = hashlib.sha256(captured.out.encode()).hexdigest()[:16]
        assert {"exit": code, "stdout": digest} == QUANTUM_CHECK_MANIFEST[" ".join(argv)]


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


def _with_modes(ms, edit):
    """ms with each mode (a, anm) replaced by edit(n, a, anm), after validation,
    so an edit may break the opposite-mode pairing."""
    out = copy.copy(ms)
    out.modes = {n: edit(n, a, anm) for n, (a, anm) in ms.modes.items()}
    return out


def _j_weight_over_abs_n(j):
    # the mode weight 1/n of J becomes 1/(n |n|); X and the charges keep theirs
    return lambda ms, tau, sigma: j(_with_modes(ms, lambda n, a, anm: (a / abs(n), anm / abs(n))),
                                    tau, sigma)


def _j_sigma_flipped(j):
    def mutant(ms, tau, sigma):
        jt, js = j(ms, tau, sigma)
        return jt, -js
    return mutant


def _right_mover_as_left(j):
    # J^tau - J^sigma is the symmetrized left mover twice: with the right mover
    # replaced by the left one, J^tau is that and J^sigma vanishes
    def mutant(ms, tau, sigma):
        jt, js = j(ms, tau, sigma)
        return jt - js, np.zeros_like(js)
    return mutant


def _x_weight_8_over_n(x):
    # the mode weight 8/n^2 of X becomes 8/n, sign included
    return lambda ms, tau, sigma: x(_with_modes(ms, lambda n, a, anm: (n * a, n * anm)), tau, sigma)


# row: (evaluator replaced, in string_modes and cli alike, its wrapper, the
# exact set of checks that fail on `gen-fixture --kind spectrum --seed 3`,
# which passes all eight), as measured with the per-mode evaluators
STRING_MODES_MUTANTS = {
    "J weight x 1/|n|": ("current_density", _j_weight_over_abs_n, {"charge_quadrature"}),
    "J^sigma sign flipped": ("current_density", _j_sigma_flipped,
                             {"divergence", "divergence_ratio"}),
    "right mover as the left": ("current_density", _right_mover_as_left,
                                {"charge_quadrature", "divergence", "divergence_ratio"}),
    "X weight 8/n": ("coordinates", _x_weight_8_over_n, {"hermiticity"}),
}


@pytest.mark.parametrize("row", list(STRING_MODES_MUTANTS))
def test_string_modes_mutants_fail_their_checks(tmp_path, capsys, monkeypatch, row):
    name, wrap, expected = STRING_MODES_MUTANTS[row]
    fix = tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "3", "--output", str(fix)) == 0
    capsys.readouterr()
    assert run("string-modes", "--spectrum", str(fix)) == 0
    capsys.readouterr()
    mutant = wrap(getattr(string_modes, name))
    monkeypatch.setattr(string_modes, name, mutant)
    monkeypatch.setattr(cli, name, mutant)
    assert run("string-modes", "--spectrum", str(fix)) == 3
    checks = strict_json(capsys.readouterr().out)["checks"]
    assert {check for check, entry in checks.items() if not entry["pass"]} == expected


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


def test_quantum_check_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The same report at one and at two OpenBLAS threads (a case an
    eigensolver's thread-blocked LAPACK path once moved)."""
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(cli.__file__).parents[1])] + sys.path))
        out = subprocess.run([sys.executable, "-m", "cliffstring", "quantum-check", "--degree",
                              "11", "--hbar", "0.7"], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("m", [1e-110, 1e-300, 1e200])
def test_string_modes_mass_whose_cube_leaves_the_float_range(tmp_path, capsys, m):
    # l/m^3 is inf or 0: the checks on X fail or pass, but nothing raises; an
    # infinite l/m^3 makes X infinite, so the grid is not written
    fix, grid = tmp_path / "s.json", tmp_path / "grid.csv"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "0", "--output", str(fix)) == 0
    obj = json.loads(fix.read_text())
    obj["m"] = m
    fix.write_text(json.dumps(obj))
    capsys.readouterr()
    code = run("string-modes", "--spectrum", str(fix), "--grid", "16", "--output", str(grid))
    assert code in (0, 3)
    captured = capsys.readouterr()
    assert strict_json(captured.out)["overall_pass"] is (code == 0)
    if m > 1:
        assert captured.err == "" and grid.exists()
    else:
        assert code == 3 and not grid.exists()
        assert captured.err.startswith("cliffstring: grid not written: X_00_re is inf ")
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("field, value, token", [("m", 1e-110, "inf"), ("K", 1e200, "nan")])
def test_string_modes_nonfinite_grid_is_not_written(tmp_path, capsys, field, value, token):
    """A grid that would hold inf or nan leaves the CSV path as it was, says so
    on one stderr line and exits 3; the report is still written."""
    fix, grid, report = tmp_path / "s.json", tmp_path / "grid.csv", tmp_path / "r.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "0", "--output", str(fix)) == 0
    obj = json.loads(fix.read_text())
    obj[field] = value if field == "m" else [[[value, 0.0], [0.0, 0.0]], [[0.0, 0.0], [value, 0.0]]]
    fix.write_text(json.dumps(obj))
    grid.write_text("earlier grid\n")
    capsys.readouterr()
    assert run("string-modes", "--spectrum", str(fix), "--grid", "16", "--output", str(grid),
               "--report", str(report)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cliffstring: grid not written: X_00_re is {token} at tau=0, sigma=0\n"
    assert grid.read_text() == "earlier grid\n"
    assert strict_json(report.read_text())["overall_pass"] is False


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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_residual_report_is_refused_whole(tmp_path, capsys, monkeypatch, bad):
    def bad_errors(res, h):
        errors = np.zeros((h.n, h.n))
        errors[0, 1] = bad
        return errors

    monkeypatch.setattr(cli, "reconstruction_errors", bad_errors)
    src, out = tmp_path / "h.json", tmp_path / "out.json"
    src.write_text(json.dumps({"a": 2.0, "b": 1.0, "c": [1.0] + [0.0] * 7}))
    assert run("resolve", "--input", str(src), "--output", str(out)) == 3
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    assert captured.err == ("cliffstring: report not written: "
                            f"Out of range float values are not JSON compliant: {bad!r}\n")


def test_resolve_nan_entry_exits_2(tmp_path, capsys):
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"a": 2.0, "b": 1.0, "c": [float("nan")] + [0.0] * 7}))
    assert run("resolve", "--input", str(src)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def _rejected_with_one_line(capsys, *argv):
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    return captured.err


def test_resolve_declared_n_disagreeing_with_entries_exits_2(tmp_path, capsys):
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"n": 5, "entries": (np.eye(2)[..., None] * np.eye(8)[0]).tolist()}))
    assert "n = 5" in _rejected_with_one_line(capsys, "resolve", "--input", str(src))


@pytest.mark.parametrize("a, b, c0", [(True, 1.0, 0.5), (1.0, "1", 0.5), (1.0, 1.0, "0.5"),
                                      (True, "1", "0.5"), (1.0, None, 0.5)])
def test_resolve_compact_form_non_number_exits_2(tmp_path, capsys, a, b, c0):
    # float() and np.asarray(..., dtype=float) would read true as 1 and "0.5" as 0.5
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"a": a, "b": b, "c": [c0, 0, 0, 0, 0, 0, 0, 0]}))
    err = _rejected_with_one_line(capsys, "resolve", "--input", str(src))
    assert "must hold real numbers" in err


@pytest.mark.parametrize("key", ["a", "b"])
@pytest.mark.parametrize("bad", [[1.0], [[1.0]], [], [1.0, 2.0]])
def test_resolve_compact_form_non_scalar_diagonal_exits_2(tmp_path, capsys, key, bad):
    obj = {"a": 1.0, "b": 2.0, "c": [0.5, 0, 0, 0, 0, 0, 0, 0]}
    obj[key] = bad
    src = tmp_path / "h.json"
    src.write_text(json.dumps(obj))
    err = _rejected_with_one_line(capsys, "resolve", "--input", str(src))
    assert f"{key} must be a real number, got {bad!r}" in err


@pytest.mark.parametrize("bad", [True, "0.5", None])
def test_resolve_entries_non_number_exits_2(tmp_path, capsys, bad):
    entries = (2.0 * np.eye(2)[..., None] * np.eye(8)[0]).tolist()
    entries[1][1][0] = entries[0][1][3] = bad
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"n": 2, "entries": entries}))
    err = _rejected_with_one_line(capsys, "resolve", "--input", str(src))
    assert f"entries must hold real numbers, got {bad!r}" in err


def test_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    # float() raises OverflowError, not ValueError, on such a JSON integer
    huge = "1" + "0" * 400
    src = tmp_path / "h.json"
    src.write_text('{"a": %s, "b": 1.0, "c": [0.5, 0, 0, 0, 0, 0, 0, 0]}' % huge)
    assert "too large" in _rejected_with_one_line(capsys, "resolve", "--input", str(src))
    fix = _spectrum_with_mode_one(tmp_path, lambda modes, entry: None)
    fix.write_text(fix.read_text().replace('"ell": 1.0', '"ell": ' + huge))
    assert "too large" in _rejected_with_one_line(capsys, "string-modes", "--spectrum", str(fix))


@pytest.mark.parametrize("power", [155, 400])
def test_string_modes_mode_index_beyond_the_float_range_exits_2(tmp_path, capsys, power):
    # 8 / n^2 in the mode sums raised OverflowError, a traceback and exit 1
    fix = _spectrum_with_mode_one(tmp_path, lambda modes, entry: [
        t.update(n=t["n"] * 10 ** power) for t in modes if abs(t["n"]) == 1])
    err = _rejected_with_one_line(capsys, "string-modes", "--spectrum", str(fix))
    assert "mode index too large" in err


def test_json_integer_of_over_4300_digits_exits_2(tmp_path, capsys):
    # json reads it with int(), which raises ValueError, not JSONDecodeError
    fix = _spectrum_with_mode_one(tmp_path, lambda modes, entry: entry.update(n=7777777))
    fix.write_text(fix.read_text().replace("7777777", "1" + "0" * 4400))
    assert "not valid JSON" in _rejected_with_one_line(
        capsys, "string-modes", "--spectrum", str(fix))


@pytest.mark.parametrize("command", ["resolve", "string-modes"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    # json.load raises RecursionError, which is no ValueError, past the recursion limit
    src = tmp_path / "deep.json"
    src.write_text('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert "recursion" in _rejected_with_one_line(capsys, command, "--input", str(src))


def _spectrum_with_mode_one(tmp_path, change):
    """A spectrum fixture whose n = 1 mode entry is changed in place by change(modes, entry)."""
    fix = tmp_path / "s.json"
    assert run("gen-fixture", "--kind", "spectrum", "--seed", "4", "--output", str(fix)) == 0
    obj = json.loads(fix.read_text())
    change(obj["modes"], next(t for t in obj["modes"] if t["n"] == 1))
    fix.write_text(json.dumps(obj))
    return fix


@pytest.mark.parametrize("index", [1.5, "1", True])
def test_string_modes_non_integer_mode_index_exits_2(tmp_path, capsys, index):
    # int() would read each of these as mode 1, the entry's own index
    fix = _spectrum_with_mode_one(tmp_path, lambda modes, entry: entry.update(n=index))
    err = _rejected_with_one_line(capsys, "string-modes", "--spectrum", str(fix))
    assert "mode index must be an integer" in err


@pytest.mark.parametrize("edit", [{"hbar": True, "ell": "2"}, {"ell": "2"}, {"hbar": True},
                                  {"m": None}, {"m": [1.0]}])
def test_string_modes_non_number_constant_exits_2(tmp_path, capsys, edit):
    # float() would read true as 1 and "2" as 2
    fix = _spectrum_with_mode_one(tmp_path, lambda modes, entry: None)
    obj = json.loads(fix.read_text())
    obj.update(edit)
    fix.write_text(json.dumps(obj))
    err = _rejected_with_one_line(capsys, "string-modes", "--spectrum", str(fix))
    assert "must be a number" in err


@pytest.mark.parametrize("name, index, bad", [("K", (0, 0, 0), True), ("C0", (1, 1, 0), "0.5"),
                                              ("A of mode 1", (0, 1, 1), None)])
def test_string_modes_non_number_matrix_entry_exits_2(tmp_path, capsys, name, index, bad):
    # np.asarray(..., dtype=float) would read true as 1, "0.5" as 0.5 and null as NaN
    fix = _spectrum_with_mode_one(tmp_path, lambda modes, entry: None)
    obj = json.loads(fix.read_text())
    matrix = next(t for t in obj["modes"] if t["n"] == 1)["A"] if name == "A of mode 1" else obj[name]
    i, j, part = index
    matrix[i][j][part] = bad
    fix.write_text(json.dumps(obj))
    err = _rejected_with_one_line(capsys, "string-modes", "--spectrum", str(fix))
    assert f"{name} must hold real numbers, got {bad!r}" in err


def test_string_modes_repeated_mode_index_exits_2(tmp_path, capsys):
    fix = _spectrum_with_mode_one(tmp_path, lambda modes, entry: modes.append(dict(entry)))
    assert "mode index 1 is listed twice" in _rejected_with_one_line(
        capsys, "string-modes", "--spectrum", str(fix))


@pytest.mark.parametrize("n", [1.0, True, "1", None])
def test_resolve_non_integer_declared_n_exits_2(tmp_path, capsys, n):
    # 1.0 == 1 and true == 1, so a size test alone would take the first two as n = 1
    src = tmp_path / "h.json"
    src.write_text(json.dumps({"n": n, "entries": [[[1, 0, 0, 0, 0, 0, 0, 0]]]}))
    err = _rejected_with_one_line(capsys, "resolve", "--input", str(src))
    assert f"declared n must be an integer, got {n!r}" in err


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj.pop("K"), "spectrum has no 'K'"),
    (lambda obj: obj.pop("C0"), "spectrum has no 'C0'"),
    (lambda obj: next(t for t in obj["modes"] if t["n"] == 1).pop("A"), "mode 1 has no 'A'"),
    (lambda obj: obj["modes"][0].pop("n"), "modes[0] has no 'n'"),
    (lambda obj: obj.update(modes={"n": 1}), "modes must be a list of objects, not dict"),
    (lambda obj: obj.update(modes=None), "modes must be a list of objects, not NoneType"),
    (lambda obj: obj["modes"].append(1), "must be an object, not int"),
], ids=["no K", "no C0", "no A", "no n", "modes object", "modes null", "mode not object"])
def test_string_modes_malformed_spectrum_names_what_is_wrong(tmp_path, capsys, edit, message):
    # a KeyError's text is the bare key ('K'), and the TypeError of iterating a
    # dict or None names neither the key nor the field
    fix = _spectrum_with_mode_one(tmp_path, lambda modes, entry: None)
    obj = json.loads(fix.read_text())
    edit(obj)
    fix.write_text(json.dumps(obj))
    assert message in _rejected_with_one_line(capsys, "string-modes", "--spectrum", str(fix))


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
# `lorentz-check --seed s --trials n --nest-depth d` reports on stdout.  Their
# residuals are round-off, so these pin the order in which every product and
# residual is summed, on this numpy and BLAS.  The last three lorentz-check
# pins cover the depth cap (blocks of one trial), three blocks of 341 trials
# plus a short one, and two blocks of 1024 trials plus a short one
OCTONION_CHECK_DIGESTS = {
    (0, 2000): "c5363aa4ce0cb475", (0, 2049): "d4e26340c5d6e210",
    (7, 2000): "599eda1385c2b2e0", (7, 2049): "ed09f64ef3ba534f",
}
LORENTZ_CHECK_DIGESTS = {
    (0, 100, 1): "ac513d43fd0fba8f", (0, 100, 5): "e9a023f39d6a9c1d",
    (0, 100, 64): "193f21f28f5afccc", (7, 100, 1): "b917bb0f134f5bef",
    (7, 100, 5): "df7cf25dd22487a6", (7, 100, 64): "9cfd01d699247df9",
    (0, 2, 1024): "26135909ebc476f5", (7, 1025, 3): "734eedfff624810d",
    (0, 2049, 1): "ab2d666e7f9e8d07",
}


@pytest.mark.parametrize("seed, trials", sorted(OCTONION_CHECK_DIGESTS))
def test_octonion_check_bytes_are_pinned(capsys, seed, trials):
    assert run("octonion-check", "--seed", str(seed), "--trials", str(trials)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == OCTONION_CHECK_DIGESTS[seed, trials]


# the 100-trial pins keep their seed-depth test ids
@pytest.mark.parametrize("seed, trials, depth", sorted(LORENTZ_CHECK_DIGESTS), ids=[
    f"{s}-{d}" if n == 100 else f"{s}-{n}-{d}" for s, n, d in sorted(LORENTZ_CHECK_DIGESTS)])
def test_lorentz_check_bytes_are_pinned(capsys, seed, trials, depth):
    assert run("lorentz-check", "--seed", str(seed), "--trials", str(trials),
               "--nest-depth", str(depth)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == LORENTZ_CHECK_DIGESTS[seed, trials, depth]


def test_lorentz_check_keeps_nan_residual(monkeypatch, capsys):
    monkeypatch.setattr(lorentz, "compatibility_residual", lambda s, v: float("nan"))
    assert run("lorentz-check", "--seed", "2", "--trials", "3") == 3
    rep = strict_json(capsys.readouterr().out)
    assert rep["checks"]["compatibility"]["max_residual"] is None
    assert rep["checks"]["compatibility"]["pass"] is False
    assert rep["max_compat_residual"] is None
    assert rep["checks"]["det"]["pass"] is True
    assert rep["overall_pass"] is False


def _oracle_factor(kind, t, direction):
    if kind == 3:
        return lorentz.reflection_factor()
    g = (lorentz.boost_generator() if kind == 0
         else lorentz.rotation_generator(direction) if kind == 1
         else lorentz.phase_generator(1 + direction))
    return lorentz.make_factor(g, t)


def _lorentz_check_oracle(seed, trials, nest_depth):
    """The sweep's residuals, one trial and one factor at a time, from the
    sweep's draws: per block of MAX_NEST_DEPTH // nest_depth trials, the
    depths, then the kinds, t and directions of every (level, trial) slot,
    then each trial's 58 point and spinor values."""
    rng = np.random.default_rng(seed)
    worst = {"det": 0.0, "compatibility": 0.0, "contraction": 0.0}
    per_block = max(1, lorentz.MAX_NEST_DEPTH // nest_depth)
    for start in range(0, trials, per_block):
        m = min(per_block, trials - start)
        depths = 1 + rng.integers(nest_depth, size=m)
        kinds = rng.integers(4, size=(nest_depth, m))
        ts = rng.uniform(-1.0, 1.0, (nest_depth, m))
        directions = rng.integers(np.where(kinds == 1, 8, 7))
        rows = rng.uniform(-1.0, 1.0, (m, 58))
        for i in range(m):
            factors = [_oracle_factor(int(kinds[j, i]), float(ts[j, i]), int(directions[j, i]))
                       for j in range(depths[i])]
            x = OctHermitian.from_json({"a": rows[i, 0], "c": rows[i, 1:9].tolist(),
                                        "b": rows[i, 9]})
            moved = lorentz.act_vector(np.stack(factors), x.data)
            a, b, c = moved[0, 0, 0], moved[1, 1, 0], moved[0, 1]
            scale = max(1.0, abs(a * b) + float(c @ c))
            worst["det"] = max(worst["det"], abs(det2(moved) - det2(x.data)) / scale)
            v, chi, psi = rows[i, 10:].reshape(3, 2, 8)
            for f in factors:
                worst["compatibility"] = max(worst["compatibility"],
                                             lorentz.compatibility_residual(f, v))
                worst["contraction"] = max(worst["contraction"],
                                           lorentz.contraction_residual(f, chi, psi))
    mixed = omat_mul(lorentz.make_factor(lorentz.rotation_generator(1), 0.8),
                     lorentz.make_factor(lorentz.phase_generator(2), 0.9))
    worst["mixed_control"] = lorentz.compatibility_residual(mixed, random_spinor(rng))
    return worst


@pytest.mark.parametrize("trials, depth", [
    (1, 1), (7, 2), (37, 5), (lorentz.MAX_NEST_DEPTH // 2 + 3, 2), (3, 200),
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
    """With blocks of 8 factor slots and the depth cap at 8, as at 1024, no
    make_factor call gets more than a block's slots, and the sweep still
    matches the per-trial oracle."""
    monkeypatch.setattr(lorentz, "MAX_NEST_DEPTH", 8)
    slots = []
    make_factor = lorentz.make_factor

    def counted(generator, t):
        slots.append(int(np.prod(np.broadcast_shapes(generator.shape[:-3], np.shape(t)))))
        return make_factor(generator, t)

    monkeypatch.setattr(lorentz, "make_factor", counted)
    for trials, depth in ((5, 8), (7, 3), (9, 1)):
        slots.clear()
        assert run("lorentz-check", "--seed", "4", "--trials", str(trials),
                   "--nest-depth", str(depth)) == 0
        assert slots and max(slots) <= 8
        checks = strict_json(capsys.readouterr().out)["checks"]
        for name, expected in _lorentz_check_oracle(4, trials, depth).items():
            assert abs(checks[name]["max_residual"] - expected) <= 2e-15, name


def test_lorentz_check_draws_a_full_block_in_its_layout():
    """One block of 128 trials at depth 8: every generator index appears,
    padding starts exactly at each trial's depth, and only padding and
    reflection slots have t = 0."""
    rng = np.random.default_rng(0)
    depths = 1 + np.random.default_rng(0).integers(8, size=128)  # the block's first draw
    index, t, points, spinors = lorentz._draw_trials(rng, 128, 8)
    assert index.shape == t.shape == (8, 128) and lorentz.MAX_NEST_DEPTH == index.size
    assert points.shape == (128, 2, 2, 8) and spinors.shape == (3, 128, 2, 8)
    assert set(np.unique(index)) == set(range(16)) | {lorentz._PAD, lorentz._REFLECT}
    assert np.array_equal(index == lorentz._PAD, np.arange(8)[:, None] >= depths)
    fixed = (index == lorentz._PAD) | (index == lorentz._REFLECT)
    assert np.all(t[fixed] == 0.0)
    assert np.all((np.abs(t[~fixed]) > 0.0) & (np.abs(t[~fixed]) < 1.0))


def test_lorentz_check_runs_at_the_depth_cap(capsys):
    assert run("lorentz-check", "--seed", "0", "--trials", "1",
               "--nest-depth", str(lorentz.MAX_NEST_DEPTH)) == 0
    assert strict_json(capsys.readouterr().out)["config"]["nest_depth"] == lorentz.MAX_NEST_DEPTH


@pytest.mark.parametrize("argv, cap, builder", [
    (("lorentz-check", "--trials", "1", "--report", "{out}", "--nest-depth"),
     lorentz.MAX_NEST_DEPTH, "_draw_trials"),
    (("gen-fixture", "--kind", "hermitian", "--output", "{out}", "--n"),
     cli.MAX_FIXTURE_N, "random_hermitian"),
])
def test_size_flag_above_its_cap_exits_2_before_allocating(tmp_path, capsys, monkeypatch,
                                                           argv, cap, builder):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{builder} called above the cap")

    monkeypatch.setattr({"_draw_trials": lorentz, "random_hermitian": cli}[builder], builder, refuse)
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
    """contraction_residual takes each factor's det sign from lorentz's one
    determinant; forced to +1, only the reflections' contraction fails."""
    signed_det = lorentz._det

    def unsigned_det(s):
        d = signed_det(s)
        d[..., 0] = np.abs(d[..., 0])
        return d

    monkeypatch.setattr(lorentz, "_det", unsigned_det)
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
    # hbar^2 overflows in the closure, su2 and tensor brackets; the canonical
    # and mixed gaps, of degree 1 in hbar, still cancel exactly
    for name in ("closure", "su2", "tensor"):
        assert rep["checks"][name] == {
            "max_residual": None, "tolerance": 1e-10, "trials": 1, "pass": False,
        }
    for name in ("canonical", "mixed", "roundtrip"):
        assert rep["checks"][name]["max_residual"] == 0.0
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
    exact = quantum_rep.m0_matrices

    def with_nan(a_ops, k_ops):
        m0, m0d = exact(a_ops, k_ops)
        m0 = m0.copy()
        m0[0, 0] = np.nan  # M0_(11)'s monomial 1, which the closure brackets read
        return m0, m0d

    monkeypatch.setattr(quantum_rep, "m0_matrices", with_nan)
    assert run("quantum-check", "--degree", "3") == 3
    checks = strict_json(capsys.readouterr().out)["checks"]
    assert checks["closure"] == {
        "max_residual": None, "tolerance": 1e-10, "trials": 1, "pass": False,
    }
    assert checks["canonical"]["pass"] is True


@pytest.mark.parametrize("name, unit, failed", [
    # kj = jk: {A, K} turns into i {Q, R}, and M0 = i K A picks up a factor -1
    ("_KJ", 1j, {"closure": 8.0, "jz_integrality": 1.0, "mixed": 2.0, "su2": 1.0,
                 "tensor": 1.0}),
    # jk = kj = -i: the same anticommutator times -1, and M0dag flips sign
    ("_JK", -1j, {"jz_integrality": 1.0, "mixed": 2.0, "su2": 1.0, "tensor": 1.0}),
], ids=["commuting-kj", "commuting-jk"])
def test_quantum_check_trips_on_a_wrong_quaternion_unit(monkeypatch, capsys, name, unit, failed):
    monkeypatch.setattr(quantum_rep, name, unit)
    assert run("quantum-check", "--degree", "3") == 3
    checks = strict_json(capsys.readouterr().out)["checks"]
    assert {k: c["max_residual"] for k, c in checks.items() if not c["pass"]} == failed


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


# -- heap policy -----------------------------------------------------------------


class _Libc:
    """A stand-in C library whose mallopt records its calls and returns answer."""

    def __init__(self, answer):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return answer

        self.mallopt = mallopt


def _no_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("library", [_no_library, lambda name: object()],
                         ids=["unloadable", "no-mallopt"])
def test_heap_policy_does_nothing_without_mallopt(monkeypatch, library):
    monkeypatch.setattr(cli.ctypes, "CDLL", library)
    cli._keep_heap_resident.__wrapped__()  # returns quietly


@pytest.mark.parametrize("answer", [0, 1])
def test_heap_policy_sets_both_thresholds_or_neither(monkeypatch, answer):
    libc = _Libc(answer)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._keep_heap_resident.__wrapped__()
    both = [(cli._M_MMAP_THRESHOLD, cli._MMAP_THRESHOLD), (cli._M_TRIM_THRESHOLD, cli._TRIM_THRESHOLD)]
    assert libc.calls == both[:1 + answer]  # a refused mmap threshold sets no trim threshold


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


_WARM_JOB_FAULTS = """
import json, resource, sys
from cliffstring import cli

def faults(command, *argv):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main([command, *argv, "--report", "r.json"]) == 0
    return command, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

octonion = ("octonion-check", "--trials", "2000", "--seed")
lorentz = ("lorentz-check", "--trials", "100", "--nest-depth", "5", "--seed")
faults(*octonion, "0")
faults(*lorentz, "0")
print(json.dumps([faults(*job, str(seed)) for seed in (1, 2, 3) for job in (octonion, lorentz)]))
"""


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_warm_algebra_jobs_fault_no_fresh_heap(tmp_path):
    """After a warm-up, octonion-check and lorentz-check jobs in one process
    reuse the heap their predecessors left, instead of faulting it in again."""
    env = dict(_module_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _WARM_JOB_FAULTS], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    jobs = json.loads(out.stdout)
    assert len(jobs) == 6 and max(count for _, count in jobs) <= 32, jobs


_EVERY_SUBCOMMAND = """
import contextlib, io, json, sys
from cliffstring import cli

assert cli._keep_heap_resident.cache_info().currsize == 0  # import sets no policy
if sys.argv[1] == "off":
    cli._keep_heap_resident = lambda: None
jobs = [
    ["gen-fixture", "--kind", "hermitian", "--n", "16", "--seed", "3", "--output", "h.json"],
    ["gen-fixture", "--kind", "spectrum", "--seed", "1", "--output", "s.json"],
    ["gen-fixture", "--kind", "spinor", "--seed", "2"],
    ["octonion-check", "--trials", "2000", "--seed", "4"],
    ["lorentz-check", "--trials", "100", "--seed", "5", "--report", "l.json"],
    ["lorentz-check", "--trials", "20", "--seed", "6", "--tol.det", "1e-30"],
    ["resolve", "--input", "h.json"],
    ["string-modes", "--spectrum", "s.json", "--grid", "64", "--output", "g.csv"],
    ["quantum-check", "--degree", "5"],
    ["redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "0.01", "--p", "2"],
    ["redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "0.01"],
]
results = []
for argv in jobs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_report_bytes_do_not_depend_on_the_heap_policy(tmp_path):
    """One job of each subcommand, with and without the heap policy, in two processes."""
    runs = {}
    for policy in ("on", "off"):
        (tmp_path / policy).mkdir()
        runs[policy] = subprocess.Popen([sys.executable, "-c", _EVERY_SUBCOMMAND, policy],
                                        cwd=tmp_path / policy, env=_module_env(),
                                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    outs = {policy: proc.communicate(timeout=120) + (proc.returncode,)
            for policy, proc in runs.items()}
    assert outs["on"][1:] == ("", 0), outs["on"][1]
    assert outs["on"] == outs["off"]
    codes = [code for _, code, _, _ in json.loads(outs["on"][0])]
    assert codes == [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 2]
    files = {policy: {p.name: p.read_bytes() for p in (tmp_path / policy).iterdir()}
             for policy in runs}
    assert sorted(files["on"]) == ["g.csv", "h.json", "l.json", "s.json"]
    assert files["on"] == files["off"]
