"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass/fail line under `pytest -v`; tolerances and
trial counts are pinned and must not be loosened.
"""

import itertools
import time

import numpy as np

from cliffstring import cli
from cliffstring.clifford import cliff_inner, gram_matrix
from cliffstring.fixtures import (
    random_degenerate_hermitian,
    random_hermitian,
    random_spectrum,
    random_spinor,
)
from cliffstring.lorentz import (
    act_vector,
    boost_generator,
    compatibility_residual,
    contraction_residual,
    cospinor_map,
    make_factor,
    phase_generator,
    reflection_factor,
    rotation_generator,
    spinor_map,
)
from cliffstring.matrices import OctHermitian, omat_mul
from cliffstring.minkowski import det2, matrix_to_vector, sigma_set, vector_to_matrix
from cliffstring.octonion import Octonion, alternativity_check, mul_arrays
from cliffstring.quantum_rep import (
    build_canonical,
    canonical_residual,
    integrality_residual,
    jz_spectrum,
    lorentz_closure_residual,
    m0_matrices,
    mixed_algebra_residual,
    quaternion_pairs,
)
from cliffstring.resolve import (
    reconstruction_residual,
    resolve_hermitian,
    resolve_spacetime,
)
from cliffstring.string_modes import (
    charge_density_coefficients,
    charge_quadrature,
    divergence_residual,
    emission_bound,
    endpoint_flux,
    eom_residual,
    redshift,
)
from cliffstring.string_modes import coordinates


def test_01_octonion_identities_hold_at_scale():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_norm = worst_alt = worst_conj = 0.0
    for _ in range(10_000):
        a, b = Octonion(rng.uniform(-1, 1, 8)), Octonion(rng.uniform(-1, 1, 8))
        na, nb = a.norm(), b.norm()
        ab = a * b
        worst_norm = max(worst_norm, abs(ab.norm() - na * nb) / (na * nb))
        worst_alt = max(
            worst_alt, alternativity_check(a.c, b.c) / (max(na, nb) ** 2 * min(na, nb))
        )
        worst_conj = max(
            worst_conj, (ab.conj() - b.conj() * a.conj()).norm() / (na * nb)
        )
    elapsed = time.monotonic() - start
    e1, e2, e4 = Octonion.unit(1), Octonion.unit(2), Octonion.unit(4)
    witness = ((e1 * e2) * e4 - e1 * (e2 * e4)).norm()
    assert worst_norm <= 1e-12
    assert worst_alt <= 1e-12
    assert worst_conj <= 1e-12
    assert abs(witness - 2.0) <= 1e-12  # associativity would force 0
    assert elapsed < 5.0


def test_02_hermitian_resolution_reconstructs_to_1e10():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    degenerates = 0
    for trial in range(200):
        n = 1 + trial % 6
        if trial % 5 == 4 and n >= 2:
            h = random_degenerate_hermitian(rng, n)
            degenerates += 1
        else:
            h = random_hermitian(rng, n)
        worst = max(worst, reconstruction_residual(resolve_hermitian(h), h))
    elapsed = time.monotonic() - start
    assert degenerates >= 30
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_03_spacetime_roundtrip_and_isotropy():
    rng = np.random.default_rng(303)
    s = sigma_set(4)
    worst_round = worst_iso = 0.0
    for _ in range(1000):
        x = rng.uniform(-1, 1, 4)
        c1, c2, _ = resolve_spacetime(x)
        back = matrix_to_vector(gram_matrix([c1, c2]), s)
        worst_round = max(worst_round, float(np.max(np.abs(back - x))))
        for u in (c1, c2):
            for v in (c1, c2):
                worst_iso = max(worst_iso, np.linalg.norm(cliff_inner(u, v)))
    assert worst_round <= 1e-12
    assert worst_iso <= 1e-12


def test_04_nested_lorentz_transforms_preserve_invariants():
    rng = np.random.default_rng(404)
    s10 = sigma_set(10)
    eta = np.diag([1.0] + [-1.0] * 9)
    seen = set()
    worst_det = worst_norm = worst_compat = worst_contr = 0.0
    for trial in range(30):
        depth = 1 + trial % 5
        factors = []
        for j in range(depth):
            k = 1 + (trial + j) % 7
            kind = (trial + j) % 4
            t = float(rng.uniform(-1, 1))
            if kind == 0:
                factors.append(make_factor(boost_generator(), t))
            elif kind == 1:
                factors.append(make_factor(rotation_generator(k), t))
                seen.add(k)
            elif kind == 2:
                factors.append(make_factor(phase_generator(k), t))
                seen.add(k)
            else:
                factors.append(reflection_factor())
        x = rng.uniform(-1, 1, 10)
        y = vector_to_matrix(x, s10)
        before = det2(y.data)
        for f in factors:
            y = OctHermitian(act_vector(f[None], y.data), validate=False)
            worst_compat = max(worst_compat, compatibility_residual(f, random_spinor(rng)))
            worst_contr = max(
                worst_contr,
                contraction_residual(f, random_spinor(rng), random_spinor(rng)),
            )
        worst_det = max(worst_det, abs(det2(y.data) - before))
        x_back = matrix_to_vector(y, s10)
        worst_norm = max(worst_norm, abs(x_back @ eta @ x_back - x @ eta @ x))
    assert seen == {1, 2, 3, 4, 5, 6, 7}
    assert worst_det <= 1e-10
    assert worst_norm <= 1e-10
    assert worst_compat <= 1e-10
    assert worst_contr <= 1e-10
    # a product straddling two imaginary subspaces must be rejected loudly
    mixed = omat_mul(
        make_factor(rotation_generator(1), 0.8),
        make_factor(phase_generator(2), 0.9),
    )
    assert compatibility_residual(mixed, random_spinor(rng)) > 0.1
    # det = -1 flips the sign of the real spinor contraction
    refl = reflection_factor()
    chi, psi = random_spinor(rng), random_spinor(rng)
    def contraction(c, p):
        t = mul_arrays(c[0], p[0]) + mul_arrays(c[1], p[1])
        return 2.0 * float(t[0])
    flipped = contraction(spinor_map(refl, chi), cospinor_map(refl, psi))
    assert abs(flipped + contraction(chi, psi)) <= 1e-10


def test_05_string_currents_charges_and_waves():
    ms = random_spectrum(np.random.default_rng(505), max_mode=3)
    points = [(t, s) for t in (0.3, 0.9, 1.7) for s in (0.35, 1.1, 2.2, 2.9)]
    div_h = divergence_residual(ms, points, h=1e-3)
    div_2h = divergence_residual(ms, points, h=2e-3)
    assert abs(div_2h / div_h - 4.0) <= 0.5  # second-order convergence
    assert endpoint_flux(ms, (0.3, 0.9, 1.7)) <= 1e-12
    m0 = charge_density_coefficients(ms)[0]
    for tau in (0.0, 0.7, 1.9):
        assert np.max(np.abs(charge_quadrature(ms, tau) - m0)) <= 1e-8
    eom_h = eom_residual(ms, points, h=1e-3)
    eom_2h = eom_residual(ms, points, h=2e-3)
    assert abs(eom_2h / eom_h - 4.0) <= 0.5
    for tau, sigma in points:
        gap = coordinates(ms, tau, sigma) - coordinates(ms, tau, -sigma)
        assert np.max(np.abs(gap)) <= 1e-8


def test_06_polynomial_operator_algebra_closes(dense):
    start = time.monotonic()
    pairs = build_canonical(degree=6, hbar=1.0)
    space = pairs.space
    safe = space.safe_columns()
    a_ops, k_ops = quaternion_pairs(pairs)
    assert canonical_residual(pairs) <= 1e-10
    assert mixed_algebra_residual(a_ops, k_ops, space, 1.0) <= 1e-10
    m0, m0d = m0_matrices(a_ops, k_ops)
    assert lorentz_closure_residual(m0, m0d, space, 1.0) <= 1e-10
    dim = space.dim
    m0, m0d = (dense(m, space).reshape(2, 2, dim, dim) for m in (m0, m0d))
    worst_cross = 0.0
    for a in range(2):
        for b in range(2):
            for e in range(2):
                for f in range(2):
                    cross = m0[a, b] @ m0d[e, f] - m0d[e, f] @ m0[a, b]
                    worst_cross = max(worst_cross, float(np.max(np.abs(cross[:, safe]))))
    assert worst_cross <= 1e-10
    for degree in (2, 3, 4):
        assert integrality_residual(jz_spectrum(degree, hbar=1.0)) <= 1e-9
    assert time.monotonic() - start < 30.0


def test_07_redshift_values_and_emission_bound():
    assert redshift(3.7, 3.7) == 0.0
    assert redshift(1.0, 4.0) == 1.0
    assert redshift(0.5, 2.0) == 1.0
    dt = 0.02
    for z in (0.001, 0.005, 0.01):
        for p in (0.5, 1.0, 2.0):
            linear = dt / (2.0 * p * z)
            assert abs(emission_bound(dt, p, z) - linear) <= 0.01 * linear


def test_08_cli_reports_are_byte_identical(tmp_path):
    tags = itertools.count()

    def twice(*argv_tail, out_flag="--report"):
        tag = next(tags)
        p1, p2 = tmp_path / f"run{tag}a.out", tmp_path / f"run{tag}b.out"
        assert cli.main(list(argv_tail) + [out_flag, str(p1)]) == 0
        assert cli.main(list(argv_tail) + [out_flag, str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        return p1

    fix = twice("gen-fixture", "--kind", "hermitian", "--n", "3", "--seed", "21",
                out_flag="--output")
    modes = twice("gen-fixture", "--kind", "spectrum", "--seed", "7",
                  out_flag="--output")
    twice("gen-fixture", "--kind", "spinor", "--seed", "9", out_flag="--output")
    twice("resolve", "--input", str(fix), out_flag="--output")
    twice("octonion-check", "--seed", "5", "--trials", "300")
    twice("lorentz-check", "--seed", "5", "--trials", "3")
    twice("string-modes", "--spectrum", str(modes))
    twice("string-modes", "--spectrum", str(modes), "--grid", "8", out_flag="--output")
    twice("quantum-check", "--degree", "3")
    twice("redshift", "--t-emit", "1", "--t-obsv", "4", "--dt", "0.01", "--p", "2")
