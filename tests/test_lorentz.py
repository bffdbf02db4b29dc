import numpy as np
import pytest

from cliffstring.fixtures import random_hermitian, random_spinor
from cliffstring.lorentz import (
    MixedSubspaceError,
    NestedTransform,
    act_spinor,
    act_vector,
    boost_generator,
    compatibility_residual,
    contraction_residual,
    cospinor_map,
    factor_from_matrix,
    kinetic_density,
    kinetic_invariance_residual,
    make_factor,
    phase_generator,
    reflection_factor,
    rotation_generator,
    spinor_map,
)
from cliffstring.matrices import omat_mul
from cliffstring.minkowski import det2, matrix_to_vector, sigma_set, vector_to_matrix
from cliffstring.octonion import mul_arrays

rng = np.random.default_rng(777)


def contraction_value(chi, psi):
    t = mul_arrays(chi[0].c, psi[0].c) + mul_arrays(chi[1].c, psi[1].c)
    return 2.0 * float(t[0])


def test_boost_changes_vector_but_keeps_det():
    s = sigma_set(10)
    f = make_factor(boost_generator(), 0.6)
    for _ in range(50):
        x = rng.uniform(-1, 1, 10)
        x_mat = vector_to_matrix(x, s)
        moved = act_vector(f, x_mat)
        back = matrix_to_vector(moved, s, tol=1e-9)
        assert abs(det2(moved, tol=1e-9) - det2(x_mat)) <= 1e-12
        assert np.max(np.abs(back - x)) > 1e-3  # it actually moved


def test_boost_is_standard_rapidity_map():
    f = make_factor(boost_generator(), 0.6)
    s = sigma_set(10)
    x = np.zeros(10)
    x[0] = 1.0
    moved = matrix_to_vector(act_vector(f, vector_to_matrix(x, s)), s)
    assert abs(moved[0] - np.cosh(0.6)) <= 1e-12
    assert abs(moved[1] - np.sinh(0.6)) <= 1e-12


def test_det_preserved_per_subspace_factors():
    """Phase and rotation factors in every imaginary direction preserve det2."""
    s = sigma_set(10)
    for k in range(1, 8):
        for gen in (phase_generator(k), rotation_generator(k)):
            f = make_factor(gen, float(rng.uniform(0.2, 1.0)))
            assert f.subspace == k
            for _ in range(20):
                x_mat = vector_to_matrix(rng.uniform(-1, 1, 10), s)
                assert abs(det2(act_vector(f, x_mat), tol=1e-9) - det2(x_mat)) <= 1e-10


def test_nested_transform_det_preserved():
    for _ in range(30):
        depth = 1 + int(rng.integers(5))
        factors = []
        for _ in range(depth):
            g = (boost_generator(), rotation_generator(int(rng.integers(8))),
                 phase_generator(1 + int(rng.integers(7))))[int(rng.integers(3))]
            factors.append(make_factor(g, float(rng.uniform(-1, 1))))
        x = random_hermitian(rng, 2)
        moved = act_vector(NestedTransform(factors), x)
        assert abs(det2(moved, tol=1e-6) - det2(x)) <= 1e-10


def test_nesting_is_sequential_application():
    f1 = make_factor(phase_generator(3), 0.4)
    f2 = make_factor(rotation_generator(5), -0.7)
    x = random_hermitian(rng, 2)
    nested = act_vector(NestedTransform([f1, f2]), x)
    stepwise = act_vector(f2, act_vector(f1, x))
    assert np.max(np.abs(nested.data - stepwise.data)) == 0.0


def test_reflection_factor_flips_space_direction():
    s = sigma_set(10)
    f = reflection_factor()
    assert f.det == -1.0
    x = rng.uniform(-1, 1, 10)
    moved = matrix_to_vector(act_vector(f, vector_to_matrix(x, s)), s)
    assert abs(moved[0] - x[0]) <= 1e-12
    assert abs(det2(act_vector(f, vector_to_matrix(x, s))) - det2(vector_to_matrix(x, s))) <= 1e-12


def test_compatibility_valid_factors():
    """(Sv)(Sv)+ equals (S v v+) S+ for single-subspace factors."""
    for k in range(1, 8):
        f = make_factor(phase_generator(k), float(rng.uniform(-1, 1)))
        for _ in range(10):
            assert compatibility_residual(f.s, random_spinor(rng)) <= 1e-10
    f = make_factor(boost_generator(), 0.9)
    assert compatibility_residual(f.s, random_spinor(rng)) <= 1e-10


def test_compatibility_mixed_subspace_control():
    """A two-subspace product matrix used as one factor visibly fails."""
    f1 = make_factor(rotation_generator(1), 0.8)
    f2 = make_factor(phase_generator(2), 0.9)
    mixed = omat_mul(f1.s, f2.s)
    residuals = [compatibility_residual(mixed, random_spinor(rng)) for _ in range(10)]
    assert max(residuals) > 0.1


def test_factor_from_matrix_rejects_mixed_subspace():
    f1 = make_factor(rotation_generator(1), 0.8)
    f2 = make_factor(phase_generator(2), 0.9)
    with pytest.raises(MixedSubspaceError):
        factor_from_matrix(omat_mul(f1.s, f2.s))


def test_contraction_scales_by_det():
    for _ in range(40):
        g = (boost_generator(), rotation_generator(int(rng.integers(8))),
             phase_generator(1 + int(rng.integers(7))))[int(rng.integers(3))]
        f = make_factor(g, float(rng.uniform(-1, 1)))
        chi, psi = random_spinor(rng), random_spinor(rng)
        assert f.det == 1.0
        assert contraction_residual(f, chi, psi) <= 1e-10


def test_contraction_sign_flip_under_reflection():
    f = reflection_factor()
    for _ in range(40):
        chi, psi = random_spinor(rng), random_spinor(rng)
        before = contraction_value(chi, psi)
        after = contraction_value(spinor_map(f.s, chi), cospinor_map(f.s, psi))
        assert abs(after + before) <= 1e-12  # det = -1 flips the sign
        assert contraction_residual(f, chi, psi) <= 1e-12


def test_spinor_action_matches_raw_map():
    from cliffstring.clifford import TensorVector
    from cliffstring.octonion import Octonion

    f = make_factor(phase_generator(4), 0.5)
    pair = random_spinor(rng)
    c = (
        TensorVector(1, {("E", 1): pair[0]}),
        TensorVector(1, {("E", 1): pair[1]}),
    )
    moved = act_spinor(f, c)
    raw = spinor_map(f.s, pair)
    for comp in range(2):
        assert np.max(np.abs(moved[comp].terms[("E", 1)].c - raw[comp].c)) <= 1e-14


def test_kinetic_density_invariance():
    for _ in range(20):
        f = make_factor(phase_generator(1 + int(rng.integers(7))), float(rng.uniform(-1, 1)))
        dc = [random_spinor(rng), random_spinor(rng)]
        dstar = [random_spinor(rng), random_spinor(rng)]
        assert kinetic_invariance_residual(f, dc, dstar) <= 1e-10
    f = reflection_factor()
    dc = [random_spinor(rng), random_spinor(rng)]
    dstar = [random_spinor(rng), random_spinor(rng)]
    assert kinetic_invariance_residual(f, dc, dstar) <= 1e-10
    assert kinetic_density(dc, dstar) != 0.0


def test_make_factor_requires_traceless_single_subspace():
    g = np.zeros((2, 2, 8))
    g[0, 0, 0] = 1.0  # trace 2, not traceless
    g[1, 1, 0] = 1.0
    with pytest.raises(ValueError):
        make_factor(g, 0.5)
    g2 = rotation_generator(1) + phase_generator(2)
    with pytest.raises(MixedSubspaceError):
        make_factor(g2, 0.5)